"""Extensions implementing the paper's stated future work.

* :mod:`repro.extensions.dynamic_pricing` — demand-driven quote adjustment
  (Section 2.4 leaves supply/demand pricing as future work); Ablation B
  compares it against the static Eq. 5–6 quotes.
* :mod:`repro.extensions.coordination` — GFAs publish their expected queue
  wait into the federation directory and other GFAs prune hopeless candidates
  without a negotiation round trip (Section 2.3's proposed improvement);
  Ablation C measures the message savings.
"""

from repro.extensions.dynamic_pricing import DynamicPricingFederation
from repro.extensions.coordination import CoordinatedGFA

__all__ = [
    "DynamicPricingFederation",
    "CoordinatedGFA",
]
