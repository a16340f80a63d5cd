"""Baselines the Grid-Federation is compared against.

* :mod:`repro.baselines.broadcast` — a sender-initiated broadcast
  superscheduler in the style of the NASA superscheduler (Shan et al.): the
  origin GFA broadcasts its resource enquiry to every other GFA and picks the
  minimum turnaround candidate.  Used by Ablation A to contrast its O(n)
  per-job message cost with the directory-ranked Grid-Federation approach.
* :mod:`repro.baselines.catalogue` — the qualitative comparison of related
  superscheduling systems reproduced from Table 4.

The independent-resource and federation-without-economy baselines are the
Experiment 1 and 2 drivers in :mod:`repro.experiments`.
"""

from repro.baselines.broadcast import BroadcastGFA
from repro.baselines.catalogue import RELATED_SYSTEMS, RelatedSystem, related_systems_rows

__all__ = [
    "BroadcastGFA",
    "RELATED_SYSTEMS",
    "RelatedSystem",
    "related_systems_rows",
]
