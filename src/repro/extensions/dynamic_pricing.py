"""Demand-driven dynamic pricing (Ablation B).

The paper keeps every quote static for the whole simulation and flags
supply/demand-driven pricing as future work (Section 2.4).  This extension
implements a simple commodity-market adjustment on top of the existing
machinery:

* a repricing controller wakes up every ``repricing_interval`` seconds,
* computes each resource's *demand share* — its fraction of all negotiation
  enquiries received since the previous repricing,
* updates the resource's quote through
  :class:`repro.economy.pricing.DemandDrivenPricingPolicy` (high demand raises
  the price, low demand lowers it, clamped to a factor band), and
* republishes the new quote in the federation directory so that subsequent
  OFC rankings and cost calculations see it.

Because quotes are re-published through the normal ``update_quote`` interface
and the GFAs always read prices from their (replaced) ``spec``, the rest of
the system is untouched — the DBC algorithm, admission control and the
GridBank settle against whatever price is current when a job completes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster.specs import ResourceSpec
from repro.core.federation import Federation, FederationConfig
from repro.core.gfa import GridFederationAgent
from repro.core.policies import SharingMode
from repro.economy.pricing import DemandDrivenPricingPolicy
from repro.workload.job import Job


class DynamicPricingFederation(Federation):
    """A Federation whose quotes track demand during the run.

    Parameters
    ----------
    specs, workload, config:
        As for :class:`repro.core.federation.Federation`.
    pricing_policy:
        The demand-driven policy used to adjust quotes.
    repricing_interval:
        Seconds between price updates (4 hours by default — a few updates per
        simulated day).
    """

    def __init__(
        self,
        specs: Sequence[ResourceSpec],
        workload: Mapping[str, Sequence[Job]],
        config: Optional[FederationConfig] = None,
        pricing_policy: Optional[DemandDrivenPricingPolicy] = None,
        repricing_interval: float = 4 * 3600.0,
        agent_class: type = GridFederationAgent,
    ):
        config = config or FederationConfig(mode=SharingMode.ECONOMY)
        if config.mode is not SharingMode.ECONOMY:
            raise ValueError("dynamic pricing only makes sense in economy mode")
        if repricing_interval <= 0:
            raise ValueError("repricing interval must be positive")
        super().__init__(specs, workload, config, agent_class=agent_class)
        self.pricing_policy = pricing_policy or DemandDrivenPricingPolicy()
        self.repricing_interval = repricing_interval
        self.price_history: Dict[str, List[float]] = {spec.name: [spec.price] for spec in specs}
        self._last_enquiries: Dict[str, int] = {spec.name: 0 for spec in specs}
        self.repricings = 0

    def start(self) -> None:
        """Schedule the repricing ticker ahead of the base event population.

        The ticker is scheduled *before* fault and submission events so it
        keeps the sequence numbers (and therefore same-timestamp delivery
        order) of the historical ``run()`` override byte-identical.
        """
        self.sim.schedule(self.repricing_interval, self._reprice)
        super().start()

    # ------------------------------------------------------------------ #
    # Repricing
    # ------------------------------------------------------------------ #
    def _reprice(self) -> None:
        enquiry_deltas: Dict[str, int] = {}
        for name, gfa in self.gfas.items():
            total = gfa.admission.enquiries
            enquiry_deltas[name] = total - self._last_enquiries[name]
            self._last_enquiries[name] = total
        total_enquiries = sum(enquiry_deltas.values())
        # The whole repricing tick is one same-timestamp quote-refresh storm:
        # batching it costs every open query session a single invalidation
        # instead of one per re-quoted cluster.
        with self.directory.batch_updates():
            for name, gfa in self.gfas.items():
                if not gfa.alive or not self.directory.is_subscribed(name):
                    # Crashed or departed clusters keep their last price; they
                    # re-enter the market (and repricing) once re-listed.
                    self.price_history[name].append(gfa.spec.price)
                    continue
                demand = enquiry_deltas[name] / total_enquiries if total_enquiries else 0.0
                new_price = self.pricing_policy.adjusted_price(gfa.spec.mips, demand)
                if abs(new_price - gfa.spec.price) > 1e-12:
                    new_spec = dataclasses.replace(gfa.spec, price=new_price)
                    gfa.spec = new_spec
                    gfa.lrms.spec = new_spec
                    self.directory.update_quote(name, new_spec)
                self.price_history[name].append(new_price)
        self.repricings += 1
        # Keep repricing until the event queue drains (the simulator stops
        # scheduling as soon as nothing else is pending and run() returns).
        if self.sim.pending > 0:
            self.sim.schedule(self.repricing_interval, self._reprice)

