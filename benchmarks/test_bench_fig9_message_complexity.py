"""Figure 9 — remote / local / total message complexity per population profile.

Paper shape: under 100 % OFC the cheapest clusters (LANL Origin, then LANL
CM5) receive the most remote messages; under 100 % OFT the fastest (NASA
iPSC, then SDSC SP2) do; and the total message count grows roughly linearly
with the OFT share (OFT populations generate noticeably more traffic than
OFC ones).
"""

from __future__ import annotations

from repro.experiments import economy_profile_scenario
from repro.experiments.exp4_messages import message_complexity_rows
from repro.metrics.report import render_table
from repro.scenario import run_scenario


def test_bench_fig9_message_complexity(benchmark, bench_sweep):
    benchmark.pedantic(
        lambda: run_scenario(economy_profile_scenario(50, seed=42, thin=12)),
        rounds=1,
        iterations=1,
    )

    headers, rows, totals = message_complexity_rows(bench_sweep)
    print()
    print(render_table(headers, rows, title="Figure 9(a,b) — remote and local messages per GFA"))
    print(
        render_table(
            ["OFT %", "Total messages"],
            [[k, v] for k, v in sorted(totals.items())],
            title="Figure 9(c) — total messages vs population profile",
        )
    )

    # Shape 1: remote-message traffic follows the ranking criterion — the
    # cheapest cluster (LANL Origin) is contacted more under all-OFC than under
    # all-OFT, and the fastest (NASA iPSC) more under all-OFT than all-OFC.
    ofc_log, oft_log = bench_sweep[0].message_log, bench_sweep[100].message_log
    assert ofc_log.remote_messages("LANL Origin") >= oft_log.remote_messages("LANL Origin")
    assert oft_log.remote_messages("NASA iPSC") >= ofc_log.remote_messages("NASA iPSC")
    ofc_counters = {n: ofc_log.remote_messages(n) for n in bench_sweep[0].resource_names()}
    assert max(ofc_counters, key=ofc_counters.get) in ("LANL Origin", "LANL CM5", "SDSC Par96")
    # Shape 2: an all-OFT population generates more messages than an all-OFC one.
    assert totals[100] > totals[0]
    benchmark.extra_info["total_messages_by_profile"] = {str(k): v for k, v in totals.items()}
