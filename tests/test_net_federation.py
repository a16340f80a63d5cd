"""End-to-end tests for the message fabric inside full federation runs.

Three guarantees are pinned here:

1. **Byte-identity of the default path** — ``transport="uniform"``
   reproduces the golden fingerprints exactly (the transport changed *where*
   messages flow, never the results).
2. **Derived message accounting** — the Experiment 4/5 counts are recorded
   by the transport into its :class:`~repro.core.messages.MessageLog`.  The
   result fingerprint covers the per-GFA and per-job counts but no per-type
   count and no transport fault counter, so those are pinned here.
3. **WAN actually works** — ``--topology two-tier-wan`` completes every
   experiment shape with the full invariant suite clean, and is
   deterministic per seed.
"""

from __future__ import annotations

import pytest

from repro.core.messages import MessageType
from repro.metrics import network_summary
from repro.net.transport import TransportStats
from repro.scenario import Scenario, result_fingerprint, run_scenario
from repro.validate import assert_valid

# Rootdir-relative import: tests/ is a rootdir-inserted directory (no
# __init__.py), so the goldens module imports by its own name.
from test_golden_fingerprints import GOLDEN_FINGERPRINTS, GOLDEN_SCENARIOS


class TestDefaultPathByteIdentity:
    @pytest.mark.parametrize("name", ["exp2_federation", "exp4_messages"])
    def test_explicit_uniform_reproduces_goldens(self, name):
        """Spelling the default out must be the default: the golden digests
        hold with ``transport`` passed explicitly."""
        scenario = GOLDEN_SCENARIOS[name].replace(transport="uniform")
        result = run_scenario(scenario)
        assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name]

    def test_default_path_performs_no_network_perturbation(self):
        result = run_scenario(GOLDEN_SCENARIOS["exp2_federation"])
        net = result.network
        assert net is not None
        assert net.timeouts == 0
        assert net.link_losses == 0
        assert net.transit_losses == 0
        assert net.delayed_deliveries == 0
        assert net.latency_s == 0.0


class TestDerivedMessageAccounting:
    """Per-type counts and fault counters of the Experiment 4 shape, pinned
    to the values the previous two-structure accounting produced (a misfiled
    message type would pass every fingerprint)."""

    @staticmethod
    def _per_type(result):
        return [result.message_log.count_by_type(mtype) for mtype in MessageType]

    def test_exp4_per_type_counts(self):
        result = run_scenario(GOLDEN_SCENARIOS["exp4_messages"])
        # NEGOTIATE, REPLY, JOB_SUBMISSION, JOB_COMPLETION
        assert self._per_type(result) == [504, 504, 229, 229]
        assert result.message_log.total_messages == result.network.messages == 1466
        assert sum(job.messages for job in result.jobs) == 1466

    def test_exp4_chaos_per_type_counts_and_fault_counters(self):
        result = run_scenario(GOLDEN_SCENARIOS["exp4_messages"].replace(faults="chaos"))
        assert self._per_type(result) == [213, 203, 203, 198]
        assert result.message_log.total_messages == result.network.messages == 817
        assert result.network.timeouts == 10
        assert result.network.transit_losses == 5

    def test_directory_control_traffic_is_counted_but_separate(self):
        result = run_scenario(GOLDEN_SCENARIOS["exp2_federation"])
        net = result.network
        # Every subscribe and every query probe was accounted...
        assert net.control_by_kind.get("subscribe", 0) == 8
        assert net.control_by_kind.get("query", 0) == result.directory.query_count
        # ...without contaminating the paper's inter-GFA message totals.
        assert net.messages == result.message_log.total_messages

    def test_network_summary_reports_the_directory_total(self):
        result = run_scenario(GOLDEN_SCENARIOS["exp2_federation"])
        net = result.network
        summary = network_summary(result)
        assert summary["directory_messages"] == net.control_messages
        assert net.control_messages == sum(net.control_by_kind.values())
        assert summary["messages"] == net.messages
        assert set(summary) == {
            "messages",
            "volume_mb",
            "latency_s",
            "timeouts",
            "link_losses",
            "transit_losses",
            "delayed_deliveries",
            "directory_messages",
        }

    @pytest.mark.parametrize("faults", ["crash-recover", "churn", "chaos"])
    def test_membership_is_subscribes_less_unsubscribes(self, faults):
        """Under membership faults every quote is published and withdrawn
        through charged control messages: the directory ends the run with
        exactly the subscribe count less the unsubscribe count."""
        scenario = Scenario(workload="synthetic", thin=20, seed=42, faults=faults)
        result = run_scenario(scenario, validate=True)
        kinds = result.network.control_by_kind
        assert kinds.get("unsubscribe", 0) > 0
        assert kinds["subscribe"] - kinds["unsubscribe"] == len(result.directory)


class TestWanAccountingPinned:
    """Every ``TransportStats`` field, the directory's query totals and the
    per-type counts of WAN economy runs, compared with ``==`` (floats
    included).  The fingerprint hashes none of these, so a reordered float
    sum, a misbooked REPLY or a changed query charge would pass every
    digest.  The 32-cluster run with a chaos plan reaches window loss, link
    loss, transit loss and membership churn; the 128-cluster run is the
    benchmark's ``econ-wan-128`` shape, whose walks are deep (4.33 rounds
    per job, against 1.73 for the 32-cluster run without faults)."""

    PINNED = {
        "none": dict(
            system_size=32,
            faults="none",
            fingerprint="c37ac2892724797ff5fde4e0a20c7456d1642003d24bb7a6c5199d76907edd28",
            network=TransportStats(
                messages=6801,
                volume_mb=9987.108000001339,
                latency_s=144.97311932828632,
                timeouts=11,
                link_losses=11,
                transit_losses=0,
                delayed_deliveries=1247,
                control_messages=2363,
                control_by_kind={"query": 2331, "subscribe": 32},
            ),
            queries=(2331, 11655),
            per_type=[2159, 2148, 1247, 1247],
        ),
        "chaos": dict(
            system_size=32,
            faults="chaos",
            fingerprint="7d8bdd7135959a398856b59a6fe02dde5cfa8583264bce6f381d41e1ef1fe82b",
            network=TransportStats(
                messages=5774,
                volume_mb=9049.288000001023,
                latency_s=125.11271667579196,
                timeouts=37,
                link_losses=13,
                transit_losses=18,
                delayed_deliveries=1112,
                control_messages=1989,
                control_by_kind={"query": 1939, "subscribe": 41, "unsubscribe": 9},
            ),
            queries=(1939, 9695),
            per_type=[1786, 1749, 1130, 1109],
        ),
        "econ-wan-128": dict(
            system_size=128,
            faults="none",
            fingerprint="90af5ba0060a88f9d787547b919accef244dd7dd50691eeb4245582b3de0e621",
            network=TransportStats(
                messages=56056,
                volume_mb=42245.57600001983,
                latency_s=1104.1376563575536,
                timeouts=150,
                link_losses=150,
                transit_losses=0,
                delayed_deliveries=5268,
                control_messages=23383,
                control_by_kind={"query": 23255, "subscribe": 128},
            ),
            queries=(23255, 162785),
            per_type=[22835, 22685, 5268, 5268],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_wan_economy_accounting_is_pinned(self, name):
        pinned = self.PINNED[name]
        scenario = Scenario(
            mode="economy",
            oft_fraction=0.3,
            system_size=pinned["system_size"],
            thin=8,
            transport="two-tier-wan",
            seed=42,
            faults=pinned["faults"],
        )
        result = run_scenario(scenario)
        assert result_fingerprint(result) == pinned["fingerprint"]
        assert result.network == pinned["network"]
        directory = result.directory
        assert (directory.query_count, directory.assumed_query_messages) == pinned["queries"]
        per_type = [result.message_log.count_by_type(mtype) for mtype in MessageType]
        assert per_type == pinned["per_type"]


class TestWanRuns:
    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_all_experiment_shapes_complete_with_invariants_clean(self, name):
        """The acceptance gate: every experiment shape runs to completion on
        ``two-tier-wan``, with the full invariant suite (job conservation,
        accounting, directory consistency) clean."""
        scenario = GOLDEN_SCENARIOS[name].replace(transport="two-tier-wan")
        result = run_scenario(scenario, validate=True)
        assert_valid(result)  # belt and braces: re-run the result-level suite
        assert result.network is not None

    def test_directory_lists_every_resource_once(self):
        scenario = GOLDEN_SCENARIOS["exp3_economy"].replace(transport="two-tier-wan")
        result = run_scenario(scenario, validate=True)
        assert result.directory.member_names() == sorted(result.resource_names())
        assert result.network.control_by_kind["subscribe"] == len(result.resource_names())

    def test_wan_run_is_deterministic_per_seed(self):
        scenario = GOLDEN_SCENARIOS["exp2_federation"].replace(transport="two-tier-wan")
        a = result_fingerprint(run_scenario(scenario))
        b = result_fingerprint(run_scenario(scenario))
        assert a == b

    def test_wan_latency_is_visible_in_the_accounting(self):
        scenario = GOLDEN_SCENARIOS["exp2_federation"].replace(transport="two-tier-wan")
        result = run_scenario(scenario)
        net = result.network
        if net.messages > 0:
            assert net.latency_s > 0.0


class TestScenarioSurface:
    def test_new_fields_participate_in_the_hash(self):
        base = Scenario()
        assert base.scenario_hash() != base.replace(transport="star").scenario_hash()

    def test_describe_mentions_non_default_fabric(self):
        described = Scenario(transport="ring").describe()
        assert "transport=ring" in described
        assert "transport=" not in Scenario().describe()

    def test_unknown_transport_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown transport topology"):
            Scenario(transport="carrier-pigeon")

    def test_to_config_carries_the_fabric_fields(self):
        config = Scenario(transport="star").to_config()
        assert config.transport == "star"

    def test_aliases_normalise_to_canonical_keys(self):
        """Alias and canonical spellings are the same scenario: same field
        value, same hash (so sweep memoisation never re-runs an identical
        point), and the default's alias draws no net summary."""
        assert Scenario(transport="wan").transport == "two-tier-wan"
        assert (
            Scenario(transport="wan").scenario_hash()
            == Scenario(transport="two-tier-wan").scenario_hash()
        )
        assert Scenario(transport="none").transport == "uniform"
        assert Scenario(transport="none").scenario_hash() == Scenario().scenario_hash()

    def test_quote_updates_count_once_on_the_control_plane(self):
        """Dynamic pricing re-quotes are one 'update-quote' directory message
        each, not an unsubscribe/subscribe pair."""
        scenario = GOLDEN_SCENARIOS["exp3_economy"].replace(pricing="demand")
        result = run_scenario(scenario)
        kinds = result.network.control_by_kind
        assert kinds.get("update-quote", 0) > 0
        assert "unsubscribe" not in kinds  # nothing ever actually departed
        assert kinds.get("subscribe") == 8  # the initial joins only


class TestCLISurface:
    def test_run_accepts_topology_and_prints_net_line(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["run", "--topology", "two-tier-wan", "--thin", "40", "--validate"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "net: topology=two-tier-wan messages=" in out
        assert "invariants: all checks passed" in out

    def test_unknown_topology_is_a_clean_cli_error(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["run", "--topology", "nope", "--thin", "40"])
        assert rc == 2
        assert "unknown transport topology" in capsys.readouterr().err

    def test_default_run_prints_no_net_line(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["run", "--thin", "40"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "net:" not in out
