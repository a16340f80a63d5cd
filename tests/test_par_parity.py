"""Serial-vs-parallel parity guarantees of the conservative parallel engine.

Two distinct claims are pinned here, and they must not be conflated:

* **Fallback parity** — the five golden experiment shapes run on the paper's
  ``uniform`` zero-latency fabric, which offers no conservative lookahead, so
  requesting workers must fall back to the serial engine and reproduce the
  pinned golden fingerprints *exactly*, for every worker count.  The parallel engine may never corrupt a run it cannot
  accelerate.
* **Backend parity** — on an eligible topology (two-tier WAN) the sharded
  model executes identically on the in-process serial-parity oracle and on
  the multiprocess backend: byte-identical result fingerprints, per worker
  count, and stable across repeated runs.  A hypothesis
  sweep replays randomly seeded scenarios (each a different random
  cross-shard migration schedule) through both backends against each other.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.p2p import FederationDirectory
from repro.par.runner import try_parallel_run
from repro.scenario import Scenario, result_fingerprint, run_scenario
from tests.test_golden_fingerprints import GOLDEN_FINGERPRINTS, GOLDEN_SCENARIOS

#: Eligible shape: active economy federation on the two-tier WAN.
PARALLEL_SCENARIO = Scenario(
    mode="economy",
    oft_fraction=0.3,
    workload="synthetic",
    horizon=6 * 3600.0,
    thin=20,
    seed=42,
    transport="two-tier-wan",
)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_shapes_fall_back_to_byte_identical_serial(name, workers):
    """Uniform-topology goldens: requested workers degrade to the serial
    path and the result is byte-identical to the pinned golden digest."""
    scenario = GOLDEN_SCENARIOS[name]
    with pytest.warns(RuntimeWarning, match="parallel engine unavailable"):
        result = run_scenario(scenario.replace(parallel=workers))
    assert result.parallel is not None
    assert not result.parallel.ran_parallel
    assert result.parallel.requested_workers == workers
    assert "zero cross-shard latency" in result.parallel.fallback_reason
    assert result_fingerprint(result) == GOLDEN_FINGERPRINTS[name], (
        f"{name} with --workers {workers} drifted from the "
        "golden fingerprint — the fallback path altered results"
    )


class TestOracleProcessParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_matches_oracle(self, workers):
        digests = {}
        for backend in ("oracle", "process"):
            result, stats = try_parallel_run(
                PARALLEL_SCENARIO, workers=workers, backend=backend
            )
            assert result is not None, stats.fallback_reason
            assert stats.ran_parallel
            assert stats.workers == workers
            assert stats.windows > 0
            assert stats.cross_messages > 0, (
                "the parity shape exchanged no cross-shard traffic — it no "
                "longer exercises the router"
            )
            digests[backend] = result_fingerprint(result)
        assert digests["oracle"] == digests["process"], (
            f"workers={workers}: the multiprocess backend "
            "diverged from the serial-parity oracle"
        )

    def test_run_twice_deterministic(self):
        first, _ = try_parallel_run(PARALLEL_SCENARIO, workers=2)
        second, _ = try_parallel_run(PARALLEL_SCENARIO, workers=2)
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_run_scenario_dispatch_matches_engine(self):
        """``run_scenario`` of a ``parallel=N`` scenario is exactly the
        engine-level run."""
        via_runner = run_scenario(PARALLEL_SCENARIO.replace(parallel=2))
        direct, _ = try_parallel_run(PARALLEL_SCENARIO, workers=2)
        assert via_runner.parallel is not None
        assert via_runner.parallel.ran_parallel
        assert result_fingerprint(via_runner) == result_fingerprint(direct)

    def test_merged_result_is_coherent(self):
        result, stats = try_parallel_run(PARALLEL_SCENARIO, workers=2)
        job_ids = [job.job_id for job in result.jobs]
        assert job_ids == sorted(job_ids)
        assert len(set(job_ids)) == len(job_ids)
        assert result.observation_period >= PARALLEL_SCENARIO.horizon
        assert sum(stats.worker_events) > 0
        assert len(stats.worker_events) == 2
        for outcome in result.resources.values():
            assert 0.0 <= outcome.utilisation <= 1.0
        assert result.events_processed > 0


class TestMergedControlPlane:
    """Every shard replicates the whole directory, but a merged run charges
    each cluster's subscribe once: on the shard that owns the cluster."""

    SHAPE = Scenario(
        mode="economy",
        oft_fraction=0.3,
        system_size=32,
        thin=16,
        seed=42,
        transport="two-tier-wan",
    )

    @pytest.mark.parametrize(
        "backend, workers", [("oracle", 2), ("oracle", 4), ("process", 2)]
    )
    def test_merged_subscribes_equal_serial(self, backend, workers):
        serial = run_scenario(self.SHAPE)
        merged, stats = try_parallel_run(self.SHAPE, workers=workers, backend=backend)
        assert stats.ran_parallel
        assert serial.network.control_by_kind["subscribe"] == 32
        assert merged.network.control_by_kind["subscribe"] == 32

    @pytest.mark.parametrize("workers", [2, 4])
    def test_replica_charges_add_one_subscribe_per_cluster_per_extra_shard(
        self, monkeypatch, workers
    ):
        """Charging the replica subscribes too (each shard subscribing every
        cluster) adds exactly one message per cluster per extra shard, and
        nothing else."""
        merged, _ = try_parallel_run(self.SHAPE, workers=workers, backend="oracle")
        subscribe = FederationDirectory.subscribe

        def charge_replicas(self, gfa_name, spec, *, replica=False):
            return subscribe(self, gfa_name, spec)

        monkeypatch.setattr(FederationDirectory, "subscribe", charge_replicas)
        charged, _ = try_parallel_run(self.SHAPE, workers=workers, backend="oracle")
        extra = 32 * (workers - 1)
        assert charged.network.control_by_kind["subscribe"] == 32 + extra
        assert charged.network.control_messages - merged.network.control_messages == extra
        assert result_fingerprint(charged) == result_fingerprint(merged)


class TestRandomScheduleOracle:
    """Hypothesis: randomly seeded scenarios — each a different cross-shard
    migration schedule — replay identically on the oracle and the
    multiprocess backend."""

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=5, deadline=None)
    def test_random_seeds_agree_across_backends(self, seed):
        scenario = PARALLEL_SCENARIO.replace(seed=seed, thin=60)
        oracle, oracle_stats = try_parallel_run(scenario, workers=2, backend="oracle")
        process, process_stats = try_parallel_run(
            scenario, workers=2, backend="process"
        )
        assert oracle is not None and process is not None
        assert result_fingerprint(oracle) == result_fingerprint(process)
        assert oracle_stats.windows == process_stats.windows
        assert oracle_stats.cross_messages == process_stats.cross_messages
