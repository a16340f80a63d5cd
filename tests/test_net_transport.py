"""Unit tests for the message fabric: topologies and the transport.

End-to-end behaviour (golden fingerprints, WAN runs, Experiment 4 parity)
lives in ``tests/test_net_federation.py``; this module covers the pieces in
isolation: the topology registry and link models, round-trip / transfer /
notify semantics, perturbation windows, and what each message leaves in the
transport's own :class:`~repro.core.messages.MessageLog`.
"""

from __future__ import annotations

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import MessageType
from repro.faults.plan import NetworkPerturbation
from repro.net import (
    LinkProfile,
    RingTopology,
    StarTopology,
    Transport,
    TwoTierWanTopology,
    UniformTopology,
    available_topologies,
    build_topology,
    register_topology,
)
from repro.net.topology import LOOPBACK
from repro.sim.engine import Simulator
from repro.workload.job import Job


def make_job(origin="A", procs=2):
    return Job(origin=origin, user_id=1, submit_time=0.0, num_processors=procs, length_mi=1e4)


NAMES = [f"GFA-{i}" for i in range(8)]


class TestLinkProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(latency_s=-1.0)
        with pytest.raises(ValueError):
            LinkProfile(bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            LinkProfile(loss_rate=1.0)

    def test_transfer_seconds_infinite_bandwidth_is_pure_latency(self):
        assert LinkProfile(latency_s=0.5).transfer_seconds(1e6) == 0.5

    def test_transfer_seconds_serialisation(self):
        # 1 Gb/s link, 125 MB payload = 1000 Mb -> 1 s + latency.
        link = LinkProfile(latency_s=0.25, bandwidth_gbps=1.0)
        assert link.transfer_seconds(125.0) == pytest.approx(1.25)


class TestTopologyRegistry:
    def test_builtins_are_registered(self):
        names = available_topologies()
        for key in ("uniform", "star", "ring", "two-tier-wan", "wan", "none"):
            assert key in names

    def test_unknown_key_raises_with_known_list(self):
        with pytest.raises(ValueError, match="unknown topology"):
            build_topology("nope", NAMES)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_topology("uniform")(lambda names, rng: UniformTopology())

    def test_failed_registration_is_atomic(self):
        """A duplicate anywhere in (key, *aliases) must install nothing —
        a half-registered topology would validate but be unintended."""
        from repro.net.topology import TOPOLOGY_REGISTRY

        with pytest.raises(ValueError, match="already registered"):
            register_topology("fresh-name", "uniform")(
                lambda names, rng: UniformTopology()
            )
        assert "fresh-name" not in TOPOLOGY_REGISTRY

    def test_canonical_resolution_of_aliases(self):
        from repro.net import canonical_topology

        assert canonical_topology("wan") == "two-tier-wan"
        assert canonical_topology("none") == "uniform"
        assert canonical_topology("ring") == "ring"
        with pytest.raises(ValueError, match="unknown topology"):
            canonical_topology("nope")

    def test_build_stamps_registry_key_as_name(self):
        topology = build_topology("star", NAMES)
        assert topology.name == "star"
        assert "star" in topology.describe()


class TestTopologyModels:
    def test_uniform_is_free_and_symmetric(self):
        topology = UniformTopology()
        link = topology.link("A", "B")
        assert link.latency_s == 0.0 and link.loss_rate == 0.0
        assert math.isinf(link.bandwidth_gbps)
        assert topology.link("B", "A") == link
        assert topology.link("A", "A").latency_s == 0.0

    def test_star_charges_two_hub_hops(self):
        topology = StarTopology(hop_latency_s=0.01)
        assert topology.link("A", "B").latency_s == pytest.approx(0.02)

    def test_ring_distance_is_shortest_way_round(self):
        topology = RingTopology(NAMES, hop_latency_s=1.0)
        assert topology.hops_between("GFA-0", "GFA-1") == 1
        assert topology.hops_between("GFA-0", "GFA-4") == 4
        assert topology.hops_between("GFA-0", "GFA-7") == 1  # wraps
        assert topology.link("GFA-0", "GFA-4").latency_s == pytest.approx(4.0)
        assert topology.link("GFA-4", "GFA-0").latency_s == pytest.approx(4.0)

    def test_wan_is_deterministic_per_seed(self):
        a = TwoTierWanTopology(NAMES, rng=np.random.default_rng(7), sites=4)
        b = TwoTierWanTopology(NAMES, rng=np.random.default_rng(7), sites=4)
        for src in NAMES:
            for dst in NAMES:
                assert a.link(src, dst) == b.link(src, dst)

    def test_wan_intra_site_is_faster_than_wan(self):
        topology = TwoTierWanTopology(NAMES, rng=np.random.default_rng(0), sites=4)
        # Round-robin site assignment: GFA-0 and GFA-4 share site 0.
        lan = topology.link("GFA-0", "GFA-4")
        wan = topology.link("GFA-0", "GFA-1")
        assert lan.latency_s < wan.latency_s
        assert lan.loss_rate == 0.0

    def test_wan_link_is_direction_symmetric(self):
        topology = TwoTierWanTopology(NAMES, rng=np.random.default_rng(0), sites=4)
        assert topology.link("GFA-0", "GFA-1") == topology.link("GFA-1", "GFA-0")


class TestRoundtrip:
    def _transport(self, topology=None, rng=None):
        sim = Simulator()
        transport = Transport(sim, topology, rng=rng)
        return sim, transport.log, transport

    def test_default_roundtrip_records_request_and_reply(self):
        _sim, log, transport = self._transport()
        job = make_job()
        assert transport.roundtrip("A", "B", job) is True
        assert log.count_by_type(MessageType.NEGOTIATE) == 1
        assert log.count_by_type(MessageType.REPLY) == 1
        assert job.messages == 2
        assert transport.stats.messages == log.total_messages == 2
        assert transport.stats.timeouts == 0

    def test_dead_responder_times_out_without_a_reply(self):
        _sim, log, transport = self._transport()
        job = make_job()
        assert transport.roundtrip("A", "B", job, responder_alive=False) is False
        assert log.count_by_type(MessageType.NEGOTIATE) == 1
        assert log.count_by_type(MessageType.REPLY) == 0
        assert job.messages == 1
        assert transport.stats.timeouts == 1

    def test_lossy_link_can_drop_the_roundtrip(self):
        topology = UniformTopology(loss_rate=0.5)
        _sim, log, transport = self._transport(topology, rng=np.random.default_rng(0))
        outcomes = [transport.roundtrip("A", "B", make_job()) for _ in range(200)]
        assert any(outcomes) and not all(outcomes)
        lost = outcomes.count(False)
        assert transport.stats.link_losses == lost
        assert transport.stats.timeouts == lost
        # Every enquiry was sent; only the completed round trips replied.
        assert log.count_by_type(MessageType.NEGOTIATE) == 200
        assert log.count_by_type(MessageType.REPLY) == 200 - lost

    def test_uniform_default_never_touches_the_rng(self):
        class Exploding:
            def random(self):  # pragma: no cover - must not run
                raise AssertionError("default path drew from the rng")

        sim = Simulator()
        transport = Transport(sim, UniformTopology(), rng=Exploding())
        assert transport.roundtrip("A", "B", make_job()) is True
        assert transport.transfer("A", "B", make_job()) == ("deliver", 0.0)


class TestPerturbationWindows:
    def _transport(self, windows, seed=0):
        sim = Simulator()
        transport = Transport(sim, UniformTopology())
        transport.set_perturbations(windows, np.random.default_rng(seed))
        return sim, transport.log, transport

    def test_loss_only_inside_the_window(self):
        window = NetworkPerturbation(start=100.0, end=200.0, loss_rate=0.999999)
        sim, _log, transport = self._transport([window])
        # Before the window: everything completes.
        for _ in range(20):
            assert transport.roundtrip("A", "B", make_job()) is True
        assert transport.stats.timeouts == 0
        # Inside: the (near-certain) loss rate applies.
        sim.schedule(150.0, lambda: None)
        sim.run()
        assert sim.now == 150.0
        assert transport.roundtrip("A", "B", make_job()) is False
        # After the window: clean again.
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert transport.roundtrip("A", "B", make_job()) is True

    def test_delay_only_inside_the_window(self):
        window = NetworkPerturbation(start=100.0, end=200.0, submission_delay=30.0)
        sim, _log, transport = self._transport([window])
        assert transport.transfer("A", "B", make_job()) == ("deliver", 0.0)
        sim.schedule(150.0, lambda: None)
        sim.run()
        fate, delay = transport.transfer("A", "B", make_job())
        assert fate == "deliver" and delay == pytest.approx(30.0)
        assert transport.stats.delayed_deliveries == 1
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert transport.transfer("A", "B", make_job()) == ("deliver", 0.0)

    def test_lossy_window_destroys_transfers_and_counts_the_loss(self):
        window = NetworkPerturbation(start=0.0, end=1e9, loss_rate=0.999999)
        _sim, log, transport = self._transport([window])
        job = make_job()
        fate, _delay = transport.transfer("A", "B", job)
        assert fate == "lost"
        assert transport.stats.transit_losses == 1
        # The JOB_SUBMISSION itself was still accounted: it was sent.
        assert log.count_by_type(MessageType.JOB_SUBMISSION) == log.total_messages == 1


class TestTransferReliability:
    def test_link_loss_never_destroys_a_transfer(self):
        """Bulk transfers are reliable streams: a lossy link delays (via
        retransmission in the real world), it never silently eats a job —
        that is reserved for lossy *fault windows*, which are attributed."""
        topology = UniformTopology(loss_rate=0.9)
        sim = Simulator()
        transport = Transport(sim, topology, rng=np.random.default_rng(0))
        for _ in range(100):
            fate, _delay = transport.transfer("A", "B", make_job())
            assert fate == "deliver"
        assert transport.stats.transit_losses == 0

    def test_transfer_pays_latency_and_serialisation(self):
        topology = UniformTopology(latency_s=0.1, bandwidth_gbps=1.0)
        sim = Simulator()
        transport = Transport(sim, topology)
        fate, delay = transport.transfer("A", "B", make_job(), size_mb=125.0)
        assert fate == "deliver"
        assert delay == pytest.approx(0.1 + 1.0)

    def test_notify_is_one_way_and_always_delivered(self):
        sim = Simulator()
        transport = Transport(sim, UniformTopology(loss_rate=0.9), rng=np.random.default_rng(0))
        job = make_job()
        transport.notify("B", "A", MessageType.JOB_COMPLETION, job)
        assert transport.log.count_by_type(MessageType.JOB_COMPLETION) == 1
        assert transport.log.total_messages == transport.stats.messages == 1


class TestControlPlane:
    def test_control_counts_per_kind(self):
        transport = Transport(Simulator())
        transport.control("query")
        transport.control("query")
        transport.control("subscribe")
        stats = transport.stats
        assert stats.control_messages == 3
        assert stats.control_by_kind == {"query": 2, "subscribe": 1}
        # Control traffic never leaks into the paper's data-plane counters.
        assert stats.messages == 0


class TestMerge:
    def test_split_traffic_merges_to_one_transport(self):
        """The parallel engine's sum: traffic split over two transports, with
        stats and ledgers merged, equals one transport carrying all of it."""
        topology = UniformTopology(latency_s=0.25, bandwidth_gbps=1.0)
        jobs = {origin: make_job(origin=origin) for origin in ("A", "B", "C")}
        traffic = [
            lambda t: t.roundtrip("A", "B", jobs["A"]),
            lambda t: t.roundtrip("B", "C", jobs["B"], responder_alive=False),
            lambda t: t.transfer("A", "C", jobs["A"], size_mb=125.0),
            lambda t: t.notify("C", "A", MessageType.JOB_COMPLETION, jobs["A"]),
            lambda t: t.control("query"),
            lambda t: t.roundtrip("C", "A", jobs["C"]),
            lambda t: t.transfer("B", "A", jobs["B"]),
            lambda t: t.control("subscribe", messages=2),
            lambda t: t.notify("A", "B", MessageType.JOB_COMPLETION, jobs["B"]),
        ]
        whole = Transport(Simulator(), topology)
        head, tail = Transport(Simulator(), topology), Transport(Simulator(), topology)
        for index, send in enumerate(traffic):
            send(whole)
            send(head if index % 2 else tail)
        head.stats.merge_from(tail.stats)
        head.log.merge_from(tail.log)
        merged, expected = head.stats, whole.stats
        for name in (
            "messages",
            "timeouts",
            "link_losses",
            "transit_losses",
            "delayed_deliveries",
            "control_messages",
            "control_by_kind",
        ):
            assert getattr(merged, name) == getattr(expected, name), name
        assert merged.volume_mb == pytest.approx(expected.volume_mb)
        assert merged.latency_s == pytest.approx(expected.latency_s)
        assert expected.timeouts == 1 and expected.delayed_deliveries == 2
        for mtype in MessageType:
            assert head.log.count_by_type(mtype) == whole.log.count_by_type(mtype)
        assert head.log.gfa_names() == whole.log.gfa_names() == ["A", "B", "C"]
        for gfa in ("A", "B", "C"):
            assert head.log.counters(gfa) == whole.log.counters(gfa)
        assert merged.messages == head.log.total_messages == whole.log.total_messages


class TestFastPath:
    """The free-topology short-circuit: identical accounting, fewer steps."""

    def test_fast_flag_set_on_free_default_topology(self):
        transport = Transport(Simulator())
        assert transport._fast is True

    def test_fast_flag_off_for_latency_topologies(self):
        assert Transport(Simulator(), UniformTopology(latency_s=1e-3))._fast is False
        assert Transport(Simulator(), StarTopology())._fast is False

    def test_fast_flag_drops_when_windows_installed(self):
        transport = Transport(Simulator())
        assert transport._fast is True
        window = NetworkPerturbation(start=0.0, end=1.0, loss_rate=0.5)
        transport.set_perturbations([window], np.random.default_rng(0))
        assert transport._fast is False
        # And recovers when the plan clears its windows.
        transport.set_perturbations([], np.random.default_rng(0))
        assert transport._fast is True

    def test_fast_and_slow_paths_account_identically(self):
        fast = Transport(Simulator())
        # An inert window (no loss, no delay) changes nothing a message
        # meets, but installing any window forces the slow path.
        slow = Transport(Simulator())
        inert = NetworkPerturbation(start=0.0, end=1e12)
        slow.set_perturbations([inert], np.random.default_rng(0))
        assert fast._fast is True and slow._fast is False
        for transport in (fast, slow):
            job = make_job()
            assert transport.roundtrip("A", "B", job) is True
            assert transport.roundtrip("A", "B", job, responder_alive=False) is False
            assert transport.transfer("A", "B", job) == ("deliver", 0.0)
            transport.notify("B", "A", MessageType.JOB_COMPLETION, job)
            assert job.messages == 5
        for mtype in MessageType:
            assert fast.log.count_by_type(mtype) == slow.log.count_by_type(mtype)
        for gfa in ("A", "B"):
            assert fast.log.counters(gfa) == slow.log.counters(gfa)
        assert fast.stats == slow.stats
        assert fast.stats.latency_s == 0.0
        assert fast.stats.timeouts == 1

    def test_fast_transfer_reuses_the_shared_fate_tuple(self):
        transport = Transport(Simulator())
        first = transport.transfer("A", "B", make_job())
        second = transport.transfer("A", "B", make_job())
        assert first == ("deliver", 0.0)
        assert first is second  # no per-transfer allocation on the fast path


# --------------------------------------------------------------------------- #
# Oracles: the one-pass round trip and link lookup against the code they
# replaced, copied here
# --------------------------------------------------------------------------- #
class TwoCallTransport(Transport):
    """The round trip before it was booked in one ledger call: ``roundtrip``
    and ``_record`` copied from it."""

    def roundtrip(self, src, dst, job, responder_alive=True, size_mb=0.002):
        if self._fast:
            self._record(MessageType.NEGOTIATE, src, dst, job, size_mb, 0.0)
            if not responder_alive:
                self.stats.timeouts += 1
                return False
            self._record(MessageType.REPLY, dst, src, job, size_mb, 0.0)
            return True
        link = self.topology.link(src, dst)
        self._record(MessageType.NEGOTIATE, src, dst, job, size_mb, link.latency_s)
        if not responder_alive:
            self.stats.timeouts += 1
            return False
        window = self._window_at(self.sim.now)
        if window is not None and window.loss_rate > 0.0:
            if self._fault_rng.random() < window.loss_rate:
                self.stats.timeouts += 1
                return False
        if link.loss_rate > 0.0 and self._draw() < link.loss_rate:
            self.stats.link_losses += 1
            self.stats.timeouts += 1
            return False
        self._record(MessageType.REPLY, dst, src, job, size_mb, link.latency_s)
        return True

    def _record(self, mtype, sender, receiver, job, size_mb, latency_s):
        stats = self.stats
        stats.messages += 1
        stats.volume_mb += size_mb
        stats.latency_s += latency_s
        self.log.record(mtype, sender, receiver, job)


def parent_wan_link(topology: TwoTierWanTopology, src: str, dst: str) -> LinkProfile:
    """``TwoTierWanTopology.link`` before it resolved sites by dict lookup."""
    if src == dst:
        return LOOPBACK
    a, b = topology.site_of(src), topology.site_of(dst)
    if a == b:
        return topology._lan
    return topology._wan[(min(a, b), max(a, b))]


#: Members, a stranger and the entity names that repeat in the streams.
_ORACLE_NAMES = [f"GFA-{i}" for i in range(6)]


@st.composite
def roundtrip_worlds(draw):
    """A topology (free, lossy uniform or lossy WAN), loss windows over the
    stream's first minutes, and a stream of round trips a few seconds apart
    between members and a stranger, from or to the job's origin; it may end
    with a stray: an entity enquiring of itself, or a pair that misses the
    job's origin."""
    kind = draw(st.sampled_from(["free", "uniform", "uniform", "wan", "wan"]))
    loss = draw(st.sampled_from([0.0, 0.3, 0.7]))
    windows = draw(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(10, 60), st.sampled_from([0.0, 0.5, 0.9])),
            max_size=3,
        )
    )
    names = _ORACLE_NAMES + ["stranger"]
    trips = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, len(names) - 1),
                st.integers(1, len(names) - 1),
                st.booleans(),
                st.sampled_from(["out", "back"]),
            ),
            max_size=40,
        )
    )
    stray = draw(st.sampled_from([None, None, "self", "foreign"]))
    if stray is not None:
        trips.append((1, 0, 1, True, stray))
    stream = []
    for step, index, offset, alive, shape in trips:
        src, dst = names[index], names[(index + offset) % len(names)]
        origin = {"out": src, "back": dst, "self": src, "foreign": "nobody"}[shape]
        stream.append((step, src, src if shape == "self" else dst, alive, origin))
    return kind, loss, windows, stream, draw(st.integers(0, 2**16))


def _world_transport(cls, kind, loss, windows, seed):
    if kind == "free":
        topology = UniformTopology()
    elif kind == "uniform":
        topology = UniformTopology(latency_s=0.013, loss_rate=loss)
    else:
        topology = TwoTierWanTopology(
            _ORACLE_NAMES,
            rng=np.random.default_rng(seed),
            sites=3,
            wan_loss_range=(loss, loss + 0.05),
        )
    transport = cls(SimpleNamespace(now=0.0), topology, rng=np.random.default_rng(seed + 1))
    if windows:
        perturbations = [
            NetworkPerturbation(start=float(start), end=float(start + length), loss_rate=rate)
            for start, length, rate in windows
        ]
        transport.set_perturbations(perturbations, np.random.default_rng(seed + 2))
    return transport


class TestRoundTripOracle:
    @given(world=roundtrip_worlds())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_round_trip_matches_the_two_call_one(self, world):
        """Same answers, same ``TransportStats`` (floats compared with
        ``==``, so the NEGOTIATE-then-REPLY sum order counts), same ledger,
        same ``Job.messages``, and both random streams left in the same
        state: no extra, missing or reordered draw.  A self-addressed or
        origin-less enquiry raises the same ``ValueError`` in both and ends
        the stream; the one-pass round trip raises it before counting
        anything, where the two-call one had added its NEGOTIATE to the
        stats (its fate draws come first, so the streams are not compared
        after one)."""
        kind, loss, windows, trips, seed = world
        new, old = (
            _world_transport(cls, kind, loss, windows, seed) for cls in (Transport, TwoCallTransport)
        )
        now = 0.0
        failed = False
        for step, src, dst, alive, origin in trips:
            now += step * 5.0
            before = copy.deepcopy(new.stats)
            outcomes = []
            for transport in (new, old):
                transport.sim.now = now
                job = make_job(origin=origin)
                try:
                    outcomes.append((transport.roundtrip(src, dst, job, alive), job.messages))
                except ValueError as exc:
                    outcomes.append(("ValueError", str(exc)))
            assert outcomes[0] == outcomes[1]
            if outcomes[0][0] == "ValueError":
                assert new.stats == before
                failed = True
                break
        for mtype in MessageType:
            assert new.log.count_by_type(mtype) == old.log.count_by_type(mtype)
        assert new.log.gfa_names() == old.log.gfa_names()
        for name in new.log.gfa_names():
            assert new.log.counters(name) == old.log.counters(name)
        if not failed:
            assert new.stats == old.stats
            assert new._rng.bit_generator.state == old._rng.bit_generator.state
            if windows:
                assert new._fault_rng.bit_generator.state == old._fault_rng.bit_generator.state


class TestWanLinkOracle:
    @given(
        seed=st.integers(0, 2**16),
        sites=st.integers(1, 5),
        pairs=st.lists(
            st.tuples(
                st.sampled_from(_ORACLE_NAMES + ["stranger", "other stranger"]),
                st.sampled_from(_ORACLE_NAMES + ["stranger", "other stranger"]),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_link_matches_the_site_of_min_max_lookup(self, seed, sites, pairs):
        """The same profile object for members, strangers and self-links,
        in both directions."""
        topology = TwoTierWanTopology(_ORACLE_NAMES, rng=np.random.default_rng(seed), sites=sites)
        for src, dst in pairs:
            assert topology.link(src, dst) is parent_wan_link(topology, src, dst)
            assert topology.link(dst, src) is parent_wan_link(topology, dst, src)
