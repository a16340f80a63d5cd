"""Tests for the processor AvailabilityProfile."""

from __future__ import annotations

import bisect
import contextlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.profile import AvailabilityProfile, ProfileError


class TestBasics:
    def test_initially_fully_free(self):
        profile = AvailabilityProfile(32, start_time=10.0)
        assert profile.capacity == 32
        assert profile.free_at(10.0) == 32
        assert profile.free_at(1e9) == 32
        assert profile.start_time == 10.0

    def test_invalid_construction(self):
        with pytest.raises(ProfileError):
            AvailabilityProfile(0)
        with pytest.raises(ProfileError):
            AvailabilityProfile(4, start_time=math.inf)

    def test_free_before_start_rejected(self):
        profile = AvailabilityProfile(4, start_time=5.0)
        with pytest.raises(ProfileError):
            profile.free_at(4.0)

    def test_reserve_reduces_availability_in_interval_only(self):
        profile = AvailabilityProfile(10, 0.0)
        profile.reserve(start=5.0, duration=10.0, procs=4)
        assert profile.free_at(0.0) == 10
        assert profile.free_at(5.0) == 6
        assert profile.free_at(14.999) == 6
        assert profile.free_at(15.0) == 10

    def test_overlapping_reservations_accumulate(self):
        profile = AvailabilityProfile(10, 0.0)
        profile.reserve(0.0, 10.0, 3)
        profile.reserve(5.0, 10.0, 3)
        assert profile.free_at(2.0) == 7
        assert profile.free_at(7.0) == 4
        assert profile.free_at(12.0) == 7
        assert profile.free_at(20.0) == 10

    def test_over_reservation_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        profile.reserve(0.0, 10.0, 3)
        with pytest.raises(ProfileError):
            profile.reserve(5.0, 2.0, 2)

    def test_min_free(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(2.0, 4.0, 5)
        assert profile.min_free(0.0, 10.0) == 3
        assert profile.min_free(0.0, 2.0) == 8
        assert profile.min_free(6.0, 10.0) == 8

    def test_segments_cover_to_infinity(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(1.0, 2.0, 4)
        segments = profile.segments()
        assert segments[0][0] == 0.0
        assert segments[-1][1] == math.inf
        # Segment availabilities match free_at samples.
        for start, end, avail in segments:
            assert profile.free_at(start) == avail


class TestEarliestStart:
    def test_starts_immediately_when_free(self):
        profile = AvailabilityProfile(8, 0.0)
        assert profile.earliest_start(4, 10.0) == pytest.approx(0.0)

    def test_waits_for_running_job_to_finish(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(0.0, 100.0, 6)  # a running job holding 6 of 8 CPUs
        assert profile.earliest_start(4, 10.0) == pytest.approx(100.0)
        # A 2-CPU job still fits immediately.
        assert profile.earliest_start(2, 10.0) == pytest.approx(0.0)

    def test_respects_lower_bound(self):
        profile = AvailabilityProfile(8, 0.0)
        assert profile.earliest_start(4, 5.0, earliest=50.0) == pytest.approx(50.0)

    def test_finds_gap_between_reservations(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(0.0, 10.0, 6)
        profile.reserve(30.0, 10.0, 6)
        # A 4-CPU, 15-second job does not fit in [10, 30): it would overlap the
        # second reservation... actually 10 + 15 = 25 <= 30, so it fits there.
        assert profile.earliest_start(4, 15.0) == pytest.approx(10.0)
        # A 4-CPU, 25-second job cannot fit the gap and must wait for the
        # second reservation to end.
        assert profile.earliest_start(4, 25.0) == pytest.approx(40.0)

    def test_request_beyond_capacity_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(5, 1.0)

    def test_invalid_arguments_rejected(self):
        profile = AvailabilityProfile(4, 0.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(0, 1.0)
        with pytest.raises(ProfileError):
            profile.earliest_start(1, 0.0)
        with pytest.raises(ProfileError):
            profile.reserve(0.0, -1.0, 1)
        with pytest.raises(ProfileError):
            profile.reserve(-1.0, 1.0, 1)


class TestProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=128),
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),   # start
                st.floats(min_value=0.1, max_value=1e4),   # duration
                st.integers(min_value=1, max_value=32),    # procs
            ),
            max_size=25,
        ),
        query=st.tuples(
            st.integers(min_value=1, max_value=32),
            st.floats(min_value=0.1, max_value=1e4),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_availability_never_negative_and_earliest_start_is_feasible(
        self, capacity, reservations, query
    ):
        profile = AvailabilityProfile(capacity, 0.0)
        for start, duration, procs in reservations:
            if procs > capacity:
                continue
            try:
                profile.reserve(start, duration, procs)
            except ProfileError:
                continue  # over-reservation attempts are allowed to fail
        # Invariant: availability is within [0, capacity] everywhere.
        for seg_start, _seg_end, avail in profile.segments():
            assert 0 <= avail <= capacity
            assert profile.free_at(seg_start) == avail
        procs, duration = query
        if procs <= capacity:
            start = profile.earliest_start(procs, duration)
            assert profile.min_free(start, start + duration) >= procs
            # And it really is the earliest candidate among breakpoints.
            earlier = [t for t, _, _ in profile.segments() if t < start]
            for t in earlier:
                assert profile.min_free(t, t + duration) < procs


def _naive_segments(capacity, start_time, holds):
    """``(start, end, free)`` of a step function kept as a plain list of
    ``(start, end, procs)`` holds, split at every hold's start and end."""
    points = sorted({start_time} | {t for start, end, _ in holds for t in (start, end)})
    return [
        (t, end, capacity - sum(procs for start, stop, procs in holds if start <= t < stop))
        for t, end in zip(points, points[1:] + [math.inf])
    ]


def _naive_min_free(capacity, holds, start, end):
    points = {start} | {t for s, e, _ in holds for t in (s, e) if start < t < end}
    return min(
        capacity - sum(procs for s, e, procs in holds if s <= t < e) for t in points
    )


class TestReserveAgainstNaiveModel:
    """``reserve`` against the step function of its accepted reservations,
    rebuilt from a plain list after every call: starts on and off existing
    breakpoints, ends inside the profile and past its last breakpoint."""

    @given(
        capacity=st.integers(min_value=1, max_value=16),
        start_time=st.sampled_from([0.0, 12_345.678]),
        ops=st.lists(
            st.tuples(
                st.one_of(
                    st.tuples(st.just("on"), st.integers(min_value=0, max_value=64)),
                    st.tuples(st.just("off"), st.floats(min_value=0.0, max_value=500.0)),
                ),
                st.one_of(
                    st.tuples(st.just("for"), st.floats(min_value=0.01, max_value=200.0)),
                    st.tuples(st.just("past"), st.floats(min_value=0.01, max_value=50.0)),
                ),
                st.integers(min_value=1, max_value=16),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_reserve_matches_the_naive_step_function(self, capacity, start_time, ops):
        profile = AvailabilityProfile(capacity, start_time)
        holds = []
        for (where, at), (length, amount), procs in ops:
            breakpoints = [t for t, _end, _free in profile.segments()]
            start = breakpoints[at % len(breakpoints)] if where == "on" else start_time + at
            if length == "for":
                duration = amount
            else:  # end past the last breakpoint
                duration = max(breakpoints[-1] - start, 0.0) + amount
            end = start + duration
            before = profile.segments()
            if _naive_min_free(capacity, holds, start, end) >= procs:
                profile.reserve(start, duration, procs)
                holds.append((start, end, procs))
            else:
                with pytest.raises(ProfileError, match="insufficient capacity"):
                    profile.reserve(start, duration, procs)
                assert profile.segments() == before
            assert profile.segments() == _naive_segments(capacity, start_time, holds)

    def test_a_refused_reservation_changes_nothing(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(2.0, 4.0, 5)
        before = profile.segments()
        # Fits over [1, 2) and [6, ...) but not over the hold in between.
        with pytest.raises(ProfileError, match="insufficient capacity"):
            profile.reserve(1.0, 10.0, 4)
        assert profile.segments() == before

    def test_an_interval_that_rounds_to_nothing_is_refused(self):
        profile = AvailabilityProfile(8, 2e7)
        with pytest.raises(ProfileError, match="positive length"):
            profile.reserve(2e7, 1e-12, 1)
        assert profile.segments() == [(2e7, math.inf, 8)]


class TestTrimAndUntilReleased:
    def test_trim_keeps_availability_from_the_new_start(self):
        profile = AvailabilityProfile(8, 0.0)
        profile.reserve(0.0, 10.0, 4)
        profile.reserve(5.0, 20.0, 2)
        before = [profile.free_at(t) for t in (7.0, 10.0, 24.0, 25.0, 99.0)]
        profile.trim(7.0)
        assert profile.start_time == 7.0
        assert [profile.free_at(t) for t in (7.0, 10.0, 24.0, 25.0, 99.0)] == before
        assert profile.segments() == [(7.0, 10.0, 2), (10.0, 25.0, 6), (25.0, float("inf"), 8)]

    def test_trim_to_an_earlier_time_is_a_no_op(self):
        profile = AvailabilityProfile(8, 5.0)
        profile.reserve(5.0, 1.0, 8)
        profile.trim(1.0)
        assert profile.segments() == [(5.0, 6.0, 0), (6.0, float("inf"), 8)]

    def test_until_released_equals_reserving_each_hold(self):
        holds = [(30.0, 2), (10.0, 3), (30.0, 1), (4.0, 5), (2.0, 4)]
        built = AvailabilityProfile.until_released(16, 4.0, holds)
        reserved = AvailabilityProfile(16, 4.0)
        for end, procs in holds:
            if end > 4.0:
                reserved.reserve(4.0, end - 4.0, procs)
        assert built.segments() == reserved.segments()
        assert built.segments() == [(4.0, 10.0, 10), (10.0, 30.0, 13), (30.0, float("inf"), 16)]

    def test_until_released_refuses_more_than_capacity(self):
        with pytest.raises(ProfileError):
            AvailabilityProfile.until_released(4, 0.0, [(5.0, 3), (6.0, 2)])


def parent_earliest_start(profile, procs, duration, earliest=None):
    """``earliest_start`` before it bisected inline: the lower bound through
    ``max`` and the first segment through ``_segment_index``."""
    if procs < 1:
        raise ProfileError("must request at least one processor")
    if procs > profile._capacity:
        raise ProfileError(f"request for {procs} processors exceeds capacity {profile._capacity}")
    if duration <= 0:
        raise ProfileError("duration must be positive")
    lower = profile._times[0] if earliest is None else max(earliest, profile._times[0])
    times, avail = profile._times, profile._avail
    n = len(times)
    start = lower
    idx = max(bisect.bisect_right(profile._times, start) - 1, 0)
    while True:
        end = start + duration
        blocked_at = None
        j = idx
        while j < n and times[j] < end:
            if avail[j] < procs:
                blocked_at = j
                break
            j += 1
        if blocked_at is None:
            return start
        idx = blocked_at + 1
        start = times[idx]


class TestEarliestStartOracle:
    @given(
        capacity=st.integers(min_value=1, max_value=16),
        start_time=st.sampled_from([0.0, 12_345.678]),
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=500.0),
                st.floats(min_value=0.01, max_value=200.0),
                st.integers(min_value=1, max_value=16),
            ),
            max_size=20,
        ),
        trim=st.floats(min_value=0.0, max_value=300.0),
        queries=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=16),
                st.floats(min_value=0.01, max_value=300.0),
                st.one_of(
                    st.none(),
                    st.just("start"),
                    st.just("breakpoint"),
                    st.floats(min_value=-100.0, max_value=800.0),
                ),
                st.integers(min_value=0, max_value=40),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_max_and_segment_index_version(
        self, capacity, start_time, reservations, trim, queries
    ):
        """The same start, bit for bit, with no lower bound, one before the
        profile, one on its start, one on a breakpoint and one between
        breakpoints, on profiles trimmed to start between breakpoints."""
        profile = AvailabilityProfile(capacity, start_time)
        for start, duration, procs in reservations:
            with contextlib.suppress(ProfileError):
                profile.reserve(start_time + start, duration, procs)
        profile.trim(start_time + trim)
        breakpoints = [t for t, _end, _free in profile.segments()]
        for procs, duration, earliest, at in queries:
            if earliest == "start":
                earliest = profile.start_time
            elif earliest == "breakpoint":
                earliest = breakpoints[at % len(breakpoints)]
            elif earliest is not None:
                earliest += start_time
            if procs > capacity:
                with pytest.raises(ProfileError, match="exceeds capacity"):
                    profile.earliest_start(procs, duration, earliest)
                continue
            assert profile.earliest_start(procs, duration, earliest) == parent_earliest_start(
                profile, procs, duration, earliest
            )
