"""Unit tests for the circuit breaker (repro.serve.breaker).

All transitions are driven by a fake clock — no sleeping.
"""

from __future__ import annotations

from repro.serve import BreakerRegistry, BreakerState, CircuitBreaker
from repro.serve import breaker as breaker_module


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make(clock):
    return CircuitBreaker(clock=clock)


class TestTrip:
    def test_starts_closed_and_allows(self):
        breaker = make(FakeClock())
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_below_min_volume_never_trips(self):
        breaker = make(FakeClock())
        for _ in range(4):
            breaker.record(failure=True)
        assert breaker.state is BreakerState.CLOSED

    def test_trips_at_ratio_with_volume(self):
        breaker = make(FakeClock())
        for _ in range(3):
            breaker.record(failure=False)
        breaker.record(failure=True)
        breaker.record(failure=True)  # 2/5 = 0.4 < 0.5
        assert breaker.state is BreakerState.CLOSED
        breaker.record(failure=True)  # 3/6 = 0.5 — trip
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_successes_keep_it_closed(self):
        breaker = make(FakeClock())
        for _ in range(50):
            breaker.record(failure=False)
        assert breaker.state is BreakerState.CLOSED

    def test_window_slides(self, monkeypatch):
        # old outcomes age out: with window=2 and ratio=1.0, a failure
        # followed by a success no longer counts once two newer
        # outcomes arrive
        monkeypatch.setattr(breaker_module, "WINDOW", 2)
        monkeypatch.setattr(breaker_module, "MIN_VOLUME", 2)
        monkeypatch.setattr(breaker_module, "FAILURE_RATIO", 1.0)
        breaker = make(FakeClock())
        breaker.record(failure=True)
        breaker.record(failure=False)   # window [T, F] — ratio 0.5
        assert breaker.state is BreakerState.CLOSED
        breaker.record(failure=True)    # window [F, T] — ratio 0.5
        assert breaker.state is BreakerState.CLOSED
        breaker.record(failure=True)    # window [T, T] — ratio 1.0
        assert breaker.state is BreakerState.OPEN


class TestRecovery:
    def trip(self, breaker):
        for _ in range(5):
            breaker.record(failure=True)
        assert breaker.state is BreakerState.OPEN

    def test_cooldown_promotes_to_half_open(self):
        clock = FakeClock()
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(29.9)
        assert breaker.state is BreakerState.OPEN
        clock.advance(0.2)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_admits_only_probe_quota(self):
        clock = FakeClock()
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # quota of 2 spent

    def test_all_probes_succeeding_closes(self):
        clock = FakeClock()
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31)
        assert breaker.allow() and breaker.allow()
        breaker.record(failure=False)
        breaker.record(failure=False)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = make(clock)
        self.trip(breaker)
        clock.advance(31)
        assert breaker.allow()
        breaker.record(failure=True)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()

    def test_late_result_while_open_is_ignored(self):
        clock = FakeClock()
        breaker = make(clock)
        self.trip(breaker)
        breaker.record(failure=False)  # admitted pre-trip, finished late
        assert breaker.state is BreakerState.OPEN


class TestRetryAfter:
    def test_counts_down_with_the_clock(self):
        clock = FakeClock()
        breaker = make(clock)
        for _ in range(5):
            breaker.record(failure=True)
        assert breaker.retry_after_seconds() == 31
        clock.advance(25)
        assert breaker.retry_after_seconds() == 6

    def test_minimum_one_second(self):
        breaker = make(FakeClock())
        assert breaker.retry_after_seconds() == 1


class TestSnapshotAndRegistry:
    def test_snapshot_shape(self):
        breaker = make(FakeClock())
        breaker.record(failure=True)
        snapshot = breaker.snapshot()
        assert snapshot == {
            "state": "closed",
            "window_failures": 1,
            "window_size": 1,
            "trips": 0,
        }

    def test_registry_is_per_assignment(self):
        registry = BreakerRegistry(clock=FakeClock())
        first = registry.get("assignment1")
        assert registry.get("assignment1") is first
        assert registry.get("assignment2") is not first
        for _ in range(breaker_module.MIN_VOLUME):
            first.record(failure=True)
        assert first.state is BreakerState.OPEN
        assert registry.get("assignment2").state is BreakerState.CLOSED
        assert set(registry.snapshot()) == {"assignment1", "assignment2"}
