"""Per-assignment circuit breakers quarantining pathological traffic.

One assignment with a matcher-hostile pattern/cohort combination must
not consume the whole worker fleet request after request.  Each
assignment gets a breaker watching a sliding window of recent
outcomes; when timeouts dominate, the breaker *opens* and the service
answers that assignment's requests with ``503`` immediately — no
worker time spent — until a cooldown passes.  Then a few *probe*
requests are let through (*half-open*): if they complete, the breaker
closes and traffic resumes; if any times out again, it re-opens for
another cooldown.

The clock is injectable so tests drive state transitions without
sleeping.  Only deadline failures count against the breaker — parse
errors and rejected submissions are *successful* gradings of bad
student code, not signs of a sick assignment.
"""

from __future__ import annotations

import enum
import time
from collections import deque


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:
        return self.value


#: Recent outcomes each breaker considers.
WINDOW = 20
#: Outcomes required in the window before the ratio can trip the
#: breaker (a single early timeout must not quarantine an assignment).
MIN_VOLUME = 5
#: Trip threshold: open when ``failures / outcomes`` in the window
#: reaches this with at least :data:`MIN_VOLUME` outcomes recorded.
FAILURE_RATIO = 0.5
#: How long an open breaker refuses traffic before probing.
COOLDOWN_SECONDS = 30.0
#: Probe requests admitted in the half-open state; all must succeed to
#: close the breaker.
HALF_OPEN_PROBES = 2


class CircuitBreaker:
    """Sliding-window breaker for one assignment's request flow."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=WINDOW)  # True = failure
        self._state = BreakerState.CLOSED
        self._opened_at = 0.0
        self._probes_started = 0
        self._probes_succeeded = 0
        self.trips = 0

    @property
    def state(self) -> BreakerState:
        # promote OPEN → HALF_OPEN lazily on observation
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= COOLDOWN_SECONDS
        ):
            self._state = BreakerState.HALF_OPEN
            self._probes_started = 0
            self._probes_succeeded = 0
        return self._state

    def allow(self) -> bool:
        """May the next request for this assignment reach a worker?"""
        state = self.state
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN:
            if self._probes_started < HALF_OPEN_PROBES:
                self._probes_started += 1
                return True
            return False
        return False

    def record(self, failure: bool) -> None:
        """Record one finished request (``failure`` = deadline hit)."""
        state = self.state
        if state is BreakerState.HALF_OPEN:
            if failure:
                self._trip()
            else:
                self._probes_succeeded += 1
                if self._probes_succeeded >= HALF_OPEN_PROBES:
                    self._state = BreakerState.CLOSED
                    self._outcomes.clear()
            return
        if state is BreakerState.OPEN:
            # a request admitted before the trip finishing late; the
            # open window already made its decision
            return
        self._outcomes.append(failure)
        if len(self._outcomes) >= MIN_VOLUME:
            failures = sum(self._outcomes)
            if failures / len(self._outcomes) >= FAILURE_RATIO:
                self._trip()

    def _trip(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._outcomes.clear()
        self.trips += 1

    def retry_after_seconds(self) -> int:
        """Seconds until the cooldown elapses (min 1)."""
        remaining = COOLDOWN_SECONDS - (self._clock() - self._opened_at)
        return max(1, int(remaining) + 1) if self._state is BreakerState.OPEN \
            else 1

    def snapshot(self) -> dict:
        return {
            "state": str(self.state),
            "window_failures": sum(self._outcomes),
            "window_size": len(self._outcomes),
            "trips": self.trips,
        }


class BreakerRegistry:
    """One :class:`CircuitBreaker` per assignment, created on demand."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}

    def get(self, assignment_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(assignment_name)
        if breaker is None:
            breaker = CircuitBreaker(clock=self._clock)
            self._breakers[assignment_name] = breaker
        return breaker

    def snapshot(self) -> dict[str, dict]:
        return {
            name: breaker.snapshot()
            for name, breaker in sorted(self._breakers.items())
        }
