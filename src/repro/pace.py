"""Fixed-temporal-distribution pacing for the serving stack.

The fork-path controller makes the *label sequence* oblivious — every
access is dummy-padded to ``M`` candidates — but the service still
issues accesses *when requests arrive*, so an adversary watching the
backend timeline recovers client arrival patterns even though every
label is uniform. This module closes that channel (Cloak-style static
timing protection, see docs/TEMPORAL.md):

* :class:`Pacer` — drives the serve engine's turn loop on a configured
  clock. One (real-or-dummy) ORAM access per *slot*; slot deadlines lie
  on an absolute grid — startup time plus the running sum of gaps that
  depend only on configuration and a private seeded RNG, never on
  traffic. An access that overruns its slot makes the pacer *skip*
  whole grid slots (counted in :attr:`Pacer.overruns`) rather than
  re-anchor at "now" or issue a catch-up burst, so no inter-slot gap
  ever equals a load-dependent access duration.
* :class:`AdaptiveDummyController` — re-tunes the cadence **between
  epochs** (never within one) from public queue-depth watermarks,
  trading dummy bandwidth against queueing latency inside hard
  floor/ceiling bounds. Epoch boundaries are a function of the public
  slot count only, so the adjustment schedule is itself public.

The statistical check that a paced timeline is indistinguishable from
the load-free baseline lives in :mod:`repro.security.temporal`.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import PaceConfig
from repro.errors import ConfigError

__all__ = ["AdaptiveDummyController", "EpochAdjustment", "Pacer"]


@dataclass(frozen=True)
class EpochAdjustment:
    """Outcome of one adaptation epoch (returned at every boundary)."""

    epoch: int
    old_interval_ns: float
    new_interval_ns: float
    high_marks: int
    low_only: bool
    slots: int

    @property
    def changed(self) -> bool:
        return self.new_interval_ns != self.old_interval_ns


class AdaptiveDummyController:
    """Between-epoch cadence tuning from public queue-depth watermarks.

    The controller samples the (public) engine queue depth once per
    pace slot and, **only at an epoch boundary** (every
    ``pace.epoch_slots`` slots):

    * speeds the cadence up (divides the interval by
      ``pace.adjust_factor``) when the depth reached
      ``pace.high_watermark`` on a strict majority of the epoch's
      slots — the service is queueing, spend bandwidth on latency;
    * slows it down (multiplies by ``pace.adjust_factor``) when the
      depth stayed at or below ``pace.low_watermark`` on *every* slot —
      the service is idle, stop burning dummy bandwidth;
    * otherwise leaves the interval alone.

    The interval is clamped to ``pace.interval_bounds()`` — the hard
    floor/ceiling an adversary may assume. Within an epoch the cadence
    never moves, so per-slot timing carries no per-request information;
    across epochs the adjustment is a deterministic function of public
    queue-depth watermark counts.
    """

    def __init__(self, config: PaceConfig) -> None:
        if not config.adaptive:
            raise ConfigError("AdaptiveDummyController requires pace.adaptive")
        self._config = config
        self.interval_ns = float(config.interval_ns)
        self._floor, self._ceiling = config.interval_bounds()
        self.epoch = 0
        self._slots = 0
        self._high_marks = 0
        self._low_only = True

    def observe(self, queue_depth: int) -> Optional[EpochAdjustment]:
        """Record one slot's public queue depth; at an epoch boundary,
        apply the adjustment rule and return the epoch's outcome."""
        self._slots += 1
        if queue_depth >= self._config.high_watermark:
            self._high_marks += 1
        if queue_depth > self._config.low_watermark:
            self._low_only = False
        if self._slots < self._config.epoch_slots:
            return None
        old = self.interval_ns
        if self._high_marks * 2 > self._config.epoch_slots:
            self.interval_ns = max(self._floor, old / self._config.adjust_factor)
        elif self._low_only:
            self.interval_ns = min(self._ceiling, old * self._config.adjust_factor)
        outcome = EpochAdjustment(
            epoch=self.epoch,
            old_interval_ns=old,
            new_interval_ns=self.interval_ns,
            high_marks=self._high_marks,
            low_only=self._low_only,
            slots=self._slots,
        )
        self.epoch += 1
        self._slots = 0
        self._high_marks = 0
        self._low_only = True
        return outcome


async def _sleep(seconds: float) -> None:
    """Sleep in a worker thread and wake the loop when it returns.

    ``asyncio.sleep`` cannot hit a grid deadline: the selector rounds
    timer waits up to whole milliseconds *from the call*, so the pacer
    would wake at ``access end + k ms`` and every gap would equal the
    load-dependent access duration modulo 1 ms — which the temporal
    verifier's KS bar detects. ``time.sleep`` in the default executor
    wakes within tens of microseconds of the deadline whatever the
    call time, and always yields the loop at least once.
    """
    await asyncio.get_running_loop().run_in_executor(None, time.sleep, seconds)


class Pacer:
    """Deadline-grid clock for paced access issue.

    ``await wait_for_slot()`` sleeps until the next slot deadline and
    returns the nanoseconds actually waited; the caller then runs
    exactly one (real-or-dummy) ORAM access and reports the slot with
    :meth:`note_slot`. Each deadline is the previous one plus the next
    configured gap — ``interval_ns`` in ``"fixed"`` mode, plus a
    uniform draw from ``[0, jitter_ns]`` off a private RNG in
    ``"jittered"`` mode — so the deadlines form an absolute grid fixed
    by the startup time, the configuration and the seed (one draw per
    grid slot, issued or skipped, so the jitter stream is
    traffic-independent). If the previous access ran past one or more
    deadlines, those slots are skipped, each counted in the public
    :attr:`overruns`, and the pacer sleeps to the first grid deadline
    still in the future: no catch-up burst, no deadline re-anchored at
    a load-dependent "now".

    ``clock`` must return nanoseconds (monotone); it defaults to
    :func:`time.perf_counter_ns` and is injectable for tests and for
    aligning with a service's relative clock.
    """

    def __init__(
        self,
        config: PaceConfig,
        *,
        clock: Callable[[], float] = time.perf_counter_ns,
    ) -> None:
        if config.mode == "off":
            raise ConfigError("Pacer requires pace.mode != 'off'")
        self._config = config
        self._clock = clock
        self._rng = random.Random(config.seed)
        self._controller = (
            AdaptiveDummyController(config) if config.adaptive else None
        )
        self._interval_ns = float(config.interval_ns)
        self._deadline_ns: Optional[float] = None
        self.slots = 0
        self.dummy_slots = 0
        #: Grid slots skipped because the previous access was still
        #: running at their deadline.
        self.overruns = 0
        self.waited_ns = 0.0

    @property
    def mode(self) -> str:
        return self._config.mode

    @property
    def interval_ns(self) -> float:
        """The epoch's current nominal inter-slot gap."""
        return self._interval_ns

    @property
    def controller(self) -> Optional[AdaptiveDummyController]:
        return self._controller

    def next_gap_ns(self) -> float:
        """Draw the next inter-slot gap (advances the jitter RNG)."""
        gap = self._interval_ns
        if self._config.mode == "jittered":
            gap += self._rng.uniform(0.0, self._config.jitter_ns)
        return gap

    def pending_deadline_ns(self) -> Optional[float]:
        """The next slot's grid deadline (None before the first wait)."""
        return self._deadline_ns

    async def wait_for_slot(self) -> float:
        """Sleep until the next slot deadline; returns ns waited."""
        start = self._clock()
        deadline = self._deadline_ns
        if deadline is None:
            # First slot: anchor the grid at startup.
            deadline = start + self.next_gap_ns()
        while deadline < start:
            # The previous access overran this slot: skip it whole.
            self.overruns += 1
            deadline += self.next_gap_ns()
        now = start
        while True:
            # Always at least one scheduling point per slot, so other
            # tasks (session handlers) keep making progress under load.
            await _sleep(max(0.0, deadline - now) / 1e9)
            now = self._clock()
            if now >= deadline:
                break
        self._deadline_ns = deadline + self.next_gap_ns()
        waited = float(now - start)
        self.waited_ns += waited
        return waited

    def note_slot(
        self, queue_depth: int, real: bool
    ) -> Optional[EpochAdjustment]:
        """Report the slot just issued (``real`` False = pure dummy).

        Feeds the adaptive controller when enabled; returns the epoch
        outcome at an epoch boundary (None otherwise).
        """
        self.slots += 1
        if not real:
            self.dummy_slots += 1
        if self._controller is None:
            return None
        outcome = self._controller.observe(queue_depth)
        if outcome is not None:
            self._interval_ns = self._controller.interval_ns
        return outcome
