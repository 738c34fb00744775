"""Clock sources for anything scheduled against simulated time.

Fault plans, telemetry spans, and every substrate model run strictly
against *simulated* time — never the wall clock — so runs are
reproducible. Any object exposing a ``now`` attribute works as a clock;
:class:`repro.sim.Simulator` already does. :class:`ManualClock` exists
for unit tests that want to step time by hand. Import it from
``repro.sim``.
"""

from __future__ import annotations

__all__ = ["ManualClock"]


class ManualClock:
    """A hand-advanced clock for testing plans without a simulator."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("clock cannot run backwards")
        self.now += delta
        return self.now
