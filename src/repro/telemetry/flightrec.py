"""The flight recorder: always-on post-mortem state for chaos debugging.

Chaos runs (E13/E17) used to be debuggable only through five separate
canonical logs — breaker transitions, brownout steps, WAN partition/
heal events, migration reports, SLO alerts — plus whatever spans the
tracer happened to hold. The :class:`FlightRecorder` unifies them:

* a bounded **event journal**: every one of those control-plane
  transitions (and every fired fault) appends one tagged line, in
  simulation order, into a ring of the most recent events;
* a bounded **trace ring**: the most recent *sampled* root spans, fed
  by the tracer as each sampled flow's root finishes;
* **auto-dumps**: when an SLO rule starts firing or a windowed fault
  opens, the recorder snapshots a post-mortem — the trigger, the
  journal tail, and renders of the recent sampled traces — so the
  moments before an incident survive even though the rings keep
  rolling.

Every simulator owns one lazily (``sim.recorder``), the same way it
owns its metrics registry and tracer. Recording is append-only into
``deque(maxlen=...)`` rings and never touches the metrics registry,
RNG streams, or simulated time, so enabling it (it is never off)
changes no canonical artifact bytes. Sources reach the recorder via
``getattr(clock, "recorder", None)`` at construction time: components
built on a bare ``ManualClock`` simply record nothing.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

__all__ = ["FlightRecorder"]

#: Journal lines kept (oldest dropped first).
JOURNAL_LIMIT = 512

#: Sampled root spans kept in the trace ring.
TRACE_LIMIT = 32

#: Post-mortem dumps kept per run.
DUMP_LIMIT = 8

#: Journal lines included in each dump.
DUMP_JOURNAL_TAIL = 64

#: Sampled traces rendered into each dump.
DUMP_TRACE_TAIL = 4


class FlightRecorder:
    """Bounded journal + sampled-trace ring + post-mortem dumps."""

    def __init__(self, clock, journal_limit: int = JOURNAL_LIMIT):
        self.clock = clock
        self.journal = deque(maxlen=journal_limit)  # (at, source, line)
        self.traces = deque(maxlen=TRACE_LIMIT)     # sampled root Spans
        self.dumps: deque = deque(maxlen=DUMP_LIMIT)  # (trigger, bytes)
        self.recorded = 0

    # -- recording -----------------------------------------------------------
    def record(self, source: str, line: str) -> None:
        """Append one event line from *source* (``breaker``, ``brownout``,
        ``wan``, ``migration``, ``slo``, ``fault``) at the current time."""
        self.recorded += 1
        self.journal.append((self.clock.now, source, line))

    def record_trace(self, root) -> None:
        """Ring-buffer a sampled flow's finished root span."""
        self.traces.append(root)

    # -- canonical views -----------------------------------------------------
    def journal_lines(self) -> List[str]:
        return [
            f"{at:.9f} [{source}] {line}"
            for at, source, line in self.journal
        ]

    # -- post-mortem dumps ---------------------------------------------------
    def dump(self, trigger: str) -> bytes:
        """Snapshot a post-mortem now; returns (and retains) its bytes."""
        lines = [
            f"flight-recorder dump trigger={trigger} at={self.clock.now!r}",
            f"journal (last {DUMP_JOURNAL_TAIL} of {self.recorded}):",
        ]
        tail = self.journal_lines()[-DUMP_JOURNAL_TAIL:]
        lines.extend(tail if tail else ["(empty)"])
        recent = list(self.traces)[-DUMP_TRACE_TAIL:]
        lines.append(f"sampled traces (last {len(recent)}):")
        if not recent:
            lines.append("(none)")
        for root in recent:
            lines.append(f"trace {root.trace_id}:")
            lines.append(root.render())
        snapshot = "\n".join(lines).encode()
        self.dumps.append((trigger, snapshot))
        return snapshot

    def last_dump(self) -> Optional[bytes]:
        """The most recent post-mortem snapshot, or ``None``."""
        return self.dumps[-1][1] if self.dumps else None

    def dump_triggers(self) -> Tuple[str, ...]:
        return tuple(trigger for trigger, __ in self.dumps)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(journal={len(self.journal)}, "
            f"traces={len(self.traces)}, dumps={len(self.dumps)})"
        )
