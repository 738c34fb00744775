"""Point-to-point links with serialization and propagation delay."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind
from repro.hw.net.frames import Frame
from repro.sim import Simulator, Store
from repro.telemetry.tracing import NULL_SPAN as _NULL_SPAN

#: 100 Gbit/s in bytes/second.
QSFP28_100G = gbps(100)

#: Propagation within one datacenter rack/row (~2-5 us is typical including
#: switch transit; links default to 1 us each way and switches add more).
DEFAULT_PROPAGATION = 1e-6


@dataclass
class LinkStats:
    """Counters for one link's TX side, including every loss cause.

    A read-through snapshot of the link's registry counters (see
    ``Link.stats``), kept as a dataclass so ports can merge them.
    """

    frames_sent: int = 0
    frames_dropped: int = 0
    frames_corrupted: int = 0
    bytes_sent: int = 0

    @property
    def frames_delivered(self) -> int:
        return self.frames_sent - self.frames_dropped - self.frames_corrupted

    def merge(self, other: "LinkStats") -> "LinkStats":
        return LinkStats(
            self.frames_sent + other.frames_sent,
            self.frames_dropped + other.frames_dropped,
            self.frames_corrupted + other.frames_corrupted,
            self.bytes_sent + other.bytes_sent,
        )


class Link:
    """A unidirectional link delivering frames into a receive queue.

    The transmitter is a FIFO in closed form: a frame offered at ``now``
    departs at ``max(now, free_at) + wire_size / bandwidth`` and arrives
    ``propagation`` later, so back-to-back frames serialize at line rate
    while propagation is pipelined. Loss is judged at departure by
    ``loss_fn`` and by a fault injector attached via :meth:`attach_faults`,
    which can drop frames (FRAME_DROP), corrupt them (FRAME_CORRUPT — the
    receiver's FCS check discards them), or hold the link down for a
    window (LINK_DOWN). Arrivals wake :meth:`receive` or a switch's sink.
    ``free_at`` is when the transmitter finishes its backlog.

    All counters live in the simulator's telemetry registry under this
    link's component path (the same id the fault injector consults).
    """

    #: Span name/substrate for transmits; WAN links override these so a
    #: cross-region trace shows where the flow left the datacenter.
    TX_SPAN = "net.tx"
    TX_SUBSTRATE = "net"

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float = QSFP28_100G,
        propagation: float = DEFAULT_PROPAGATION,
        loss_fn: Optional[Callable[[Frame], bool]] = None,
        injector: Optional[FaultInjector] = None,
        component: str = "link",
    ):
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation < 0:
            raise ValueError("propagation must be non-negative")
        self.sim = sim
        self._tracer = sim.tracer
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.rx_queue: Store = Store(sim)
        self.free_at = 0.0
        self._arrive: Callable[[Frame], None] = self.rx_queue.put_nowait
        self._loss_fn = loss_fn
        self.injector = injector
        self.component = component
        self._metrics = sim.telemetry.unique_scope(component)
        self._frames_sent = self._metrics.counter("frames_sent")
        self._frames_dropped = self._metrics.counter("frames_dropped")
        self._frames_corrupted = self._metrics.counter("frames_corrupted")
        self._bytes_sent = self._metrics.counter("bytes_sent")

    def attach_faults(self, injector: FaultInjector, component: str) -> "Link":
        """Bind this link to a fault injector under the given component id.

        The link's metrics move to the same path, so the fault schedule
        and the telemetry snapshot agree on names.
        """
        self.injector = injector
        self.component = component
        self._metrics.rename(component)
        return self

    def attach_sink(self, sink: Callable[[Frame], None]) -> None:
        """Hand arriving frames to ``sink(frame)`` instead of the RX queue."""
        self._arrive = sink

    def stats(self) -> LinkStats:
        return LinkStats(
            self._frames_sent.value,
            self._frames_dropped.value,
            self._frames_corrupted.value,
            self._bytes_sent.value,
        )

    def serialization_delay(self, frame: Frame) -> float:
        return frame.wire_size / self.bandwidth

    def _fault_outcome(self, frame: Frame) -> Optional[str]:
        """Consult ``loss_fn``, then the injector, once per departing frame."""
        if self._loss_fn is not None and self._loss_fn(frame):
            return "drop"
        if self.injector is None:
            return None
        if self.injector.active(self.component, FaultKind.LINK_DOWN):
            return "drop"
        if self.injector.fires(self.component, FaultKind.FRAME_DROP):
            return "drop"
        if self.injector.fires(self.component, FaultKind.FRAME_CORRUPT):
            return "corrupt"
        return None

    def transmit(self, frame: Frame):
        """Process step: queue the frame, resume once it has departed."""
        departure, depart = self._enqueue(frame)
        event = self.sim.at(departure)
        event.callbacks.append(depart)
        yield event

    def launch(self, frame: Frame) -> None:
        """Queue a frame nobody waits on (a switch hop), in its flow."""
        context = frame.trace
        if context is None:
            self.sim.call_at(*self._enqueue(frame))
            return
        self._tracer.activate(context)  # the hop's span joins the flow
        self.sim.call_at(*self._enqueue(frame))
        self._tracer.activate(None)

    def _enqueue(self, frame: Frame):
        # net.tx is the highest-frequency span site in the system; the
        # attrs dict is only built when tracing is actually on.
        span = _NULL_SPAN
        tracer = self._tracer
        if tracer.enabled:
            if frame.trace is None:
                # First hop runs inside the sender's flow: stamp it onto
                # the frame so downstream switch hops can rejoin it.
                frame.trace = tracer.active_context
            span = tracer.span(
                self.TX_SPAN, self.TX_SUBSTRATE,
                component=self.component, bytes=frame.wire_size,
            )
        now = self.sim.now
        start = self.free_at if self.free_at > now else now
        self.free_at = start + frame.wire_size / self.bandwidth
        return self.free_at, partial(self._depart, frame, span)

    def _depart(self, frame: Frame, span, _event=None) -> None:
        self._frames_sent.inc()
        self._bytes_sent.inc(frame.wire_size)
        outcome = self._fault_outcome(frame)
        if outcome == "drop":
            self._frames_dropped.inc()
        elif outcome == "corrupt":
            self._frames_corrupted.inc()
        if span is not _NULL_SPAN:
            span.finish()
        if outcome is None:
            self.sim.call_at(self.sim.now + self.propagation,
                             partial(self._arrive, frame))

    def receive(self):
        """Event: the next frame out of the receive queue."""
        return self.rx_queue.get()
