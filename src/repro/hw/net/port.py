"""A named, bidirectional network endpoint (one QSFP cage or host NIC)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.hw.net.frames import Frame
from repro.hw.net.link import Link, LinkStats
from repro.sim import Simulator


@dataclass
class PortStats:
    """Aggregated TX counters across a port's outgoing links, plus RX.

    A read-through snapshot: the underlying counts live in the telemetry
    registry (each TX link's counters plus the port's own RX counter).
    """

    tx: LinkStats
    frames_received: int = 0

    @property
    def frames_dropped(self) -> int:
        return self.tx.frames_dropped

    @property
    def frames_corrupted(self) -> int:
        return self.tx.frames_corrupted


class NetworkPort:
    """A device-side attachment point with a TX link per peer.

    Ports are wired together by a :class:`repro.hw.net.switch.Network`; the
    port only knows "to reach address X, transmit on link L".
    """

    def __init__(self, sim: Simulator, address: str):
        self.sim = sim
        self.address = address
        self._routes: Dict[str, Link] = {}
        self.rx_link: Optional[Link] = None
        self._metrics = sim.telemetry.unique_scope(f"net.port.{address}")
        self._tx_frames = self._metrics.counter("tx_frames")
        self._rx_frames = self._metrics.counter("rx_frames")

    def attach_rx(self, link: Link) -> None:
        self.rx_link = link

    def add_route(self, destination: str, link: Link) -> None:
        self._routes[destination] = link

    def route(self, destination: str = "*") -> Link:
        """The TX link used to reach ``destination`` (fault wiring hook)."""
        link = self._routes.get(destination) or self._routes.get("*")
        if link is None:
            raise ConfigurationError(
                f"port {self.address} has no route to {destination}"
            )
        return link

    def stats(self) -> PortStats:
        """Port-level view: every TX link's counters merged, plus RX."""
        tx = LinkStats()
        for link in dict.fromkeys(self._routes.values()):
            tx = tx.merge(link.stats())
        received = (
            self.rx_link.stats().frames_delivered
            if self.rx_link is not None else 0
        )
        # Mirror the derived RX count into the registry.
        if received > self._rx_frames.value:
            self._rx_frames.inc(received - self._rx_frames.value)
        return PortStats(tx=tx, frames_received=received)

    def send(self, frame: Frame):
        """Process: transmit a frame toward its destination."""
        link = self.route(frame.dst)
        self._tx_frames.inc()
        yield from link.transmit(frame)

    def receive(self):
        """Event: next frame arriving at this port."""
        if self.rx_link is None:
            raise ConfigurationError(f"port {self.address} has no RX link")
        return self.rx_link.receive()
