"""DMA engines moving data across PCIe links without CPU copies."""

from __future__ import annotations

from repro.hw.pcie.link import PcieLink
from repro.sim import Resource, Simulator

#: Descriptor fetch + doorbell cost per DMA transfer.
DMA_SETUP_LATENCY = 300e-9


class DmaEngine:
    """A multi-channel DMA engine timed against a PCIe link.

    Each ``copy`` charges a setup cost plus the link's transfer time. The
    engine itself can have several channels (concurrent outstanding copies),
    but each copy still serializes on the underlying link.
    """

    def __init__(
        self,
        sim: Simulator,
        link: PcieLink,
        channels: int = 4,
    ):
        self.sim = sim
        self.link = link
        self._channels = Resource(sim, capacity=channels)
        self._metrics = sim.telemetry.unique_scope(f"{link.component}.dma")
        self._copies_completed = self._metrics.counter("copies_completed")

    @property
    def copies_completed(self) -> int:
        return self._copies_completed.value

    def copy(self, size_bytes: int):
        """Process: one DMA transfer of ``size_bytes`` over the link."""
        with self.sim.tracer.span("pcie.dma", "pcie", bytes=size_bytes):
            yield self._channels.request()
            try:
                yield self.sim.timeout(DMA_SETUP_LATENCY)
                yield from self.link.transfer(size_bytes)
                self._copies_completed.inc()
            finally:
                self._channels.release()
