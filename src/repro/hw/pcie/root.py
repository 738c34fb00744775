"""The root complex: enumeration and BAR address assignment.

On a conventional server the host CPU's firmware performs the "complex PCIe
enumerations" the paper calls out; in Hyperion the FPGA hosts the root
complex, so enumeration runs on the DPU at boot with no CPU involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.hw.pcie.device import Bar, PcieBridge, PcieDevice
from repro.hw.pcie.link import PcieLink


@dataclass
class EnumeratedDevice:
    """The outcome of enumeration for one endpoint."""

    device: PcieDevice
    bdf: str
    bar_bases: List[int]


def _align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class RootComplex:
    """Walks the PCIe tree, numbers buses, and assigns BAR windows.

    The memory window handed to devices starts at ``mmio_base``; the AXI
    interconnect later routes this window to the NVMe controllers (paper
    §2.1's "NVMe PCIe BAR addresses").
    """

    def __init__(self, name: str = "fpga-root-complex", mmio_base: int = 0x4000_0000):
        self.name = name
        self.mmio_base = mmio_base
        self.root_ports: List[Tuple[PcieBridge, PcieLink]] = []
        self.devices: Dict[str, EnumeratedDevice] = {}
        self._next_bus = 0
        self._next_mmio = mmio_base
        self._enumerated = False

    def add_root_port(self, bridge: PcieBridge, link: PcieLink) -> None:
        if self._enumerated:
            raise ConfigurationError("cannot add ports after enumeration")
        bridge.upstream_link = link
        self.root_ports.append((bridge, link))

    # -- enumeration ---------------------------------------------------------
    def enumerate(self) -> List[EnumeratedDevice]:
        """Depth-first bus walk: number buses, then place BARs."""
        if self._enumerated:
            raise ConfigurationError("already enumerated")
        self._enumerated = True
        found: List[EnumeratedDevice] = []
        for bridge, __ in self.root_ports:
            found.extend(self._walk_bridge(bridge))
        return found

    def _walk_bridge(self, bridge: PcieBridge) -> List[EnumeratedDevice]:
        bridge.bus = self._next_bus
        self._next_bus += 1
        found: List[EnumeratedDevice] = []
        device_number = 0
        for child in bridge.children:
            if isinstance(child, PcieBridge):
                found.extend(self._walk_bridge(child))
            elif isinstance(child, PcieDevice):
                child.bus = bridge.bus
                child.device = device_number
                device_number += 1
                bases = [self._place_bar(bar) for bar in child.bars]
                record = EnumeratedDevice(child, child.bdf(), bases)
                self.devices[child.name] = record
                found.append(record)
        return found

    def _place_bar(self, bar: Bar) -> int:
        base = _align_up(self._next_mmio, bar.size)
        bar.base = base
        self._next_mmio = base + bar.size
        return base

    # -- address routing -----------------------------------------------------
    def device_for_address(self, address: int) -> PcieDevice:
        """Which endpoint claims a given MMIO address (BAR decoding)."""
        for record in self.devices.values():
            for bar in record.device.bars:
                if bar.base is not None and bar.base <= address < bar.base + bar.size:
                    return record.device
        raise ConfigurationError(f"MMIO address {address:#x} claimed by no BAR")
