"""Zoned namespaces (ZNS): append-only zones with write pointers.

Paper §2 lists ZNS among the storage APIs the end-to-end hardware path can
be specialized with. Zones enforce sequential writes; ZONE_APPEND picks the
write location device-side and returns it — the primitive Corfu-style shared
logs build on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.common.errors import CapacityError, ProtocolError
from repro.hw.nvme.namespace import LBA_SIZE


class ZoneState(enum.Enum):
    """Zone lifecycle: empty, open (partially written), or full."""

    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


@dataclass
class Zone:
    """One zone: ``[start_lba, start_lba + capacity_blocks)``."""

    index: int
    start_lba: int
    capacity_blocks: int
    write_pointer: int = 0
    state: ZoneState = ZoneState.EMPTY

    @property
    def remaining_blocks(self) -> int:
        return self.capacity_blocks - self.write_pointer


class ZonedNamespace:
    """A namespace carved into fixed-size sequential-write zones."""

    def __init__(self, namespace_id: int, zone_count: int, zone_blocks: int):
        if zone_count < 1 or zone_blocks < 1:
            raise CapacityError("need at least one zone and one block per zone")
        self.namespace_id = namespace_id
        self.zone_blocks = zone_blocks
        self.zones: List[Zone] = [
            Zone(i, i * zone_blocks, zone_blocks) for i in range(zone_count)
        ]
        self._blocks: Dict[int, bytes] = {}

    @property
    def capacity_blocks(self) -> int:
        return len(self.zones) * self.zone_blocks

    def zone_for_lba(self, lba: int) -> Zone:
        if not 0 <= lba < self.capacity_blocks:
            raise CapacityError(f"LBA {lba} out of range")
        return self.zones[lba // self.zone_blocks]

    def append(self, zone_index: int, data: bytes) -> int:
        """Device-chosen write: returns the LBA the data landed on."""
        if not 0 <= zone_index < len(self.zones):
            raise CapacityError(f"no zone {zone_index}")
        zone = self.zones[zone_index]
        count = max(1, (len(data) + LBA_SIZE - 1) // LBA_SIZE)
        if zone.remaining_blocks < count:
            raise ProtocolError(f"zone {zone_index} full")
        lba = zone.start_lba + zone.write_pointer
        padded = data.ljust(count * LBA_SIZE, b"\x00")
        for i in range(count):
            self._blocks[lba + i] = padded[i * LBA_SIZE : (i + 1) * LBA_SIZE]
        zone.write_pointer += count
        zone.state = (
            ZoneState.FULL if zone.remaining_blocks == 0 else ZoneState.OPEN
        )
        return lba

    def write(self, lba: int, data: bytes) -> int:
        """Sequential-only write at the zone's write pointer."""
        zone = self.zone_for_lba(lba)
        expected = zone.start_lba + zone.write_pointer
        if lba != expected:
            raise ProtocolError(
                f"non-sequential write to zone {zone.index}: "
                f"lba {lba}, write pointer at {expected}"
            )
        return self.append(zone.index, data) and max(
            1, (len(data) + LBA_SIZE - 1) // LBA_SIZE
        )

    def read_blocks(self, lba: int, count: int) -> bytes:
        zone = self.zone_for_lba(lba)
        written_end = zone.start_lba + zone.write_pointer
        if lba + count > written_end:
            raise ProtocolError(
                f"read past write pointer in zone {zone.index}"
            )
        return b"".join(
            self._blocks.get(i, b"\x00" * LBA_SIZE) for i in range(lba, lba + count)
        )

    def reset_zone(self, zone_index: int) -> None:
        zone = self.zones[zone_index]
        for lba in range(zone.start_lba, zone.start_lba + zone.write_pointer):
            self._blocks.pop(lba, None)
        zone.write_pointer = 0
        zone.state = ZoneState.EMPTY
