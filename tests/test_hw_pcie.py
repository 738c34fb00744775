"""Tests for the PCIe substrate: links, enumeration, DMA."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.pcie import (
    Bar,
    DmaEngine,
    PcieBridge,
    PcieDevice,
    PcieLink,
    RootComplex,
)
from repro.hw.pcie.dma import DMA_SETUP_LATENCY
from repro.sim import Simulator


def build_hyperion_tree(sim):
    """The Figure 2 topology: x16 bifurcated into 4 x4 bridges, one SSD each."""
    root = RootComplex()
    ssds = []
    for i in range(4):
        bridge = PcieBridge(f"bridge-{i}")
        link = PcieLink(sim, lanes=4)
        ssd = PcieDevice(f"nvme-{i}", bars=[Bar(16 * 1024)])
        bridge.attach(ssd, link)
        root.add_root_port(bridge, PcieLink(sim, lanes=4))
        ssds.append(ssd)
    return root, ssds


class TestPcieLink:
    def test_bandwidth_scales_with_lanes(self):
        sim = Simulator()
        assert PcieLink(sim, lanes=16).bandwidth == 4 * PcieLink(sim, lanes=4).bandwidth

    def test_invalid_lanes(self):
        with pytest.raises(ConfigurationError):
            PcieLink(Simulator(), lanes=3)

    def test_tlp_overhead(self):
        link = PcieLink(Simulator(), lanes=4)
        assert link.wire_bytes(256) == 256 + 26
        assert link.wire_bytes(257) == 257 + 2 * 26

    def test_transfer_advances_time(self):
        sim = Simulator()
        link = PcieLink(sim, lanes=4)

        def scenario():
            yield from link.transfer(4096)
            return sim.now

        elapsed = sim.run_process(scenario())
        assert elapsed == pytest.approx(link.transfer_latency(4096))
        assert sim.telemetry.counter("pcie-link.bytes_transferred").value == 4096

    def test_transfers_serialize(self):
        sim = Simulator()
        link = PcieLink(sim, lanes=4)
        finish_times = []

        def one():
            yield from link.transfer(64 * 1024)
            finish_times.append(sim.now)

        sim.process(one())
        sim.process(one())
        sim.run()
        assert finish_times[1] == pytest.approx(2 * finish_times[0])


class TestEnumeration:
    def test_hyperion_topology(self):
        sim = Simulator()
        root, ssds = build_hyperion_tree(sim)
        found = root.enumerate()
        assert len(found) == 4
        bdfs = [record.bdf for record in found]
        assert len(set(bdfs)) == 4
        for ssd in ssds:
            assert ssd.enumerated
            assert ssd.bars[0].base is not None

    def test_bar_windows_disjoint_and_aligned(self):
        sim = Simulator()
        root, __ = build_hyperion_tree(sim)
        root.enumerate()
        windows = sorted(
            (bar.base, bar.base + bar.size)
            for record in root.devices.values()
            for bar in record.device.bars
        )
        for (start, end), (next_start, __) in zip(windows, windows[1:]):
            assert end <= next_start
        for start, __ in windows:
            assert start % (16 * 1024) == 0

    def test_address_decode(self):
        sim = Simulator()
        root, ssds = build_hyperion_tree(sim)
        root.enumerate()
        bar = ssds[2].bars[0]
        assert root.device_for_address(bar.base + 8) is ssds[2]

    def test_unclaimed_address(self):
        sim = Simulator()
        root, __ = build_hyperion_tree(sim)
        root.enumerate()
        with pytest.raises(ConfigurationError):
            root.device_for_address(0)

    def test_double_enumeration_rejected(self):
        sim = Simulator()
        root, __ = build_hyperion_tree(sim)
        root.enumerate()
        with pytest.raises(ConfigurationError):
            root.enumerate()

    def test_bdf_before_enumeration(self):
        with pytest.raises(ConfigurationError):
            PcieDevice("d").bdf()

    def test_bar_size_power_of_two(self):
        with pytest.raises(ConfigurationError):
            Bar(size=1000)


class TestDma:
    def test_copy_charges_setup_and_transfer(self):
        sim = Simulator()
        link = PcieLink(sim, lanes=4)
        dma = DmaEngine(sim, link, channels=1)

        def scenario():
            yield from dma.copy(4096)
            return sim.now

        elapsed = sim.run_process(scenario())
        assert elapsed == pytest.approx(DMA_SETUP_LATENCY + link.transfer_latency(4096))
        assert dma.copies_completed == 1

    def test_channels_limit_concurrency(self):
        sim = Simulator()
        link = PcieLink(sim, lanes=16)
        dma = DmaEngine(sim, link, channels=2)
        done = []

        def one():
            yield from dma.copy(4096)
            done.append(sim.now)

        for _ in range(3):
            sim.process(one())
        sim.run()
        # With 2 channels the setup of the first two overlaps; the third
        # waits for a free channel.
        assert done[2] > done[1] >= done[0]
