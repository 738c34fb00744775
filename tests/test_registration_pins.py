"""Registration pins: components register every counter at construction.

A counter registered on first increment instead would be missing from
``snapshot_bytes()`` until it moved — one fewer ``counter <path> 0`` line
— and every telemetry digest built over that registry would change. Each
test builds one counting component on a fresh simulator, drives a small
fixed workload that leaves some of its counters at zero, and pins the
component's canonical snapshot byte for byte.
"""

from repro.dpu import FailoverKvClient, ReplicatedDpuKvCluster
from repro.hw.fpga.fabric import MemoryBank
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeCommand, NvmeController, NvmeOpcode
from repro.hw.pcie.link import PcieLink
from repro.memory import (
    DramBackend,
    NvmeBackend,
    PlacementHint,
    SingleLevelStore,
)
from repro.memory.tiering import TieringPolicy
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd


def _store(sim):
    dram = DramBackend(sim, MemoryBank("ddr4-0", 1 << 16, 19.2e9, 80e-9), 1 << 16)
    controller = NvmeController(sim, "tier-ssd")
    controller.add_namespace(Namespace(1, 4096))
    qp = controller.create_queue_pair()
    controller.start()
    return SingleLevelStore(sim, dram, NvmeBackend(sim, controller, qp))


def _snapshot(sim, prefix):
    return sim.telemetry.snapshot_bytes(prefix).decode()


def test_single_level_store():
    sim = Simulator()
    store = _store(sim)
    segment = store.allocate(64)
    store.write(segment.oid, b"x" * 64)
    store.read(segment.oid, 8)
    store.read(segment.oid, 8)
    assert _snapshot(sim, "memory.store") == PINS["memory.store"]


def test_tiering_policy():
    sim = Simulator()
    store = _store(sim)
    policy = TieringPolicy(store, hot_threshold=2)
    cold = store.allocate(64, hint=PlacementHint.COLD)
    for __ in range(3):
        store.read(cold.oid, 8)
    policy.run_epoch()
    policy.run_epoch()
    assert _snapshot(sim, "memory.tiering") == PINS["memory.tiering"]


def test_kvssd_lsm_scope():
    sim = Simulator()
    controller = NvmeController(sim, "kv-ssd")
    controller.add_namespace(Namespace(1, 4096))
    kv = KvSsd(sim, controller, memtable_limit=4)

    def workload():
        for index in range(6):
            yield from kv.put(f"k{index}".encode(), b"v" * 16)

    sim.run_process(workload())
    assert _snapshot(sim, "kvssd.kv-ssd.lsm") == PINS["kvssd.kv-ssd.lsm"]


def test_failover_client():
    sim = Simulator()
    network = Network(sim)
    cluster = ReplicatedDpuKvCluster(
        sim, network, dpu_count=3, replication=2, ssd_blocks=4096
    )
    client = FailoverKvClient(sim, network, "client", cluster)

    def workload():
        for index in range(4):
            key = f"k{index}".encode()
            yield from client.put(key, b"v" * 16)
            yield from client.get(key)

    sim.run_process(workload())
    assert _snapshot(sim, "dpu.failover.client") == PINS["dpu.failover.client"]


def test_pcie_link():
    sim = Simulator()
    link = PcieLink(sim, lanes=4)
    sim.run_process(link.transfer(4096))
    assert _snapshot(sim, "pcie-link") == PINS["pcie-link"]


def test_nvme_controller_and_flash():
    sim = Simulator()
    controller = NvmeController(sim, "nvme-0")
    controller.add_namespace(Namespace(1, 4096))
    qp = controller.create_queue_pair()
    controller.start()

    def workload():
        yield qp.submit(NvmeCommand(NvmeOpcode.WRITE, lba=3, data=b"pinned"))
        yield qp.submit(NvmeCommand(NvmeOpcode.READ, lba=3, block_count=1))

    sim.run_process(workload())
    assert _snapshot(sim, "nvme-0") == PINS["nvme-0"]


PINS = {
    "dpu.failover.client": "\n".join([
        "counter dpu.failover.client.breaker.kv-dpu-0.closed 0",
        "counter dpu.failover.client.breaker.kv-dpu-0.half_opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-0.opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-0.rejected 0",
        "gauge dpu.failover.client.breaker.kv-dpu-0.state 0.0",
        "counter dpu.failover.client.breaker.kv-dpu-1.closed 0",
        "counter dpu.failover.client.breaker.kv-dpu-1.half_opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-1.opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-1.rejected 0",
        "gauge dpu.failover.client.breaker.kv-dpu-1.state 0.0",
        "counter dpu.failover.client.breaker.kv-dpu-2.closed 0",
        "counter dpu.failover.client.breaker.kv-dpu-2.half_opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-2.opened 0",
        "counter dpu.failover.client.breaker.kv-dpu-2.rejected 0",
        "gauge dpu.failover.client.breaker.kv-dpu-2.state 0.0",
        "counter dpu.failover.client.failed_ops 0",
        "counter dpu.failover.client.failovers 0",
        "gauge dpu.failover.client.marked_down 0.0",
        "counter dpu.failover.client.reads 4",
        "counter dpu.failover.client.replica_failures 0",
        "counter dpu.failover.client.writes 4",
    ]),
    "kvssd.kv-ssd.lsm": "\n".join([
        "counter kvssd.kv-ssd.lsm.bytes_compacted 0",
        "counter kvssd.kv-ssd.lsm.compactions 0",
        "counter kvssd.kv-ssd.lsm.flushes 1",
    ]),
    "nvme-0": "\n".join([
        "histogram nvme-0.cmd_latency count=2 sum=0.00059424"
        " min=8.711999999999999e-05 max=0.00050712 p50=0.00029712"
        " p90=0.00046512 p99=0.00050292 buckets=0,0,0,0,0,1,1,0,0,0,0,0",
        "counter nvme-0.commands_aborted 0",
        "counter nvme-0.commands_executed 2",
        "counter nvme-0.flash.programs 1",
        "counter nvme-0.flash.read_errors 0",
        "counter nvme-0.flash.reads 1",
        "counter nvme-0.flash.stuck_busy_ops 0",
        "counter nvme-0.media_errors 0",
    ]),
    "pcie-link": "\n".join([
        "counter pcie-link.bytes_transferred 4096",
        "counter pcie-link.completion_timeouts 0",
    ]),
    "memory.store": "\n".join([
        "counter memory.store.allocations 1",
        "counter memory.store.promotions 0",
        "counter memory.store.reads 2",
        "counter memory.store.writes 1",
    ]),
    "memory.tiering": "\n".join([
        "counter memory.tiering.breaker.dram.closed 0",
        "counter memory.tiering.breaker.dram.half_opened 0",
        "counter memory.tiering.breaker.dram.opened 0",
        "counter memory.tiering.breaker.dram.rejected 0",
        "gauge memory.tiering.breaker.dram.state 0.0",
        "counter memory.tiering.degraded 0",
        "counter memory.tiering.demotions 0",
        "counter memory.tiering.epochs 2",
        "counter memory.tiering.promotions 1",
        "gauge memory.tiering.queue.depth 0",
        "counter memory.tiering.queue.dequeued 1",
        "counter memory.tiering.queue.dropped_deadline 0",
        "counter memory.tiering.queue.dropped_full 0",
        "counter memory.tiering.queue.enqueued 1",
        "gauge memory.tiering.queue.saturation 0.0",
        "histogram memory.tiering.queue.sojourn count=1 sum=0.0 min=0.0"
        " max=0.0 p50=0.0 p90=0.0 p99=0.0 buckets=1,0,0,0,0,0,0,0,0,0,0,0",
    ]),
}
