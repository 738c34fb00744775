"""Distributed CPU-free applications over multiple DPUs (paper §2.4, §4).

The paper's C1/C2 workload split and discussion question 3: how to build
applications "executed over multiple DPUs"? Following the cited MICA
pattern, the cluster uses *client-driven request routing*: clients hash
keys to the owning DPU and talk to it directly — shared-nothing,
run-to-completion, with no coordinator in the data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.errors import ConfigurationError, DegradedError
from repro.overload.breaker import CircuitBreaker, CircuitOpenError
from repro.sharding.ring import HashRing
from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeController
from repro.sim import Simulator
from repro.storage.kvssd import KvSsd, KvSsdClient, KvSsdService
from repro.transport import RetryPolicy, RpcClient, RpcError, RpcServer, UdpSocket


@dataclass
class ClusterStats:
    """Aggregate and per-DPU operation counts for a cluster.

    A read-through snapshot assembled from each device's registry-backed
    ``gets``/``puts`` counters at :meth:`DpuKvCluster.stats` time.
    """

    routed_ops: int = 0
    per_dpu_ops: Optional[Dict[str, int]] = None


class DpuKvCluster:
    """N standalone KV-SSD DPUs behind client-driven routing.

    Placement is a consistent-hash ring
    (:class:`~repro.sharding.ring.HashRing`) rather than ``hash % n``:
    the owner of a key depends only on the ring geometry, so growing or
    shrinking the cluster re-homes ~1/n of the keyspace instead of
    nearly all of it (the property live migration builds on).
    """

    def __init__(self, sim: Simulator, network: Network, dpu_count: int = 4,
                 ssd_blocks: int = 65536):
        if dpu_count < 1:
            raise ConfigurationError("need at least one DPU")
        self.sim = sim
        self.network = network
        self.ssd_blocks = ssd_blocks
        self.addresses: List[str] = []
        self.devices: List[KvSsd] = []
        self.servers: List[RpcServer] = []
        self.ring = HashRing()
        for index in range(dpu_count):
            self._build_dpu(f"kv-dpu-{index}")

    def _build_dpu(self, address: str) -> str:
        """Stand up one KV-SSD DPU, serve it, and place it on the ring."""
        controller = NvmeController(self.sim, f"{address}-flash")
        controller.add_namespace(Namespace(1, self.ssd_blocks))
        device = KvSsd(self.sim, controller, memtable_limit=100_000)
        server = RpcServer(
            self.sim, UdpSocket(self.sim, self.network.endpoint(address))
        )
        KvSsdService(server, device)
        self.addresses.append(address)
        self.devices.append(device)
        self.servers.append(server)
        self.ring.add_node(address)
        return address

    def owner_of(self, key: bytes) -> str:
        """The DPU owning *key* under the current ring."""
        return self.ring.owner_of(key)

    def stats(self) -> ClusterStats:
        per_dpu = {
            address: device.gets + device.puts
            for address, device in zip(self.addresses, self.devices)
        }
        return ClusterStats(
            routed_ops=sum(per_dpu.values()), per_dpu_ops=per_dpu
        )

    def balance(self) -> float:
        """max/mean ops across DPUs — 1.0 is a perfect spread."""
        counts = [d.gets + d.puts for d in self.devices]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


class RoutingClient:
    """A client that owns the partition map (passive disaggregation: the
    smartness lives with the client, the DPUs only serve fast-path ops)."""

    def __init__(self, sim: Simulator, network: Network, name: str,
                 cluster: DpuKvCluster):
        self.cluster = cluster
        rpc = RpcClient(sim, UdpSocket(sim, network.endpoint(name)))
        self._stubs: Dict[str, KvSsdClient] = {
            address: KvSsdClient(rpc, address) for address in cluster.addresses
        }
        self._metrics = sim.telemetry.unique_scope(f"dpu.client.{name}")
        self._ops = self._metrics.counter("ops")

    @property
    def ops(self) -> int:
        return self._ops.value

    def put(self, key: bytes, value: bytes):
        stub = self._stubs[self.cluster.owner_of(key)]
        yield from stub.put(key, value)
        self._ops.inc()

    def get(self, key: bytes):
        stub = self._stubs[self.cluster.owner_of(key)]
        value = yield from stub.get(key)
        self._ops.inc()
        return value

    def delete(self, key: bytes):
        stub = self._stubs[self.cluster.owner_of(key)]
        yield from stub.delete(key)
        self._ops.inc()


class ReplicatedDpuKvCluster(DpuKvCluster):
    """K-way replicated KV cluster that survives dead or degraded DPUs.

    Each key's replica chain is the K DPUs starting at its hash owner
    (consecutive on the ring). Writes walk the chain head-to-tail; reads
    are served by any live replica — a client-driven approximation of
    chain replication that keeps the DPUs dumb and shared-nothing, in the
    same spirit as the MICA routing above. :meth:`kill` models an abrupt
    DPU death (its traffic blackholes at the switch) so failover paths can
    be exercised deterministically.
    """

    def __init__(self, sim: Simulator, network: Network, dpu_count: int = 4,
                 replication: int = 2, ssd_blocks: int = 65536):
        super().__init__(sim, network, dpu_count=dpu_count,
                         ssd_blocks=ssd_blocks)
        if not 1 <= replication <= dpu_count:
            raise ConfigurationError(
                f"replication factor {replication} needs "
                f"1..{dpu_count} replicas"
            )
        self.replication = replication
        self.down: Set[str] = set()

    def replicas_of(self, key: bytes) -> List[str]:
        """The key's replica chain, head (ring owner) first.

        Replicas are the next distinct DPUs clockwise on the hash ring,
        so they are always on distinct physical devices.
        """
        return self.ring.replicas_of(key, self.replication)

    def kill(self, index: int) -> str:
        """Abruptly kill one DPU: all frames to it vanish at the switch."""
        address = self.addresses[index]
        self.down.add(address)
        self.network.switch.blackhole(address)
        return address

    def revive(self, index: int) -> str:
        """Bring a killed DPU back (its replica data may be stale)."""
        address = self.addresses[index]
        self.down.discard(address)
        self.network.switch.restore(address)
        return address


#: Per-attempt RPC timeout of a :class:`FailoverKvClient` call.
FAILOVER_TIMEOUT = 1.5e-3
#: Retransmissions per replica RPC after the first attempt.
FAILOVER_RETRIES = 1
#: Overall budget of one replica RPC, retries included.
FAILOVER_DEADLINE = 50e-3
#: Consecutive failed calls that open a replica's circuit.
FAILOVER_BREAKER_FAILURES = 3
#: How long an open replica circuit stays open before a trial call.
FAILOVER_BREAKER_RESET = FAILOVER_TIMEOUT * 20


class FailoverKvClient:
    """Client-driven failover over a :class:`ReplicatedDpuKvCluster`.

    The client owns the partition map *and* the health map: replicas that
    time out are marked down and demoted in the read preference order;
    :meth:`probe` marks them up again. Every RPC carries a timeout,
    bounded retries with exponential backoff + jitter, and an overall
    deadline, so a dead DPU costs a few retransmit intervals — never a
    hung simulation.

    Each replica is additionally guarded by a
    :class:`~repro.overload.CircuitBreaker`: after a few consecutive
    failed calls the circuit opens and further calls to that replica are
    refused *instantly* — an immediate failover down the chain instead
    of burning the per-call deadline re-timing-out against a corpse. A
    successful :meth:`probe` closes the circuit again.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        cluster: ReplicatedDpuKvCluster,
    ):
        self.sim = sim
        self.cluster = cluster
        self.name = name
        self.rpc = RpcClient(sim, UdpSocket(sim, network.endpoint(name)))
        self.policy = RetryPolicy(
            base=FAILOVER_TIMEOUT, multiplier=2.0,
            max_interval=max(FAILOVER_TIMEOUT * 8, FAILOVER_TIMEOUT),
            jitter=0.1,
        )
        self.health: Dict[str, bool] = {
            address: True for address in cluster.addresses
        }
        scope = sim.telemetry.unique_scope(f"dpu.failover.{name}")
        self._reads = scope.counter("reads")
        self._writes = scope.counter("writes")
        self._failed_ops = scope.counter("failed_ops")
        # Ops that only succeeded on a non-head replica.
        self._failovers = scope.counter("failovers")
        # Individual replica RPCs that timed out or errored.
        self._replica_failures = scope.counter("replica_failures")
        #: Replicas this client has seen fail; the set's size is mirrored
        #: into the ``marked_down`` gauge.
        self.marked_down: Set[str] = set()
        self._marked_down = scope.gauge("marked_down")
        self.breakers: Dict[str, CircuitBreaker] = {
            address: CircuitBreaker(
                sim, scope.scope(f"breaker.{address}"),
                failure_threshold=FAILOVER_BREAKER_FAILURES,
                reset_timeout=FAILOVER_BREAKER_RESET,
            )
            for address in cluster.addresses
        }

    # -- internals -----------------------------------------------------------
    def _call(self, address: str, method: str, *args,
              request_size: int = 64, response_size: int = 64):
        breaker = self.breakers[address]
        if not breaker.allow():
            raise CircuitOpenError(f"{method} to {address}: circuit open")
        try:
            result = yield from self.rpc.call(
                address, method, *args,
                request_size=request_size, response_size=response_size,
                timeout=FAILOVER_TIMEOUT, retries=FAILOVER_RETRIES,
                deadline=FAILOVER_DEADLINE, policy=self.policy,
            )
        except RpcError:
            breaker.record_failure()
            raise
        breaker.record_success()
        return result

    def _ordered_replicas(self, key: bytes) -> List[str]:
        """The replica chain, healthy members first (stable order)."""
        chain = self.cluster.replicas_of(key)
        return (
            [a for a in chain if self.health[a]]
            + [a for a in chain if not self.health[a]]
        )

    def _mark_down(self, address: str) -> None:
        self.health[address] = False
        self.marked_down.add(address)
        self._marked_down.set(len(self.marked_down))
        self._replica_failures.inc()

    # -- health probing ------------------------------------------------------
    def probe(self, address: str):
        """Process: one health probe; updates the health map.

        Probes bypass the breaker (they *are* the recovery mechanism): a
        verified success closes an open circuit immediately, a failed
        probe counts as breaker evidence like any failed call.
        """
        breaker = self.breakers[address]
        try:
            yield from self.rpc.call(
                address, "kv.ping", request_size=16, response_size=16,
                timeout=FAILOVER_TIMEOUT, retries=0,
                deadline=FAILOVER_TIMEOUT * 2,
            )
        except RpcError:
            self._mark_down(address)
            breaker.record_failure()
            return False
        self.health[address] = True
        breaker.record_success()
        return True

    # -- the KV surface ------------------------------------------------------
    def put(self, key: bytes, value: bytes):
        """Process: write the replica chain head-to-tail; one ack suffices
        for availability (skipped replicas are marked down for repair)."""
        key, value = bytes(key), bytes(value)
        acked = 0
        last_error: Optional[RpcError] = None
        for position, address in enumerate(self.cluster.replicas_of(key)):
            try:
                yield from self._call(
                    address, "kv.put", key, value,
                    request_size=32 + len(key) + len(value), response_size=16,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError as error:
                self._mark_down(address)
                last_error = error
                continue
            self.health[address] = True
            acked += 1
            if position > 0 and acked == 1:
                self._failovers.inc()
        if acked == 0:
            self._failed_ops.inc()
            raise DegradedError(f"put {key!r}: no replica reachable ({last_error})")
        self._writes.inc()
        return acked

    def get(self, key: bytes):
        """Process: read from the first live replica, failing over down
        the chain when the preferred one is dead."""
        key = bytes(key)
        last_error: Optional[RpcError] = None
        head = self.cluster.replicas_of(key)[0]
        for address in self._ordered_replicas(key):
            try:
                value = yield from self._call(
                    address, "kv.get", key,
                    request_size=32 + len(key),
                    response_size=128,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError as error:
                self._mark_down(address)
                last_error = error
                continue
            self.health[address] = True
            if address != head:
                self._failovers.inc()
            self._reads.inc()
            return value
        self._failed_ops.inc()
        raise DegradedError(f"get {key!r}: no replica reachable ({last_error})")

    def delete(self, key: bytes):
        """Process: chain-wide delete (same walk as put)."""
        key = bytes(key)
        acked = 0
        for address in self.cluster.replicas_of(key):
            try:
                yield from self._call(
                    address, "kv.delete", key,
                    request_size=32 + len(key), response_size=16,
                )
            except CircuitOpenError:
                continue  # open circuit: fail over instantly, spend nothing
            except RpcError:
                self._mark_down(address)
                continue
            acked += 1
        if acked == 0:
            self._failed_ops.inc()
            raise DegradedError(f"delete {key!r}: no replica reachable")
        self._writes.inc()
        return acked
