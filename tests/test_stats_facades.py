"""Counters and snapshot facades must keep agreeing with the registry
while a sampler is live on it — sampling is read-only and must never
perturb (or lag) what a component counted."""

import pytest

from repro.dpu.cluster import (
    DpuKvCluster,
    FailoverKvClient,
    ReplicatedDpuKvCluster,
    RoutingClient,
)
from repro.hw.net import Frame, Network
from repro.sim import ManualClock, Simulator
from repro.telemetry import MetricsRegistry, Sampler


def _sampled(registry, clock, *prefixes):
    sampler = Sampler(registry, clock)
    for prefix in prefixes:
        sampler.watch_prefix(prefix)
    return sampler


def _tick(clock, sampler):
    clock.advance(1e-3)
    sampler.sample()


class TestRegistryCounters:
    """Counters components own, read by path while a sampler runs."""

    def test_sampling_does_not_perturb_counters(self):
        reg = MetricsRegistry()
        clock = ManualClock()
        sampler = _sampled(reg, clock, "memory.store")
        reads = reg.scope("memory.store").counter("reads")
        reads.inc(3)
        _tick(clock, sampler)
        assert reg.counter("memory.store.reads").value == 3
        assert sampler.series("memory.store.reads").last[1] == 3.0
        reads.inc()  # counting after a sample is seen at once
        assert reg.counter("memory.store.reads").value == 4
        _tick(clock, sampler)
        assert sampler.series("memory.store.reads").last[1] == 4.0

    def test_failover_client_mirrors_marked_down_into_gauge(self):
        sim = Simulator()
        sampler = _sampled(sim.telemetry, sim, "dpu.failover")
        network = Network(sim)
        cluster = ReplicatedDpuKvCluster(
            sim, network, dpu_count=3, replication=2, ssd_blocks=4096
        )
        client = FailoverKvClient(sim, network, "client", cluster)
        gauge = sim.telemetry.gauge("dpu.failover.client.marked_down")
        assert gauge.value == 0.0

        def workload():
            cluster.kill(1)
            for __ in range(2):  # marking an address twice counts it once
                yield from client.probe("kv-dpu-1")
            sampler.sample()

        sim.run_process(workload())
        assert client.marked_down == {"kv-dpu-1"}
        assert gauge.value == 1.0
        assert sampler.series("dpu.failover.client.marked_down").last[1] == 1.0
        assert sim.telemetry.counter(
            "dpu.failover.client.replica_failures"
        ).value == 2


class TestSnapshotFacades:
    """Facades assembled from the registry at stats() time, exercised
    through their real subsystems with a sampler running alongside."""

    def test_link_and_port_stats(self):
        sim = Simulator()
        sampler = _sampled(sim.telemetry, sim, "net")
        network = Network(sim)
        a = network.endpoint("a")
        network.endpoint("b")

        def send():
            for __ in range(3):
                yield from a.send(Frame("a", "b", None, payload_size=100))
            sampler.sample()

        sim.run_process(send())
        stats = a.stats()
        assert stats.tx.frames_sent == 3
        assert stats.tx.frames_sent == \
            sim.telemetry.counter("net.link.a.up.frames_sent").value
        assert stats.tx.bytes_sent == \
            sim.telemetry.counter("net.link.a.up.bytes_sent").value
        sent = sampler.series("net.link.a.up.frames_sent")
        assert sent is not None and sent.last[1] == 3.0

    def test_cluster_stats(self):
        sim = Simulator()
        sampler = _sampled(sim.telemetry, sim, "kvssd")
        network = Network(sim)
        cluster = DpuKvCluster(sim, network, dpu_count=2, ssd_blocks=4096)
        client = RoutingClient(sim, network, "host", cluster)

        def workload():
            for index in range(6):
                key = f"key:{index}".encode()
                yield from client.put(key, b"v")
                value = yield from client.get(key)
                assert value == b"v"
            sampler.sample()

        sim.run_process(workload())
        stats = cluster.stats()
        assert stats.routed_ops == 12
        registry_total = sum(
            sim.telemetry.counter(f"kvssd.{address}-flash.{op}").value
            for address in cluster.addresses
            for op in ("gets", "puts")
        )
        assert stats.routed_ops == registry_total
        assert sum(stats.per_dpu_ops.values()) == registry_total
        sampled_total = sum(
            sampler.series(name).last[1]
            for name in sampler.names()
            if name.endswith(".gets") or name.endswith(".puts")
        )
        assert sampled_total == pytest.approx(float(registry_total))
