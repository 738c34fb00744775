"""Modelled per-layer counters, read from every Simulator a call built.

The simulator's own telemetry registries hold what each modelled layer
did (frames sent, KV puts, ops shipped across the WAN...). These are
simulated counts: deterministic for a seed, so they repeat exactly and
compare two versions of the program exactly. Each counter below sums
one metric family over every registry; each ``*_p99_s`` merges the raw
samples of one histogram family first.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List

from repro.telemetry import percentile


def _family(registries, pattern: str, kind: str) -> Iterable:
    matcher = re.compile(pattern)
    for registry in registries:
        for metric in registry.walk():
            if metric.kind == kind and matcher.fullmatch(metric.name):
                yield metric


def total(registries, pattern: str) -> int:
    """Sum of every counter whose full path matches *pattern*."""
    return sum(m.value for m in _family(registries, pattern, "counter"))


def _p99(registries, pattern: str) -> float:
    samples: List[float] = []
    for metric in _family(registries, pattern, "histogram"):
        samples.extend(metric.samples)
    return percentile(samples, 0.99)


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def modelled(sims) -> Dict[str, float]:
    """Every modelled per-layer counter, keyed by metric name."""
    regs = [sim.telemetry for sim in sims]
    shard_ops = total(regs, r"shard\.client\..*\.ops")
    return {
        "sim.events": sum(sim._eid for sim in sims),
        "sharding.round_trips_per_op": _ratio(
            total(regs, r"shard\.client\..*\.round_trips"), shard_ops),
        "sharding.cache_hit_frac": _ratio(
            total(regs, r"shard\.client\..*\.cache_served"), shard_ops),
        "sharding.forwarded_ops": total(
            regs, r"shard\.forwarder\..*\.forwarded_ops"),
        "transport.rpc_calls": total(regs, r"rpc\.client\..*\.calls"),
        "transport.batched_ops": total(
            regs, r"rpc\.client\..*\.batched_ops"),
        "transport.retransmits": total(
            regs, r"rpc\.client\..*\.retransmits"),
        "transport.deadline_exceeded": total(
            regs, r"rpc\.client\..*\.deadline_exceeded"),
        "transport.requests_shed": total(
            regs, r"rpc\.server\..*\.requests_shed"),
        "transport.queue_sojourn_p99_s": _p99(
            regs, r"rpc\.server\..*\.queue\.sojourn"),
        "overload.queue_dropped": total(
            regs, r"rpc\.server\..*\.queue\.dropped_(deadline|full)"),
        "hw.net.frames_sent": total(regs, r"net\.link\..*\.frames_sent"),
        "hw.net.bytes_sent": total(regs, r"net\.link\..*\.bytes_sent"),
        "hw.net.frames_dropped": total(
            regs, r"net\.link\..*\.frames_dropped"),
        "storage.kv_puts": total(regs, r"kvssd\.[^.]+\.puts"),
        "storage.kv_gets": total(regs, r"kvssd\.[^.]+\.gets"),
        "hw.nvme.flash_programs": total(regs, r"[^.]+\.flash\.programs"),
        "hw.nvme.flash_reads": total(regs, r"[^.]+\.flash\.reads"),
        "hw.nvme.cmd_p99_s": _p99(regs, r"[^.]+\.cmd_latency"),
        "telemetry.series": sum(len(registry) for registry in regs),
        "telemetry.observes": sum(
            m.count for registry in regs for m in registry.walk()
            if m.kind == "histogram"),
        "georep.ship_entries": total(
            regs, r"georep\.[^.]+\.ship\.[^.]+\.entries"),
        "georep.ship_batches": total(
            regs, r"georep\.[^.]+\.ship\.[^.]+\.batches"),
        "georep.entries_applied": total(
            regs, r"georep\.[^.]+\.entries_applied"),
        "georep.failovers": total(regs, r"geo\.client\.[^.]+\.failovers"),
        "workload.offered_ops": total(regs, r"workload\.traffic\.offered_ops"),
        "workload.failed_ops": total(regs, r"workload\.traffic\.failed_ops"),
    }
