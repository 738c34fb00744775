"""One workload call in a fresh interpreter: ``python -m perfbench.child``.

``run.py`` starts this module once per measured call, so no state (the
heap, the garbage collector's generations, interned objects) leaks from
one call or workload into the next. The collector stays on, as it is in
any real run. The process prints one JSON object as its last line.

Usage::

    python -m perfbench.child WORKLOAD SEED T0_NS {probe,run,profile}

``T0_NS`` is the parent's ``time.monotonic_ns()`` just before it started
this process; CLOCK_MONOTONIC is system-wide on Linux, so ``setup_s``
covers interpreter start, imports and lazy init up to the workload call.
``probe`` stops there; ``run`` times the call; ``profile`` times it under
cProfile and charges the profile to layers. Set-up and a ``run`` call are
timed with a :class:`~perfbench.speed.SpeedProbe` running, and reported
both as measured (``*_raw_s``) and at the reference speed.
"""

from __future__ import annotations

import cProfile
import hashlib
import importlib
import json
import pstats
import resource
import sys
import time
from pathlib import Path

from perfbench.speed import SpeedProbe


def _record_simulators(sims: list) -> None:
    """Make every Simulator constructed from now on append itself."""
    from repro.sim import Simulator

    original = Simulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sims.append(self)

    Simulator.__init__ = init


def _digest(canonical: bytes, sims) -> str:
    """One hash over the report and every simulator's modelled state."""
    digest = hashlib.sha256(canonical)
    for sim in sims:
        digest.update(b"\0events=%d\0" % sim._eid)
        digest.update(sim.telemetry.snapshot_bytes())
    return digest.hexdigest()


def main(argv) -> dict:
    workload, seed, t0_ns, mode = argv
    probe = SpeedProbe()
    probe.start()
    import repro
    from perfbench.counters import modelled
    from perfbench.layers import attribute, layer_of
    from perfbench.workloads import MODULES, WORKLOADS

    sims: list = []
    _record_simulators(sims)
    importlib.import_module(MODULES[workload])
    setup_raw_s = (time.monotonic_ns() - int(t0_ns)) / 1e9
    probe.stop()
    result = {"setup_raw_s": setup_raw_s,
              "setup_s": probe.normalise(setup_raw_s)}
    if mode == "probe":
        return result

    profiler = cProfile.Profile() if mode == "profile" else None
    probe = SpeedProbe()
    if profiler is None:
        probe.start()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outcome = WORKLOADS[workload](int(seed), sims)
    if profiler is not None:
        profiler.disable()
    wall_raw_s = time.perf_counter() - started
    probe.stop()

    result.update({
        "wall_raw_s": wall_raw_s - probe.spent,
        "wall_s": probe.normalise(wall_raw_s),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "goodput_ops": outcome.goodput_ops,
        "p50_s": outcome.p50_s,
        "p99_s": outcome.p99_s,
        "samples": outcome.samples,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "violations": outcome.violations,
        "claims_not_met": outcome.claims_not_met,
        "digest": _digest(outcome.canonical, sims),
        "counters": modelled(sims),
    })
    if profiler is not None:
        package_dir = str(Path(repro.__file__).resolve().parent)
        stats = pstats.Stats(profiler)
        self_s, calls = attribute(
            stats.stats, lambda f: layer_of(f, package_dir))
        result.update(self_s=self_s, calls=calls,
                      profile_total_s=stats.total_tt)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:]), sort_keys=True))
