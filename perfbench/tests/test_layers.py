"""Module path -> layer attribution of cProfile self time and calls."""

import cProfile
import math
import pstats
from pathlib import Path

import repro
from perfbench.layers import OUTSIDE, attribute, layer_of
from repro.sim import Simulator

PKG = str(Path(repro.__file__).resolve().parent)


def test_top_level_packages_are_layers():
    assert layer_of(f"{PKG}/sim/engine.py", PKG) == "sim"
    assert layer_of(f"{PKG}/sharding/cache.py", PKG) == "sharding"
    assert layer_of(f"{PKG}/eval/scaleout.py", PKG) == "eval"


def test_hw_splits_by_substrate():
    assert layer_of(f"{PKG}/hw/net/link.py", PKG) == "hw.net"
    assert layer_of(f"{PKG}/hw/nvme/flash.py", PKG) == "hw.nvme"
    assert layer_of(f"{PKG}/hw/__init__.py", PKG) == "hw"
    assert layer_of(f"{PKG}/__init__.py", PKG) == "repro"


def test_everything_else_is_stdlib():
    assert layer_of("/usr/lib/python3.11/heapq.py", PKG) == OUTSIDE
    assert layer_of("<frozen importlib._bootstrap>", PKG) == OUTSIDE
    assert layer_of("~", PKG) == OUTSIDE
    # A checkout under a directory named ``repro`` is not the package.
    assert layer_of("/x/repro/perfbench/run.py", "/x/repro/src/repro") \
        == OUTSIDE


def _layer(filename):
    return {"a.py": "alpha", "b.py": "beta"}.get(filename, OUTSIDE)


def test_builtin_time_is_charged_to_its_callers():
    fa, fb = ("a.py", 1, "fa"), ("b.py", 1, "fb")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        fa: (1, 1, 1.0, 5.0, {}),
        fb: (2, 2, 2.0, 3.0, {}),
        # 3 s inside len(): 2.25 s of it called from alpha, 0.75 s beta.
        builtin: (7, 7, 3.0, 3.0, {fa: (5, 5, 2.25, 2.25),
                                   fb: (2, 2, 0.75, 0.75)}),
    }
    self_s, calls = attribute(stats, _layer)
    assert self_s == {"alpha": 3.25, "beta": 2.75}
    assert calls == {"alpha": 6, "beta": 4}


def test_builtin_called_by_builtin_follows_the_chain():
    fa = ("a.py", 1, "fa")
    outer = ("~", 0, "<built-in method builtins.sorted>")
    inner = ("~", 0, "<built-in method builtins.len>")
    stats = {
        fa: (1, 1, 1.0, 4.0, {}),
        outer: (1, 1, 2.0, 3.0, {fa: (1, 1, 2.0, 3.0)}),
        inner: (4, 4, 1.0, 1.0, {outer: (4, 4, 1.0, 1.0)}),
        # No caller recorded: charged outside the package.
        ("~", 0, "<method 'disable'>"): (1, 1, 0.5, 0.5, {}),
    }
    self_s, calls = attribute(stats, _layer)
    assert self_s == {"alpha": 4.0, OUTSIDE: 0.5}
    assert calls == {"alpha": 6, OUTSIDE: 1}


def _workload():
    sim = Simulator()

    def ticker(count):
        for __ in range(count):
            yield sim.timeout(1e-6)
            sorted([3, 1, 2])

    for index in range(20):
        sim.process(ticker(50 + index))
    sim.run()


def test_layers_sum_to_the_profiler_total():
    profiler = cProfile.Profile()
    profiler.enable()
    _workload()
    profiler.disable()
    stats = pstats.Stats(profiler)
    self_s, calls = attribute(stats.stats, lambda f: layer_of(f, PKG))
    assert math.isclose(sum(self_s.values()), stats.total_tt,
                        rel_tol=1e-9, abs_tol=1e-12)
    assert sum(calls.values()) == sum(v[1] for v in stats.stats.values())
    assert self_s["sim"] > 0 and calls["sim"] > 0
    assert "stdlib" in self_s
