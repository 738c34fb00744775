"""Charge a cProfile run's self time and calls to ``repro`` layers.

A layer is a top-level ``repro`` package (``sim``, ``sharding``,
``transport``...); ``repro.hw`` is split one level further (``hw.net``,
``hw.nvme``...) because its substrates are separate layers of the
modelled machine. Code outside the ``repro`` package — the standard
library and the benchmark itself — is ``stdlib``.

A C builtin has no module of its own: its self time is charged to the
layers that called it, split across callers in proportion to the time
each spent in it, so the layers' self times always sum to the
profiler's total. Its calls go, per caller, to the layer that made
them; a builtin called by a builtin passes them on by call counts, so
call totals are exact and repeat.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Callable, Dict, Tuple

#: Where time spent outside the ``repro`` package is charged.
OUTSIDE = "stdlib"

#: cProfile's filename for C builtins.
BUILTIN_FILE = "~"


def layer_of(filename: str, package_dir: str) -> str:
    """The layer a source file belongs to.

    *package_dir* is the directory of the ``repro`` package itself, so a
    checkout that happens to sit under a directory named ``repro`` is
    not mistaken for the package.
    """
    try:
        parts = PurePath(filename).relative_to(package_dir).parts
    except ValueError:
        return OUTSIDE
    if len(parts) < 2:
        return "repro"
    if parts[0] == "hw" and len(parts) > 2:
        return f"hw.{parts[1]}"
    return parts[0]


Func = Tuple[str, int, str]


def attribute(
    stats: Dict[Func, tuple], layer: Callable[[str], str],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and calls per layer from ``pstats.Stats.stats``.

    *stats* maps ``(file, line, name)`` to ``(primitive calls, calls,
    self time, cumulative time, callers)``, where ``callers`` maps each
    caller to its own ``(.., calls, self time, ..)`` share.
    """
    memo: Dict[Tuple[Func, int], Dict[str, float]] = {}

    def share_of(func: Func, index: int,
                 visiting: frozenset = frozenset()) -> Dict[str, float]:
        """Fraction of *func*'s self time (``index`` 2) or calls (1)
        owed by each layer, weighting a builtin's callers alike."""
        if func[0] != BUILTIN_FILE:
            return {layer(func[0]): 1.0}
        if (func, index) in memo:
            return memo[(func, index)]
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[index] for c, v in callers.items()}
        if not sum(weights.values()):
            weights = {c: v[1] for c, v in callers.items()}
        total = sum(weights.values())
        result: Dict[str, float] = {}
        if total and func not in visiting:
            for caller, weight in weights.items():
                for name, part in share_of(
                        caller, index, visiting | {func}).items():
                    result[name] = result.get(name, 0.0) + part * weight / total
        else:
            result = {OUTSIDE: 1.0}
        memo[(func, index)] = result
        return result

    def owner(func: Func) -> str:
        """The layer owing most of *func*'s calls; call counts are exact,
        so the choice repeats from run to run."""
        share = share_of(func, 1)
        return max(sorted(share), key=share.__getitem__)

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for func, (__, ncalls, tottime, __, callers) in stats.items():
        for name, part in share_of(func, 2).items():
            self_s[name] = self_s.get(name, 0.0) + tottime * part
        if func[0] != BUILTIN_FILE:
            name = layer(func[0])
            calls[name] = calls.get(name, 0) + ncalls
            continue
        # Calls are whole numbers: each caller's calls go to its owner.
        counted = 0
        for caller, value in callers.items():
            name = owner(caller)
            calls[name] = calls.get(name, 0) + value[1]
            counted += value[1]
        if ncalls > counted:
            name = owner(func)
            calls[name] = calls.get(name, 0) + ncalls - counted
    return self_s, calls
