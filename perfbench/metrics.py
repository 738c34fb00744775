"""Metric names, units and the checks every published value must pass.

``BENCHMARK.json`` at the repository root is the one list of metric
names and units; this module reads it and refuses to publish a value
that does not mean what its unit says.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Mapping

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Units whose values are whole counts of something.
COUNT_UNITS = frozenset({"count", "ops", "B"})
#: Units whose values are shares of a whole.
FRACTION_UNITS = frozenset({"frac"})
#: Every other unit the benchmark publishes: non-negative reals. ``s``
#: is host seconds and ``sim_s`` simulated seconds; ``x`` is a ratio of
#: two host times and ``ratio`` a ratio of two simulated counts.
REAL_UNITS = frozenset({"s", "sim_s", "MiB", "1/s", "ops/sim_s", "x",
                        "ratio"})


class MetricError(ValueError):
    """A metric whose value or name breaks its declared unit or grammar."""


def load_spec(path: Path = SPEC_PATH) -> dict:
    """The benchmark declaration, with every name and unit checked."""
    spec = json.loads(path.read_text())
    seen = set()
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            check_declaration(metric["name"], metric["unit"])
            if metric["name"] in seen:
                raise MetricError(f"metric {metric['name']} declared twice")
            seen.add(metric["name"])
    return spec


def check_declaration(name: str, unit: str) -> None:
    """Raise unless *name* and *unit* follow the grammar and a known unit."""
    if not NAME.fullmatch(name):
        raise MetricError(f"bad metric name {name!r}")
    if not UNIT.fullmatch(unit):
        raise MetricError(f"bad unit {unit!r} for {name}")
    if unit not in COUNT_UNITS | FRACTION_UNITS | REAL_UNITS:
        raise MetricError(f"unknown unit {unit!r} for {name}")


def check_value(name: str, unit: str, value: float) -> None:
    """Raise unless *value* is a finite number its *unit* allows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MetricError(f"{name}: {value!r} is not a number")
    if not math.isfinite(value):
        raise MetricError(f"{name}: {value!r} is not finite")
    if value < 0:
        raise MetricError(f"{name}: {value!r} {unit} is negative")
    if unit in FRACTION_UNITS and value > 1:
        raise MetricError(f"{name}: {value!r} is not a fraction in [0, 1]")
    if unit in COUNT_UNITS and value != int(value):
        raise MetricError(f"{name}: {value!r} {unit} is not a whole count")


def publish(declared: List[dict], values: Mapping[str, float]
            ) -> Dict[str, dict]:
    """The result line's ``metrics`` object: every declared metric, checked.

    *values* must hold exactly the declared names, so a metric can be
    neither dropped nor published undeclared.
    """
    names = [metric["name"] for metric in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise MetricError(f"missing {missing}, undeclared {extra}")
    published = {}
    for metric in declared:
        value = values[metric["name"]]
        check_value(metric["name"], metric["unit"], value)
        published[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return published
