"""Metric-name grammar, the unit validator and the declaration file."""

import math

import pytest

from perfbench.metrics import (
    MetricError,
    check_declaration,
    check_value,
    load_spec,
    publish,
)


@pytest.mark.parametrize("name", [
    "wall_s", "hw.net.self_s", "sim.events_per_s", "0x", "a-b.c_d",
    "n" * 64,
])
def test_good_names(name):
    check_declaration(name, "s")


@pytest.mark.parametrize("name", [
    "", "_lead", ".lead", "-lead", "has space", "slash/name", "n" * 65,
    "ünïcode",
])
def test_bad_names(name):
    with pytest.raises(MetricError):
        check_declaration(name, "s")


@pytest.mark.parametrize("unit", ["", "s s", "furlongs", "x" * 17])
def test_bad_units(unit):
    with pytest.raises(MetricError):
        check_declaration("wall_s", unit)


@pytest.mark.parametrize("unit,value", [
    ("frac", 0.0), ("frac", 1.0), ("frac", 0.25),
    ("count", 0), ("count", 12), ("ops", 3.0), ("B", 10),
    ("s", 0.5), ("sim_s", 1e-6), ("MiB", 40.2), ("x", 3.9),
])
def test_values_in_range(unit, value):
    check_value("m", unit, value)


@pytest.mark.parametrize("unit,value", [
    ("frac", 1.0001), ("frac", -0.1), ("frac", 2.90),
    ("count", 1.5), ("count", -1), ("ops", 0.1),
    ("s", math.nan), ("s", math.inf), ("sim_s", -math.inf), ("s", -1e-9),
    ("s", True), ("s", "1.0"), ("s", None),
])
def test_values_out_of_range(unit, value):
    with pytest.raises(MetricError):
        check_value("m", unit, value)


def test_declaration_file_is_valid():
    spec = load_spec()
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    assert len(names) == len(set(names))
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["better"] == "lower"
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
        assert metric["better"] in ("higher", "lower")
    layers = [m["name"][:-len(".self_s")] for m in spec["per_layer"]
              if m["name"].endswith(".self_s")]
    for layer in layers:
        assert f"{layer}.calls" in {m["name"] for m in spec["per_layer"]}


def test_publish_needs_exactly_the_declared_metrics():
    declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "frac"}]
    assert publish(declared, {"a": 1.5, "b": 0.5}) == {
        "a": {"value": 1.5, "unit": "s"}, "b": {"value": 0.5, "unit": "frac"}}
    with pytest.raises(MetricError):
        publish(declared, {"a": 1.5})
    with pytest.raises(MetricError):
        publish(declared, {"a": 1.5, "b": 0.5, "c": 1})
    with pytest.raises(MetricError):
        publish(declared, {"a": 1.5, "b": 2.9})


def test_declared_workloads_are_the_implemented_ones():
    from perfbench.workloads import MODULES, WORKLOADS

    names = [w["name"] for w in load_spec()["workloads"]]
    assert sorted(names) == sorted(WORKLOADS) == sorted(MODULES)
