"""BENCHMARK.json names exactly the workloads and metrics the benchmark
prints, with the same units, and stays inside its format limits."""

import json
import re
from pathlib import Path

from perfbench import run, workloads

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_workloads_match():
    gated = [w.name for w in workloads.WORKLOADS.values() if w.gated]
    assert [w["name"] for w in SPEC["workloads"]] == gated
    # gated workloads hold their connections open: no close, no accept
    assert all(workloads.WORKLOADS[name].per_connection == 0
               for name in gated)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_metrics_match_with_units():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_names_units_and_bounds_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_names_only_reported_metrics():
    for layer, moves, on, bypass in workloads.LAYER_MAP:
        assert set(layer) <= set(run.PER_LAYER)
        assert set(moves) <= set(run.END_TO_END) | set(run.REPORTED)
        assert set(on) | set(bypass) <= set(workloads.WORKLOADS)
    mapped = {name for row in workloads.LAYER_MAP for name in row[0]}
    assert mapped == set(run.PER_LAYER)
