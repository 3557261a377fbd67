"""The same seed gives the same arrival schedule, path sequence and
file bytes; another seed gives other ones."""

import itertools
from pathlib import Path

from perfbench import workloads as wl

HOT = wl.WORKLOADS["hot-keepalive"]


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_file_bytes(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    manifest_a = wl.build_fileset(str(a), HOT, seed=7)
    manifest_b = wl.build_fileset(str(b), HOT, seed=7)
    manifest_c = wl.build_fileset(str(c), HOT, seed=8)
    assert manifest_a == manifest_b
    assert _tree(a) == _tree(b)
    assert manifest_a != manifest_c
    assert len(manifest_a) == HOT.directories * 36
    assert sum(size for size, _crc in manifest_a.values()) == (
        HOT.directories * wl.DIRECTORY_BYTES)


def test_same_seed_same_schedule_and_paths():
    assert wl.poisson_schedule(300, 5, 3) == wl.poisson_schedule(300, 5, 3)
    assert wl.poisson_schedule(300, 5, 3) != wl.poisson_schedule(300, 5, 4)
    for workload in wl.WORKLOADS.values():
        first = list(itertools.islice(
            wl.request_paths(workload, 3, "open"), 500))
        again = list(itertools.islice(
            wl.request_paths(workload, 3, "open"), 500))
        other = list(itertools.islice(
            wl.request_paths(workload, 4, "open"), 500))
        assert first == again != other


def test_paths_stay_inside_the_workload_mix():
    churn = wl.WORKLOADS["churn-close"]
    paths = list(itertools.islice(wl.request_paths(churn, 1, "open"), 2000))
    assert all("/class0_" in p for p in paths)
    hot = list(itertools.islice(wl.request_paths(HOT, 1, "open"), 2000))
    assert {p.split("/")[1] for p in hot} == {"dir00000", "dir00001"}


def test_schedule_rate():
    arrivals = wl.poisson_schedule(300, 20, 1)
    assert 5600 < len(arrivals) < 6400
    assert arrivals == sorted(arrivals) and arrivals[-1] < 20
