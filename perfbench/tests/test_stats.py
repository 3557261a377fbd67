"""The percentile rule: report the highest percentile with at least ten
samples beyond it."""

import pytest

from perfbench.stats import beyond, percentile, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(9) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(100000) == 99.99


@pytest.mark.parametrize("n", [20, 100, 1000, 5400, 10000])
def test_reported_percentile_has_ten_beyond(n):
    assert beyond(n, tail_percentile(n)) >= 10


def test_nearest_rank_percentile():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
