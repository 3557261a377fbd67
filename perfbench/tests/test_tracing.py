"""Self-time arithmetic on a synthetic span tree, and the recorder's
parent and request bookkeeping."""

import pytest

from perfbench.tracing import SpanRecorder, self_times, union_length


def span(sid, start, end, parent=None, name="x"):
    return (sid, name, start, end, parent, None, None)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2
    assert union_length([(0, 2), (1, 3), (3, 4)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_covered_child_time():
    spans = [
        span(1, 0.0, 10.0),            # root
        span(2, 1.0, 3.0, parent=1),   # children overlap: union [1, 5]
        span(3, 2.0, 5.0, parent=1),
        span(4, 8.0, 12.0, parent=1),  # runs past its parent: clipped
        span(5, 2.5, 4.0, parent=3),   # grandchild: only its parent pays
        span(6, 20.0, 21.0),           # unrelated root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - (4 + 2))
    assert own[2] == pytest.approx(2)
    assert own[3] == pytest.approx(3 - 1.5)
    assert own[4] == pytest.approx(4)
    assert own[5] == pytest.approx(1.5)
    assert own[6] == pytest.approx(1)


def test_recorder_nests_spans_and_names_requests():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: next(ticks))

    class Conn:
        trace_id = 42

        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec.wrap(Conn, "outer", "outer",
             request=lambda inherited, self: rec.request(self.trace_id))
    rec.wrap(Conn, "inner", "inner", note=lambda result, self: result)
    assert Conn().outer() == 2
    inner, outer = rec.spans
    assert outer[1] == "outer" and outer[4] is None and outer[5] == "42.0"
    assert inner[1] == "inner" and inner[4] == outer[0]
    assert inner[5] == "42.0" and inner[6] == 1
    assert outer[2] < inner[2] < inner[3] < outer[3]
