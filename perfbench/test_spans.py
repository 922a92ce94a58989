"""Self time against a hand-built span tree; run with ``python3 -m pytest perfbench``."""

import pytest

from spans import SpanRecorder, self_times


def test_self_time_subtracts_the_union_of_children():
    rec = SpanRecorder()
    root = rec.add("op", 0.0, 10.0)
    a = rec.add("a", 1.0, 3.0, parent=root)
    rec.add("a.leaf", 1.5, 2.5, parent=a)
    rec.add("b", 2.0, 5.0, parent=root)  # overlaps a: covered time counts once
    rec.add("c", 8.0, 12.0, parent=root)  # runs past its parent: clipped to it
    rec.op_id = 1
    other = rec.add("op", 20.0, 21.0)  # a second op's root shares nothing
    got = self_times(rec)
    assert got == pytest.approx({0: 10.0 - 4.0 - 2.0, 1: 1.0, 2: 1.0, 3: 3.0, 4: 4.0, other: 1.0})
    assert self_times(rec, other, len(rec)) == pytest.approx({other: 1.0})
