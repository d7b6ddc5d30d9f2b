"""Exact rational linear algebra used by the kernel computations."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.linalg import (
    independent_indices,
    intersect_trivially,
    nullspace,
    rank,
    row_reduce,
    span_equal,
)


def m(rows):
    return [[Q(x) for x in row] for row in rows]


def test_row_reduce_pivots():
    reduced, pivots = row_reduce(m([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert reduced[0][1] == 0  # fully reduced above pivots


def test_rank_and_nullspace():
    rows = m([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(rows) == 2
    null = nullspace(rows)
    assert len(null) == 1
    v = null[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_of_empty_system_is_full():
    assert len(nullspace([], ncols=3)) == 3


def test_independent_indices():
    vecs = m([[1, 0], [2, 0], [0, 1], [1, 1]])
    assert independent_indices(vecs) == [0, 2]


def test_span_predicates():
    a = m([[1, 0], [0, 1]])
    b = m([[1, 1], [1, -1]])
    assert span_equal(a, b)
    assert intersect_trivially(m([[1, 0]]), m([[0, 1]]))
    assert not intersect_trivially(m([[1, 0], [0, 1]]), m([[1, 1]]))


def test_span_equal_with_empty_sides():
    assert span_equal([], [])
    assert not span_equal(m([[1, 0]]), [])


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(0, 4))
    return [[Q(draw(st.integers(-3, 3))) for _ in range(ncols)]
            for _ in range(nrows)], ncols


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_plus_nullity(data):
    rows, ncols = data
    null = nullspace(rows, ncols=ncols)
    assert rank(rows) + len(null) == ncols
    for v in null:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # kernel vectors are themselves independent
    assert rank(null) == len(null)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_span_of_reduction_matches(data):
    rows, ncols = data
    keep = independent_indices(rows)
    assert span_equal(rows, [rows[i] for i in keep])
    assert rank([rows[i] for i in keep]) == len(keep)
