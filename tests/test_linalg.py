"""Exact sparse rational linear algebra used by the kernel computations."""

from fractions import Fraction as Q

from hypothesis import given, settings
from hypothesis import strategies as st

from resloc.linalg import (
    Echelon,
    independent_indices,
    nullspace,
    rank,
    row_reduce,
    span_equal,
)


def m(rows):
    """Sparse rows from dense ones."""
    return [{j: Q(x) for j, x in enumerate(row) if x} for row in rows]


def dense(vec, ncols):
    return [vec.get(j, Q(0)) for j in range(ncols)]


def apply(row, vec):
    return sum((row.get(k, 0) * v for k, v in vec.items()), Q(0))


def test_row_reduce_pivots():
    reduced, pivots = row_reduce(m([[0, 2, 4], [1, 1, 1]]))
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert 1 not in reduced[0]  # fully reduced above pivots


def test_rank_and_nullspace():
    rows = m([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(rows) == 2
    null = nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for row in rows:
        assert apply(row, v) == 0


def test_nullspace_of_empty_system_is_full():
    assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]


def test_explicit_zero_entries_are_zero():
    assert row_reduce([{0: Q(0), 2: Q(3)}]) == ([{2: 1}], [2])
    assert independent_indices([{0: Q(0)}, {1: Q(2)}]) == [1]


def test_independent_indices():
    vecs = m([[1, 0], [2, 0], [0, 1], [1, 1]])
    assert independent_indices(vecs) == [0, 2]


def test_span_predicates():
    a = m([[1, 0], [0, 1]])
    b = m([[1, 1], [1, -1]])
    assert span_equal(a, b)


def test_span_equal_with_empty_sides():
    assert span_equal([], [])
    assert not span_equal(m([[1, 0]]), [])


def test_span_predicates_leave_a_reduced_side_unchanged():
    # inserting (0, 1) would clear the 1 at column 1 of the kept row in
    # place, so the comparison must only test membership against it
    reduced = Echelon(m([[1, 1, 0]]))
    assert not span_equal(reduced, m([[0, 1, 0]]))
    assert reduced.rows == {0: {0: 1, 1: 1}}
    assert span_equal(reduced, m([[2, 2, 0]]))


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
    rows = m(rows)
    null = nullspace(rows, ncols)
    assert rank(rows) + len(null) == ncols
    for v in null:
        for row in rows:
            assert apply(row, v) == 0
    # kernel vectors are themselves independent
    assert rank(null) == len(null)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_span_of_reduction_matches(data):
    rows = m(data[0])
    keep = independent_indices(rows)
    assert span_equal(rows, [rows[i] for i in keep])
    assert rank([rows[i] for i in keep]) == len(keep)


@st.composite
def matrix_pairs(draw):
    """Rows a, and rows b that recombine a's (so the spans often agree),
    sometimes with a random row added."""
    a, ncols = draw(matrices())
    b = [[sum((c * row[j] for c, row in zip(draw(st.lists(
              st.integers(-2, 2), min_size=len(a), max_size=len(a))), a)), Q(0))
          for j in range(ncols)] for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        b.append([Q(draw(st.integers(-3, 3))) for _ in range(ncols)])
    return m(a), m(b)


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_span_equal_is_the_rank_criterion(data):
    a, b = data
    expected = rank(a) == rank(b) == rank(a + b)
    assert span_equal(a, b) == expected
    reduced = Echelon(a)
    kept = {pivot: dict(row) for pivot, row in reduced.rows.items()}
    assert span_equal(reduced, b) == expected
    assert reduced.rows == kept


# -- the echelon against a dense reference ---------------------------------------


def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan on dense rows: (nonzero RREF rows, pivots)."""
    mat = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        mat[r] = [v / mat[r][c] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat[:len(pivots)], pivots


def dense_nullspace(rows, ncols):
    rref, pivots = dense_rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [Q(0)] * ncols
            vec[free] = Q(1)
            for row, p in zip(rref, pivots):
                vec[p] = -row[free]
            basis.append(vec)
    return basis


ENTRIES = (Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 3))


@st.composite
def sparse_matrices(draw):
    """Wide, mostly zero matrices up to 8 x 12, with forced zero rows and
    columns on top of the ones the low density leaves."""
    ncols = draw(st.integers(1, 12))
    nrows = draw(st.integers(0, 8))
    zeros = draw(st.integers(2, 12))
    entry = st.sampled_from((Q(0),) * zeros + ENTRIES)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=3))
    rows = [[Q(0) if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_echelon_matches_dense_gauss_jordan(data):
    rows, ncols = data
    sparse = m(rows)
    reduced, pivots = row_reduce(sparse)
    ref_rows, ref_pivots = dense_rref(rows, ncols)
    assert pivots == ref_pivots
    assert [dense(r, ncols) for r in reduced] == ref_rows
    assert all(0 not in r.values() for r in reduced)
    assert [dense(v, ncols) for v in nullspace(sparse, ncols)] == dense_nullspace(rows, ncols)
    greedy = []
    for i, row in enumerate(rows):
        if len(dense_rref([rows[j] for j in greedy] + [row], ncols)[1]) > len(greedy):
            greedy.append(i)
    assert independent_indices(sparse) == greedy
