"""Exact linear algebra over Q for kernel and span computations.

Matrices are lists of lists of Fraction.  Everything is plain Gaussian
elimination with exact pivots; no tolerances appear anywhere.
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction

__all__ = [
    "row_reduce",
    "rank",
    "det",
    "nullspace",
    "independent_indices",
    "span_equal",
    "intersect_trivially",
]


def row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Q(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(row_reduce(rows)[1])


def det(rows) -> Fraction:
    """Determinant of a small square matrix, by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * v * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def nullspace(rows: list[list[Fraction]], ncols: int | None = None) -> list[list[Fraction]]:
    """Canonical basis of the right null space (free variable set to 1)."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty constraint matrix")
        ncols = len(rows[0])
    if not rows:
        rows = [[Q(0)] * ncols]
    rref, pivots = row_reduce(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Q(0)] * ncols
        vec[free] = Q(1)
        for prow, pcol in zip(rref, pivots):
            vec[pcol] = -prow[free]
        basis.append(vec)
    return basis


def independent_indices(vectors: list[list[Fraction]]) -> list[int]:
    """Indices of a maximal independent subset, scanning in the given order."""
    kept: list[int] = []
    echelon: list[list[Fraction]] = []
    for idx, vec in enumerate(vectors):
        row = list(vec)
        for e in echelon:
            lead = next((c for c, v in enumerate(e) if v != 0), None)
            if lead is not None and row[lead] != 0:
                f = row[lead] / e[lead]
                row = [a - f * b for a, b in zip(row, e)]
        if any(v != 0 for v in row):
            echelon.append(row)
            kept.append(idx)
    return kept


def span_equal(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    return ra == rb == rank(a + b)


def intersect_trivially(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    """True when the spans intersect only in 0 (the sum is direct)."""
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    return rank(a + b) == ra + rb
