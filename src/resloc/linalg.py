"""Exact sparse linear algebra over Q for kernel and span computations.

Rows are dicts from column index to a rational, absent or 0 entries being zero;
integral entries are kept as int, whose arithmetic is far cheaper than Fraction's.
One ``Echelon``, fully reduced as rows are inserted, serves every function; its
rows by pivot are the canonical reduced row echelon form of their span.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .symcore import add_scaled, coefficient

Row = dict[int, Fraction]

__all__ = ["Row", "add_scaled", "combine", "Echelon", "row_reduce", "rank", "det", "nullspace",
           "independent_indices", "transpose", "span_equal"]


def combine(coeffs: Row, rows: list[Row]) -> Row:
    """sum_j coeffs[j] * rows[j], keeping only nonzero entries."""
    out: Row = {}
    for j, c in coeffs.items():
        add_scaled(out, c, rows[j])
    return out


class Echelon:
    """Rows by pivot column: each pivot is its row's least column, holds 1, and is 0 elsewhere."""

    def __init__(self, rows: Iterable[Row] = ()):
        self.rows: dict[int, Row] = {}
        for row in rows:
            self.add(row)

    def remainder(self, vec: Row) -> Row:
        """vec minus its part in the span; empty exactly when vec lies in it."""
        out = {k: coefficient(v) for k, v in vec.items() if v}
        # rows vanish at each other's pivots, so each is subtracted once
        for c in [c for c in out if c in self.rows]:
            add_scaled(out, -out[c], self.rows[c])
        return out

    def add(self, vec: Row) -> bool:
        """Insert vec; False when it already lies in the span."""
        row = self.remainder(vec)
        if not row:
            return False
        pivot = min(row)
        lead = row[pivot]
        row = {k: coefficient(v if lead == 1 else Fraction(v, lead)) for k, v in row.items()}
        ints = all(type(v) is int for v in row.values())
        for other in self.rows.values():
            if pivot in other:
                add_scaled(other, f := -other[pivot], row)
                if not ints or type(f) is not int:  # a Fraction sum may turn integral
                    other.update((k, coefficient(other[k])) for k in row if k in other)
        self.rows[pivot] = row
        return True


def row_reduce(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns), by pivot."""
    echelon = Echelon(rows)
    pivots = sorted(echelon.rows)
    return [echelon.rows[p] for p in pivots], pivots


def rank(rows: list[Row]) -> int:
    return len(row_reduce(rows)[1])


def det(rows) -> Fraction:
    """Determinant of a small dense square matrix, by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * v * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, v in enumerate(rows[0]) if v)


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Canonical null space basis: per free column, 1 there and 0 at the other free columns."""
    rref, pivots = row_reduce(rows)
    entries: dict[int, list[tuple[int, Fraction]]] = {}
    for pivot, row in zip(pivots, rref):
        for k, v in row.items():
            entries.setdefault(k, []).append((pivot, -v))
    pivot_set = set(pivots)
    return [dict(sorted([(free, 1), *entries.get(free, ())]))
            for free in range(ncols) if free not in pivot_set]


def independent_indices(vectors: list[Row]) -> list[int]:
    """Indices of a maximal independent subset, scanning in the given order."""
    echelon = Echelon()
    return [i for i, vec in enumerate(vectors) if echelon.add(vec)]


def transpose(vectors: list[dict]) -> dict:
    """Rows of the matrix whose columns are these vectors, by row key."""
    out: dict = {}
    for i, vec in enumerate(vectors):
        for k, v in vec.items():
            out.setdefault(k, {})[i] = v
    return out


def span_equal(a: list[Row] | Echelon, b: list[Row]) -> bool:
    """True when a and b span the same space: every row of b lies in a's span
    and b has a's rank.  a is reduced once (an ``Echelon`` is taken as it is
    and left unchanged, since a membership test copies nothing into it)."""
    a = a if isinstance(a, Echelon) else Echelon(a)
    return all(not a.remainder(row) for row in b) and rank(b) == len(a.rows)
