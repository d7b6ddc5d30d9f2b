"""Exact symbolic core: polynomials with coefficients in a finite graded algebra,
and rational sections with factored linear-form denominators.

Everything is over Q; no floats anywhere.  A polynomial is a sparse dict mapping
(exponent tuple, algebra basis index) -> int if integral, else fractions.Fraction.
Cohomological degree of a term is 2*(sum of exponents) + degree of the basis
element, so the variables sit in degree 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Mapping

Q = Fraction

__all__ = [
    "Q",
    "ValidationError",
    "ExactDivisionError",
    "coefficient",
    "add_scaled",
    "Variables",
    "LinearForm",
    "GradedAlgebra",
    "POINT_ALGEBRA",
    "EquivariantPolynomial",
    "RationalSection",
    "substitution",
    "invert_euler",
]


class ValidationError(ValueError):
    """Raised when input data violates a structural requirement."""


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _q(x) -> Fraction:
    if isinstance(x, float):
        raise ValidationError(f"inexact value {x!r}: coefficients are rational")
    return x if isinstance(x, Fraction) else Fraction(x)


def coefficient(x) -> int | Fraction:
    """x as a coefficient: an int (far cheaper) when integral, else a Fraction.
    Fraction arithmetic keeps the type (Fraction(4, 2) is Fraction(2)), so
    values pass through here where they are stored, not at every addition."""
    if type(x) is int:
        return x
    x = _q(x)
    return x.numerator if x.denominator == 1 else x


def add_scaled(target: dict, f: Fraction, row: dict) -> None:
    """target += f * row, in place, keeping only nonzero entries."""
    for k, x in row.items():
        if v := target.get(k, 0) + f * x:
            target[k] = v
        else:
            del target[k]


@dataclass(frozen=True)
class Variables:
    """Ordered variable names; index 0 is the distinguished circle variable."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValidationError("need at least one variable")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("variable names must be distinct")

    @property
    def count(self) -> int:
        return len(self.names)

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * len(self.names)


def monomial_sort_key(exps: tuple[int, ...]):
    """Graded-lex order with the first variable strongest; use for descending sorts."""
    return (-sum(exps), tuple(-e for e in exps))


@dataclass(frozen=True)
class LinearForm:
    """Homogeneous linear form sum(coeffs[i] * variable_i); no constant term.

    The normalization and the hash are computed at most once per object and
    kept on it, so a denominator that holds the same form objects again and
    again never rebuilds their Fraction tuples.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Iterable) -> "LinearForm":
        return LinearForm(tuple(_q(c) for c in coeffs))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coeffs,))
            object.__setattr__(self, "_hash", h)
            return h

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def involves(self, var: int) -> bool:
        return self.coeffs[var] != 0

    def normalized(self) -> tuple[Fraction, "LinearForm"]:
        """Write self = scale * primitive where primitive has coprime integer
        coefficients and positive leading (first nonzero) coefficient.

        A primitive form is its own normalization, with scale 1, and the
        primitive returned is kept as normalized too."""
        try:
            return self._normal
        except AttributeError:
            pass
        if self.is_zero():
            raise ValidationError("cannot normalize the zero linear form")
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coeffs]
        g = 0
        for v in ints:
            g = gcd(g, v)
        lead = next(v for v in ints if v != 0)
        if lead < 0:
            g = -g
        coeffs = tuple(Q(v // g) for v in ints)
        # a form built from ints is not its own primitive: residue code
        # divides primitive coefficients and needs Fractions there
        own = coeffs == self.coeffs and all(type(c) is Fraction for c in self.coeffs)
        prim = self if own else LinearForm(coeffs)
        object.__setattr__(prim, "_normal", (Q(1), prim))
        if prim is not self:
            object.__setattr__(self, "_normal", (Q(g, den), prim))
        return self._normal

    def render(self, names: tuple[str, ...]) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if c == 1:
                parts.append(names[i])
            elif c == -1:
                parts.append(f"-{names[i]}")
            else:
                parts.append(f"{c}*{names[i]}")
        return "+".join(parts).replace("+-", "-") or "0"

    def times(self, matrix) -> "LinearForm":
        """The covector self * matrix: entry k is sum_i coeffs[i] * matrix[i][k]."""
        return LinearForm(tuple(sum((c * row[k] for c, row in zip(self.coeffs, matrix)), Q(0))
                                for k in range(len(matrix[0]))))

    def __str__(self) -> str:
        return self.render(tuple(f"v{i}" for i in range(len(self.coeffs))))


class GradedAlgebra:
    """Finite-dimensional graded commutative algebra given by structure constants.

    Basis element 0 is the unit.  ``integral`` is the linear functional that is
    nonzero only on the top_degree piece; ``pairing[i, j]`` is its value on b_i b_j.
    """

    __slots__ = ("basis", "degrees", "top_degree", "integral", "pairing", "_table", "_key")

    def __init__(
        self,
        basis: Iterable[str],
        degrees: Iterable[int],
        mult_table: Mapping[tuple[int, int], Mapping[int, Fraction]],
        integral: Iterable,
        top_degree: int,
    ):
        self.basis = tuple(basis)
        self.degrees = tuple(int(d) for d in degrees)
        self.top_degree = int(top_degree)
        self.integral = tuple(coefficient(v) for v in integral)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in mult_table.items():
            i, j = int(i), int(j)
            # every given index, zero coefficients' too, must lie in the basis
            if not all(0 <= x < len(self.basis) for x in (i, j, *map(int, row))):
                raise ValidationError(f"multiplication table index out of range at ({i},{j})")
            entry = {int(k): c for k, v in row.items() if (c := coefficient(v))}
            table[(i, j)] = entry
            table.setdefault((j, i), entry)
        self._table = table
        self._key = (self.basis, self.degrees, self.top_degree, self.integral,
                     tuple(sorted((ij, tuple(sorted(row.items()))) for ij, row in table.items())))
        self._validate()
        self.pairing = {ij: v for ij, row in table.items()
                        if (v := sum(s * self.integral[k] for k, s in row.items()))}
        # a fixed component is compact and oriented, so Poincare duality holds
        from .linalg import rank  # linalg imports this module
        n = len(self.basis)
        if (r := rank([{j: v for (i, j), v in self.pairing.items() if i == row}
                       for row in range(n)])) < n:
            raise ValidationError(f"integral pairing is degenerate: rank {r} of {n}")

    def _validate(self):
        n = len(self.basis)
        if n == 0 or len(self.degrees) != n or len(self.integral) != n:
            raise ValidationError("algebra basis/degrees/integral length mismatch")
        if any(not isinstance(b, str) for b in self.basis) or len(set(self.basis)) != n:
            raise ValidationError("algebra basis names must be distinct strings")
        if any(d % 2 or d < 0 for d in self.degrees):
            raise ValidationError("basis degrees must be even and nonnegative")
        if self.degrees[0] != 0:
            raise ValidationError("basis element 0 must have degree 0 (the unit)")
        for i in range(n):
            for j in range(n):
                row = self.mul_basis(i, j)
                want = self.degrees[i] + self.degrees[j]
                for k in row:
                    if self.degrees[k] != want:
                        raise ValidationError(
                            f"product of basis {i},{j} has a component off degree {want}")
                if self.mul_basis(j, i) != row:
                    raise ValidationError(f"multiplication not commutative at ({i},{j})")
        for j in range(n):
            if self.mul_basis(0, j) != {j: Q(1)}:
                raise ValidationError(f"basis element 0 does not act as unit on {j}")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self._mul_elt(self.mul_basis(i, j), {k: Q(1)}) != \
                            self._mul_elt({i: Q(1)}, self.mul_basis(j, k)):
                        raise ValidationError(
                            "multiplication not associative on triple "
                            f"({self.basis[i]},{self.basis[j]},{self.basis[k]})")
        for k, v in enumerate(self.integral):
            if v != 0 and self.degrees[k] != self.top_degree:
                raise ValidationError(
                    f"integral is nonzero on basis {k} of degree {self.degrees[k]}")
        bound = self.top_degree // 2 + 1
        for i in range(1, n):
            if self.degrees[i] == 0:
                raise ValidationError("only basis element 0 may have degree 0")
            if self.nilpotency_order({i: Q(1)}) > bound:
                raise ValidationError(f"basis element {i} is not nilpotent within degree bound")

    def _mul_elt(self, a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, ca in a.items():
            for j, cb in b.items():
                add_scaled(out, ca * cb, self.mul_basis(i, j))
        return out

    def mul_basis(self, i: int, j: int) -> dict[int, Fraction]:
        return self._table.get((i, j), {})

    def nilpotency_order(self, elt: Mapping[int, Fraction]) -> int:
        """Smallest k with elt^k = 0 for an element of positive degree; 1 if elt = 0."""
        power = dict(elt)
        k = 1
        limit = self.top_degree // 2 + 2
        while power:
            if k > limit:
                return k  # caller treats > bound as failure
            power = self._mul_elt(power, elt)
            k += 1
        return k

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, GradedAlgebra) and self._key == other._key)

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GradedAlgebra(basis={self.basis}, top_degree={self.top_degree})"


POINT_ALGEBRA = GradedAlgebra(("one",), (0,), {(0, 0): {0: Q(1)}}, (Q(1),), 0)


class EquivariantPolynomial:
    """Sparse polynomial in the torus variables with graded-algebra coefficients."""

    __slots__ = ("vars", "algebra", "terms")

    def __init__(self, vars: Variables, algebra: GradedAlgebra,
                 terms: Mapping[tuple[tuple[int, ...], int], Fraction] | None = None):
        self.vars = vars
        self.algebra = algebra
        self.terms: dict[tuple[tuple[int, ...], int], Fraction] = {}
        if terms:
            for key, c in terms.items():
                if c := coefficient(c):
                    self.terms[key] = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Variables, algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        return EquivariantPolynomial(vars, algebra)

    @staticmethod
    def constant(vars: Variables, value, algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        value = coefficient(value)
        p = EquivariantPolynomial(vars, algebra)
        if value:
            p.terms[(vars.zero_exps(), 0)] = value
        return p

    @staticmethod
    def one(vars: Variables, algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        return EquivariantPolynomial.constant(vars, 1, algebra)

    @staticmethod
    def variable(vars: Variables, index: int, algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        exps = [0] * vars.count
        exps[index] = 1
        return EquivariantPolynomial(vars, algebra, {(tuple(exps), 0): 1})

    @staticmethod
    def from_linear_form(vars: Variables, form: LinearForm,
                         algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        p = EquivariantPolynomial(vars, algebra)
        for i, c in enumerate(form.coeffs):
            if c:
                exps = [0] * vars.count
                exps[i] = 1
                p.terms[(tuple(exps), 0)] = coefficient(c)
        return p

    @staticmethod
    def from_algebra_element(vars: Variables, algebra: GradedAlgebra,
                             elt: Mapping[int, Fraction]) -> "EquivariantPolynomial":
        z = vars.zero_exps()
        return EquivariantPolynomial(vars, algebra, {(z, i): c for i, c in elt.items()})

    # -- predicates and views ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Cohomological degree (max over terms); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(2 * sum(e) + self.algebra.degrees[b] for e, b in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {2 * sum(e) + self.algebra.degrees[b] for e, b in self.terms}
        return len(degs) <= 1

    def involves_any_variable(self) -> bool:
        return any(sum(e) for e, _ in self.terms)

    def constant_value(self) -> Fraction:
        """Value of a polynomial that is constant and unit-valued."""
        if not self.terms:
            return 0
        [(key, c)] = self.terms.items()
        if key != (self.vars.zero_exps(), 0):
            raise ValidationError("polynomial is not a scalar constant")
        return c

    def coefficients_in(self, var: int) -> dict[int, "EquivariantPolynomial"]:
        """Slice by the exponent of one variable; slices keep full arity with
        that exponent zeroed."""
        out: dict[int, EquivariantPolynomial] = {}
        for (e, b), c in self.terms.items():
            k = e[var]
            rest = list(e)
            rest[var] = 0
            slot = out.setdefault(k, EquivariantPolynomial(self.vars, self.algebra))
            slot.terms[(tuple(rest), b)] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "EquivariantPolynomial"):
        if self.vars is not other.vars and self.vars != other.vars:
            raise ValidationError("variable mismatch")
        if not (self.algebra is other.algebra or self.algebra == other.algebra):
            raise ValidationError("algebra mismatch")

    def __add__(self, other: "EquivariantPolynomial") -> "EquivariantPolynomial":
        return EquivariantPolynomial.sum(self.vars, (self, other), self.algebra)

    @staticmethod
    def sum(vars: Variables, polys: Iterable["EquivariantPolynomial"],
            algebra: GradedAlgebra = POINT_ALGEBRA) -> "EquivariantPolynomial":
        """Sum of many polynomials, added in place into one term dict."""
        out = EquivariantPolynomial(vars, algebra)
        for p in polys:
            out._check(p)
            add_scaled(out.terms, 1, p.terms)
        return out

    def scale(self, value) -> "EquivariantPolynomial":
        value = coefficient(value)
        if not value:
            return EquivariantPolynomial(self.vars, self.algebra)
        return EquivariantPolynomial(self.vars, self.algebra,
                                     {k: c * value for k, c in self.terms.items()})

    def __mul__(self, other: "EquivariantPolynomial") -> "EquivariantPolynomial":
        self._check(other)
        out = EquivariantPolynomial(self.vars, self.algebra)
        terms = out.terms
        mul_basis = self.algebra.mul_basis
        for (e1, b1), c1 in self.terms.items():
            for (e2, b2), c2 in other.terms.items():
                c = c1 * c2
                exps = tuple(a + b for a, b in zip(e1, e2))
                for k, s in mul_basis(b1, b2).items():
                    key = (exps, k)
                    v = terms.get(key, 0) + c * s
                    if v:
                        terms[key] = v
                    else:
                        terms.pop(key, None)
        return out

    def mul_pure(self, pure: "EquivariantPolynomial") -> "EquivariantPolynomial":
        """Multiply by a unit-valued polynomial (possibly over another algebra)."""
        out = EquivariantPolynomial(self.vars, self.algebra)
        terms = out.terms
        for (e1, b1), c1 in self.terms.items():
            for (e2, b2), c2 in pure.terms.items():
                if b2 != 0:
                    raise ValidationError("mul_pure needs a unit-valued polynomial")
                key = (tuple(a + b for a, b in zip(e1, e2)), b1)
                v = terms.get(key, 0) + c1 * c2
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        return out

    def __pow__(self, n: int) -> "EquivariantPolynomial":
        if n < 0:
            raise ValidationError("negative polynomial power")
        out = EquivariantPolynomial.one(self.vars, self.algebra)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, EquivariantPolynomial)
                and self.vars == other.vars
                and self.algebra == other.algebra
                and self.terms == other.terms)

    # -- calculus-style operations ----------------------------------------

    def derivative(self, var: int) -> "EquivariantPolynomial":
        # lowering one exponent takes distinct terms to distinct terms
        return EquivariantPolynomial(self.vars, self.algebra, {
            (e[:var] + (e[var] - 1,) + e[var + 1:], b): c * e[var]
            for (e, b), c in self.terms.items() if e[var]})

    def map_basis(self, target_algebra: GradedAlgebra,
                  matrix: list[list[Fraction]]) -> "EquivariantPolynomial":
        """Apply a linear map on algebra coefficients; matrix[i] is the image of
        source basis element i as a coefficient list over the target basis."""
        out = EquivariantPolynomial(self.vars, target_algebra)
        for (e, b), c in self.terms.items():
            add_scaled(out.terms, c, {(e, k): m for k, v in enumerate(matrix[b])
                                      if (m := coefficient(v))})
        return out

    def integrate_product(self, other: "EquivariantPolynomial", out: dict) -> dict:
        """Add the terms of the integral of self * other into ``out``, keyed
        (exponents, 0) as over the point algebra, and return it.  Each pair of
        terms is contracted through the algebra's pairing of basis elements,
        so the product itself is never formed."""
        self._check(other)
        pairing = self.algebra.pairing
        for (e1, b1), c1 in self.terms.items():
            for (e2, b2), c2 in other.terms.items():
                s = pairing.get((b1, b2))
                if s:
                    key = (tuple(a + b for a, b in zip(e1, e2)), 0)
                    v = out.get(key, 0) + c1 * c2 * s
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return out

    def div_exact_linear(self, form: LinearForm) -> "EquivariantPolynomial":
        """Exact division by a linear form, by synthetic division in its first
        variable (the pivot): the terms are bucketed by their power of the
        pivot and walked from the highest power down, each quotient term
        taking itself times the rest of the form from the power below.
        Raises ExactDivisionError on a nonzero remainder at power 0."""
        pivot = next((i for i, c in enumerate(form.coeffs) if c != 0), None)
        if pivot is None:
            raise ZeroDivisionError("division by the zero linear form")
        inverse = Q(1) / form.coeffs[pivot]
        rest = [(i, c) for i, c in enumerate(form.coeffs) if c and i != pivot]
        buckets: dict[int, dict] = {}
        for key, c in self.terms.items():
            buckets.setdefault(key[0][pivot], {})[key] = c
        quotient = {}
        for k in range(max(buckets, default=0), 0, -1):
            below = buckets.setdefault(k - 1, {})
            for (e, b), c in buckets.get(k, {}).items():
                e = e[:pivot] + (k - 1,) + e[pivot + 1:]
                quotient[(e, b)] = q = c * inverse
                add_scaled(below, -q, {(e[:i] + (e[i] + 1,) + e[i + 1:], b): r for i, r in rest})
        if buckets.get(0):
            raise ExactDivisionError("linear form does not divide the polynomial")
        return EquivariantPolynomial(self.vars, self.algebra, quotient)

    # -- rendering ---------------------------------------------------------

    def sorted_items(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (monomial_sort_key(kv[0][0]), kv[0][1]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for (e, b), c in self.sorted_items():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(self.vars.names[i])
                elif k > 1:
                    factors.append(f"{self.vars.names[i]}^{k}")
            if b != 0:
                factors.append(self.algebra.basis[b])
            if not factors:
                body = str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(c) + "*" + "*".join(factors)
            chunks.append(body)
        text = chunks[0]
        for body in chunks[1:]:
            text += " - " + body[1:] if body.startswith("-") else " + " + body
        return text

    __repr__ = __str__


def substitution(images: list[EquivariantPolynomial]
                 ) -> Callable[[EquivariantPolynomial], EquivariantPolynomial]:
    """Simultaneous substitution of unit-valued polynomials for all variables,
    as a function of the polynomial; the powers of the images it builds are
    kept for every polynomial it is applied to."""
    powers = [[image] for image in images]  # powers[i][k - 1] is images[i]^k

    def power(i: int, k: int) -> EquivariantPolynomial:
        known = powers[i]
        while len(known) < k:
            known.append(known[-1].mul_pure(images[i]))
        return known[k - 1]

    def substitute(poly: EquivariantPolynomial) -> EquivariantPolynomial:
        pieces = []
        for (e, b), c in poly.terms.items():
            piece = EquivariantPolynomial.from_algebra_element(poly.vars, poly.algebra, {b: c})
            for i, k in enumerate(e):
                if k:
                    piece = piece.mul_pure(power(i, k))
            pieces.append(piece)
        return EquivariantPolynomial.sum(poly.vars, pieces, poly.algebra)

    return substitute


class RationalSection:
    """Quotient of an EquivariantPolynomial by a multiset of linear forms.

    The denominator is kept factored and canonical: forms are primitive integer
    vectors with positive leading coefficient, scalars being absorbed into the
    numerator.  Proportional factors therefore always merge, which is what the
    residue routines rely on when grouping poles.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: EquivariantPolynomial,
                 denom: Mapping[LinearForm, int] | Iterable[tuple[LinearForm, int]] = (),
                 cancel: bool = True):
        items = denom.items() if isinstance(denom, Mapping) else denom
        scale = Q(1)
        merged: dict[LinearForm, int] = {}
        for form, mult in items:
            mult = int(mult)
            if mult < 0:
                raise ValidationError("negative denominator multiplicity")
            if mult == 0:
                continue
            try:
                s, prim = form.normalized()
            except ValidationError:
                raise ZeroDivisionError("zero linear form in a denominator") from None
            if s != 1:
                scale *= s ** mult
            merged[prim] = merged.get(prim, 0) + mult
        if scale != 1:
            numer = numer.scale(Q(1) / scale)
        if numer.is_zero():
            merged = {}
        # a nonzero numerator free of the variables has no linear factor
        elif cancel and merged and numer.involves_any_variable():
            for form in sorted(merged, key=lambda f: f.coeffs):
                while merged.get(form, 0) > 0:
                    try:
                        numer = numer.div_exact_linear(form)
                    except ExactDivisionError:
                        break
                    merged[form] -= 1
                    if merged[form] == 0:
                        del merged[form]
        self.numer = numer
        self.denom = merged

    @property
    def vars(self) -> Variables:
        return self.numer.vars

    @property
    def algebra(self) -> GradedAlgebra:
        return self.numer.algebra

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    # -- arithmetic --------------------------------------------------------

    def numer_over(self, target: Mapping[LinearForm, int]) -> EquivariantPolynomial:
        """The numerator over a denominator that this one divides."""
        p = self.numer
        for form, mult in sorted(target.items(), key=lambda kv: kv[0].coeffs):
            extra = mult - self.denom.get(form, 0)
            if extra < 0:
                raise ValidationError("target denominator does not dominate")
            if extra:
                fp = EquivariantPolynomial.from_linear_form(self.vars, form)
                for _ in range(extra):
                    p = p.mul_pure(fp)
        return p

    @staticmethod
    def common_denominator(sections: Iterable["RationalSection"]) -> dict[LinearForm, int]:
        """Least common multiple of the sections' denominators."""
        common: dict[LinearForm, int] = {}
        for s in sections:
            for form, mult in s.denom.items():
                if mult > common.get(form, 0):
                    common[form] = mult
        return common

    @staticmethod
    def sum(vars: Variables, sections: Iterable["RationalSection"],
            algebra: GradedAlgebra = POINT_ALGEBRA) -> "RationalSection":
        """Sum over one common denominator, the one way sections are added:
        every numerator is extended once to the least common multiple of the
        denominators, the numerators are added, and the result is cancelled
        once.

        Over the point algebra a fully cancelled section is unique, since its
        denominator is a product of normalized linear forms, so the sum does
        not depend on how the sections are grouped.
        """
        sections = list(sections)
        common = RationalSection.common_denominator(sections)
        numer = EquivariantPolynomial.sum(
            vars, (s.numer_over(common) for s in sections), algebra)
        return RationalSection(numer, common)

    def scale(self, value) -> "RationalSection":
        return RationalSection(self.numer.scale(value), self.denom, cancel=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSection):
            return NotImplemented
        common = RationalSection.common_denominator((self, other))
        return self.numer_over(common) == other.numer_over(common)

    # -- calculus ----------------------------------------------------------

    def derivative(self, var: int) -> "RationalSection":
        """d/dx_var of N / D: N'/D plus -n * m * N / (D * f) for each factor f
        of multiplicity m whose coefficient on x_var is n, summed once."""
        terms = [RationalSection(self.numer.derivative(var), self.denom, cancel=False)]
        for form, mult in self.denom.items():
            if n := form.coeffs[var]:
                terms.append(RationalSection(self.numer.scale(-n * mult),
                                             {**self.denom, form: mult + 1}, cancel=False))
        return RationalSection.sum(self.vars, terms, self.algebra)

    def subst_linear(self, var: int, coeffs: tuple[Fraction, ...]) -> "RationalSection":
        """Substitute the linear form sum(coeffs[i] * x_i), free of x_var, for
        x_var; every denominator factor must stay nonzero."""
        if coeffs[var] != 0:
            raise ValidationError("replacement must not involve the substituted variable")
        images = [EquivariantPolynomial.variable(self.vars, i) for i in range(self.vars.count)]
        images[var] = EquivariantPolynomial.from_linear_form(self.vars, LinearForm(coeffs))
        numer = substitution(images)(self.numer)
        denom: list[tuple[LinearForm, int]] = []
        for form, mult in self.denom.items():
            n = form.coeffs[var]
            if n == 0:
                denom.append((form, mult))
                continue
            nf = LinearForm(tuple(Q(0) if i == var else c + n * r
                                  for i, (c, r) in enumerate(zip(form.coeffs, coeffs))))
            if nf.is_zero():
                raise ZeroDivisionError("denominator factor vanishes under substitution")
            denom.append((nf, mult))
        return RationalSection(numer, denom)

    def constant_value(self) -> Fraction:
        if self.denom:
            raise ValidationError("section still has denominator factors")
        return self.numer.constant_value()

    def __str__(self) -> str:
        if not self.denom:
            return str(self.numer)
        parts = []
        for form, mult in sorted(self.denom.items(), key=lambda kv: kv[0].coeffs):
            fp = EquivariantPolynomial.from_linear_form(self.vars, form)
            parts.append(f"({fp})" + (f"^{mult}" if mult > 1 else ""))
        return f"({self.numer}) / ({'*'.join(parts)})"

    __repr__ = __str__


def invert_euler(vars: Variables, algebra: GradedAlgebra,
                 lines: Iterable[tuple[LinearForm, EquivariantPolynomial]]) -> RationalSection:
    """Invert a product of line factors (weight form + degree-2 class).

    Each factor 1/(w + c) expands as the finite sum over r of (-c)^r / w^(r+1),
    cut off by nilpotency of c.  The lines' numerators are multiplied out and
    cancelled once against all factors, as a product of cancelled per-line
    sections would be: a normalized form has a unit coefficient, so it is a
    nonzerodivisor over any component algebra, and the multiplicity of each
    form in the numerator does not depend on the order of cancellation.
    """
    numer = EquivariantPolynomial.one(vars, algebra)
    denom = []
    for form, chern in lines:
        if form.is_zero():
            raise ValidationError("normal line with zero weight has no invertible Euler factor")
        elt = {b: c for (e, b), c in chern.terms.items()}
        if any(sum(e) for e, _ in chern.terms):
            raise ValidationError("line curvature class must be constant in the variables")
        order = algebra.nilpotency_order(elt) if elt else 1
        if order > algebra.top_degree // 2 + 1:
            raise ValidationError("line curvature class is not nilpotent")
        if order > 1:
            w_poly = EquivariantPolynomial.from_linear_form(vars, form)
            minus_chern = chern.scale(-1)
            numer = numer * EquivariantPolynomial.sum(vars, (
                (minus_chern ** r).mul_pure(w_poly ** (order - 1 - r)) for r in range(order)), algebra)
        denom.append((form, order))
    return RationalSection(numer, denom)
