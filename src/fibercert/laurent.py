"""Exact integer multivariate Laurent polynomial and matrix arithmetic.

Polynomials are maps from exponent vectors in Z^r to nonzero integer
coefficients.  Matrices of them carry the lifted train-track transition data;
the characteristic polynomial is computed division-free (Berkowitz), since
Z[t_1^{±1}, ..., t_r^{±1}] is not a field.  Ranks and shapes are a map's,
checked once when LiftedGraphMap is built, and not checked again here.

Sign convention, used everywhere: char_poly returns F(x, t) = det(M - xI),
i.e. (-1)^m det(xI - M) for an m x m matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from . import geometry
from .errors import ValidationError

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class LaurentPoly:
    """An integer Laurent polynomial in ``rank`` variables.

    ``terms`` maps exponent vectors to nonzero coefficients; the zero
    polynomial has an empty map.  Instances are immutable.
    """

    rank: int
    terms: Mapping[Exponent, int]

    def __post_init__(self):
        object.__setattr__(self, "terms", {e: c for e, c in self.terms.items() if c})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rank: int) -> "LaurentPoly":
        return LaurentPoly(rank, {})

    @staticmethod
    def const(rank: int, c: int) -> "LaurentPoly":
        return LaurentPoly(rank, {(0,) * rank: c})

    @staticmethod
    def monomial(rank: int, exponent: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(rank, {tuple(exponent): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return LaurentPoly(self.rank, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return LaurentPoly(self.rank, terms)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: c * v for e, v in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        """Evaluate at nonzero rational coordinates."""
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = Fraction(c)
            for x, e in zip(point, exp):
                v *= Fraction(x) ** e
            total += v
        return total

    def to_pairs(self) -> list[tuple[Exponent, int]]:
        """Canonical (exponent, coefficient) list, lexicographic on exponents."""
        return sorted(self.terms.items())


@dataclass(frozen=True)
class LaurentMatrix:
    """A square matrix of Laurent polynomials: dim is a map's edge count and
    rank its rank, both checked once in LiftedGraphMap, not here."""

    dim: int
    rank: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[LaurentPoly]]) -> "LaurentMatrix":
        return LaurentMatrix(len(rows), rows[0][0].rank, tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(dim: int, rank: int) -> "LaurentMatrix":
        one = LaurentPoly.const(rank, 1)
        zero = LaurentPoly.zero(rank)
        return LaurentMatrix(
            dim, rank,
            tuple(tuple(one if i == j else zero for j in range(dim)) for i in range(dim)),
        )

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        zero = LaurentPoly.zero(self.rank)
        rows = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                acc = zero
                for k in range(self.dim):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.terms and b.terms:
                        acc = acc + a * b
                row.append(acc)
            rows.append(tuple(row))
        return LaurentMatrix(self.dim, self.rank, tuple(rows))

    def evaluate(self, point: Sequence[Fraction | int]) -> list[list[Fraction]]:
        return [[p.evaluate(point) for p in row] for row in self.entries]


def mat_pow(M: LaurentMatrix, p: int) -> LaurentMatrix:
    """Exact p-th power by binary powering; M^0 is the identity."""
    if p < 0:
        raise ValidationError("matrix power must be nonnegative")
    result = LaurentMatrix.identity(M.dim, M.rank)
    base = M
    while p:
        if p & 1:
            result = result * base
        p >>= 1
        if p:
            base = base * base
    return result


@dataclass(frozen=True)
class CharPoly:
    """F(x, t) = det(M - xI) = sum_k coeffs[k] * x^(m-k), coeffs[0] = (-1)^m."""

    dim: int
    rank: int
    coeffs: tuple[LaurentPoly, ...]


def char_poly(M: LaurentMatrix) -> CharPoly:
    """Division-free characteristic polynomial via the Berkowitz recursion."""
    m, rank = M.dim, M.rank
    one = LaurentPoly.const(rank, 1)

    def berk(rows: list[list[LaurentPoly]], n: int) -> list[LaurentPoly]:
        # Coefficients of det(xI - A), monic, length n + 1.
        if n == 0:
            return [one]
        a = rows[0][0]
        R = rows[0][1:]
        C = [rows[i][0] for i in range(1, n)]
        B = [row[1:] for row in rows[1:]]
        q = berk(B, n - 1)
        # s[k] = R B^(k-1) C for k >= 1; s[0] = a.
        s = [a]
        v = C
        for _ in range(1, n):
            s.append(_dot(R, v, rank))
            v = _matvec(B, v, rank)
        p = [q[0]]
        for i in range(1, n + 1):
            acc = q[i] if i < len(q) else LaurentPoly.zero(rank)
            for k in range(i):
                j = i - 1 - k
                if j < len(q) and s[k].terms and q[j].terms:
                    acc = acc - s[k] * q[j]
            p.append(acc)
        return p

    rows = [list(r) for r in M.entries]
    monic = berk(rows, m)
    sign = (-1) ** m
    return CharPoly(m, rank, tuple(c.scale(sign) for c in monic))


def _dot(u: Sequence[LaurentPoly], v: Sequence[LaurentPoly], rank: int) -> LaurentPoly:
    acc = LaurentPoly.zero(rank)
    for a, b in zip(u, v):
        if a.terms and b.terms:
            acc = acc + a * b
    return acc


def _matvec(B, v, rank: int) -> list[LaurentPoly]:
    return [_dot(row, v, rank) for row in B]


@dataclass(frozen=True)
class DegreeData:
    """Directional degree extrema of char-poly coefficients.

    For direction u, a[k] (b[k]) is the max (min) of <u, e> over the support
    of the coefficient of x^(m-k), k = 1..m; None marks an empty coefficient.
    """

    direction: tuple[int, ...]
    a: tuple[Optional[int], ...]
    b: tuple[Optional[int], ...]


def degree_extrema(F: CharPoly, u: Sequence[int]) -> DegreeData:
    """a_k, b_k for the coefficients of x^(m-k), k = 1..m, in direction u."""
    u = tuple(u)
    ext = [geometry.directional_extrema(c.terms, u) if c.terms else (None, None)
           for c in F.coeffs[1:]]
    return DegreeData(u, tuple(hi for _, hi in ext), tuple(lo for lo, _ in ext))
