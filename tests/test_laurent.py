from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fibercert.errors import ValidationError
from fibercert.laurent import (
    CharPoly,
    LaurentMatrix,
    LaurentPoly,
    char_poly,
    degree_extrema,
    mat_pow,
)

# -- strategies ---------------------------------------------------------------

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exponents, st.integers(-5, 5), max_size=5).map(
    lambda terms: LaurentPoly(2, terms)
)


def matrices(dim: int, rank: int = 2, span: int = 2):
    exps = st.tuples(*[st.integers(-span, span)] * rank)
    poly = st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda t: LaurentPoly(rank, t)
    )
    return st.lists(st.lists(poly, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim).map(LaurentMatrix.from_rows)


# -- ring laws ----------------------------------------------------------------

@given(polys, polys, polys)
def test_addition_is_associative_and_commutative(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@given(polys)
def test_additive_inverse_and_units(p):
    assert p + (-p) == LaurentPoly.zero(2)
    assert p * LaurentPoly.const(2, 1) == p
    assert p * LaurentPoly.zero(2) == LaurentPoly.zero(2)


@given(polys, st.tuples(st.fractions(), st.fractions()))
def test_evaluation_is_a_ring_map(p, point):
    pt = tuple(x if x != 0 else Fraction(1) for x in point)
    q = LaurentPoly.monomial(2, (1, -1), 3)
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)


# -- characteristic polynomial -------------------------------------------------

def _charpoly_cofactor_oracle(M: LaurentMatrix) -> list[LaurentPoly]:
    """det(M - xI) by cofactor expansion with x as an extra variable.

    Returns the coefficient of x^(m-k) for k = 0..m, each a rank-`M.rank`
    polynomial.  Fully independent of the Berkowitz recursion.
    """
    m, rank = M.dim, M.rank

    def lift(p: LaurentPoly, xdeg: int) -> LaurentPoly:
        return LaurentPoly(rank + 1, {e + (xdeg,): c for e, c in p.terms.items()})

    ext = [
        [lift(M.entries[i][j], 0) - (lift(LaurentPoly.const(rank, 1), 1)
                                     if i == j else LaurentPoly.zero(rank + 1))
         for j in range(m)]
        for i in range(m)
    ]

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = LaurentPoly.zero(rank + 1)
        for j in range(n):
            if rows[0][j].is_zero():
                continue
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = rows[0][j] * det(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    full = det(ext)
    coeffs = [dict() for _ in range(m + 1)]
    for e, c in full.terms.items():
        coeffs[m - e[-1]][e[:-1]] = c
    return [LaurentPoly(rank, t) for t in coeffs]


@settings(max_examples=30, deadline=None)
@given(matrices(3))
def test_char_poly_matches_cofactor_oracle(M):
    F = char_poly(M)
    oracle = _charpoly_cofactor_oracle(M)
    assert list(F.coeffs) == oracle


@settings(max_examples=15, deadline=None)
@given(matrices(2), st.integers(1, 7), st.integers(1, 7))
def test_char_poly_specializes_to_sympy(M, a, b):
    """Evaluating F(x, t) at rational t must match sympy's charpoly of the
    evaluated matrix, up to the det(M - xI) sign convention."""
    point = (Fraction(a, 3), Fraction(b, 2))
    F = char_poly(M)
    x = sympy.Symbol("x")
    S = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in M.evaluate(point)])
    want = ((-1) ** M.dim) * S.charpoly(x).as_expr()
    got = sum(
        sympy.Rational(c.evaluate(point)) * x ** (M.dim - k)
        for k, c in enumerate(F.coeffs)
    )
    assert sympy.expand(want - got) == 0


def test_char_poly_leading_coefficient_convention():
    M = LaurentMatrix.from_rows([[LaurentPoly.monomial(1, (1,))]])
    F = char_poly(M)
    # F(x, t) = t - x for the 1x1 matrix [t].
    assert F.coeffs[0] == LaurentPoly.const(1, -1)
    assert F.coeffs[1] == LaurentPoly.monomial(1, (1,))


# -- matrix powers ---------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(matrices(2, rank=1, span=1), st.integers(0, 5))
def test_mat_pow_matches_naive_product(M, p):
    naive = LaurentMatrix.identity(M.dim, M.rank)
    for _ in range(p):
        naive = naive * M
    assert mat_pow(M, p).entries == naive.entries


def test_mat_pow_rejects_negative_power():
    M = LaurentMatrix.identity(2, 1)
    with pytest.raises(ValidationError):
        mat_pow(M, -1)


# -- degree data --------------------------------------------------------------

@given(st.lists(polys, min_size=1, max_size=4),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_degree_extrema_brute_force(coeffs, u):
    if not any(u):
        return
    F = CharPoly(len(coeffs), 2, (LaurentPoly.const(2, (-1) ** len(coeffs)), *coeffs))
    dd = degree_extrema(F, u)
    for c, ak, bk in zip(coeffs, dd.a, dd.b):
        vals = [sum(a * b for a, b in zip(u, e)) for e in c.terms]
        assert (ak, bk) == ((max(vals), min(vals)) if vals else (None, None))


def test_char_poly_of_symmetric_matrix():
    t = LaurentPoly.monomial(1, (1,))
    tinv = LaurentPoly.monomial(1, (-1,))
    one = LaurentPoly.const(1, 1)
    M = LaurentMatrix.from_rows([[t, one], [one, tinv]])
    # F(x, t) = x^2 - (t + 1/t) x exactly, so only k = 1 contributes.
    F = char_poly(M)
    assert F.coeffs[1] == -(t + tinv)
    assert F.coeffs[2].is_zero()
