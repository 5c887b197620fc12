import math
import random
from fractions import Fraction

import pytest

from qexpmap.matrices import Matrix
from qexpmap.render import render_matrix
from qexpmap.scalars import (FracScalar, HalfLaurent, NumericParams,
                             Q_pow, RadScalar, ScalarError, eval_numeric,
                             lam_pow, p_pow, q_pow, qfact, qint,
                             scalar_from_json, scalar_lambda_one,
                             scalar_to_json)


def rand_halflaurent(rng, nterms=4):
    terms = {}
    for _ in range(nterms):
        key = (rng.randint(-4, 4), rng.randint(-4, 4))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return HalfLaurent(terms)


class TestHalfLaurent:
    def test_pq_monomials(self):
        assert p_pow(1) == Q_pow(2) * lam_pow(2)
        assert q_pow(1) == Q_pow(2) * lam_pow(-2)
        assert p_pow(1) * q_pow(1) == Q_pow(4)
        assert p_pow(1) * q_pow(-1) == lam_pow(4)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(40):
            x, y, z = (rand_halflaurent(rng) for _ in range(3))
            assert x + y == y + x
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert (x * y) * z == x * (y * z)

    def test_divexact_roundtrip(self):
        rng = random.Random(11)
        for _ in range(30):
            x, y = rand_halflaurent(rng), rand_halflaurent(rng)
            if y.is_zero():
                continue
            assert (x * y).divexact(y) == x

    def test_qint_values(self):
        assert qint(1) == HalfLaurent.one()
        assert qint(2) == Q_pow(2) + Q_pow(-2)
        assert qint(3) == Q_pow(4) + HalfLaurent.one() + Q_pow(-4)
        assert qfact(3) == qint(1) * qint(2) * qint(3)

    def test_lambda_one_substitution(self):
        x = p_pow(1) - q_pow(1)
        assert scalar_lambda_one(x).is_zero()
        assert scalar_lambda_one(p_pow(2)) == Q_pow(4)

    def test_json_roundtrip(self):
        rng = random.Random(3)
        for _ in range(10):
            x = rand_halflaurent(rng)
            assert HalfLaurent.from_json(x.to_json()) == x


class TestFracScalar:
    def test_cross_multiplied_equality(self):
        # same value, different representatives
        x = FracScalar(qint(2) * qint(3), qint(3))
        y = FracScalar(qint(2), HalfLaurent.one())
        assert x == y
        assert (x - y).is_zero()

    def test_field_ops(self):
        x = FracScalar(qint(2), qint(3))
        assert (x * x ** -1).is_one()
        assert (x / x).is_one()
        assert (x + (-x)).is_zero()

    def test_numeric_matches_exact(self):
        params = NumericParams(1.3, 0.7)
        x = FracScalar(qint(4), qint(2))
        # [4]/[2] = Q^2 + Q^-2
        expect = params.Q ** 2 + params.Q ** -2
        assert math.isclose(eval_numeric(x, params), expect, rel_tol=1e-12)

    def test_json_roundtrip(self):
        x = FracScalar(qint(5), qfact(3))
        assert FracScalar.from_json(x.to_json()) == x


class TestRadScalar:
    def test_square_pairs_extracted(self):
        x = RadScalar.sqrt_qints([2, 2])
        assert x == RadScalar([(FracScalar(qint(2)), ())])

    def test_sqrt_product(self):
        x = RadScalar.sqrt_qints([2])
        assert (x * x) == RadScalar([(FracScalar(qint(2)), ())])

    def test_like_terms_collect(self):
        x = RadScalar.sqrt_qints([3]) + RadScalar.sqrt_qints([3])
        assert x == RadScalar.sqrt_qints([3], 2)
        assert (x - x).is_zero()

    def test_rad_normalize_idempotent(self):
        x = RadScalar.sqrt_qints([2, 3, 3], Fraction(5, 3))
        once = RadScalar(list(x.terms))
        assert once == x
        assert RadScalar(list(once.terms)) == once

    def test_rad_normalize_value_preserving(self):
        rng = random.Random(5)
        for _ in range(10):
            params = NumericParams(rng.uniform(0.5, 2), rng.uniform(0.5, 2))
            x = RadScalar.sqrt_qints([2, 2, 3], Fraction(7, 2))
            a = eval_numeric(x, params)
            b = eval_numeric(RadScalar(list(x.terms)), params)
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_numeric_value_of_radicals(self):
        params = NumericParams(1.3, 0.7)
        x = RadScalar.sqrt_qints([2, 3], Fraction(5, 3))
        ((c, rad),) = x.terms
        assert rad == (2, 3)
        # the evaluation's own loop, with each q-integer built afresh
        want = eval_numeric(c, params)
        for n in rad:
            want *= math.sqrt(eval_numeric(qint(n), params))
        assert eval_numeric(x, params) == want
        assert eval_numeric(x, params) == want
        Q = params.Q
        assert math.isclose(
            want, 5 / 3 * math.sqrt((Q + 1 / Q) * (Q * Q + 1 + 1 / (Q * Q))),
            rel_tol=1e-12)

    def test_index_one_dropped(self):
        assert RadScalar.sqrt_qints([1, 2]) == RadScalar.sqrt_qints([2])

    def test_negative_radicand_rejected(self):
        with pytest.raises(ScalarError):
            RadScalar.sqrt_qints([-2])

    def test_json_roundtrip(self):
        x = RadScalar.sqrt_qints([2, 3]) + RadScalar.sqrt_qints([5], 2)
        assert RadScalar.from_json(x.to_json()) == x

    def test_radical_coefficient_rendering(self):
        # how a coefficient sits in front of a radical differs by format;
        # no rendered matrix puts -1 before a LaTeX radical, so pin it here
        coeffs = (1, -1, 2, Q_pow(-2) + Q_pow(2))
        row = [RadScalar.sqrt_qints([2, 3], c) for c in coeffs]
        m = Matrix.build(1, len(row), lambda r, c: row[c])
        assert render_matrix(m, "text") == (
            "[sqrt([2]*[3]), -1*sqrt([2]*[3]), 2*sqrt([2]*[3]), "
            "(Q + Q^-1)*sqrt([2]*[3])]")
        assert render_matrix(m, "latex") == (
            r"\left(\begin{array}{cccc}" "\n"
            r"\sqrt{[2][3]} & -\sqrt{[2][3]} & (2)\sqrt{[2][3]} & "
            r"(Q + Q^{-1})\sqrt{[2][3]}" "\n"
            r"\end{array}\right)")


class TestNumericParams:
    def test_rejects_degenerate(self):
        with pytest.raises(ScalarError):
            NumericParams(1.0, 1.0)  # Q = 1 makes every [n] vanish
        with pytest.raises(ScalarError):
            NumericParams(-1.0, 2.0)

    def test_derived_quantities(self):
        params = NumericParams(2.0, 0.8)
        assert math.isclose(params.p, 2.0)
        assert math.isclose(params.q, 0.8)
        assert math.isclose(params.Q ** 2, params.p * params.q, rel_tol=1e-12)
        assert math.isclose(params.lam ** 2, params.p / params.q,
                            rel_tol=1e-12)


def test_scalar_json_dispatch():
    for x in (qint(3), FracScalar(qint(2), qint(3)),
              RadScalar.sqrt_qints([2])):
        y = scalar_from_json(scalar_to_json(x))
        assert (x - y).is_zero()


def test_eval_numeric_plain_numbers():
    params = NumericParams(1.5, 0.8)
    assert eval_numeric(Fraction(3, 4), params) == 0.75
    assert eval_numeric(2, params) == 2.0


# ---------------------------------------------------------------------------
# true divisions of int coefficients: each quotient is 1/c with c an int;
# with c = 3 a float 1/3 is inexact, so a bare `/` at the division site
# would change the stored coefficient.

@pytest.mark.parametrize("c", [2, 3])
def test_monomial_inverse_is_exact(c):
    inv = (c * Q_pow(2)).inverse()
    assert inv.terms == {(-2, 0): Fraction(1, c)}
    assert type(inv.terms[(-2, 0)]) is Fraction


def test_divexact_by_leading_coefficient_three():
    divisor = 3 * Q_pow(2) + 1
    quotient = HalfLaurent({(2, 0): Fraction(1, 3), (0, 0): 5})
    got = (divisor * quotient).divexact(divisor)
    assert got is not None
    assert got.terms == quotient.terms
    assert type(got.terms[(0, 0)]) is int


@pytest.mark.parametrize("c", [2, 3])
def test_fracscalar_denominator_made_monic(c):
    x = FracScalar(1, c + c * Q_pow(4))
    assert x.den.terms == {(0, 0): 1, (-4, 0): 1}
    assert x.num.terms == {(-4, 0): Fraction(1, c)}
    assert type(x.num.terms[(-4, 0)]) is Fraction


# ---------------------------------------------------------------------------
# 0, 1 and powers, which the three tower classes share


@pytest.mark.parametrize("cls", [HalfLaurent, FracScalar, RadScalar])
def test_zero_and_one_have_the_class(cls):
    zero, one = cls.zero(), cls.one()
    assert type(zero) is cls and type(one) is cls
    assert zero == 0 and zero.is_zero()
    assert one == 1 and not one.is_zero()


@pytest.mark.parametrize("x", [
    HalfLaurent({(1, 2): 3, (-2, 0): Fraction(1, 2), (0, 0): -1}),
    FracScalar(qint(3) + Q_pow(1)),                 # denominator 1
    RadScalar.sqrt_qints([2, 3], qint(2)) + RadScalar.sqrt_qints([5], 2),
])
def test_power_is_the_repeated_product(x):
    prod = type(x).one()
    for n in range(7):
        assert x ** n == prod
        assert scalar_to_json(x ** n) == scalar_to_json(prod)
        prod = prod * x


@pytest.mark.parametrize("x", [
    HalfLaurent({(3, -1): Fraction(2, 3)}),
    -2 * Q_pow(1),
    FracScalar(3 * Q_pow(1)),       # its inverse has denominator 1 too
])
def test_negative_power_of_a_monomial(x):
    inv, prod = x.inverse(), type(x).one()
    for n in range(7):
        assert x ** -n == prod
        assert scalar_to_json(x ** -n) == scalar_to_json(prod)
        assert x ** -n * x ** n == 1
        prod = prod * inv


@pytest.mark.parametrize("call", [
    lambda: Q_pow(2) ** Fraction(1, 2),
    lambda: FracScalar(Q_pow(1)) ** 1.5,
    lambda: qint(Fraction(5, 2)),
    lambda: qfact(Fraction(5, 2)),
    lambda: Q_pow(Fraction(3, 2)),
    lambda: lam_pow(0.5),
    lambda: RadScalar.sqrt_qints([2.5]),
], ids=["pow", "frac-pow", "qint", "qfact", "Q_pow", "lam_pow", "radicand"])
def test_non_integral_argument_is_a_scalar_error(call):
    with pytest.raises(ScalarError, match="non-integral"):
        call()


def test_integral_values_of_any_type_are_accepted():
    assert Q_pow(2) ** Fraction(4, 2) == Q_pow(2) ** 2.0 == Q_pow(4)
    assert qint(Fraction(3)) == qint(3.0) == qint(3)
    assert qfact(Fraction(4, 2)) == qfact(2)
    assert Q_pow(Fraction(6, 2)) == lam_pow(0) * Q_pow(3.0)
    assert RadScalar.sqrt_qints([Fraction(2), 3.0]) == \
        RadScalar.sqrt_qints([2, 3])
