"""Property tests of the integer-coefficient scalar kernel against
Fraction-only dict arithmetic; they need hypothesis (the ``test`` extra)."""

import json
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from qexpmap import matrices
from qexpmap.algebra_a import a_parse
from qexpmap.rewrite import NCPoly
from qexpmap.scalars import (RANK, FracScalar, HalfLaurent, RadScalar,
                             ScalarError, lift_scalar, qint, scalar_is_zero,
                             scalar_to_json)

# Stored coefficients are int when integral and a Fraction with denominator
# != 1 otherwise; values match Fraction-only dict arithmetic.


def assert_canonical(x):
    for c in x.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert c


def fractions_of(d):
    """The nonzero entries of a coefficient dict, as Fractions."""
    return {k: Fraction(c) for k, c in d.items() if c}


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def ref_neg(a):
    return {k: -c for k, c in a.items()}


def ref_mul(a, b):
    out = {}
    for (u1, v1), c1 in a.items():
        for (u2, v2), c2 in b.items():
            k = (u1 + u2, v1 + v2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ref_divexact(a, b):
    """Lex leading-term division bounded by the exponent box, as divexact."""
    if not a:
        return {}
    if len(b) == 1:
        ((bu, bv), cb), = b.items()
        return {(u - bu, v - bv): c / cb for (u, v), c in a.items()}
    lt_b = max(b)
    box = (min(u for u, _ in a) - max(u for u, _ in b),
           max(u for u, _ in a) - min(u for u, _ in b),
           min(v for _, v in a) - max(v for _, v in b),
           max(v for _, v in a) - min(v for _, v in b))
    rem, quo = dict(a), {}
    while rem:
        lt_a = max(rem)
        key = (lt_a[0] - lt_b[0], lt_a[1] - lt_b[1])
        if not (box[0] <= key[0] <= box[1] and box[2] <= key[1] <= box[3]):
            return None
        quo[key] = coeff = rem[lt_a] / b[lt_b]
        rem = ref_add(rem, ref_neg(ref_mul({key: coeff}, b)))
    return quo


# ints, non-integral Fractions and Fractions with denominator 1
coeffs = st.one_of(st.integers(-9, 9),
                   st.fractions(min_value=-9, max_value=9, max_denominator=6),
                   st.integers(-9, 9).map(Fraction))
term_dicts = st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                             coeffs, max_size=4)
nonzero_dicts = term_dicts.filter(lambda d: any(d.values()))


class TestIntegerCoefficientKernel:
    @settings(deadline=None)
    @given(term_dicts, term_dicts)
    def test_ring_ops_match_fraction_reference(self, a, b):
        x, y = HalfLaurent(a), HalfLaurent(b)
        fa, fb = fractions_of(a), fractions_of(b)
        assert fractions_of(x.terms) == fa
        for got, want in ((x + y, ref_add(fa, fb)),
                          (x - y, ref_add(fa, ref_neg(fb))),
                          (-x, ref_neg(fa)),
                          (x * y, ref_mul(fa, fb))):
            assert_canonical(got)
            assert fractions_of(got.terms) == want

    @settings(deadline=None)
    @given(term_dicts, nonzero_dicts)
    def test_divexact_matches_fraction_reference(self, a, b):
        x, y = HalfLaurent(a), HalfLaurent(b)
        fa, fb = fractions_of(a), fractions_of(b)
        for num, fnum in ((x, fa), (x * y, ref_mul(fa, fb))):
            got, want = num.divexact(y), ref_divexact(fnum, fb)
            if want is None:
                assert got is None
            else:
                assert_canonical(got)
                assert fractions_of(got.terms) == want

    @given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
           coeffs.filter(bool))
    def test_monomial_inverse(self, key, c):
        inv = HalfLaurent({key: c}).inverse()
        assert_canonical(inv)
        assert fractions_of(inv.terms) == {(-key[0], -key[1]): 1 / Fraction(c)}

    @settings(deadline=None)
    @given(term_dicts, nonzero_dicts, term_dicts, nonzero_dicts)
    def test_fracscalar_ops_match_fraction_reference(self, n1, d1, n2, d2):
        x = FracScalar(HalfLaurent(n1), HalfLaurent(d1))
        y = FracScalar(HalfLaurent(n2), HalfLaurent(d2))
        fn1, fd1, fn2, fd2 = map(fractions_of, (n1, d1, n2, d2))
        cross1, cross2 = ref_mul(fn1, fd2), ref_mul(fn2, fd1)
        dd = ref_mul(fd1, fd2)
        cases = [(x + y, ref_add(cross1, cross2), dd),
                 (x - y, ref_add(cross1, ref_neg(cross2)), dd),
                 (x * y, ref_mul(fn1, fn2), dd)]
        if fn1:
            cases.append((x.inverse(), fd1, fn1))
        for got, num, den in cases:
            assert_canonical(got.num)
            assert_canonical(got.den)
            # got.num / got.den == num / den, cross-multiplied
            assert (ref_mul(fractions_of(got.num.terms), den)
                    == ref_mul(num, fractions_of(got.den.terms)))

    @given(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
           st.integers(-9, 9))
    def test_int_and_fraction_coefficients_agree(self, key, c):
        x, y = HalfLaurent({key: c}), HalfLaurent({key: Fraction(c)})
        assert x == y
        assert hash(x) == hash(y)
        assert x.terms == y.terms
        assert all(type(v) is int for v in y.terms.values())
        # a constant, zero included, equals and hashes as its rational value
        for r in (c, Fraction(c, 7)):
            const = HalfLaurent.const(r)
            assert const == r
            assert hash(const) == hash(r)
            assert len({r, const}) == 1
        assert hash(HalfLaurent()) == hash(0)

    @pytest.mark.parametrize("got, want", [
        # + cancels the Q^1 lambda^1 term and leaves two integral Fractions
        (HalfLaurent({(0, 0): Fraction(1, 2), (2, 2): 3,
                      (2, -2): Fraction(1, 3)})
         + HalfLaurent({(0, 0): Fraction(1, 2), (2, 2): -3,
                        (2, -2): Fraction(2, 3)}),
         {(0, 0): 1, (2, -2): 1}),
        # (Q - Q^-1)/2 * 2(Q + Q^-1): the Q^0 terms cancel
        (HalfLaurent({(2, 0): Fraction(1, 2), (-2, 0): Fraction(-1, 2)})
         * HalfLaurent({(2, 0): 2, (-2, 0): 2}),
         {(4, 0): 1, (-4, 0): -1}),
        # at lambda = 1 the Q^1 terms cancel and the Q^0 ones sum to 2
        (HalfLaurent({(2, 2): Fraction(1, 2), (2, -2): Fraction(-1, 2),
                      (0, 2): Fraction(3, 2), (0, -2): Fraction(1, 2)})
         .subs_lambda_one(),
         {(0, 0): 2}),
    ])
    def test_cancelling_ops_store_canonical_terms(self, got, want):
        assert_canonical(got)
        assert got.terms == want


def full_add(x, y):
    """x + y by FracScalar's general formula, with no short-circuit."""
    if x.den == y.den:
        return FracScalar(x.num + y.num, x.den)
    return FracScalar(x.num * y.den + y.num * x.den, x.den * y.den)


def full_mul(x, y):
    """x * y by FracScalar's general formula, with no short-circuit."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if not d2.is_one():
        quo = n1.divexact(d2)
        if quo is not None:
            n1, d2 = quo, HalfLaurent.one()
    if not d1.is_one():
        quo = n2.divexact(d1)
        if quo is not None:
            n2, d1 = quo, HalfLaurent.one()
    return FracScalar(n1 * n2, d1 * d2)


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want
    assert (json.dumps(scalar_to_json(got))
            == json.dumps(scalar_to_json(want)))


fracscalars = st.builds(lambda n, d: FracScalar(HalfLaurent(n), HalfLaurent(d)),
                        term_dicts, nonzero_dicts)
TOWER_ZEROS = [0, Fraction(0), HalfLaurent.zero(), FracScalar.zero(),
               RadScalar.zero()]


class TestFracScalarShortCircuits:
    # FracScalar + and * return an operand as it is when the other is an
    # exact zero (or * the int 1); bytes must match the general formulas

    @settings(deadline=None)
    @given(fracscalars, fracscalars)
    def test_ops_match_full_path(self, x, y):
        for a, b in ((x, y), (y, x)):
            assert_same(a + b, full_add(a, b))
            assert_same(a * b, full_mul(a, b))
        for k in (-1, 0, 1, 2):
            assert_same(x * k, full_mul(x, FracScalar(k)))
            assert_same(k * x, full_mul(FracScalar(k), x))

    @settings(deadline=None)
    @given(fracscalars)
    def test_zeros_of_every_tower_type(self, x):
        zero = FracScalar.zero()
        for z in TOWER_ZEROS:
            want_sum, want_prod = full_add(x, zero), full_mul(x, zero)
            if isinstance(z, RadScalar):   # RadScalar's own + and * run
                want_sum = RadScalar([(want_sum, ())])
                want_prod = RadScalar([(want_prod, ())])
            for got in (x + z, z + x):
                assert_same(got, want_sum)
            for got in (x * z, z * x):
                assert_same(got, want_prod)


# one value of each tower type, in promotion order; monomials and
# single-term radicals are drawn often, so that division has divisors
TOWER = (int, Fraction, HalfLaurent, FracScalar, RadScalar)
monomial_dicts = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), coeffs,
    min_size=1, max_size=1)
laurents = st.one_of(monomial_dicts, term_dicts).map(HalfLaurent)
radicals = st.one_of(
    st.builds(RadScalar.sqrt_qints, st.lists(st.integers(1, 4), max_size=2),
              fracscalars),
    st.builds(lambda x, y: x + y,
              st.builds(RadScalar.sqrt_qints, st.just([2]), fracscalars),
              fracscalars))
tower_values = st.tuples(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    laurents, fracscalars, radicals)
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


# sums of one to three radicals with distinct, square-free radicands
radical_sums = st.lists(
    st.tuples(fracscalars, st.lists(st.integers(1, 5), max_size=3)),
    min_size=1, max_size=3).map(RadScalar).filter(lambda r: r.terms)
lower_values = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    laurents, fracscalars)


class TestRadicalScaling:
    # r * x for a lower-ranked x scales r's coefficients and keeps its
    # radicands; bytes must match the general product of two radicals

    @settings(deadline=None)
    @given(radical_sums, lower_values)
    def test_matches_general_product(self, r, x):
        for y in (x, *TOWER_ZEROS[:4]):
            want = r * RadScalar([(y, ())])
            for got in (r * y, y * r):
                assert_same(got, want)
                rads = [rad for _, rad in got.terms]
                assert rads == sorted(set(rads))
                assert all(type(c) is FracScalar and not c.is_zero()
                           for c, _ in got.terms)


class TestPromotionOrder:
    def test_one_table(self):
        assert list(RANK) == list(TOWER)
        assert {t: r for t, r in matrices._TYPE_RANK.items()
                if t is not NCPoly} == RANK

    @settings(deadline=None, max_examples=25)
    @given(tower_values, tower_values)
    def test_result_has_the_higher_type(self, xs, ys):
        for a in xs:
            for b in ys:
                top = max(type(a), type(b), key=RANK.__getitem__)
                for name, op in OPS.items():
                    if name == "/" and top is int:
                        continue    # int / int leaves the tower
                    try:
                        want = op(lift_scalar(a, top), lift_scalar(b, top))
                    except (ScalarError, ZeroDivisionError) as exc:
                        # a divisor that inverse() cannot invert
                        with pytest.raises(type(exc)):
                            op(a, b)
                        continue
                    got = op(a, b)
                    assert type(got) is top, (type(a), name, type(b))
                    assert got == want

    @settings(deadline=None, max_examples=25)
    @given(tower_values)
    def test_lift_keeps_the_value(self, xs):
        for x in xs:
            for cls in TOWER:
                if RANK[cls] < RANK[type(x)]:
                    with pytest.raises(ScalarError):
                        lift_scalar(x, cls)
                    continue
                lifted = lift_scalar(x, cls)
                assert type(lifted) is cls
                assert lifted == x and x == lifted


# sums of a few A words, with coefficients of every tower type below
# RadScalar; words in normal order and out of it, so word sets overlap
A_WORDS = [a_parse(w) for w in ("1", "a", "b", "c", "d", "b*c", "a*d",
                                "d*a", "c*b*a")]
a_polys = st.lists(
    st.tuples(st.sampled_from(A_WORDS),
              st.one_of(coeffs, laurents, fracscalars)),
    max_size=4).map(lambda terms: sum((c * w for w, c in terms),
                                      NCPoly.zero(A_WORDS[0].pres)))


def assert_eq_is_zero_difference(x, y):
    """== decides equality by comparing the two sides; its verdict is the
    one of the difference's zero test, either way round."""
    for a, b in ((x, y), (y, x)):
        assert (a == b) == scalar_is_zero(a - b)


class TestEqualityWithoutSubtraction:
    @settings(deadline=None)
    @given(fracscalars, term_dicts)
    def test_fracscalars_with_equal_denominators(self, x, n):
        # x's denominator is already monic, so the constructor keeps it
        # unless n is a multiple of it
        y = FracScalar(HalfLaurent(n), x.den)
        assume(y.den == x.den)
        assert_eq_is_zero_difference(x, y)
        assert_eq_is_zero_difference(x, FracScalar(x.num, x.den))

    @settings(deadline=None, max_examples=50)
    @given(fracscalars, fracscalars, nonzero_dicts)
    def test_fracscalars_with_unequal_denominators(self, x, y, m):
        assert_eq_is_zero_difference(x, y)
        # x's value, in another form
        same = FracScalar(x.num * HalfLaurent(m), x.den * HalfLaurent(m))
        assume(same.den != x.den)
        assert x == same
        assert_eq_is_zero_difference(x, same)

    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.integers(1, 4), max_size=3),
           st.lists(st.integers(1, 4), max_size=3),
           fracscalars, fracscalars, fracscalars)
    def test_radscalars_with_shared_and_different_radicands(self, r1, r2,
                                                            c1, c2, c3):
        x = RadScalar([(c1, r1), (c2, r2)])
        shared = RadScalar([(c3, r1), (c2, r2)])
        # x again, with a square [3] pulled out of a radicand
        same = RadScalar([(c2 / qint(3), r2 + [3, 3]), (c1, r1)])
        different = RadScalar([(c1, r1 + [2]), (c2, r2 + [3])])
        for y in (shared, same, different, x + c3):
            assert_eq_is_zero_difference(x, y)
        assert x == same

    @settings(deadline=None, max_examples=50)
    @given(a_polys, a_polys, a_polys)
    def test_ncpolys_with_different_word_sets(self, x, y, z):
        as_frac = x.map_coeffs(lambda c: lift_scalar(c, FracScalar))
        for other in (y, x + z, x - z, as_frac):
            assert_eq_is_zero_difference(x, other)
        assert x == as_frac
