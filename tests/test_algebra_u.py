from fractions import Fraction

import pytest

from qexpmap.algebra_u import (Rep, fact_radicand, gamma_rep, hatted,
                               normalization_similarity_identities, pi_apply,
                               pi_homomorphism_identities,
                               rep_relation_identities, u_coproduct, u_parse,
                               u_presentation, u_rep_apply, ugen,
                               u_relation_identities)
from qexpmap.algebra_a import a_parse, agen
from qexpmap.scalars import (FracScalar, HalfLaurent, Q_pow, RadScalar,
                             ScalarError, qint, scalar_is_zero,
                             scalar_lambda_one)

HALF = Fraction(1, 2)


def assert_all(identities):
    failing = [i.label for i in identities if not i.holds_exactly()]
    assert not failing, f"failing identities: {failing}"


def ladder_formula(j, m, norm, s):
    """(J+)_{m,m-1} (s = 1) or (J-)_{m,m+1} (s = -1) in closed form."""
    if norm == "symmetric":
        return RadScalar.sqrt_qints([int(j + s * m), int(j - s * m + 1)])
    return FracScalar(qint(int(j - s * m + 1)))


def spins(max_j):
    out, j = [], HALF
    while j <= max_j:
        out.append(j)
        j += HALF
    return out


class TestPresentation:
    def test_relations(self):
        assert_all(u_relation_identities())

    def test_ladder_commutator(self):
        x = u_parse("e*f - f*e")
        y = u_parse("(k^2 - k^-2)") * FracScalar(1, Q_pow(2) - Q_pow(-2))
        assert x == y

    def test_coproduct_homomorphism(self):
        for x in ("e", "f", "k"):
            for y in ("e", "f", "k"):
                prod = ugen(x) * ugen(y)
                assert u_coproduct(prod) == u_coproduct(ugen(x)) \
                    * u_coproduct(ugen(y))


class TestRepresentations:
    @pytest.mark.parametrize("norm", ["rational", "symmetric"])
    def test_relations_all_spins(self, norm):
        for j in spins(Fraction(2)):
            assert_all(rep_relation_identities(gamma_rep(j, j, norm)))

    def test_normalization_similarity(self):
        for j in spins(Fraction(3, 2)):
            assert_all(normalization_similarity_identities(j))

    @pytest.mark.parametrize("norm", ["rational", "symmetric"])
    @pytest.mark.parametrize("twoj", range(6))
    def test_ladder_entries(self, twoj, norm):
        j = Fraction(twoj, 2)
        rep = gamma_rep(j, j, norm)
        kind = RadScalar if norm == "symmetric" else FracScalar
        for s, ladder in ((1, rep.Jplus), (-1, rep.Jminus)):
            assert (ladder.nrows, ladder.ncols) == (twoj + 1, twoj + 1)
            for r in range(twoj + 1):
                for c in range(twoj + 1):
                    x = ladder[r, c]
                    assert type(x) is kind
                    if c == r + s:
                        assert x == ladder_formula(j, j - r, norm, s), (r, c)
                    else:
                        assert x.is_zero(), (r, c)

    def test_fact_radicand(self):
        # [j+m]! [j-m]! at j = 2, m = 1 is [3]! [1]! = [2] [3]
        assert fact_radicand(2, 1) == [2, 3]
        assert fact_radicand(Fraction(5, 2), HALF) == [2, 3, 2]
        assert fact_radicand(HALF, HALF) == []

    @pytest.mark.parametrize("twoj", range(4))
    def test_factorized_ladder_is_conjugate(self, twoj):
        # the ladder n -> [n] that t_matrix_factorized runs on in the
        # rational normalization is S J_sym S^-1 with
        # S = diag(sqrt([j+m]! [j-m]!))
        j = Fraction(twoj, 2)
        sym = gamma_rep(j, j, "symmetric")
        fact = Rep(j, j, lambda n: FracScalar(qint(n)))
        S = sym.diag(lambda m: RadScalar.sqrt_qints(fact_radicand(j, m)))
        assert fact.Jplus * S == S * sym.Jplus
        assert fact.Jminus * S == S * sym.Jminus

    @pytest.mark.parametrize("twoj", range(4))
    def test_zero_and_one_have_the_ladder_type(self, twoj):
        # at 2j = 0 no ladder entry is built, so only ladder(1) sets the type
        j = Fraction(twoj, 2)
        for rep, kind in ((gamma_rep(j, j, "symmetric"), RadScalar),
                          (gamma_rep(j, j, "rational"), FracScalar),
                          (Rep(j, j, lambda n: FracScalar(qint(n))),
                           FracScalar),
                          (Rep(j, j, qint), HalfLaurent)):
            assert type(rep.zero) is kind and scalar_is_zero(rep.zero)
            assert type(rep.one) is kind and rep.one == 1
            assert {type(x) for row in rep.identity().rows
                    for x in row} == {kind}

    def test_symmetric_entries_are_radicals(self):
        rep = gamma_rep(1, 1, "symmetric")
        assert rep.Jplus[0, 1] == RadScalar.sqrt_qints([2])

    def test_rational_entries_are_qints(self):
        rep = gamma_rep(1, 1, "rational")
        assert (rep.Jplus[0, 1] - FracScalar(qint(1))).is_zero()
        assert (rep.Jminus[1, 0] - FracScalar(qint(2))).is_zero()

    def test_spin_validation(self):
        with pytest.raises((ScalarError, ValueError)):
            gamma_rep(Fraction(1, 3), 0)

    def test_rep_apply_matches_generators(self):
        rep = gamma_rep(1, 1, "rational")
        assert (u_rep_apply(rep, ugen("e")) - rep.Jplus).is_zero()
        assert (u_rep_apply(rep, ugen("f")) - rep.Jminus).is_zero()

    def test_hatted_shapes(self):
        rep = gamma_rep(1, HALF, "rational")
        jp, jm = hatted(rep)
        assert jp.nrows == 3 and jm.nrows == 3


class TestEvaluationMaps:
    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_homomorphism(self, sign):
        assert_all(pi_homomorphism_identities(sign))

    def test_minus_images(self):
        # a -> k, b -> 0, c -> multiple of e, d -> k^-1
        assert pi_apply("-", agen("a")) == ugen("k")
        assert pi_apply("-", agen("b")).is_zero()
        assert pi_apply("-", agen("d")) == ugen("k", -1)

    def test_plus_images(self):
        assert pi_apply("+", agen("a")) == ugen("k", -1)
        assert pi_apply("+", agen("c")).is_zero()
        assert pi_apply("+", agen("d")) == ugen("k")

    def test_images_lambda_free(self):
        x = pi_apply("-", a_parse("c*a^-1"))
        for coeff in x.terms.values():
            assert (coeff - scalar_lambda_one(coeff)).is_zero()
