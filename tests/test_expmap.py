import json
from fractions import Fraction
from pathlib import Path

import pytest

from qexpmap import expmap, goldens, rewrite
from qexpmap.cli import main
from qexpmap.algebra_u import u_presentation, ugen
from qexpmap.expmap import (comodule_identities, delta_l_identities, l_matrix,
                            pi_t_vs_r_identities, qexp,
                            quasitriangular_identities, r_matrix_rep,
                            rll_identities, t_counit_identities,
                            t_matrix_closed, t_matrix_factorized,
                            tprime_r_identities)
from qexpmap.matrices import Matrix
from qexpmap.render import render_matrix
from qexpmap.rewrite import NCPoly
from qexpmap.scalars import FracScalar, RadScalar
from qexpmap.suites import printed_r_half

import oracles
import test_construction_digests as construction_digests

HALF = Fraction(1, 2)
REFS = Path(__file__).parent / "refs"
GOLDENS = Path(__file__).parent / "goldens"


def assert_all(identities):
    failing = [i.label for i in identities if not i.holds_exactly()]
    assert not failing, f"failing identities: {failing}"


def jz_grid(max_j):
    out, j = [], HALF
    while j <= max_j:
        for dz in (Fraction(0), HALF, Fraction(1)):
            out.append((j, j - dz))
        j += HALF
    return out


class TestTMatrices:
    def test_fundamental_is_defining(self):
        t = t_matrix_closed(HALF, HALF, "symmetric")
        assert (t - oracles.t_defining()).is_zero()

    def test_spin_one_charge_half(self):
        # entrywise closed form with radical coefficients
        t = t_matrix_closed(1, HALF, "symmetric")
        assert (t - oracles.t_spin1_charge_half()).is_zero()

    @pytest.mark.parametrize("norm", ["rational", "symmetric"])
    def test_closed_equals_factorized(self, norm):
        for j, z in jz_grid(Fraction(3, 2)):
            lhs = t_matrix_closed(j, z, norm)
            rhs = t_matrix_factorized(j, z, norm)
            assert (lhs - rhs).is_zero(), f"(j={j}, z={z}, {norm})"

    @pytest.mark.parametrize("j", [Fraction(2), Fraction(5, 2), Fraction(3),
                                   Fraction(7, 2)],
                             ids=["2j4", "2j5", "2j6", "2j7"])
    def test_rational_factorized_at_higher_spin(self, j):
        # 2j = 6 and 7 take the equality past spin_sweep's 2j = 5
        fact = t_matrix_factorized(j, j, "rational")
        assert (t_matrix_closed(j, j, "rational") - fact).is_zero()
        # every coefficient is lifted to a RadScalar with one term and an
        # empty radicand, which keeps the JSON schema of the CLI output
        for row in fact.rows:
            for entry in row:
                for coeff in entry.terms.values():
                    assert isinstance(coeff, RadScalar)
                    assert len(coeff.terms) == 1 and coeff.terms[0][1] == ()

    def test_symmetric_factorized_bytes(self):
        # tests/refs/ holds the renderings recorded with earlier code; at
        # 2j = 5 they already tell the symmetric construction apart from
        # a diagonal rescale of the rational one
        t = t_matrix_factorized(Fraction(5, 2), Fraction(5, 2), "symmetric")
        for fmt, suffix in (("text", "txt"), ("json", "json")):
            ref = REFS / f"t_factorized_symmetric_2j5.{suffix}"
            assert (render_matrix(t, fmt) + "\n").encode() == ref.read_bytes()

    def test_rational_factorized_bytes(self):
        # FracScalar bytes depend on the order of the products, so the
        # refs pin them whichever way the construction associates
        t = t_matrix_factorized(Fraction(5, 2), Fraction(5, 2), "rational")
        for fmt, suffix in (("text", "txt"), ("json", "json")):
            ref = REFS / f"t_factorized_rational_2j5.{suffix}"
            assert (render_matrix(t, fmt) + "\n").encode() == ref.read_bytes()

    def test_factorized_rewrite_steps(self, monkeypatch, fresh_caches):
        # each row of right is multiplied on the left by w one factor at a
        # time: 2,052 steps here, where core * right took 5,627 and
        # (left * core) * right 35,092
        steps = []
        apply_event = rewrite._apply_event

        def counted(*args):
            steps.append(None)
            return apply_event(*args)

        monkeypatch.setattr(rewrite, "_apply_event", counted)
        t_matrix_factorized(Fraction(5, 2), Fraction(5, 2), "rational")
        assert len(steps) <= 2_500

    def test_comodule_and_counit(self):
        for j, z in jz_grid(Fraction(3, 2)):
            assert_all(comodule_identities(j, z))
            assert_all(t_counit_identities(j, z))

    @pytest.mark.parametrize("tj", [6, 7])
    def test_comodule_and_counit_at_higher_spin(self, tj, fresh_caches):
        j = Fraction(tj, 2)
        assert_all(comodule_identities(j, j))
        assert_all(t_counit_identities(j, j))


class TestQExp:
    def test_nilpotent_series_terminates(self):
        rep_dim = 3
        pres = u_presentation()
        one = NCPoly.one(pres)
        zero = NCPoly.zero(pres)
        n = Matrix.build(rep_dim, rep_dim,
                         lambda r, c: one if c == r + 1 else zero)
        result = qexp(1, n)
        assert result[0, 1] == one  # [1]! = 1 prefactor

    def test_non_nilpotent_rejected(self):
        m = Matrix([[ugen("k")]])
        with pytest.raises(ArithmeticError):
            qexp(1, m)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_non_nilpotent_is_rejected_after_n_powers(self, n, monkeypatch):
        # a cyclic shift is never nilpotent; its x^n != 0 already proves it
        x = Matrix.build(n, n, lambda r, c: int(c == (r + 1) % n))
        products = []
        mul = Matrix.__mul__

        def counted(self, other):
            if isinstance(other, Matrix):
                products.append(None)
            return mul(self, other)

        monkeypatch.setattr(Matrix, "__mul__", counted)
        with pytest.raises(ArithmeticError, match="non-nilpotent"):
            qexp(1, x)
        assert len(products) == n


class TestRMatrices:
    def test_fundamental_closed_form(self):
        got = r_matrix_rep(HALF, HALF, HALF, HALF)
        assert (got - printed_r_half()).is_zero()

    def test_quasitriangular(self):
        assert_all(quasitriangular_identities(HALF, HALF, HALF, HALF))
        assert_all(quasitriangular_identities(HALF, HALF, 1, 1))

    # with a spin-1/2 leg (A (x) B)^2 = 0, so R's series stops at n = 1;
    # these pairs reach the terms n >= 2 and their prefactors
    SPINS_ABOVE_HALF = [(1, 1), (1, Fraction(3, 2)),
                        (Fraction(3, 2), Fraction(3, 2))]

    @pytest.mark.parametrize("j1,j2", SPINS_ABOVE_HALF,
                             ids=["2j2x2j2", "2j2x2j3", "2j3x2j3"])
    def test_quasitriangular_above_spin_half(self, j1, j2):
        assert_all(quasitriangular_identities(j1, j1, j2, j2))

    @pytest.mark.parametrize("norm", ["rational", "symmetric"])
    @pytest.mark.parametrize("charge", ["z0", "zj"])
    @pytest.mark.parametrize("spins", [(1, 1), (Fraction(3, 2), 1),
                                       (Fraction(3, 2), Fraction(3, 2)),
                                       (2, 2)],
                             ids=["2j2x2j2", "2j3x2j2", "2j3x2j3", "2j4x2j4"])
    def test_bytes_above_spin_half(self, spins, charge, norm):
        # tests/refs/r_matrix_spin.json holds render_matrix(R, "json") as
        # recorded with earlier code, keyed "j1 z1 j2 z2 norm"
        j1, j2 = map(Fraction, spins)
        z1, z2 = (j1, j2) if charge == "zj" else (Fraction(0), Fraction(0))
        ref = json.loads((REFS / "r_matrix_spin.json").read_text())
        want = json.dumps(ref[f"{j1} {z1} {j2} {z2} {norm}"], sort_keys=True)
        assert render_matrix(r_matrix_rep(j1, z1, j2, z2, norm),
                             "json") == want


def flip_legs(rmat, d1, d2):
    """A matrix on legs of dimensions (d2, d1), re-indexed to (d1, d2)."""
    def swap(i):
        a, b = divmod(i, d2)
        return b * d1 + a

    return Matrix.build(d1 * d2, d1 * d2,
                        lambda r, c: rmat[swap(r), swap(c)])


class TestR21Inverse:
    @pytest.mark.parametrize("two_j1,two_j2", [
        (a, b) for a in range(5) for b in range(5) if a + b <= 7])
    def test_two_sided_inverse_of_flipped_r(self, two_j1, two_j2):
        j1, j2 = Fraction(two_j1, 2), Fraction(two_j2, 2)
        r21 = flip_legs(r_matrix_rep(j2, 0, j1, 0),
                        two_j1 + 1, two_j2 + 1)
        inv = expmap._r21_inverse(j1, j2)
        ident = Matrix.identity(r21.nrows, FracScalar.one())
        assert inv * r21 == ident
        assert r21 * inv == ident


def embed_pair(rmat, dims, p, q):
    """A matrix on legs (p, q) of a three-leg space, as the identity on the
    third leg: the leg permutation that puts p and q side by side."""
    other = 3 - p - q

    def legs(i):
        i1, rest = divmod(i, dims[1] * dims[2])
        return (i1,) + divmod(rest, dims[2])

    def entry(r, c):
        a, b = legs(r), legs(c)
        if a[other] != b[other]:
            return FracScalar.zero()
        return rmat[a[p] * dims[q] + a[q], b[p] * dims[q] + b[q]]

    n = dims[0] * dims[1] * dims[2]
    return Matrix.build(n, n, entry)


class TestYangBaxter:
    @pytest.mark.parametrize("charge", ["0", "j"])
    @pytest.mark.parametrize("spins", [
        (HALF, HALF, HALF), (HALF, HALF, Fraction(1)),
        (HALF, Fraction(1), Fraction(1)),
        (HALF, Fraction(1), Fraction(3, 2))],
        ids=["half-half-half", "half-half-1", "half-1-1", "half-1-3half"])
    def test_r12_r13_r23(self, spins, charge):
        charges = spins if charge == "j" else (Fraction(0),) * 3
        dims = [int(2 * j) + 1 for j in spins]

        def r(p, q):
            return embed_pair(r_matrix_rep(spins[p], charges[p],
                                           spins[q], charges[q]), dims, p, q)

        r12, r13, r23 = r(0, 1), r(0, 2), r(1, 2)
        assert (r12 * r13 * r23 - r23 * r13 * r12).is_zero()


class TestLMatrices:
    def test_fundamental_pair(self):
        for sign in ("+", "-"):
            got = l_matrix(sign, HALF, "symmetric")
            assert (got - oracles.l_fundamental(sign)).is_zero()

    def test_spin_one_pair(self):
        for sign in ("+", "-"):
            got = l_matrix(sign, 1, "symmetric")
            assert (got - oracles.l_spin1(sign)).is_zero()

    def test_rll(self):
        for j in (HALF, Fraction(1)):
            assert_all(rll_identities(j))

    def test_comodule(self):
        for sign in ("+", "-"):
            for j in (HALF, Fraction(1)):
                assert_all(delta_l_identities(sign, j))


class TestIntertwiners:
    def test_pi_t_vs_r(self):
        for two_j in range(5):
            assert_all(pi_t_vs_r_identities(Fraction(two_j, 2)))

    def test_tprime_vs_r(self):
        for two_j1 in range(4):
            for two_j2 in range(4):
                assert_all(tprime_r_identities(Fraction(two_j1, 2),
                                               Fraction(two_j2, 2)))


class TestSharedConstructions:
    def test_charges_share_one_core(self, monkeypatch, fresh_caches):
        steps = []
        apply_event = rewrite._apply_event

        def counted(*args):
            steps.append(None)
            return apply_event(*args)

        monkeypatch.setattr(rewrite, "_apply_event", counted)
        j = Fraction(3, 2)
        per_charge = []
        for z in (j, j - HALF, j - 1):
            before = len(steps)
            fact = t_matrix_factorized(j, z, "rational")
            per_charge.append(len(steps) - before)
            assert (fact - t_matrix_closed(j, z, "rational")).is_zero()
        # only the first charge builds the core; the others rescale it
        assert per_charge[0] > 0 and per_charge[1:] == [0, 0]

    def test_normalized_arguments_share_one_build(self):
        assert t_matrix_closed(1, HALF) is t_matrix_closed(
            Fraction(1), "1/2", "symmetric")
        assert l_matrix("+", 1) is l_matrix("+", Fraction(2, 2), "symmetric")
        assert r_matrix_rep(1, 0, HALF, 0) is r_matrix_rep(
            Fraction(1), Fraction(0), HALF, Fraction(0), "rational")
        with pytest.raises(rewrite.UsageError):
            t_matrix_closed(Fraction(1, 3), 0)
        with pytest.raises(rewrite.UsageError):
            l_matrix("+", -1)
        with pytest.raises(rewrite.UsageError):
            r_matrix_rep(HALF, 0, 1, 0, "other")

    def test_verify_runs_share_and_keep_constructions(self, tmp_path,
                                                      fresh_caches):
        built = {name: build()
                 for name, build in goldens.GOLDEN_BUILDERS.items()}
        ref = (REFS / "verify_all.json").read_bytes()
        for run in ("first", "second"):
            path = tmp_path / f"{run}.json"
            assert main(["verify", "--suite", "all", "--out", str(path)]) == 0
            assert path.read_bytes() == ref, run
            # R21^-1 on (1/2, 1/2), (1/2, 1) and (1, 1/2), in the first run
            assert expmap._r21_inverse.cache_info().misses == 3, run
        for name, build in goldens.GOLDEN_BUILDERS.items():
            assert build() is built[name], name
        assert goldens.compare(GOLDENS) == []

    def test_guard_bounds_a_fresh_build(self, monkeypatch, fresh_caches):
        # the largest normal ordering of this build has 156 terms (98 at
        # j = 2, which the guard of 100 lets through)
        j = Fraction(5, 2)
        monkeypatch.setenv("QEXPMAP_GUARD", "100")
        with pytest.raises(rewrite.GuardExceeded):
            t_matrix_factorized(j, j, "rational")
        monkeypatch.delenv("QEXPMAP_GUARD")
        # the failed build left nothing behind: the digest was recorded
        # with earlier code, which kept no construction between calls
        t = t_matrix_factorized(j, j, "rational")
        refs = json.loads(construction_digests.REF.read_text())
        assert (construction_digests.digest(t)
                == refs["t_matrix_factorized"]["5/2 5/2 rational"])
