"""Every suite can fail: each mutant corrupts one relation or function of
the mathematics, and every suite named in its row must report a failing
check, both when run alone and in the full report of `verify --suite all`.

The mutants are monkeypatched functions, not edits to source files.  They
run under ``fresh_caches``, so the constructions are built anew with the
mutant and none of them outlives the test.  A row claims nothing about
the suites it does not name; an extra check runs under the mutant too.
"""

import json
import re
from fractions import Fraction

import pytest

from qexpmap import algebra_a, algebra_u, cli, expmap
from qexpmap.expmap import quasitriangular_identities
from qexpmap.rewrite import NCPoly, Presentation
from qexpmap.scalars import FracScalar, lam_pow, p_pow, q_pow
from qexpmap.suites import SUITES, run_suite

HALF = Fraction(1, 2)


def patched_apq_rule(monkeypatch, pair, rule):
    """A presentation of A with rule in place of pair's, which every module
    reading apq_presentation receives."""
    apq = algebra_a.apq_presentation()
    rules = dict(apq.rules)
    rules[pair] = rule
    pres = Presentation(apq.name, apq.generators, rules, apq.lambda_one)
    for module in ("algebra_a", "algebra_u", "expmap", "suites"):
        monkeypatch.setattr(f"qexpmap.{module}.apq_presentation",
                            lambda: pres)


def kappa_cb_inverted(monkeypatch):
    """c*b = (p/q) b*c in place of (q/p) b*c."""
    patched_apq_rule(monkeypatch, ("c", "b"),
                     (FracScalar(p_pow(1) * q_pow(-1)), ()))


def xi_swapped(monkeypatch):
    """d*a = a*d - (p - 1/q) b*c in place of a*d - (q - 1/p) b*c."""
    xi = p_pow(1) - q_pow(-1)
    patched_apq_rule(monkeypatch, ("d", "a"),
                     (FracScalar.one(), ((-xi, (("b", 1), ("c", 1))),)))


def wrong_prefactor_sign(monkeypatch):
    """qexp with the sign of t^(-n(n-1)/2) flipped, which changes only the
    terms n >= 2."""
    qexp_ok = expmap.qexp
    monkeypatch.setattr(expmap, "qexp", lambda tsign, x: qexp_ok(-tsign, x))


def pi_plus_a_is_k_to_minus_two(monkeypatch):
    """pi+(a) = k^-2 in place of k^-1."""
    images_ok = algebra_u.pi_images

    def images(sign):
        out = images_ok(sign)
        if sign == "+":
            out["a"] = NCPoly.gen(algebra_u.u_presentation(), "k", -2)
        return out

    monkeypatch.setattr(algebra_u, "pi_images", images)


def doubled_first_ladder(monkeypatch):
    """Every spin-j representation with its ladder entry ladder(1)
    doubled."""
    init_ok = algebra_u.Rep.__init__

    def init(self, j, z, ladder):
        init_ok(self, j, z, lambda n: 2 * ladder(n) if n == 1 else ladder(n))

    monkeypatch.setattr(algebra_u.Rep, "__init__", init)


def hatted_lambda_half_count_plus_two(monkeypatch):
    """The twisted ladders with lambda's half-count 2z+1 in place of 2z-1,
    where the constructions read them."""
    hatted_ok = expmap.hatted
    monkeypatch.setattr(expmap, "hatted",
                        lambda rep: tuple(m * lam_pow(2)
                                          for m in hatted_ok(rep)))


def quasitriangular_sees_it_above_spin_half():
    # with a spin-1/2 leg (A (x) B)^2 = 0, so R's series stops at n = 1
    # and the pair (1/2, 1) cannot see the prefactors; (1, 1) reaches them
    assert all(i.holds_exactly()
               for i in quasitriangular_identities(HALF, HALF, 1, 1))
    assert not all(i.holds_exactly()
                   for i in quasitriangular_identities(1, 1, 1, 1))


# id: (mutant, suites that must each report a failing check, extra check)
MUTANTS = {
    "kappa-cb": (kappa_cb_inverted,
                 ["relations", "qdet", "lie-coords", "confluence", "comodule",
                  "closed-vs-factorized"], None),
    "xi": (xi_swapped,
           ["relations", "qdet", "lie-coords", "comodule",
            "closed-vs-factorized"], None),
    "qexp-sign": (wrong_prefactor_sign,
                  ["rll", "delta-l", "closed-vs-factorized"],
                  quasitriangular_sees_it_above_spin_half),
    "pi-plus-a": (pi_plus_a_is_k_to_minus_two,
                  ["pi-homomorphism", "pi-t-vs-r", "tprime-r", "rll"], None),
    "doubled-ladder": (doubled_first_ladder,
                       ["rep-relations", "pi-t-vs-r", "quasitriangular",
                        "rll", "closed-vs-factorized"], None),
    "hatted-lambda": (hatted_lambda_half_count_plus_two,
                      ["pi-t-vs-r", "quasitriangular", "rll", "tprime-r",
                       "closed-vs-factorized"], None),
}


@pytest.mark.parametrize("mutant, suites, extra", MUTANTS.values(),
                         ids=list(MUTANTS))
def test_mutant_is_caught(monkeypatch, fresh_caches, mutant, suites, extra):
    mutant(monkeypatch)
    for suite in suites:
        assert any(not r.passed for r in run_suite(suite)), suite
    if extra is not None:
        extra()


def test_every_suite_has_a_mutant():
    named = {suite for _, row, _ in MUTANTS.values() for suite in row}
    assert named == set(SUITES) - {"specialize", "all"}


@pytest.mark.parametrize("mutant, suites",
                         [row[:2] for row in MUTANTS.values()],
                         ids=list(MUTANTS))
def test_verify_all_reports_the_mutant(monkeypatch, fresh_caches, tmp_path,
                                       mutant, suites):
    # a broken construction is a failed check in a full report, not an
    # internal error that ends the run
    mutant(monkeypatch)
    path = tmp_path / "all.json"
    assert cli.main(["verify", "--suite", "all", "--out", str(path)]) == 1
    checks = json.loads(path.read_text())["checks"]
    assert len(checks) == 120
    failing = {re.match(r"[a-z-]+", c["check"]).group()
               for c in checks if not c["pass"]}
    assert failing >= set(suites)
