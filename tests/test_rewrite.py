import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qexpmap import algebra_a, algebra_u, confluence, parser, rewrite
from qexpmap.algebra_a import a_parse, agen, apq_presentation, coproduct
from qexpmap.algebra_u import u_coproduct, u_parse, u_presentation, ugen
from qexpmap.confluence import confluence_check
from qexpmap.expmap import l_matrix
from qexpmap.reporting import Identity
from qexpmap.rewrite import (ORDINARY, GuardExceeded, NCPoly, ParseError,
                             Presentation, RewriteError, tensor_square)
from qexpmap.scalars import FracScalar, scalar_is_zero


def rand_word(rng, pres, max_len):
    gens = [g for g, kind in pres.generators]
    atoms = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.choice(gens)
        kind = dict(pres.generators)[g]
        if kind == "scaling":
            e = Fraction(rng.choice([-2, -1, 1, 2]), 2)
        elif kind == "invertible":
            e = rng.choice([-2, -1, 1, 2])
        else:
            e = rng.randint(1, 2)
        atoms.append((g, e))
    return NCPoly(pres, [(1, tuple(atoms))])


class TestParser:
    def test_basic(self):
        x = a_parse("a*b - q*b*a")
        assert x.is_zero()

    def test_fractional_scaling_power(self):
        x = a_parse("D^1/2*D^1/2")
        assert x == a_parse("D")

    def test_parse_error(self):
        with pytest.raises(ParseError):
            a_parse("a*)b")
        with pytest.raises(ParseError):
            a_parse("a**b")

    def test_invalid_term_rejected_even_when_it_cancels(self):
        with pytest.raises(RewriteError, match="non-invertible b"):
            a_parse("b^-1 - b^-1")

    def test_integer_literals_are_ints(self):
        # an integral coefficient is stored as an int, as "a" stores 1
        for x in (a_parse("2*a - 3 + a"), a_parse("(2)^2*b")):
            assert {type(c) for c in x.terms.values()} == {int}

    @pytest.mark.parametrize("parse, power, direct", [
        (a_parse, "(a)^4000", "a^4000"),
        (a_parse, "(2*a)^3", "8*a^3"),
        (a_parse, "(a^-1)^3", "a^-3"),
        (a_parse, "(Q*b)^5", "Q^5*b^5"),
        (a_parse, "(D^1/2)^3", "D^3/2"),
        (u_parse, "(k^-1/2)^4", "k^-2"),
        (a_parse, "(a)^0", "1"),
    ])
    def test_power_of_one_atom_is_one_atom(self, parse, power, direct):
        t0 = time.perf_counter()
        assert parse(power) == parse(direct)
        assert time.perf_counter() - t0 < 0.1

    def test_validates_each_term_once_and_normal_orders_once(
            self, monkeypatch):
        validated, ordered = [], []
        validate = rewrite._validate_atoms
        normal_order_terms = rewrite.normal_order_terms

        def counting_validate(pres, atoms):
            validated.append(atoms)
            return validate(pres, atoms)

        def counting_order(pres, terms):
            ordered.append(len(terms))
            return normal_order_terms(pres, terms)

        for module in (rewrite, parser):
            monkeypatch.setattr(module, "_validate_atoms", counting_validate,
                                raising=False)
            monkeypatch.setattr(module, "normal_order_terms", counting_order,
                                raising=False)
        x = a_parse("d*a + 2*b - b + a*D^1/2")
        one, half = Fraction(1), Fraction(1, 2)
        assert validated == [(("d", one), ("a", one)), (("b", one),),
                             (("b", one),), (("a", one), ("D", half))]
        # the two b terms merge before the engine runs
        assert ordered == [3]
        assert x == agen("a") * agen("d") + agen("b") + agen("a") \
            * agen("D", half) - a_parse("(q - p^-1)*b*c")


class TestNormalOrder:
    def test_defining_example(self):
        x = a_parse("d*a")
        assert x == a_parse("a*d - (q - p^-1)*b*c")

    def test_idempotent_random(self):
        rng = random.Random(17)
        pres = apq_presentation()
        for _ in range(500):
            x = rand_word(rng, pres, 6)
            # re-normalize the terms of a polynomial already in normal form
            assert NCPoly(x.pres, [(c, w) for w, c in x.terms.items()]) == x

    def test_rule_residuals_vanish(self):
        # every rewrite rule, read as lhs - rhs, normalizes to zero
        for lhs, rhs in [("b*a", "q^-1*a*b"), ("c*a", "p^-1*a*c"),
                         ("c*b", "q*p^-1*b*c"), ("d*b", "p^-1*b*d"),
                         ("d*c", "q^-1*c*d"),
                         ("d*a", "a*d - (q - p^-1)*b*c")]:
            assert (a_parse(lhs) - a_parse(rhs)).is_zero()

    def test_associativity_random(self):
        rng = random.Random(23)
        pres = apq_presentation()
        for _ in range(200):
            x, y, z = (rand_word(rng, pres, 3) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_normal_form_sorted(self):
        pres = apq_presentation()
        order = {g: i for i, (g, _) in enumerate(pres.generators)}
        x = a_parse("d*c*b*a*D^1/2")
        for word in x.terms:
            names = [g for g, _ in word]
            assert names == sorted(names, key=order.__getitem__)
            assert len(names) == len(set(names))

    def test_guard_env(self, monkeypatch):
        monkeypatch.setenv("QEXPMAP_GUARD", "2")
        with pytest.raises(GuardExceeded):
            a_parse("d^3*a^3")

    def test_integral_inverse_coefficients_are_ints(self):
        for x, want in ((ugen("k"), 1), (-agen("a", 2), -1),
                        (agen("a") * 3, Fraction(1, 3)),
                        (agen("a") * Fraction(1, 2), 2)):
            (c,) = x.invert().terms.values()
            assert c == want and type(c) is type(want)

    def test_non_integral_power_rejected(self):
        for x, n in ((agen("a"), Fraction(3, 2)), (agen("b"), Fraction(-1, 2)),
                     (agen("D", Fraction(1, 2)), Fraction(1, 2))):
            with pytest.raises(RewriteError, match="non-integral power"):
                x ** n
        assert agen("a") ** Fraction(-2) == agen("a", -2)

    def test_map_coeffs_calls_fn_once_per_term(self):
        x = a_parse("a*d + 2*b*c - 3*d")
        seen = []

        def double_or_drop(c):
            seen.append(c)
            return 0 if c == -3 else 2 * c

        y = x.map_coeffs(double_or_drop)
        assert len(seen) == 3
        assert y == a_parse("2*a*d + 4*b*c")


class TestTensor:
    def test_legs_commute(self):
        pres = apq_presentation()
        t2 = tensor_square(pres)
        x = NCPoly.gen(t2, "d@2", 1) * NCPoly.gen(t2, "a@1", 1)
        assert x == NCPoly.gen(t2, "a@1", 1) * NCPoly.gen(t2, "d@2", 1)

    def test_square_of_fresh_presentations(self):
        # a freed presentation's id can be reused by a new one, which must
        # still get its own square
        for i in range(12):
            square = tensor_square(
                Presentation(f"p{i}", [("x", ORDINARY)], {}))
            assert square.name == f"p{i}^x2"

    def test_per_leg_rules(self):
        pres = apq_presentation()
        t2 = tensor_square(pres)
        x = NCPoly.gen(t2, "b@1", 1) * NCPoly.gen(t2, "a@1", 1)
        y = NCPoly.gen(t2, "a@1", 1) * NCPoly.gen(t2, "b@1", 1)
        assert not (x - y).is_zero()  # q-commute, not commute


def broken_apq() -> Presentation:
    """A with c*b -> b*c instead of c*b -> q/p b*c: not confluent."""
    good = apq_presentation()
    rules = dict(good.rules)
    rules[("c", "b")] = (FracScalar.one(), ())
    return Presentation("apq-broken", good.generators, rules, good.scaling)


class TestConfluence:
    def test_apq_length_three(self):
        report = confluence_check(apq_presentation(), max_len=3)
        assert report.confluent
        assert report.counterexamples == []
        assert report.words_checked > 0

    def test_dual_length_three(self):
        report = confluence_check(u_presentation(), max_len=3)
        assert report.confluent

    def test_report_json(self):
        report = confluence_check(u_presentation(), max_len=2)
        data = report.to_json()
        assert data["confluent"] is True

    def test_each_word_explored_once(self, monkeypatch):
        # a word's forms do not depend on the word around it, so one memo
        # serves the whole check
        explored = Counter()
        events = confluence._events

        def counting(pres, atoms):
            explored[atoms] += 1
            return events(pres, atoms)

        monkeypatch.setattr(confluence, "_events", counting)
        assert confluence.confluence_check(apq_presentation(), 3).confluent
        assert len(explored) > len(confluence._letters(apq_presentation()))
        assert set(explored.values()) == {1}

    def test_counterexamples_found(self):
        report = confluence_check(broken_apq(), max_len=3)
        assert not report.confluent
        assert report.words_checked == 392
        assert len(report.counterexamples) == 5
        first = report.counterexamples[0]
        assert first["word"] == [["d", "1"], ["b", "1"], ["a", "1"]]
        assert len(first["forms"]) == 2

    def test_counterexample_report_independent_of_hash_seed(self):
        tests = Path(__file__).parent
        code = ("import json; from test_rewrite import broken_apq, "
                "confluence_check; print(json.dumps(confluence_check("
                "broken_apq(), max_len=3).to_json()))")
        outs = []
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep
                       .join([str(tests.parent / "src"), str(tests)]))
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            outs.append(proc.stdout)
        assert json.loads(outs[0])["counterexamples"]
        assert outs[0] == outs[1]


class TestSerialization:
    def test_poly_json_roundtrip(self):
        pres = apq_presentation()
        x = a_parse("D^-1/2*a^2 + (q - p^-1)*b*c - 3*d")
        assert NCPoly.from_json(pres, x.to_json()) == x

    @pytest.mark.parametrize("text", [
        "f*k", "k*e", "f*k*e", "f^2*k^-1/2", "k^1/2*e^3", "f*k^-2*e",
        "e*f", "f*e*k", "Q*k^3/2*e - f*k^-1/2", "k + f*e",
    ])
    def test_u_json_roundtrip(self, text):
        # in U the scaling generator k sits between f and e
        x = u_parse(text)
        assert NCPoly.from_json(u_presentation(), x.to_json()) == x

    def test_u_coproduct_and_l_matrix_json_roundtrip(self):
        dx = u_coproduct(u_parse("f*k^1/2*e"))
        t2 = tensor_square(u_presentation())
        assert NCPoly.from_json(t2, dx.to_json()) == dx
        for row in l_matrix("+", 1, "rational").rows:
            for x in row:
                assert NCPoly.from_json(u_presentation(), x.to_json()) == x

    def test_identity_residual(self):
        good = Identity("x", a_parse("a*b"), a_parse("q*b*a"))
        assert good.holds_exactly()
        bad = Identity("y", a_parse("a*b"), a_parse("b*a"))
        assert not bad.holds_exactly()


class TestTermInvariant:
    """Every term the engine derives keeps the invariant NCPoly's
    constructor establishes for the terms it is given: a nonzero
    coefficient and a tuple word without zero exponents.
    normal_order_terms relies on it and re-checks neither."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        terms = []
        apply_event = rewrite._apply_event

        def recording(pres, coeff, atoms, event):
            out = apply_event(pres, coeff, atoms, event)
            terms.extend(out)
            return out

        monkeypatch.setattr(rewrite, "_apply_event", recording)
        return terms

    @staticmethod
    def assert_invariant(terms):
        bad = [(c, w) for c, w in terms
               if scalar_is_zero(c) or type(w) is not tuple
               or any(not e for _, e in w)]
        assert terms and not bad

    @pytest.mark.parametrize("pres", [apq_presentation(), u_presentation()],
                             ids=["apq", "uq"])
    def test_words_up_to_length_four(self, emitted, pres):
        letters = confluence._letters(pres)
        for length in range(1, 5):
            for word in itertools.product(letters, repeat=length):
                NCPoly(pres, [(1, word)])
        self.assert_invariant(emitted)

    @pytest.mark.parametrize("pres, delta", [
        (apq_presentation(), coproduct), (u_presentation(), u_coproduct),
    ], ids=["apq", "uq"])
    def test_coproducts_of_words_up_to_length_two(self, emitted, pres,
                                                   delta):
        # the images are built once per process; forget them so that
        # their products run through the engine here
        for cache in (algebra_a._coproduct_atom, algebra_a._coproduct_images,
                      algebra_u._u_coproduct_images):
            cache.cache_clear()
        # the coproduct is undefined on negative powers of a
        letters = [(g, e) for g, e in confluence._letters(pres)
                   if not (g == "a" and e < 0)]
        for length in (1, 2):
            for word in itertools.product(letters, repeat=length):
                delta(NCPoly(pres, [(1, word)]))
        self.assert_invariant(emitted)
