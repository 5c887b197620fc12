"""NCPoly products and tensor() against the generic path.

The reference is the product as a fresh polynomial built from every
term-by-term concatenation, normal-ordered in full.  FracScalar has no
canonical form, so each result must match it in word order, coefficient
types and JSON bytes, not only in value.
"""

import json
import random
from fractions import Fraction

import pytest

from qexpmap import rewrite
from qexpmap.algebra_a import a_parse, apq_presentation, coproduct
from qexpmap.algebra_u import u_coproduct, u_parse, u_presentation
from qexpmap.rewrite import NCPoly, leg_name, tensor, tensor_square
from qexpmap.scalars import (FracScalar, HalfLaurent, Q_pow, RadScalar,
                             lam_pow, qint, scalar_to_json)

A, U = apq_presentation(), u_presentation()
PRESENTATIONS = [A, U, tensor_square(A), tensor_square(U)]

# one nonzero value and one zero of every level of the scalar tower
SCALARS = [3, Fraction(-2, 5), Q_pow(2) - lam_pow(1),
           FracScalar(Q_pow(1) - Q_pow(-3), HalfLaurent.one() + Q_pow(4)),
           RadScalar.sqrt_qints([2, 3], FracScalar(qint(2)))]
ZEROS = [0, Fraction(0), HalfLaurent.zero(), FracScalar.zero(),
         RadScalar.zero()]


def ref_mul(x, y):
    """The generic path: normal-order every concatenation from scratch."""
    if not isinstance(y, NCPoly):
        y = NCPoly.scalar(x.pres, y)
    return NCPoly(x.pres, [(c1 * c2, w1 + w2) for w1, c1 in x.terms.items()
                           for w2, c2 in y.terms.items()])


def fingerprint(x):
    return [(w, type(c).__name__, json.dumps(scalar_to_json(c), sort_keys=True))
            for w, c in x.terms.items()]


def rand_poly(rng, pres, coeffs):
    """A sum of up to three random words with random coefficients; words
    may repeat and may normal-order into several terms."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        atoms = []
        for _ in range(rng.randint(0, 3)):
            g, kind = rng.choice(pres.generators)
            if kind == "scaling":
                e = Fraction(rng.choice([-2, -1, 1, 2]), 2)
            elif kind == "invertible":
                e = rng.choice([-2, -1, 1, 2])
            else:
                e = rng.randint(1, 2)
            atoms.append((g, e))
        terms.append((rng.choice(coeffs), tuple(atoms)))
    return NCPoly(pres, terms)


def on_leg(x, t2, leg):
    """x renamed onto one leg of t2, normal-ordered from scratch."""
    return NCPoly(t2, [(c, tuple((leg_name(g, leg), e) for g, e in w))
                       for w, c in x.terms.items()])


@pytest.mark.parametrize("pres", PRESENTATIONS, ids=lambda p: p.name)
def test_polynomial_products_match_reference(pres):
    rng = random.Random(8)
    coeffs = [1, -1, 2] + SCALARS[:4]
    for _ in range(40):
        x, y = rand_poly(rng, pres, coeffs), rand_poly(rng, pres, coeffs)
        assert fingerprint(x * y) == fingerprint(ref_mul(x, y))


@pytest.mark.parametrize("c", SCALARS + ZEROS,
                         ids=lambda c: f"{type(c).__name__}-{c}")
def test_scalar_products_match_reference(c):
    rng = random.Random(9)
    for pres in PRESENTATIONS:
        for _ in range(5):
            x = rand_poly(rng, pres, [1, 2] + SCALARS[1:4])
            sc = NCPoly.scalar(pres, c)
            for got, want in [(x * c, ref_mul(x, c)), (c * x, ref_mul(x, c)),
                              (x * sc, ref_mul(x, sc)),
                              (sc * x, ref_mul(sc, x)),
                              (sc * sc, ref_mul(sc, sc))]:
                assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("pres", [A, U], ids=lambda p: p.name)
def test_tensor_matches_renamed_word_product(pres):
    t2 = tensor_square(pres)
    rng = random.Random(10)
    coeffs = [1, -1] + SCALARS
    polys = [NCPoly.zero(pres), NCPoly.one(pres), NCPoly.scalar(pres, SCALARS[3])]
    polys += [rand_poly(rng, pres, coeffs) for _ in range(12)]
    for x in polys:
        for y in polys:
            want = ref_mul(on_leg(x, t2, 1), on_leg(y, t2, 2))
            assert fingerprint(tensor(x, y)) == fingerprint(want)


def test_scalar_products_and_tensor_skip_normal_ordering(monkeypatch):
    x = a_parse("d*a + q*b*c - 2")
    sc = NCPoly.scalar(A, Q_pow(1))
    calls = []
    normal_order_terms = rewrite.normal_order_terms

    def counting(pres, terms):
        calls.append(pres.name)
        return normal_order_terms(pres, terms)

    monkeypatch.setattr(rewrite, "normal_order_terms", counting)
    for c in SCALARS + ZEROS:
        x * c, c * x
    x * sc, sc * x, NCPoly.one(A) * x, x ** 1
    tensor(x, x)
    assert calls == []
    x * x
    assert calls == ["apq"]


def test_hom_apply_builds_each_power_once(monkeypatch, fresh_caches):
    calls = []
    power = NCPoly.__pow__

    def counting(self, n):
        calls.append(n)
        return power(self, n)

    x = a_parse("a^2*b + a^2*c + b")
    monkeypatch.setattr(NCPoly, "__pow__", counting)
    first = coproduct(x)
    assert sorted(calls) == [1, 1, 2]
    calls.clear()
    second = coproduct(x)
    assert calls == []
    assert fingerprint(second) == fingerprint(first)


def test_u_coproduct_builds_each_power_once(monkeypatch, fresh_caches):
    calls = []
    power = NCPoly.__pow__

    def counting(self, n):
        calls.append(n)
        return power(self, n)

    x = u_parse("e^2*f + k*e^2 + f")
    monkeypatch.setattr(NCPoly, "__pow__", counting)
    first = u_coproduct(x)
    assert sorted(calls) == [1, 1, 2]
    calls.clear()
    second = u_coproduct(x)
    assert calls == []
    assert fingerprint(second) == fingerprint(first)
