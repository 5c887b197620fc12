"""Every algebra map built on rewrite.hom_apply is multiplicative and
unital: f(x*y) == f(x)*f(y) and f(1) == 1, on seeded random words."""

import random
from fractions import Fraction

import pytest

from qexpmap.algebra_a import apq_presentation, coproduct, counit
from qexpmap.algebra_u import (gamma_rep, pi_apply, u_coproduct,
                               u_presentation, u_rep_apply)
from qexpmap.rewrite import NCPoly, tensor_square
from qexpmap.scalars import Q_pow, q_pow

A, U = apq_presentation(), u_presentation()
REP = gamma_rep(1, 1, "rational")

# name -> (source presentation, the map, the target's one, whether the
# words may hold negative powers of invertible generators)
MAPS = {
    "coproduct": (A, coproduct, NCPoly.one(tensor_square(A)), False),
    "counit": (A, counit, 1, True),
    "pi+": (A, lambda x: pi_apply("+", x), NCPoly.one(U), True),
    "pi-": (A, lambda x: pi_apply("-", x), NCPoly.one(U), True),
    "u_coproduct": (U, u_coproduct, NCPoly.one(tensor_square(U)), True),
    "u_rep_apply(j=1)": (U, lambda x: u_rep_apply(REP, x), REP.identity(),
                         True),
}


def rand_poly(rng, pres, negative):
    """One or two random words of up to three letters, with coefficients."""
    coeffs = [1, -2, Fraction(1, 3),
              q_pow(1) if pres is A else Q_pow(1) - Q_pow(-1)]
    terms = []
    for _ in range(rng.randint(1, 2)):
        atoms = []
        for _ in range(rng.randint(0, 3)):
            g, kind = rng.choice(pres.generators)
            if kind == "scaling":
                e = Fraction(rng.choice([-2, -1, 1, 2]), 2)
            elif kind == "invertible" and negative:
                e = rng.choice([-1, 1, 2])
            else:
                e = rng.randint(1, 2)
            atoms.append((g, e))
        terms.append((rng.choice(coeffs), tuple(atoms)))
    return NCPoly(pres, terms)


@pytest.mark.parametrize("name", list(MAPS))
def test_rejects_the_other_algebra(name):
    pres, f, _, _ = MAPS[name]
    with pytest.raises(ValueError, match="expects an element"):
        f(NCPoly.one(U if pres is A else A))


@pytest.mark.parametrize("name", list(MAPS))
def test_rejects_a_non_polynomial(name):
    _, f, _, _ = MAPS[name]
    with pytest.raises(ValueError, match="expects an element"):
        f(1.5)


@pytest.mark.parametrize("name", list(MAPS))
def test_multiplicative_and_unital(name):
    pres, f, one, negative = MAPS[name]
    assert f(NCPoly.one(pres)) == one
    rng = random.Random(2024)
    for _ in range(8):
        x, y = rand_poly(rng, pres, negative), rand_poly(rng, pres, negative)
        assert f(x * y) == f(x) * f(y)
