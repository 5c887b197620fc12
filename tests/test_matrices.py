"""The zero-skipping matrix product against the dense reference loop.

FracScalar has no canonical form, so two equal values can serialize to
different bytes.  The product must therefore give each entry exactly the
type, the bytes and (for NCPoly) the word order of the dense sum.
"""

import json
import random
from fractions import Fraction

import pytest

from qexpmap.algebra_a import a_parse, apq_presentation
from qexpmap.expmap import l_matrix, r_matrix_rep
from qexpmap.matrices import Matrix, MatrixError
from qexpmap.rewrite import NCPoly
from qexpmap.scalars import (FracScalar, HalfLaurent, Q_pow, RadScalar,
                             lam_pow, qint, scalar_to_json)


def dense_mul(a, b):
    """The reference: every product, summed in ascending k."""
    if a.ncols != b.nrows:
        raise MatrixError("shape mismatch in mul")
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = a.rows[i][0] * b.rows[0][j]
            for k in range(1, a.ncols):
                acc = acc + a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return Matrix(out)


def fingerprint(x):
    if isinstance(x, NCPoly):
        return ("NCPoly", x.pres.name,
                [(w, type(c).__name__, fingerprint(c))
                 for w, c in x.terms.items()])
    return (type(x).__name__, json.dumps(scalar_to_json(x), sort_keys=True))


def assert_same_as_dense(a, b):
    got, want = a * b, dense_mul(a, b)
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    for i in range(want.nrows):
        for j in range(want.ncols):
            assert fingerprint(got[i, j]) == fingerprint(want[i, j]), (i, j)


# a FracScalar whose denominator is not 1, so that adding it to another
# value goes through cross-multiplication and renormalization
FRAC = FracScalar(Q_pow(1) - Q_pow(-3), HalfLaurent.one() + Q_pow(4))
ZEROS = [0, Fraction(0), HalfLaurent.zero(), FracScalar.zero(),
         RadScalar.zero()]
NONZEROS = [2, Fraction(-3, 4), Q_pow(2) - lam_pow(1), FRAC,
            FracScalar(qint(3), qint(2)),
            RadScalar.sqrt_qints([2, 3], FRAC),
            RadScalar.sqrt_qints([2]) + RadScalar.sqrt_qints([3], 5)]


def random_matrix(rng, nrows, ncols, zeros, nonzeros, density):
    return Matrix([[rng.choice(nonzeros) if rng.random() < density
                    else rng.choice(zeros) for _ in range(ncols)]
                   for _ in range(nrows)])


@pytest.mark.parametrize("seed", range(40))
def test_random_scalar_matrices(seed):
    rng = random.Random(seed)
    n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
    density = rng.choice([0.2, 0.4, 0.7])
    assert_same_as_dense(random_matrix(rng, n, m, ZEROS, NONZEROS, density),
                         random_matrix(rng, m, p, ZEROS, NONZEROS, density))


def test_zero_operand_of_higher_type_lifts_the_sum():
    # the nonzero products are HalfLaurent and int; the skipped zero
    # products are FracScalar and RadScalar, which the dense sum takes on
    a = Matrix([[Q_pow(1), FracScalar.zero(), 3, 0],
                [FRAC, 0, RadScalar.zero(), Q_pow(2)]])
    b = Matrix([[Q_pow(-1), 2], [FRAC, 0], [1, RadScalar.zero()],
                [Q_pow(1), FRAC]])
    got = a * b
    assert type(got[0, 0]) is FracScalar
    assert type(got[0, 1]) is RadScalar
    assert_same_as_dense(a, b)


def test_zero_operands_of_lower_type_are_skipped():
    # int, Fraction and HalfLaurent zeros beside FracScalar and RadScalar
    # values leave the result type at the level of the nonzero products
    a = Matrix([[0, FRAC, Fraction(0)], [HalfLaurent.zero(), 0, FRAC]])
    b = Matrix([[FRAC, 0], [FRAC, RadScalar.sqrt_qints([2])],
                [Fraction(0), FRAC]])
    assert_same_as_dense(a, b)


def test_entirely_zero_dot_products():
    a = Matrix([[0, HalfLaurent.zero()], [Fraction(0), FracScalar.zero()]])
    b = Matrix([[FRAC, 0], [RadScalar.zero(), 0]])
    got = a * b
    assert [[type(x) for x in row] for row in got.rows] == [
        [RadScalar, HalfLaurent], [RadScalar, FracScalar]]
    assert got.is_zero()
    assert_same_as_dense(a, b)


def test_ncpoly_entries_with_zeros():
    pres = apq_presentation()
    zeros = [0, NCPoly.zero(pres), FracScalar.zero()]
    nonzeros = [a_parse(t) for t in ("a", "b", "c*d", "d*a", "a - q*b*c")]
    nonzeros += [NCPoly.scalar(pres, FRAC) * a_parse("b"), 2, FRAC]
    for seed in range(12):
        rng = random.Random(seed)
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        assert_same_as_dense(random_matrix(rng, n, m, zeros, nonzeros, 0.4),
                             random_matrix(rng, m, p, zeros, nonzeros, 0.4))


def test_scalar_sum_lifted_to_ncpoly_keeps_word_order():
    # 2*3 is an int; the zero NCPoly product at k = 1 makes the dense sum
    # the NCPoly 6 before a*b is added, so the empty word comes first
    pres = apq_presentation()
    a = Matrix([[2, NCPoly.zero(pres), a_parse("a")]])
    b = Matrix([[3], [a_parse("c")], [a_parse("b")]])
    got = (a * b)[0, 0]
    assert list(got.terms)[0] == ()
    assert_same_as_dense(a, b)


@pytest.mark.parametrize("build", [
    lambda: (l_matrix("+", 1), l_matrix("-", 1)),
    lambda: (r_matrix_rep(1, Fraction(1, 2), Fraction(1, 2), 0),) * 2,
])
def test_spin_constructions(build):
    a, b = build()
    assert_same_as_dense(a, b)


def test_shape_mismatch():
    a = Matrix([[1, 2, 3]])
    with pytest.raises(MatrixError):
        a * a
