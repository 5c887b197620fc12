"""The one entry type of a Matrix, and the zero-skipping matrix product
against the dense reference loop.

The constructor lifts every entry to the highest-ranked type among them.
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


def entry_types(m):
    return {type(x) for row in m.rows for x in row}


def test_zero_operand_of_higher_type_lifts_the_sum():
    # a zero of the top type lifts every entry of its matrix at
    # construction, so every product, skipped or not, has the top type
    a = Matrix([[Q_pow(1), FracScalar.zero(), 3, 0],
                [FRAC, 0, RadScalar.zero(), Q_pow(2)]])
    b = Matrix([[Q_pow(-1), 2], [FRAC, 0], [1, 0], [Q_pow(1), FRAC]])
    assert entry_types(a) == {RadScalar}
    assert entry_types(b) == {FracScalar}
    assert entry_types(a * b) == {RadScalar}
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
    assert entry_types(a) == {FracScalar}
    assert entry_types(b) == {RadScalar}
    assert entry_types(got) == {RadScalar}
    assert got.is_zero()
    assert_same_as_dense(a, b)


def test_construction_lifts_to_one_type():
    tower = [[2, Fraction(-3, 4)], [Q_pow(2) - lam_pow(1), FRAC]]
    m = Matrix(tower)
    assert entry_types(m) == {FracScalar}
    assert all(m[i, j] == tower[i][j] for i in range(2) for j in range(2))
    rad = Matrix([[0, FRAC, RadScalar.sqrt_qints([2])]])
    assert entry_types(rad) == {RadScalar}
    assert rad[0, 0].is_zero() and rad[0, 1] == FRAC

    pres = apq_presentation()
    mixed = [[2, a_parse("a")], [FRAC, NCPoly.zero(pres)]]
    m = Matrix(mixed)
    assert entry_types(m) == {NCPoly}
    assert {m[i, j].pres for i in range(2) for j in range(2)} == {pres}
    assert m[0, 0] == NCPoly.scalar(pres, 2)
    assert m[1, 0] == NCPoly.scalar(pres, FRAC)
    assert m[0, 1] is mixed[0][1] and m[1, 1] is mixed[1][1]

    one_type = [[FRAC, FracScalar.zero()], [FracScalar.one(), FRAC]]
    m = Matrix(one_type)
    assert all(m[i, j] is one_type[i][j] for i in range(2) for j in range(2))


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
