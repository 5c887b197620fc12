"""The one entry type of a Matrix, and the zero-skipping matrix product,
Kronecker product and scalar multiple against dense reference loops.

The constructor lifts every entry to the highest-ranked type among them.
FracScalar has no canonical form, so two equal values can serialize to
different bytes.  Each operation must therefore give each entry exactly
the type, the bytes and (for NCPoly) the word order of the dense loop.
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


def dense_kron(a, b):
    """The reference: every product a[i1, j1] * b[i2, j2]."""
    return Matrix([[a.rows[i1][j1] * b.rows[i2][j2]
                    for j1 in range(a.ncols) for j2 in range(b.ncols)]
                   for i1 in range(a.nrows) for i2 in range(b.nrows)])


def dense_scale(a, c):
    """The reference: every entry times c."""
    return Matrix([[x * c for x in row] for row in a.rows])


def fingerprint(x):
    if isinstance(x, NCPoly):
        return ("NCPoly", x.pres.name,
                [(w, type(c).__name__, fingerprint(c))
                 for w, c in x.terms.items()])
    return (type(x).__name__, json.dumps(scalar_to_json(x), sort_keys=True))


def assert_same_as_dense(a, b):
    assert_same_entries(a * b, dense_mul(a, b))


def assert_same_entries(got, want):
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


@pytest.mark.parametrize("seed", range(20))
def test_random_scalar_kron_and_multiple(seed):
    rng = random.Random(seed)
    density = rng.choice([0.2, 0.4, 0.7])
    a, b = (random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), ZEROS,
                          NONZEROS, density) for _ in range(2))
    assert_same_entries(a.kron(b), dense_kron(a, b))
    for c in ZEROS + NONZEROS:
        assert_same_entries(a * c, dense_scale(a, c))


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


def test_ncpoly_kron_and_multiple():
    pres = apq_presentation()
    zeros = [0, NCPoly.zero(pres), RadScalar.zero()]
    nonzeros = [a_parse(t) for t in ("a", "b*c", "d - p*b", "D^1/2*c")]
    nonzeros += [NCPoly.scalar(pres, FRAC) * a_parse("d"), 3, FRAC]
    for seed in range(8):
        rng = random.Random(seed)
        a, b = (random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3),
                              zeros, nonzeros, 0.4) for _ in range(2))
        assert_same_entries(a.kron(b), dense_kron(a, b))
        for c in zeros + nonzeros:
            assert_same_entries(a * c, dense_scale(a, c))


def test_all_zero_matrix_takes_the_higher_type():
    pres = apq_presentation()
    zero = Matrix([[0, Fraction(0)], [0, 0]])
    assert entry_types(zero) == {Fraction}
    for c, top in [(FRAC, FracScalar), (RadScalar.sqrt_qints([2]), RadScalar),
                   (a_parse("b"), NCPoly)]:
        for got, want in [(zero * c, dense_scale(zero, c)),
                          (zero.kron(Matrix([[c]])),
                           dense_kron(zero, Matrix([[c]])))]:
            assert entry_types(got) == {top}
            assert got.is_zero()
            assert_same_entries(got, want)
    assert {x.pres for row in (zero * a_parse("b")).rows for x in row} \
        == {pres}


def nonzero_entries(m):
    return sum(not x.is_zero() for row in m.rows for x in row)


def nonzero_pairs(a, b):
    return sum(not a[i, k].is_zero() and not b[k, j].is_zero()
               for i in range(a.nrows) for k in range(a.ncols)
               for j in range(b.ncols))


def test_ncpoly_product_multiplies_nonzero_pairs_only(monkeypatch):
    pres = apq_presentation()
    zero = NCPoly.zero(pres)
    nonzeros = [a_parse(t) for t in ("a", "b", "c*d", "a - q*b*c")]
    cases = [(l_matrix("+", 1), l_matrix("-", 1)),
             (Matrix([[zero, zero]]), Matrix([[a_parse("a")], [zero]]))]
    for seed in range(6):
        rng = random.Random(seed)
        n, m, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        cases.append((random_matrix(rng, n, m, [zero], nonzeros, 0.4),
                      random_matrix(rng, m, p, [zero], nonzeros, 0.4)))
    calls = []
    mul_ok = NCPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return mul_ok(self, other)

    monkeypatch.setattr(NCPoly, "__mul__", counted)
    for a, b in cases:
        calls.clear()
        a * b
        assert len(calls) == nonzero_pairs(a, b)
        calls.clear()
        a.kron(b)
        assert len(calls) == nonzero_entries(a) * nonzero_entries(b)


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
