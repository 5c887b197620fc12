"""Small dense matrices over exact scalars or algebra elements.

Entries only need +, -, * among themselves.

Every entry of a matrix has one type: the constructor lifts each entry to
the highest-ranked type among them (int, Fraction, HalfLaurent,
FracScalar, RadScalar, NCPoly in promotion order), and a scalar beside an
NCPoly becomes a constant of that polynomial's algebra.  The results of
arithmetic on such matrices have one type already and skip that lift.

The spin-j matrices are triangular or banded, so the arithmetic forms
only products of two nonzero entries.  The product is Gustavson's, row by
row (ACM TOMS 4(3), 1978): for each row i of A it walks the nonzero
A[i, k] in ascending k and adds A[i, k] * B[k, j], for each nonzero
B[k, j], into column j's sum, which starts from its first product.  Every
entry without a product is one zero of the result's type, lifted from 0
rather than computed.  Each entry still equals the dense sum over k, in
bytes too: FracScalar has no canonical form, so its bytes depend on the
order in which values were combined, but the products are added in
ascending k, all have the sum's type, a zero has one form, and adding a
zero of the sum's type leaves a value and its bytes unchanged.
"""

from __future__ import annotations

from .rewrite import NCPoly
from .scalars import RANK, lift_scalar, scalar_is_zero


class MatrixError(ArithmeticError):
    pass


# promotion order of + and * among entry types: a sum or product takes the
# type of its higher-ranked operand; a polynomial ranks above every scalar
_TYPE_RANK = {**RANK, NCPoly: len(RANK)}


def _one_type(rows):
    """rows with every entry lifted to the highest-ranked type among them."""
    types = {type(x) for row in rows for x in row}
    if len(types) <= 1:
        return rows
    top = max(types, key=_TYPE_RANK.__getitem__)
    if top is not NCPoly:
        return tuple(tuple(lift_scalar(x, top) for x in row) for row in rows)
    pres = next(x.pres for row in rows for x in row if type(x) is NCPoly)
    return tuple(tuple(x if type(x) is NCPoly else NCPoly.scalar(pres, x)
                       for x in row) for row in rows)


def _nonzero(row):
    """(k, row[k]) for each nonzero entry of a row, in ascending k."""
    return [(k, x) for k, x in enumerate(row) if not scalar_is_zero(x)]


def _zero(x, y):
    """The zero of the type of x * y, formed without arithmetic."""
    top = max(x, y, key=lambda v: _TYPE_RANK[type(v)])
    if type(top) is NCPoly:
        return NCPoly.zero(top.pres)
    return lift_scalar(0, type(top))


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise MatrixError("matrix rows must be nonempty and rectangular")
        self.rows = _one_type(rows)

    @classmethod
    def _of(cls, rows) -> "Matrix":
        """Wrap rows, a tuple of equal-length tuples of one entry type."""
        out = object.__new__(cls)
        out.rows = rows
        return out

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    @staticmethod
    def identity(n, one):
        """The n x n identity over the type of one; its zero is one - one."""
        zero = one - one
        return Matrix([[one if i == j else zero for j in range(n)]
                       for i in range(n)])

    @staticmethod
    def build(nrows, ncols, fn):
        return Matrix([[fn(i, j) for j in range(ncols)] for i in range(nrows)])

    def map(self, fn) -> "Matrix":
        return Matrix([[fn(x) for x in row] for row in self.rows])

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MatrixError("shape mismatch in add")
        return Matrix._of(tuple(tuple(a + b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MatrixError("shape mismatch in sub")
        return Matrix._of(tuple(tuple(a - b for a, b in zip(r1, r2))
                                for r1, r2 in zip(self.rows, other.rows)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            zero = _zero(self.rows[0][0], other)
            skip = scalar_is_zero(other)
            return Matrix._of(tuple(
                tuple(zero if skip or scalar_is_zero(x) else x * other
                      for x in row) for row in self.rows))
        if self.ncols != other.nrows:
            raise MatrixError("shape mismatch in mul")
        zero = _zero(self.rows[0][0], other.rows[0][0])
        brows = [_nonzero(row) for row in other.rows]
        out = []
        for arow in self.rows:
            acc = [None] * other.ncols
            for k, x in _nonzero(arow):
                for j, y in brows[k]:
                    s = acc[j]
                    acc[j] = x * y if s is None else s + x * y
            out.append(tuple(zero if s is None else s for s in acc))
        return Matrix._of(tuple(out))

    def kron(self, other) -> "Matrix":
        zero = _zero(self.rows[0][0], other.rows[0][0])
        brows = [_nonzero(row) for row in other.rows]
        n = other.ncols
        out = []
        for arow in map(_nonzero, self.rows):
            for brow in brows:
                row = [zero] * (self.ncols * n)
                for ja, x in arow:
                    for jb, y in brow:
                        row[ja * n + jb] = x * y
                out.append(tuple(row))
        return Matrix._of(tuple(out))

    def is_zero(self) -> bool:
        return all(scalar_is_zero(x) for row in self.rows for x in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MatrixError("shape mismatch in eq")
        return self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        body = "\n ".join("[" + ", ".join(str(x) for x in row) + "]"
                          for row in self.rows)
        return f"Matrix(\n {body}\n)"
