"""Small dense matrices over exact scalars or algebra elements.

Entries only need +, -, * among themselves.

Every entry of a matrix has one type: the constructor lifts each entry to
the highest-ranked type among them (int, Fraction, HalfLaurent,
FracScalar, RadScalar, NCPoly in promotion order), and a scalar beside an
NCPoly becomes a constant of that polynomial's algebra.

The matrix product skips every entry product with a zero operand (the
sparse product of Gustavson, ACM TOMS 4(3), 1978), since the spin-j
matrices are triangular or banded.  Its result is nevertheless entry for
entry the one of the dense sum over k: FracScalar has no canonical form,
so its bytes depend on the order in which values were combined.  The
nonzero products are therefore added in ascending k.  Every product in a
sum has the same type, and adding a zero of the sum's type leaves its
value and bytes unchanged.
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


def _tagged(entries):
    """(entry, is nonzero) for each entry of a row or column."""
    return [(x, not scalar_is_zero(x)) for x in entries]


def _dot(row, col):
    """The sum of row[k] * col[k] over k, entry for entry as the dense loop
    forms it; row and col hold _tagged pairs."""
    acc = None
    for (x, xnz), (y, ynz) in zip(row, col):
        if xnz and ynz:
            acc = x * y if acc is None else acc + x * y
    return row[0][0] * col[0][0] if acc is None else acc


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise MatrixError("matrix rows must be nonempty and rectangular")
        self.rows = _one_type(rows)

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
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise MatrixError("shape mismatch in sub")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise MatrixError("shape mismatch in mul")
            rows = [_tagged(row) for row in self.rows]
            cols = [_tagged(col) for col in zip(*other.rows)]
            return Matrix([[_dot(arow, bcol) for bcol in cols]
                           for arow in rows])
        return self.map(lambda x: x * other)

    def kron(self, other) -> "Matrix":
        return Matrix.build(
            self.nrows * other.nrows, self.ncols * other.ncols,
            lambda i, j: self.rows[i // other.nrows][j // other.ncols]
            * other.rows[i % other.nrows][j % other.ncols])

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
