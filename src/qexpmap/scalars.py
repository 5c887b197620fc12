"""Exact scalar arithmetic for the two-parameter quantum group kernel.

Three layers, each closed under the operations the algebra engines need:

* ``HalfLaurent``   -- Laurent polynomials in Q^(1/2) and lambda^(1/2) over
  the rationals.  Exponents are stored as integers counting *half* powers,
  so every exponent occurring in the T/L/R matrices is exactly representable.
  A coefficient is stored as an ``int`` when it is integral and as a
  ``Fraction`` (never one with denominator 1) only when it is not; almost
  every coefficient the constructions produce is an integer.  ``rational``
  is that rule, and the rewrite engine applies it to word exponents too.
* ``FracScalar``    -- the fraction field of HalfLaurent.  There is no
  multivariate GCD; equality compares numerators over equal denominators and
  is otherwise decided by cross-multiplication, and a cheap exact-division
  attempt keeps fractions from growing.
* ``RadScalar``     -- finite sums c * sqrt([n1]_Q ... [nk]_Q) with
  FracScalar coefficients.  Radicands are multisets of q-integer indices,
  which is closed under multiplication and has a canonical normal form.

With ``int`` and ``Fraction`` they form one tower, in the promotion order
int < Fraction < HalfLaurent < FracScalar < RadScalar.  ``RANK`` is the one
place that order is written: ``+ - * /`` and ``==`` on two tower values lift
the lower-ranked operand with ``lift_scalar`` and give the type of the
higher-ranked one.  ``_Scalar`` holds what the three classes share: that
coercion, ``zero()`` and ``one()`` (0 and 1 lifted to the class), powers by
repeated squaring, and display.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
import math

from .memo import memo


class ScalarError(ArithmeticError):
    pass


class EvalError(ScalarError):
    """Numeric evaluation failed (vanishing denominator etc.)."""


class _Scalar:
    """What the three tower classes share: coercion by RANK, the operators
    derived from +, *, negation and inverse(), 0, 1, powers and display."""

    __slots__ = ()

    def _coerce(self, other):
        """other as a value of this type: as it is when it has the type,
        lifted when it ranks lower, else None."""
        cls = type(self)
        if type(other) is cls:
            return other
        rank = RANK.get(type(other))
        if rank is None or rank > RANK[cls]:
            return None
        return lift_scalar(other, cls)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    @classmethod
    def zero(cls):
        return lift_scalar(0, cls)

    @classmethod
    def one(cls):
        return lift_scalar(1, cls)

    def __pow__(self, n: int):
        """self ** n by repeated squaring; a negative n inverts first."""
        n = int(n)
        if n < 0:
            return self.inverse() ** (-n)
        result, base = None, self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.one() if result is None else result

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        from .render import scalar_str
        return scalar_str(self)


# ---------------------------------------------------------------------------
# HalfLaurent


def rational(x):
    """The rational x as an int when it is integral, else as a Fraction."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _div(a, b):
    """Exact quotient of two rational coefficients, never a float; an int
    when both are ints and the division is exact."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return Fraction(a, b)


class HalfLaurent(_Scalar):
    """Laurent polynomial in half powers of Q and lambda.

    ``terms`` maps an exponent pair ``(u, v)`` to a nonzero rational
    coefficient: an ``int`` when it is integral, else a ``Fraction`` whose
    denominator is not 1.  The pair denotes the monomial
    Q^(u/2) * lambda^(v/2).  The constructor enforces this and is the one
    place zero coefficients are dropped, so arithmetic hands it its raw
    sums: any mix of ``int`` and ``Fraction``, zeros included.  A constant
    hashes as its ``int`` or ``Fraction`` value, which it equals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not int:
                    c = rational(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "terms", clean)

    # -- constructors

    @staticmethod
    def const(c) -> "HalfLaurent":
        return HalfLaurent({(0, 0): c})

    @staticmethod
    def monomial(coeff, qhalf: int, lhalf: int) -> "HalfLaurent":
        return HalfLaurent({(int(qhalf), int(lhalf)): coeff})

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    # -- ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return HalfLaurent(terms)

    __radd__ = __add__

    def __neg__(self):
        return HalfLaurent({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for (u1, v1), c1 in self.terms.items():
            for (u2, v2), c2 in other.terms.items():
                key = (u1 + u2, v1 + v2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return HalfLaurent(terms)

    __rmul__ = __mul__

    def inverse(self) -> "HalfLaurent":
        if not self.is_monomial():
            raise ScalarError("only monomials are invertible in HalfLaurent")
        ((u, v), c), = self.terms.items()
        return HalfLaurent({(-u, -v): Fraction(1, c)})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {(0, 0)}:
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    # -- division

    def divexact(self, other: "HalfLaurent"):
        """Exact quotient self/other, or None if the division is not exact.

        Uses leading-term elimination in lex order on (u, v); quotient keys
        are confined to the componentwise box forced by exactness, which
        bounds the search.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero HalfLaurent")
        if self.is_zero():
            return HalfLaurent.zero()
        if other.is_monomial():
            return self * other.inverse()
        lt_b = max(other.terms)
        cb = other.terms[lt_b]
        au = [k[0] for k in self.terms]
        av = [k[1] for k in self.terms]
        bu = [k[0] for k in other.terms]
        bv = [k[1] for k in other.terms]
        box = (min(au) - max(bu), max(au) - min(bu),
               min(av) - max(bv), max(av) - min(bv))
        rem = dict(self.terms)
        quo = {}
        while rem:
            lt_a = max(rem)
            key = (lt_a[0] - lt_b[0], lt_a[1] - lt_b[1])
            if not (box[0] <= key[0] <= box[1] and box[2] <= key[1] <= box[3]):
                return None
            coeff = _div(rem[lt_a], cb)
            quo[key] = coeff
            for k, c in other.terms.items():
                kk = (k[0] + key[0], k[1] + key[1])
                nc = rem.get(kk, 0) - coeff * c
                if nc:
                    rem[kk] = nc
                else:
                    rem.pop(kk, None)
        return HalfLaurent(quo)

    # -- substitutions / evaluation

    def subs_lambda_one(self) -> "HalfLaurent":
        if not any(v for _, v in self.terms):
            return self
        terms = {}
        for (u, v), c in self.terms.items():
            terms[(u, 0)] = terms.get((u, 0), 0) + c
        return HalfLaurent(terms)

    def eval_points(self, points) -> list:
        totals = [0.0] * len(points)
        for (u, v), c in self.terms.items():
            c, u, v = float(c), u / 2.0, v / 2.0
            totals = [t + c * p.Q ** u * p.lam ** v
                      for t, p in zip(totals, points)]
        return totals

    # -- serialization

    def to_json(self):
        out = []
        for (u, v) in sorted(self.terms):
            c = self.terms[(u, v)]
            out.append({"num": c.numerator, "den": c.denominator,
                        "qhalf": u, "lhalf": v})
        return out

    @staticmethod
    def from_json(data) -> "HalfLaurent":
        terms = {}
        for t in data:
            terms[(t["qhalf"], t["lhalf"])] = Fraction(t["num"], t["den"])
        return HalfLaurent(terms)


# convenient monomial builders: p = Q*lambda, q = Q/lambda

def Q_pow(half: int) -> HalfLaurent:
    return HalfLaurent.monomial(1, half, 0)


def lam_pow(half: int) -> HalfLaurent:
    return HalfLaurent.monomial(1, 0, half)


def p_pow(n: int = 1) -> HalfLaurent:
    return HalfLaurent.monomial(1, 2 * n, 2 * n)


def q_pow(n: int = 1) -> HalfLaurent:
    return HalfLaurent.monomial(1, 2 * n, -2 * n)


def qint(n: int) -> HalfLaurent:
    """The q-integer [n] = (Q^n - Q^-n)/(Q - Q^-1) as a Laurent polynomial.

    For n > 0 this is sum_{i=0..n-1} Q^(n-1-2i); it is antisymmetric in n.
    """
    n = int(n)
    sign = 1
    if n < 0:
        n, sign = -n, -1
    return HalfLaurent({(2 * (n - 1 - 2 * i), 0): sign for i in range(n)})


# [n] for numeric evaluation, built once per n: a radical reads it at every
# sample point
_radicand = memo(qint)


def qfact(n: int) -> HalfLaurent:
    """[n]! = [n][n-1]...[1]; [0]! = 1.  Negative n is a domain error."""
    if n < 0:
        raise ScalarError(f"qfact of negative integer {n}")
    result = HalfLaurent.one()
    for k in range(1, int(n) + 1):
        result = result * qint(k)
    return result


# ---------------------------------------------------------------------------
# FracScalar


class FracScalar(_Scalar):
    """Element of the fraction field of HalfLaurent.

    No canonical form is maintained: equality compares numerators when the
    denominators are equal and is otherwise decided by cross-multiplication.
    Construction attempts an exact division and otherwise normalizes the
    denominator's leading term to 1, which is enough to keep sizes stable
    in practice.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = lift_scalar(num, HalfLaurent)
        den = lift_scalar(den, HalfLaurent)
        if den.is_zero():
            raise ZeroDivisionError("FracScalar with zero denominator")
        if num.is_zero():
            den = HalfLaurent.one()
        elif not den.is_one():
            quo = num.divexact(den)
            if quo is not None:
                num, den = quo, HalfLaurent.one()
            else:
                lt = max(den.terms)
                scale = HalfLaurent.monomial(Fraction(1, den.terms[lt]),
                                             -lt[0], -lt[1])
                num, den = num * scale, den * scale
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # a zero has denominator 1 and a nonzero value is already in the
        # form its constructor gives it, so x + 0 needs no new FracScalar
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den == other.den:
            return FracScalar(self.num + other.num, self.den)
        return FracScalar(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return FracScalar(-self.num, self.den)

    def __mul__(self, other):
        if type(other) is int and other == 1:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # 0 * x is that zero, as in __add__
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # cross-cancel cheaply before multiplying out
        if not d2.is_one():
            quo = n1.divexact(d2)
            if quo is not None:
                n1, d2 = quo, HalfLaurent.one()
        if not d1.is_one():
            quo = n2.divexact(d1)
            if quo is not None:
                n2, d1 = quo, HalfLaurent.one()
        return FracScalar(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "FracScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero FracScalar")
        return FracScalar(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # no canonical form; unsafe to hash

    def eval_points(self, points) -> list:
        nums = self.num.eval_points(points)
        if self.den.is_one():
            return nums
        dens = self.den.eval_points(points)
        for d, p in zip(dens, points):
            if abs(d) < 1e-300:
                raise EvalError(f"denominator {self.den} vanishes at {p}")
        return [n / d for n, d in zip(nums, dens)]

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data) -> "FracScalar":
        return FracScalar(HalfLaurent.from_json(data["num"]),
                          HalfLaurent.from_json(data["den"]))


# ---------------------------------------------------------------------------
# RadScalar


class RadScalar(_Scalar):
    """Sum of terms c * sqrt([n1]_Q * ... * [nk]_Q), c a FracScalar.

    Normal form: every radicand multiset is square-free (paired indices are
    extracted as q-integer factors into the coefficient) and at most one
    term per distinct radicand is kept.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        bucket = {}
        for coeff, rad in terms:
            coeff = lift_scalar(coeff, FracScalar)
            newrad = []
            for n, cnt in sorted(Counter(rad).items()):
                n = int(n)
                if n == 0:
                    coeff = FracScalar.zero()
                    break
                if n == 1:
                    continue
                if n < 0:
                    raise ScalarError(f"negative q-integer index {n} in radicand")
                pairs, odd = divmod(cnt, 2)
                if pairs:
                    coeff = coeff * FracScalar(qint(n)) ** pairs
                if odd:
                    newrad.append(n)
            key = tuple(newrad)
            if key in bucket:
                bucket[key] = bucket[key] + coeff
            else:
                bucket[key] = coeff
        object.__setattr__(
            self, "terms",
            tuple((c, k) for k, c in sorted(bucket.items()) if not c.is_zero()))

    @staticmethod
    def sqrt_qints(indices, coeff=1) -> "RadScalar":
        """coeff * sqrt(prod [n]_Q for n in indices)."""
        return RadScalar([(coeff, tuple(indices))])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RadScalar(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return RadScalar([(-c, r) for c, r in self.terms])

    def __mul__(self, other):
        """The product; a lower-ranked other scales each coefficient by
        it as a FracScalar and keeps the radicands, which stay square-free,
        distinct and sorted, so only a zero other drops terms."""
        if type(other) is not RadScalar:
            if type(other) not in RANK:
                return NotImplemented
            x = lift_scalar(other, FracScalar)
            out = object.__new__(RadScalar)
            object.__setattr__(out, "terms", () if x.is_zero() else tuple(
                (c * x, r) for c, r in self.terms))
            return out
        out = []
        for c1, r1 in self.terms:
            for c2, r2 in other.terms:
                out.append((c1 * c2, r1 + r2))
        return RadScalar(out)

    __rmul__ = __mul__

    def inverse(self) -> "RadScalar":
        """Inverse of a single-term radical: 1/(c sqrt(r)) = sqrt(r)/(c prod[n])."""
        if len(self.terms) != 1:
            raise ScalarError("can only invert single-term RadScalar values")
        c, rad = self.terms[0]
        denom = c
        for n in rad:
            denom = denom * FracScalar(qint(n))
        return RadScalar([(denom.inverse(), rad)])

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # both are in normal form: one nonzero term per radicand, sorted
        return self.terms == other.terms

    __hash__ = None

    def eval_points(self, points) -> list:
        totals = [0.0] * len(points)
        for c, rad in self.terms:
            vals = c.eval_points(points)
            for n in rad:
                for k, qn in enumerate(_radicand(n).eval_points(points)):
                    if qn < 0:
                        raise EvalError(
                            f"negative radicand [{n}] at {points[k]}")
                    vals[k] *= math.sqrt(qn)
            totals = [t + v for t, v in zip(totals, vals)]
        return totals

    def to_json(self):
        return [{"coeff": c.to_json(), "rad": list(r)} for c, r in self.terms]

    @staticmethod
    def from_json(data) -> "RadScalar":
        return RadScalar([(FracScalar.from_json(t["coeff"]), tuple(t["rad"]))
                          for t in data])


# ---------------------------------------------------------------------------
# numeric parameters


class NumericParams:
    """A numeric parameter point (p, q) with derived Q = sqrt(pq), lam = sqrt(p/q).

    Rejects non-generic points, where Q - Q^-1 nearly vanishes, since exact
    identities are only claimed for generic parameters.  For real Q > 0 that
    is the only test needed: [n]_Q is a sum of powers of Q, never below 1, so
    Q^n - Q^-n = (Q - Q^-1) * [n]_Q vanishes only where Q - Q^-1 does, and a
    test at larger n rejects no further point.
    """

    __slots__ = ("p", "q", "Q", "lam")

    def __init__(self, p, q):
        p, q = float(p), float(q)
        if p <= 0 or q <= 0:
            raise ScalarError("parameters p, q must be positive")
        self.p, self.q = p, q
        self.Q = math.sqrt(p * q)
        self.lam = math.sqrt(p / q)
        if abs(self.Q - self.Q ** -1) < 1e-9 * max(1.0, self.Q):
            raise ScalarError("non-generic parameters: Q ~ 1")

    def __repr__(self):
        return f"NumericParams(p={self.p}, q={self.q})"


def eval_points(x, points) -> list:
    """Any scalar-tower value at each of points, in one pass over its terms."""
    if isinstance(x, (int, Fraction)):
        return [float(x)] * len(points)
    return x.eval_points(points)


def eval_numeric(x, params: NumericParams) -> float:
    """Evaluate any scalar-tower value at a numeric parameter point."""
    return eval_points(x, [params])[0]


# ---------------------------------------------------------------------------
# the promotion order, and helpers shared with the other layers


# a sum, difference, product or quotient of two tower values has the type
# of its higher-ranked operand
RANK = {int: 0, Fraction: 1, HalfLaurent: 2, FracScalar: 3, RadScalar: 4}


def lift_scalar(x, cls):
    """x as a value of the tower type cls, which ranks no lower than x's."""
    if type(x) is cls:
        return x
    rank = RANK.get(type(x))
    if rank is None or rank > RANK[cls]:
        raise ScalarError(f"cannot lift {type(x).__name__} to {cls.__name__}")
    if cls is HalfLaurent:
        return HalfLaurent.const(x)
    if cls is RadScalar:
        return RadScalar([(x, ())])
    return cls(x)     # Fraction or FracScalar


def scalar_is_zero(x) -> bool:
    if isinstance(x, (int, Fraction)):
        return x == 0
    return x.is_zero()


def scalar_lambda_one(x):
    """Substitute lambda = 1 anywhere in the scalar tower; a HalfLaurent or
    FracScalar x with no power of lambda is returned as it is."""
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, HalfLaurent):
        return x.subs_lambda_one()
    if isinstance(x, FracScalar):
        num, den = x.num.subs_lambda_one(), x.den.subs_lambda_one()
        return x if num is x.num and den is x.den else FracScalar(num, den)
    if isinstance(x, RadScalar):
        return RadScalar([(scalar_lambda_one(c), rad) for c, rad in x.terms])
    raise ScalarError(f"unexpected scalar type {type(x).__name__}")


def scalar_to_json(x):
    if isinstance(x, (int, Fraction)):
        x = HalfLaurent.const(x)
    return x.to_json()


def scalar_from_json(data):
    """Infer the scalar type from the JSON shape (fixed schemas per type)."""
    if isinstance(data, dict):
        return FracScalar.from_json(data)
    if isinstance(data, list):
        if data and "rad" in data[0]:
            return RadScalar.from_json(data)
        return HalfLaurent.from_json(data)
    raise ValueError(f"unrecognized scalar JSON: {data!r}")
