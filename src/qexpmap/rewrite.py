"""Noncommutative normal-ordering engine over a presented algebra.

A presentation fixes an ordered list of generators (ordinary, invertible
or scaling), one swap rule per out-of-order adjacent pair of ordinary
generators, and a commutation factor for each scaling/ordinary pair.
Normal ordering rewrites any word into the PBW normal form, leftmost
innermost, with immediate like-term collection.  Termination is enforced
by a term-count guard rather than a proof; ``confluence_check`` validates
order-independence empirically.

Every term the engine sees holds one invariant: a nonzero coefficient and
a tuple word of atoms the presentation allows, none with a zero exponent.
NCPoly's constructor establishes it once, where terms come in from
outside (``_validate_atoms``, then the merge of like terms).  Products of
nonzero scalars are nonzero and ``_apply_event`` drops merged atoms whose
exponents cancel, so arithmetic and rewriting keep it and nothing re-checks.
"""

from __future__ import annotations

import bisect
import os
from fractions import Fraction

from .scalars import (FracScalar, HalfLaurent, lift_scalar, scalar_is_zero,
                      scalar_to_json, scalar_from_json)

ORDINARY = "ordinary"
INVERTIBLE = "invertible"
SCALING = "scaling"

DEFAULT_GUARD = 10 ** 6


def term_guard() -> int:
    """The term-count guard: QEXPMAP_GUARD if set, else DEFAULT_GUARD.

    Raises UsageError naming the variable unless it is a positive integer.
    """
    text = os.environ.get("QEXPMAP_GUARD")
    if text is None:
        return DEFAULT_GUARD
    try:
        guard = int(text)
    except ValueError:
        guard = 0
    if guard < 1:
        raise UsageError(
            f"QEXPMAP_GUARD must be a positive integer, got {text!r}")
    return guard


class RewriteError(Exception):
    pass


class GuardExceeded(RewriteError):
    """A single normal ordering generated more intermediate terms than allowed."""


class UsageError(ValueError):
    """Invalid input from outside the program: an expression, a spin or
    charge, a suite name or the QEXPMAP_GUARD setting."""


class ParseError(UsageError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class Presentation:
    """Ordered generators + swap rules + scaling commutation factors.

    rules maps (hi, lo) -> (kappa, correction) encoding hi*lo ->
    kappa*lo*hi + correction, correction a tuple of (coeff, atoms).
    scaling maps (scal, other) -> HalfLaurent monomial mu, the factor per
    *half* power: G^s * x = mu^(2s) * x * G^s.
    """

    def __init__(self, name, generators, rules, scaling=None, lambda_one=False):
        self.name = name
        self.generators = tuple(generators)
        self.order = {g: i for i, (g, _) in enumerate(self.generators)}
        self.kind = dict(self.generators)
        self.rules = dict(rules)
        self.scaling = dict(scaling or {})
        self.lambda_one = lambda_one
        self._unit_rules = {}
        self._square = None     # tensor_square(self), built on first use
        ordinaries = [g for g, k in self.generators if k != SCALING]
        for i, lo in enumerate(ordinaries):
            for hi in ordinaries[i + 1:]:
                if (hi, lo) not in self.rules:
                    raise ValueError(f"missing swap rule for pair ({hi}, {lo})")

    def is_scaling(self, g) -> bool:
        return self.kind[g] == SCALING

    def is_invertible(self, g) -> bool:
        return self.kind[g] in (INVERTIBLE, SCALING)

    def mu(self, scal, other) -> HalfLaurent:
        return self.scaling.get((scal, other), HalfLaurent.one())

    # -- unit rules for all sign combinations ------------------------------

    def unit_rule(self, g1, s1, g2, s2):
        """Expansion of g1^s1 * g2^s2 (signs +-1, order(g1) > order(g2))
        as a list of (coeff, atoms) already in lower order."""
        key = (g1, s1, g2, s2)
        cached = self._unit_rules.get(key)
        if cached is not None:
            return cached
        rule = self.rules[(g1, g2)]
        y, x = (g1, 1), (g2, 1)
        if s2 == -1:
            rule = _invert(rule, x)
            x = (g2, -1)
        if s1 == -1:
            rule = _invert(rule, y)
            y = (g1, -1)
        kappa, corr = rule
        out = [(kappa, (x, y)), *corr]
        self._unit_rules[key] = out
        return out


def _invert(rule, z):
    """From Y X = kappa X Y + C, with z the atom X or Y, derive the rule
    for z inverted: Y X^-1 = kappa^-1 X^-1 Y - kappa^-1 X^-1 C X^-1, or
    Y^-1 X = kappa^-1 X Y^-1 - kappa^-1 Y^-1 C Y^-1."""
    kappa, corr = rule
    ki = lift_scalar(kappa, FracScalar).inverse()
    zi = (z[0], -z[1])
    new_corr = tuple((-(ki * c), (zi,) + w + (zi,)) for c, w in corr)
    return (ki, new_corr)


# ---------------------------------------------------------------------------
# the reduction engine


def _find_event(pres, atoms):
    """First reducible position: ('merge', i) or ('swap', i), else None."""
    for i in range(len(atoms) - 1):
        g1, g2 = atoms[i][0], atoms[i + 1][0]
        if g1 == g2:
            return ("merge", i)
        if pres.order[g1] > pres.order[g2]:
            return ("swap", i)
    return None


def _apply_event(pres, coeff, atoms, event):
    """Expand one reduction step; returns a list of (coeff, atoms) terms."""
    kind, i = event
    (g1, e1), (g2, e2) = atoms[i], atoms[i + 1]
    if kind == "merge":
        e = e1 + e2
        mid = ((g1, e),) if e else ()
        return [(coeff, atoms[:i] + mid + atoms[i + 2:])]

    s1_scal, s2_scal = pres.is_scaling(g1), pres.is_scaling(g2)
    if s1_scal and s2_scal:
        # distinct scaling generators commute
        return [(coeff, atoms[:i] + ((g2, e2), (g1, e1)) + atoms[i + 2:])]
    if s1_scal or s2_scal:
        if s1_scal:     # move G^e1 right past other^e2
            scal, other, h = g1, g2, 2 * e1 * e2
        else:           # move other^e1 right past G^e2
            scal, other, h = g2, g1, -2 * e1 * e2
        factor = pres.mu(scal, other) ** int(h)
        return [(coeff * factor,
                 atoms[:i] + ((g2, e2), (g1, e1)) + atoms[i + 2:])]

    # ordinary-ordinary: peel one unit from the boundary of each run
    s1 = 1 if e1 > 0 else -1
    s2 = 1 if e2 > 0 else -1
    left = atoms[:i] + (((g1, e1 - s1),) if e1 != s1 else ())
    right = (((g2, e2 - s2),) if e2 != s2 else ()) + atoms[i + 2:]
    return [(coeff * c, left + w + right)
            for c, w in pres.unit_rule(g1, s1, g2, s2)]


def normal_order_terms(pres, terms):
    """Rewrite (coeff, atoms) terms to a normal-form dict word -> coeff.

    The terms must hold the invariant of the module docstring; every term
    _apply_event derives from them keeps it, so none is re-checked here."""
    guard = term_guard()
    result = {}
    stack = list(terms)
    seen = 0
    while stack:
        coeff, atoms = stack.pop()
        seen += 1
        if seen > guard:
            raise GuardExceeded(
                f"normal ordering exceeded {guard} intermediate terms")
        event = _find_event(pres, atoms)
        if event is None:
            acc = result.get(atoms)
            acc = coeff if acc is None else acc + coeff
            if scalar_is_zero(acc):
                result.pop(atoms, None)
            else:
                result[atoms] = acc
            continue
        stack.extend(_apply_event(pres, coeff, atoms, event))
    return result


def _validate_atoms(pres, atoms):
    """The atoms with Fraction exponents and without zero powers, once each
    is one the presentation allows; RewriteError otherwise."""
    out = []
    for g, e in atoms:
        if g not in pres.order:
            raise RewriteError(f"unknown generator {g!r}")
        e = Fraction(e)
        if pres.is_scaling(g):
            if (2 * e).denominator != 1:
                raise RewriteError(f"exponent {e} of scaling {g} not in (1/2)Z")
        elif e.denominator != 1:
            raise RewriteError(f"fractional power of non-scaling generator {g}")
        elif e < 0 and not pres.is_invertible(g):
            raise RewriteError(f"negative power of non-invertible {g}")
        if e:
            out.append((g, e))
    return tuple(out)


# ---------------------------------------------------------------------------
# NCPoly


def _word_sort_key(pres, word):
    return tuple((pres.order[g], e) for g, e in word)


class NCPoly:
    """Finite scalar-weighted sum of words over a presented algebra.

    Words are tuples of (generator, exponent).  The terms are always in PBW
    normal form, a dict from normal word to nonzero coefficient: the
    constructor validates each raw (coeff, atoms) term, merges like terms
    and normal-orders the sum once, and arithmetic relies on that.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        merged = {}
        for c, atoms in terms:
            atoms = _validate_atoms(pres, atoms)
            acc = merged.get(atoms)
            acc = c if acc is None else acc + c
            if scalar_is_zero(acc):
                merged.pop(atoms, None)
            else:
                merged[atoms] = acc
        self.pres = pres
        self.terms = normal_order_terms(
            pres, [(c, w) for w, c in merged.items()])

    # -- constructors

    @classmethod
    def _from_normal(cls, pres, terms) -> "NCPoly":
        """Wrap a dict of normal words with nonzero coefficients as is."""
        out = object.__new__(cls)
        out.pres = pres
        out.terms = terms
        return out

    @staticmethod
    def zero(pres) -> "NCPoly":
        return NCPoly._from_normal(pres, {})

    @staticmethod
    def scalar(pres, c) -> "NCPoly":
        return NCPoly._from_normal(pres, {} if scalar_is_zero(c) else {(): c})

    @staticmethod
    def one(pres) -> "NCPoly":
        return NCPoly.scalar(pres, 1)

    @staticmethod
    def gen(pres, name, exp=1) -> "NCPoly":
        return NCPoly(pres, [(1, ((name, Fraction(exp)),))])

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic

    def _coerce(self, other):
        if isinstance(other, NCPoly):
            if other.pres is not self.pres:
                raise RewriteError("mixing polynomials of different presentations")
            return other
        return NCPoly.scalar(self.pres, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            acc = terms.get(w)
            acc = c if acc is None else acc + c
            if scalar_is_zero(acc):
                terms.pop(w, None)
            else:
                terms[w] = acc
        return NCPoly._from_normal(self.pres, terms)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly._from_normal(
            self.pres, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        raw = [(c1 * c2, w1 + w2) for w1, c1 in self.terms.items()
               for w2, c2 in other.terms.items()]
        if self.terms.keys() <= {()} or other.terms.keys() <= {()}:
            # a scalar operand leaves the other's words normal and distinct;
            # reversed is the order normal ordering would give them, which
            # later sums of FracScalars need for their bytes
            terms = {w: c for c, w in reversed(raw)}
        else:
            terms = normal_order_terms(self.pres, raw)
        return NCPoly._from_normal(self.pres, terms)

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __pow__(self, n: int):
        if int(n) != n:
            raise RewriteError(f"non-integral power {n} of a polynomial")
        n = int(n)
        if n < 0:
            return self.invert() ** (-n)
        result = NCPoly.one(self.pres)
        for _ in range(n):
            result = result * self
        return result

    def invert(self) -> "NCPoly":
        """Inverse of a single-term monomial in invertible/scaling generators."""
        if len(self.terms) != 1:
            raise RewriteError("can only invert monomial elements")
        (word, coeff), = self.terms.items()
        if isinstance(coeff, (int, Fraction)):
            inv_c = Fraction(1, coeff)
            if inv_c.denominator == 1:
                inv_c = inv_c.numerator
        else:
            inv_c = coeff.inverse()
        inv_word = tuple((g, -e) for g, e in reversed(word))
        return NCPoly(self.pres, [(inv_c, inv_word)])

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except RewriteError:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- analysis helpers

    def map_coeffs(self, fn) -> "NCPoly":
        mapped = ((w, fn(c)) for w, c in self.terms.items())
        return NCPoly._from_normal(
            self.pres, {w: c for w, c in mapped if not scalar_is_zero(c)})

    # -- serialization / display

    def to_json(self):
        scal_gens = [g for g, k in self.pres.generators if k == SCALING]
        out = []
        for word in sorted(self.terms, key=lambda w: _word_sort_key(self.pres, w)):
            coeff = self.terms[word]
            dpow = Fraction(0)
            body = []
            for g, e in word:
                if scal_gens and g == scal_gens[0]:
                    dpow = e
                else:
                    e = Fraction(e)
                    body.append([g, int(e) if e.denominator == 1
                                 else f"{e.numerator}/{e.denominator}"])
            out.append({"dpow": f"{dpow.numerator}/{dpow.denominator}",
                        "word": body,
                        "coeff": scalar_to_json(coeff)})
        return out

    @staticmethod
    def from_json(pres, data) -> "NCPoly":
        """Inverse of to_json; dpow goes back to its place in the word."""
        scal_gens = [g for g, k in pres.generators if k == SCALING]
        raw = []
        for t in data:
            atoms = [(g, Fraction(e)) for g, e in t["word"]]
            dpow = Fraction(t.get("dpow", "0/1"))
            if dpow and scal_gens:
                bisect.insort(atoms, (scal_gens[0], dpow),
                              key=lambda a: pres.order[a[0]])
            raw.append((scalar_from_json(t["coeff"]), tuple(atoms)))
        return NCPoly(pres, raw)

    def __str__(self):
        from .render import poly_str
        return poly_str(self)

    def __repr__(self):
        return f"NCPoly<{self.pres.name}>({self})"


# ---------------------------------------------------------------------------
# tensor powers


def leg_name(g: str, leg: int) -> str:
    return f"{g}@{leg}"


def _on_leg(word, leg: int):
    return tuple((leg_name(g, leg), e) for g, e in word)


def tensor_square(pres: Presentation) -> Presentation:
    """Tensor square: one renamed copy of the presentation per leg, the
    legs commuting, leg-1 generators first.  Built once per presentation
    and kept on it."""
    if pres._square is not None:
        return pres._square
    legs = (1, 2)
    gens = [(leg_name(g, leg), k) for leg in legs for g, k in pres.generators]
    rules = {}
    for leg in legs:
        for (hi, lo), (kappa, corr) in pres.rules.items():
            new_corr = tuple((c, _on_leg(w, leg)) for c, w in corr)
            rules[(leg_name(hi, leg), leg_name(lo, leg))] = (kappa, new_corr)
    one = FracScalar.one()
    ordinaries = [g for g, k in pres.generators if k != SCALING]
    for hi in ordinaries:
        for lo in ordinaries:
            rules[(leg_name(hi, 2), leg_name(lo, 1))] = (one, ())
    scaling = {(leg_name(s, leg), leg_name(x, leg)): mu
               for (s, x), mu in pres.scaling.items() for leg in legs}
    pres._square = Presentation(f"{pres.name}^x2", gens, rules, scaling,
                                lambda_one=pres.lambda_one)
    return pres._square


def tensor(x: NCPoly, y: NCPoly, target: Presentation) -> NCPoly:
    """x (x) y in target, the tensor square of their presentation.

    Leg-1 generators precede leg-2 ones and the legs commute, so each word
    of x renamed onto leg 1 followed by each word of y renamed onto leg 2
    is already normal, and distinct pairs give distinct words.
    """
    right = [(_on_leg(w2, 2), c2) for w2, c2 in y.terms.items()]
    terms = {}
    for w1, c1 in x.terms.items():
        w1 = _on_leg(w1, 1)
        for w2, c2 in right:
            terms[w1 + w2] = c1 * c2
    return NCPoly._from_normal(target, terms)


def split_legs(word, nlegs: int):
    """Split a tensor-presentation word into per-leg words."""
    legs = [[] for _ in range(nlegs)]
    for g, e in word:
        base, _, leg = g.rpartition("@")
        legs[int(leg) - 1].append((base, e))
    return tuple(tuple(l) for l in legs)


# ---------------------------------------------------------------------------
# algebra homomorphisms


def hom_apply(poly: NCPoly, scalar, image):
    """Extend a map on atoms to an algebra map, applied to poly.

    image(g, e) is the image of the atom g^e and scalar(c) is c times the
    target's unit: NCPoly.scalar for a polynomial algebra, c times the
    identity for matrices, c itself for scalars.  Each atom's image is
    built once per call.
    """
    powers = {}     # atom -> its image
    result = None
    for word, coeff in poly.terms.items():
        factor = scalar(coeff)
        for atom in word:
            power = powers.get(atom)
            if power is None:
                power = powers[atom] = image(*atom)
            factor = factor * power
        result = factor if result is None else result + factor
    return scalar(0) if result is None else result
