"""Noncommutative normal-ordering engine over a presented algebra.

A presentation fixes an ordered list of generators (ordinary, invertible
or scaling) and one swap rule hi*lo -> kappa*lo*hi + correction for each
pair out of normal order, a scaling generator's letter being its half
power.  Normal ordering rewrites any word into the PBW normal form, one
step at a time at the leftmost reducible pair, depth first.  A pair whose
rule has no correction swaps whole runs: g1^e1 g2^e2, runs of m and n
letters (m = e1, or 2*e1 for a scaling g1), is m*n swaps of one letter
past another, each multiplying by kappa (kappa^-1 for an inverse letter,
as the signs of m and n count), so one step gives kappa^(m*n) g2^e2 g1^e1.
Only a pair with a correction peels one letter off each run, by the pair's
entry in ``Presentation.unit_rules``, built with the presentation.  A
presentation is a singleton that no ``memo.clear()`` forgets: polynomials
of two presentation objects do not mix.  Like terms
merge only when a term reaches a normal word (the result dict of
``normal_order_terms``), so every rewrite path is walked on its own.
Termination is enforced by a term-count guard rather than a proof;
``confluence_check`` validates order-independence empirically.

Every term the engine sees holds one invariant: a nonzero coefficient and
a tuple word of atoms the presentation allows, none with a zero exponent
and each exponent an ``int`` unless it is a half power (``scalars.rational``).
NCPoly's constructor establishes it once, where terms come in from
outside (``_validate_atoms``, then the merge of like terms).  Products of
nonzero scalars are nonzero and ``_apply_event`` merges exponents by the
same rule, dropping those that cancel, so nothing re-checks.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import os
from fractions import Fraction

from .scalars import (RANK, FracScalar, HalfLaurent, lift_scalar, rational,
                      scalar_is_zero, scalar_to_json, scalar_from_json)

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
    """Ordered generators + one swap rule per out-of-order pair.

    rules maps (hi, lo), hi after lo in normal order, to (kappa,
    correction) for hi*lo -> kappa*lo*hi + correction, correction a tuple
    of (coeff, atoms).  A scaling generator's letter is its half power.
    Its pairs, and every pair whose hi is invertible, have no correction.
    A rule without a correction swaps whole runs, hi^m lo^n ->
    kappa^(m*n) lo^n hi^m for runs of m and n letters, as that is m*n
    one-letter swaps, each multiplying by kappa.

    unit_rules maps (hi, lo, s) to hi * lo^s as (coeff, atoms) terms
    already in lower order, for every pair whose rule has a correction:
    s = +1 always, and s = -1 when lo is invertible.  The constructor
    builds the whole table, so a Presentation holds no state filled in
    after it is made.
    """

    def __init__(self, name, generators, rules, lambda_one=False):
        self.name = name
        self.generators = tuple(generators)
        self.order = {g: i for i, (g, _) in enumerate(self.generators)}
        self.kind = dict(self.generators)
        self.letters = {g: 2 if self.is_scaling(g) else 1 for g in self.kind}
        self.rules = dict(rules)
        self.lambda_one = lambda_one
        self.unit_rules = {}
        for lo, hi in itertools.combinations(self.order, 2):
            rule = self.rules.get((hi, lo))
            if rule is None:
                raise ValueError(f"missing swap rule for pair ({hi}, {lo})")
            kappa, corr = rule
            if not corr:
                continue
            if SCALING in (self.kind[hi], self.kind[lo]):
                raise ValueError(f"scaling pair ({hi}, {lo}) has a correction")
            if self.is_invertible(hi):
                raise ValueError(f"pair ({hi}, {lo}) has a correction and "
                                 f"an invertible {hi}")
            self.unit_rules[(hi, lo, 1)] = ((kappa, ((lo, 1), (hi, 1))),
                                            *corr)
            if self.is_invertible(lo):
                # hi lo = kappa lo hi + C gives
                # hi lo^-1 = kappa^-1 lo^-1 hi - kappa^-1 lo^-1 C lo^-1
                inv = lift_scalar(kappa, FracScalar).inverse()
                xi = ((lo, -1),)
                self.unit_rules[(hi, lo, -1)] = (
                    (inv, ((lo, -1), (hi, 1))),
                    *((-(inv * c), xi + w + xi) for c, w in corr))

    def is_scaling(self, g) -> bool:
        return self.kind[g] == SCALING

    def is_invertible(self, g) -> bool:
        return self.kind[g] in (INVERTIBLE, SCALING)


# ---------------------------------------------------------------------------
# the reduction engine


def _find_event(pres, atoms):
    """First reducible position i (a merge or a swap of i, i + 1), else None."""
    for i in range(len(atoms) - 1):
        g1, g2 = atoms[i][0], atoms[i + 1][0]
        if g1 == g2 or pres.order[g1] > pres.order[g2]:
            return i
    return None


def _apply_event(pres, coeff, atoms, i):
    """Expand the reduction step at position i: a merge when atoms i and
    i + 1 share a generator, else a swap of the two runs, or of one letter
    of each when the pair's rule has a correction.  Such a pair's g1 is
    never invertible (Presentation rejects it), so e1 > 0 and the peeled
    letter is g1 itself.  Returns (coeff, atoms) terms."""
    (g1, e1), (g2, e2) = atoms[i], atoms[i + 1]
    if g1 == g2:
        e = e1 + e2
        mid = ((g1, rational(e)),) if e else ()
        return [(coeff, atoms[:i] + mid + atoms[i + 2:])]

    kappa, corr = pres.rules[(g1, g2)]
    if not corr:
        # m*n swaps of one letter past another (see the module docstring)
        n = e1 * pres.letters[g1] * e2 * pres.letters[g2]
        return [(coeff * kappa ** n,
                 atoms[:i] + ((g2, e2), (g1, e1)) + atoms[i + 2:])]

    # a rule with a correction: peel one letter off each run
    s2 = 1 if e2 > 0 else -1
    left = atoms[:i] + (((g1, e1 - 1),) if e1 != 1 else ())
    right = (((g2, e2 - s2),) if e2 != s2 else ()) + atoms[i + 2:]
    return [(coeff * c, left + w + right)
            for c, w in pres.unit_rules[(g1, g2, s2)]]


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
        i = _find_event(pres, atoms)
        if i is None:
            _add_term(result, atoms, coeff)
        else:
            stack.extend(_apply_event(pres, coeff, atoms, i))
    return result


def _add_term(terms, word, c):
    """terms[word] += c, where a missing word is 0 and a zero sum drops it."""
    acc = terms.get(word)
    if acc is not None:
        c = acc + c
    if scalar_is_zero(c):
        terms.pop(word, None)
    else:
        terms[word] = c


def _exponent(pres, g, e):
    """e by scalars.rational, once g is a generator of pres that may take
    the power e up to its sign; RewriteError otherwise."""
    if g not in pres.order:
        raise RewriteError(f"unknown generator {g!r}")
    e = rational(e)
    if pres.is_scaling(g):
        if (2 * e).denominator != 1:
            raise RewriteError(f"exponent {e} of scaling {g} not in (1/2)Z")
    elif e.denominator != 1:
        raise RewriteError(f"fractional power of non-scaling generator {g}")
    return e


def _validate_atoms(pres, atoms):
    """The atoms without zero powers, exponents by _exponent, once each is
    one the presentation allows; RewriteError otherwise."""
    out = []
    for g, e in atoms:
        e = _exponent(pres, g, e)
        if e < 0 and not pres.is_invertible(g):
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

    Words are tuples of (generator, exponent), each exponent an int unless
    it is a half power of a scaling generator.  The terms are always in PBW
    normal form, a dict from normal word to nonzero coefficient: the
    constructor validates each raw (coeff, atoms) term, merges like terms
    and normal-orders the sum once, and arithmetic relies on that.
    """

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms):
        merged = {}
        for c, atoms in terms:
            _add_term(merged, _validate_atoms(pres, atoms), c)
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
        return NCPoly(pres, [(1, ((name, exp),))])

    # -- predicates

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic

    def _coerce(self, other):
        """other as a polynomial of this presentation, None outside the tower."""
        if isinstance(other, NCPoly):
            if other.pres is not self.pres:
                raise RewriteError("mixing polynomials of different presentations")
            return other
        if type(other) not in RANK:
            return None
        return NCPoly.scalar(self.pres, other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(terms, w, c)
        return NCPoly._from_normal(self.pres, terms)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly._from_normal(
            self.pres, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
        inv_c = (rational(Fraction(1, coeff))
                 if isinstance(coeff, (int, Fraction)) else coeff.inverse())
        inv_word = tuple((g, -e) for g, e in reversed(word))
        return NCPoly(self.pres, [(inv_c, inv_word)])

    def __eq__(self, other):
        other = self._coerce(other)
        # both are normal forms, so equal values have equal term dicts
        return NotImplemented if other is None else self.terms == other.terms

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
            dpow = 0
            body = []
            for g, e in word:
                if scal_gens and g == scal_gens[0]:
                    dpow = e
                else:
                    body.append([g, e if type(e) is int else str(e)])
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
            atoms = [(g, e) for g, e in t["word"]]
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


@functools.lru_cache(maxsize=None)
def tensor_square(pres: Presentation) -> Presentation:
    """Tensor square: one renamed copy of the presentation per leg, the
    legs commuting, leg-1 generators first.  One object per presentation
    for the whole process, like the presentation itself."""
    legs = (1, 2)
    gens = [(leg_name(g, leg), k) for leg in legs for g, k in pres.generators]
    rules = {}
    for leg in legs:
        for (hi, lo), (kappa, corr) in pres.rules.items():
            new_corr = tuple((c, _on_leg(w, leg)) for c, w in corr)
            rules[(leg_name(hi, leg), leg_name(lo, leg))] = (kappa, new_corr)
    # the legs commute, by a 1 of the type a same-leg kappa has
    one, scaling_one = FracScalar.one(), HalfLaurent.one()
    for (hi, k_hi), (lo, k_lo) in itertools.product(pres.generators, repeat=2):
        kappa = scaling_one if SCALING in (k_hi, k_lo) else one
        rules[(leg_name(hi, 2), leg_name(lo, 1))] = (kappa, ())
    return Presentation(f"{pres.name}^x2", gens, rules,
                        lambda_one=pres.lambda_one)


def tensor(x: NCPoly, y: NCPoly) -> NCPoly:
    """x (x) y in tensor_square of their presentation.

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
    return NCPoly._from_normal(tensor_square(x.pres), terms)


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
