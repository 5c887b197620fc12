"""Exhaustive confluence check for the normal-ordering rules.

For every word up to a given length, explores *all* orders in which
reducible positions can be rewritten (not just the engine's leftmost
strategy) and verifies that every maximal rewrite sequence reaches the
same polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rewrite import (GuardExceeded, NCPoly, Presentation, _apply_event,
                      term_guard)
from .scalars import FracScalar, HalfLaurent, RadScalar, scalar_is_zero


def _coeff_key(c):
    """Hashable structural key for a coefficient (collisions impossible;
    distinct structures may represent equal values, which only costs a
    recomputation)."""
    if isinstance(c, (int, Fraction, HalfLaurent)):
        return c
    if isinstance(c, FracScalar):
        return ("frac", c.num, c.den)
    if isinstance(c, RadScalar):
        return ("rad", tuple((rad, _coeff_key(co)) for co, rad in c.terms))
    raise TypeError(f"unexpected coefficient type {type(c).__name__}")


def _coeff_from_key(k):
    if isinstance(k, tuple) and k and k[0] == "frac":
        return FracScalar(k[1], k[2])
    if isinstance(k, tuple) and k and k[0] == "rad":
        return RadScalar([(_coeff_from_key(fk), rad) for rad, fk in k[1]])
    return k


def _events(pres, atoms):
    """All reducible positions in a word, not just the leftmost."""
    out = []
    for i in range(len(atoms) - 1):
        g1, g2 = atoms[i][0], atoms[i + 1][0]
        if g1 == g2:
            out.append(("merge", i))
        elif pres.order[g1] > pres.order[g2]:
            out.append(("swap", i))
    return out


def _collect(terms):
    """Structurally merge like terms; returns a canonical hashable state
    of (atoms, coeff_key) pairs."""
    acc = {}
    for c, atoms in terms:
        atoms = tuple((g, e) for g, e in atoms if e)
        cur = acc.get(atoms)
        cur = c if cur is None else cur + c
        if scalar_is_zero(cur):
            acc.pop(atoms, None)
        else:
            acc[atoms] = cur
    # atoms are unique dict keys, so they alone fix the order
    return tuple(sorted(((atoms, _coeff_key(c)) for atoms, c in acc.items()),
                        key=lambda t: t[0]))


@dataclass
class ConfluenceReport:
    presentation: str
    max_len: int
    words_checked: int = 0
    confluent: bool = True
    counterexamples: list = field(default_factory=list)

    def to_json(self):
        return {"presentation": self.presentation, "max_len": self.max_len,
                "words_checked": self.words_checked,
                "confluent": self.confluent,
                "counterexamples": self.counterexamples}


def _letters(pres):
    letters = []
    for g, kind in pres.generators:
        if pres.is_scaling(g):
            letters.append((g, Fraction(1, 2)))
            letters.append((g, Fraction(-1, 2)))
        else:
            letters.append((g, 1))
            if pres.is_invertible(g):
                letters.append((g, -1))
    return letters


def _scale_state(state, coeff):
    return _collect([(coeff * _coeff_from_key(k), w) for w, k in state])


def _add_states(states):
    return _collect([(_coeff_from_key(k), w) for s in states for w, k in s])


def _normal_forms(pres, atoms, memo, budget):
    """All polynomials reachable from a single word by maximal rewriting.

    Rewriting is linear, so the forms reachable from a sum are sums of
    forms reachable from each term; memoizing per word avoids exploring
    interleavings of independent terms, which are all equivalent.
    """
    atoms = tuple((g, e) for g, e in atoms if e)
    if atoms in memo:
        return memo[atoms]
    events = _events(pres, atoms)
    if not events:
        memo[atoms] = {((atoms, _coeff_key(1)),)}
        return memo[atoms]
    forms = set()
    for ev in events:
        budget[0] -= 1
        if budget[0] < 0:
            raise GuardExceeded("confluence search exceeded the term guard")
        choice_sets = []
        for c, w in _apply_event(pres, 1, atoms, ev):
            choice_sets.append([_scale_state(f, c)
                                for f in _normal_forms(pres, w, memo, budget)])
        for combo in itertools.product(*choice_sets):
            budget[0] -= 1
            if budget[0] < 0:
                raise GuardExceeded("confluence search exceeded the term guard")
            forms.add(_add_states(combo))
    memo[atoms] = forms
    return forms


def _state_poly(pres, state) -> NCPoly:
    """The polynomial of a state, whose words are normal."""
    return NCPoly._from_normal(pres, {w: _coeff_from_key(k) for w, k in state})


def _states_equal(pres, s1, s2) -> bool:
    return (_state_poly(pres, s1) - _state_poly(pres, s2)).is_zero()


def confluence_check(pres: Presentation, max_len: int = 3) -> ConfluenceReport:
    """Check that every rewrite order agrees on all words up to max_len."""
    letters = _letters(pres)
    report = ConfluenceReport(pres.name, max_len)
    budget = [term_guard()]
    for length in range(2, max_len + 1):
        for word in itertools.product(letters, repeat=length):
            report.words_checked += 1
            memo = {}
            forms = list(_normal_forms(pres, tuple(word), memo, budget))
            base = forms[0]
            for other in forms[1:]:
                if not _states_equal(pres, base, other):
                    report.confluent = False
                    report.counterexamples.append({
                        "word": [[g, str(e)] for g, e in word],
                        "forms": [str(_state_poly(pres, f))
                                  for f in (base, other)],
                    })
                    break
    return report
