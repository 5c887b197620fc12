"""Exhaustive confluence check for the normal-ordering rules.

For every word up to a given length, explores *all* orders in which
reducible positions can be rewritten (not just the engine's leftmost
strategy) and verifies that every maximal rewrite sequence reaches the
same polynomial value.  The distinct values reachable from a word are
kept in the order they were first reached, so a counterexample report is
the same in every run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rewrite import (GuardExceeded, NCPoly, Presentation, _apply_event,
                      term_guard)


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


class ConfluenceReport:
    def __init__(self, presentation: str, max_len: int, words_checked: int = 0,
                 confluent: bool = True, counterexamples: list | None = None):
        self.presentation, self.max_len = presentation, max_len
        self.words_checked, self.confluent = words_checked, confluent
        self.counterexamples = [] if counterexamples is None \
            else counterexamples

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


def _tick(budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise GuardExceeded("confluence search exceeded the term guard")


def _normal_forms(pres, atoms, memo, budget):
    """The distinct polynomials reachable from a single word by maximal
    rewriting, in the order they were first reached.

    Rewriting is linear, so the forms of a sum are sums of the forms of
    its terms.  A word's forms do not depend on the word around it, so one
    memo, shared across the whole check, explores each word once.
    """
    if atoms in memo:
        return memo[atoms]
    events = _events(pres, atoms)
    if not events:
        memo[atoms] = [NCPoly._from_normal(pres, {atoms: 1})]
        return memo[atoms]
    forms = []
    for ev in events:
        _tick(budget)
        choice_sets = [[f * c for f in _normal_forms(pres, w, memo, budget)]
                       for c, w in _apply_event(pres, 1, atoms, ev)]
        for combo in itertools.product(*choice_sets):
            _tick(budget)
            total = sum(combo, NCPoly.zero(pres))
            if not any(total == f for f in forms):
                forms.append(total)
    memo[atoms] = forms
    return forms


def confluence_check(pres: Presentation, max_len: int = 3) -> ConfluenceReport:
    """Check that every rewrite order agrees on all words up to max_len."""
    letters = _letters(pres)
    report = ConfluenceReport(pres.name, max_len)
    budget = [term_guard()]
    memo = {}
    for length in range(2, max_len + 1):
        for word in itertools.product(letters, repeat=length):
            report.words_checked += 1
            forms = _normal_forms(pres, word, memo, budget)
            if len(forms) > 1:
                report.confluent = False
                report.counterexamples.append({
                    "word": [[g, str(e)] for g, e in word],
                    "forms": [str(f) for f in forms[:2]],
                })
    return report
