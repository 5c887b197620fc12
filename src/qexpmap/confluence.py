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
                      _find_event, term_guard)


def _events(pres, atoms):
    """All reducible positions in a word, not just the leftmost."""
    return [i for i in range(len(atoms) - 1)
            if _find_event(pres, atoms[i:i + 2]) is not None]


class ConfluenceReport:
    def __init__(self, presentation: str, max_len: int, words_checked: int = 0,
                 counterexamples: list | None = None):
        self.presentation, self.max_len = presentation, max_len
        self.words_checked = words_checked
        self.counterexamples = [] if counterexamples is None \
            else counterexamples

    @property
    def confluent(self) -> bool:
        return not self.counterexamples

    def to_json(self):
        return {"presentation": self.presentation, "max_len": self.max_len,
                "words_checked": self.words_checked,
                "confluent": self.confluent,
                "counterexamples": self.counterexamples}


def _letters(pres):
    """Each generator's unit power (half power for a scaling generator),
    then its inverse if it has one."""
    half = Fraction(1, 2)
    return [(g, s * half if pres.is_scaling(g) else s)
            for g, _ in pres.generators for s in (1, -1)
            if s == 1 or pres.is_invertible(g)]


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
    for i in events:
        _tick(budget)
        choice_sets = [[f * c for f in _normal_forms(pres, w, memo, budget)]
                       for c, w in _apply_event(pres, 1, atoms, i)]
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
                report.counterexamples.append({
                    "word": [[g, str(e)] for g, e in word],
                    "forms": [str(f) for f in forms[:2]],
                })
    return report
