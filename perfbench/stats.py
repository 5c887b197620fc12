"""Small statistics helpers shared by run.py and its tests."""

from __future__ import annotations

import math
import re
from fractions import Fraction


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    the closest ranks, as numpy's default and statistics' 'inclusive'
    method give it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100)



def kind_growth(items) -> float:
    """Summed time of the items at the largest size over the summed time of
    the same kinds of item one size step smaller."""
    top = max(it["size"] for it in items)
    kinds = {it["kind"] for it in items if it["size"] == top}
    return (sum(it["t"] for it in items if it["size"] == top)
            / sum(it["t"] for it in items
                  if it["size"] == top - 1 and it["kind"] in kinds))


_J = re.compile(r"(?<=[(,])j=([0-9]+(?:/[0-9]+)?)")
_Z = re.compile(r"(?<=[(,])z=[0-9/]+,?")


def check_growth(items) -> float:
    """Per family of checks that runs at several spins (the check name with
    its j and z removed): time at its largest j over time at the next
    smaller j, summed over families."""
    fams = {}
    for it in items:
        m = _J.search(it["label"])
        if m:
            fam = _Z.sub("", _J.sub("", it["label"]))
            fams.setdefault(fam, {}).setdefault(Fraction(m.group(1)), []).append(it["t"])
    top = below = 0.0
    for by_j in fams.values():
        if len(by_j) >= 2:
            hi, lo = sorted(by_j)[-1], sorted(by_j)[-2]
            top += sum(by_j[hi])
            below += sum(by_j[lo])
    return top / below
