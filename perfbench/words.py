"""Seeded expression stream for the normal_order_stream workload.

Each expression is a product of 3 to 8 letters, over the coordinate algebra
A (letters a, a^-1, b, c, d, D^1/2, D^-1/2) or the dual algebra U (letters
e, f, k^1/2, k^-1/2), half of the stream over each.  Letters are drawn
uniformly; a letter that would push the a-degree (a and a^-1 together) or
the d-degree in A, or the e- or f-degree in U, above DEGREE_CAP is drawn
again.  Without the cap one word decides the pass: e^5 f^5 alone takes
about 17 s, e^4 f^4 under 1 s.

Even with the cap, the cost of a word grows about twofold with each
correction-producing inversion (an e left of an f in U, a d left of an a or
a^-1 in A), and words with many inversions are rare, so a plain random
sample of 1,000 words per algebra swings by 10-15 % in total cost from seed
to seed.  The stream is therefore stratified by inversion count: it holds a
fixed number of words per (algebra, inversion count), namely the stratum's
natural share under the plain sampler times WORDS_PER_ALGEBRA, rounded.
The seed picks which words fill each stratum and their order.  A stratum
whose share rounds to fewer than MIN_STRATUM words holds none: its one or
two words would each be 5-15 % of the pass, so the seed's pick of them
would decide the pass time (a stream cost 20 % more for one seed than for
another).  Those are the words with the most inversions, and the ladder
below measures the costliest of them.

The degree step is measured apart from the stream, on a fixed ladder: the
word x^d y^d at d = 3 and d = 4 for x, y = e, f in U and d, a^-1 in A,
among the costliest words the cap allows.  Random words of one degree vary
too much in cost for their times to give a steady ratio.
"""

from __future__ import annotations

import random
from collections import Counter

LETTERS = {
    "A": ("a", "a^-1", "b", "c", "d", "D^1/2", "D^-1/2"),
    "U": ("e", "f", "k^1/2", "k^-1/2"),
}
# letter -> the generator whose degree it counts towards
CAPPED = {
    "A": {"a": "a", "a^-1": "a", "d": "d"},
    "U": {"e": "e", "f": "f"},
}
# (left, right) letters whose out-of-order adjacency produces a correction term
INVERSION = {
    "A": (("d",), ("a", "a^-1")),
    "U": (("e",), ("f",)),
}
# per algebra, the letters x, y of the ladder word x^d y^d
LADDER = {"U": ("e", "f"), "A": ("d", "a^-1")}
DEGREE_CAP = 4
MIN_LEN, MAX_LEN = 3, 8
WORDS_PER_ALGEBRA = 1000
MIN_STRATUM = 5
# draws used to estimate each stratum's natural share; fixed, so the quotas
# do not depend on the workload seed
QUOTA_DRAWS = 20_000
QUOTA_SEED = 0


def draw_word(rng: random.Random, alg: str) -> tuple[str, ...]:
    """One word of the plain (unstratified) sampler."""
    letters, capped = LETTERS[alg], CAPPED[alg]
    length = rng.randint(MIN_LEN, MAX_LEN)
    degree = Counter()
    word = []
    while len(word) < length:
        letter = rng.choice(letters)
        gen = capped.get(letter)
        if gen is not None:
            if degree[gen] >= DEGREE_CAP:
                continue
            degree[gen] += 1
        word.append(letter)
    return tuple(word)


def degree(alg: str, word) -> int:
    """The larger of the word's two capped degrees."""
    counts = Counter(CAPPED[alg][x] for x in word if x in CAPPED[alg])
    return max(counts.values(), default=0)


def inversions(alg: str, word) -> int:
    left, right = INVERSION[alg]
    seen = total = 0
    for x in word:
        if x in left:
            seen += 1
        elif x in right:
            total += seen
    return total


def quotas(alg: str) -> dict[int, int]:
    """Words per inversion count: natural share times WORDS_PER_ALGEBRA,
    for the counts whose share comes to at least MIN_STRATUM words."""
    rng = random.Random(QUOTA_SEED)
    hist = Counter(inversions(alg, draw_word(rng, alg))
                   for _ in range(QUOTA_DRAWS))
    out = {k: round(n * WORDS_PER_ALGEBRA / QUOTA_DRAWS)
           for k, n in sorted(hist.items())}
    return {k: q for k, q in out.items() if q >= MIN_STRATUM}


def stream(seed: int) -> list[dict]:
    """The workload's expressions for one seed, in the order they run."""
    rng = random.Random(seed)
    items = []
    for alg in ("A", "U"):
        need = quotas(alg)
        while any(need.values()):
            word = draw_word(rng, alg)
            k = inversions(alg, word)
            if need.get(k):
                need[k] -= 1
                items.append({"alg": alg, "expr": "*".join(word),
                              "degree": degree(alg, word), "inversions": k})
    rng.shuffle(items)
    return items


def ladder() -> list[dict]:
    """The degree ladder, each algebra's degree-3 word next to its degree-4
    word so that both see the same machine state."""
    items = []
    for alg, (x, y) in LADDER.items():
        for d in (DEGREE_CAP - 1, DEGREE_CAP):
            word = (x,) * d + (y,) * d
            items.append({"alg": alg, "expr": "*".join(word), "degree": d,
                          "inversions": inversions(alg, word)})
    return items
