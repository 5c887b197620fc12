"""Seed-independent correctness check for normal_order_stream.

A normal form is correct only if it denotes the same element as the raw
product of letters it came from.  Every algebra map preserves that, so the
check represents both sides through gamma_rep(j, j, "rational") at j = 1
and j = 2 (integer spin, because k^1/2 has no half-integer-spin image).
U words are represented directly.  A words go through three maps into U:
pi_apply(+), pi_apply(-), and the coproduct followed by pi(+) on the first
leg and pi(-) on the second, represented on the tensor square of the spin-j
space.  pi(+) kills c and pi(-) kills b, so on their own they see nothing
of a word that holds both letters; the coproduct sends b and c to
f (x) k^-1 and k (x) e, which no map kills, so every A word is seen.  a^-1
has no polynomial coproduct: its matrix there is the inverse of a's.

The program supplies the matrix of each single letter.  Entries are then
evaluated exactly modulo the prime P at Q^1/2 = POINT and lambda = 1 (the
image of pi lives at lambda = 1).  Both sides are applied to one fixed
pseudo-random vector and compared as exact residues, so a wrong normal form
would have to vanish at the point and on the vector modulo P to pass.
"""

from __future__ import annotations

import random
from fractions import Fraction

P = 2 ** 61 - 1
POINT = 987_654_321
SPINS = (1, 2)
VECTOR_SEED = 0


def eval_scalar(x) -> int:
    """Residue of an exact scalar at Q^1/2 = POINT, lambda^1/2 = 1."""
    from qexpmap.scalars import FracScalar, HalfLaurent
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, P) % P
    if isinstance(x, HalfLaurent):
        return sum(eval_scalar(c) * pow(POINT, u, P)
                   for (u, _v), c in x.terms.items()) % P
    if isinstance(x, FracScalar):
        return eval_scalar(x.num) * pow(eval_scalar(x.den), -1, P) % P
    raise TypeError(f"no residue for {type(x).__name__}")


def residues(m) -> list[list[int]]:
    return [[eval_scalar(m[r, c]) for c in range(m.ncols)]
            for r in range(m.nrows)]


def kron(a, b):
    return [[x * y % P for x in ra for y in rb] for ra in a for rb in b]


def inverse(m):
    """Inverse modulo P by Gauss-Jordan elimination."""
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, P)
        aug[col] = [x * inv % P for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % P for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _letter_name(gen: str, exp: Fraction, scaling: bool) -> tuple[str, int]:
    """The unit letter and its count that make up gen^exp."""
    if scaling:
        count = int(2 * exp)
        return (f"{gen}^1/2" if count > 0 else f"{gen}^-1/2"), abs(count)
    count = int(exp)
    return (gen if count > 0 else f"{gen}^-1"), abs(count)


def letter_matrices(alg: str, via, j: int, letters) -> dict:
    """Residue matrix of each letter.  via is None for U, "+" or "-" for
    pi_apply on A, and "coproduct" for pi(+) (x) pi(-) after the coproduct."""
    from qexpmap.algebra_a import a_parse, apq_presentation, coproduct
    from qexpmap.algebra_u import gamma_rep, pi_apply, u_parse, u_rep_apply
    from qexpmap.rewrite import NCPoly, split_legs
    rep = gamma_rep(j, j, "rational")

    def image(sign, elem):
        return residues(u_rep_apply(rep, pi_apply(sign, elem)))

    if alg == "U":
        return {x: residues(u_rep_apply(rep, u_parse(x))) for x in letters}
    if via != "coproduct":
        return {x: image(via, a_parse(x)) for x in letters}
    pres = apq_presentation()
    mats = {}
    for x in letters:
        if x == "a^-1":
            continue
        total = [[0] * rep.dim ** 2 for _ in range(rep.dim ** 2)]
        for word, coeff in coproduct(a_parse(x)).terms.items():
            w1, w2 = split_legs(word, 2)
            m = kron(image("+", NCPoly(pres, [(1, w1)])),
                     image("-", NCPoly(pres, [(1, w2)])))
            c = eval_scalar(coeff)
            total = [[(t + c * y) % P for t, y in zip(rt, ry)]
                     for rt, ry in zip(total, m)]
        mats[x] = total
    if "a^-1" in letters:
        mats["a^-1"] = inverse(mats["a"])
    return mats


class RepCheck:
    """Letter matrices of one algebra under one map at one spin, and the
    check."""

    def __init__(self, alg: str, via, j: int, letters):
        self.label = f"{alg} via {via} at j={j}"
        self.mats = letter_matrices(alg, via, j, letters)
        self.scaling = {"A": ("D",), "U": ("k",)}[alg]
        dim = len(next(iter(self.mats.values())))
        rng = random.Random(VECTOR_SEED)
        self.vector = [rng.randrange(P) for _ in range(dim)]
        self._words = {}

    def _apply(self, letters):
        """The product of the letters' matrices, applied to the vector."""
        v = self.vector
        for letter in reversed(letters):
            v = [sum(x * y for x, y in zip(row, v)) % P
                 for row in self.mats[letter]]
        return v

    def _word(self, word):
        cached = self._words.get(word)
        if cached is None:
            letters = []
            for gen, exp in word:
                name, count = _letter_name(gen, Fraction(exp), gen in self.scaling)
                letters.extend([name] * count)
            cached = self._words[word] = self._apply(letters)
        return cached

    def holds(self, raw_letters, normal_form) -> bool:
        lhs = self._apply(raw_letters)
        rhs = [0] * len(lhs)
        for word, coeff in normal_form.terms.items():
            c = eval_scalar(coeff)
            rhs = [(x + c * y) % P for x, y in zip(rhs, self._word(word))]
        return lhs == rhs


def checkers(letters_by_alg) -> dict:
    """alg -> list of RepCheck, one per (map, spin) the algebra needs."""
    maps = {"A": ("+", "-", "coproduct"), "U": (None,)}
    return {alg: [RepCheck(alg, via, j, letters)
                  for via in maps[alg] for j in SPINS]
            for alg, letters in letters_by_alg.items()}
