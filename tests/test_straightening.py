"""Closed-form straightening formulas as oracles for the rewrite engine.

Each right-hand side is a sum of words that are already in normal order,
built by NCPoly products that merge powers of one generator but never
swap two generators, so no commutation rule of the engine shapes it.
"""

from fractions import Fraction

import pytest

from qexpmap import rewrite
from qexpmap.algebra_a import a_parse, agen, apq_presentation
from qexpmap.algebra_u import u_parse, u_presentation, ugen
from qexpmap.rewrite import NCPoly
from qexpmap.scalars import FracScalar, HalfLaurent, Q_pow, qfact


def without_swaps(monkeypatch, build, *args):
    """build(*args), failing if the rewrite engine swaps two generators."""
    find_event = rewrite._find_event

    def merges_only(pres, atoms):
        i = find_event(pres, atoms)
        assert i is None or atoms[i][0] == atoms[i + 1][0], atoms
        return i

    with monkeypatch.context() as patch:
        patch.setattr(rewrite, "_find_event", merges_only)
        return build(*args)


def k_binomial(c, t):
    """Lusztig's [K; c; t] = prod_{s=1..t} (K Q^(c-s+1) - K^-1 Q^(-c+s-1))
    / (Q^s - Q^-s) with K = k^2."""
    pres = u_presentation()
    out = NCPoly.one(pres)
    for s in range(1, t + 1):
        num = (NCPoly.scalar(pres, Q_pow(2 * (c - s + 1))) * ugen("k", 2)
               - NCPoly.scalar(pres, Q_pow(2 * (s - c - 1))) * ugen("k", -2))
        out = out * num * FracScalar(HalfLaurent.one(),
                                     Q_pow(2 * s) - Q_pow(-2 * s))
    return out


def e_f_straightened(a, b):
    """e^a f^b = sum_t [a]! [b]! / ([a-t]! [b-t]!) f^(b-t) [K; 2t-a-b; t]
    e^(a-t): Lusztig, Introduction to Quantum Groups (1993), 3.1, with
    K = k^2 and q = Q, in ordinary instead of divided powers."""
    pres = u_presentation()
    total = NCPoly.zero(pres)
    for t in range(min(a, b) + 1):
        coeff = FracScalar(qfact(a) * qfact(b), qfact(a - t) * qfact(b - t))
        word = (ugen("f") ** (b - t) * k_binomial(2 * t - a - b, t)
                * ugen("e") ** (a - t))
        total = total + word * coeff
    return total


def d_a_straightened(n):
    """d a^n = a^n d + c_n a^(n-1) b c with c_n = p^-n q^(1-n) - q."""
    p, q = HalfLaurent.monomial(1, 2, 2), HalfLaurent.monomial(1, 2, -2)
    c_n = p ** -n * q ** (1 - n) - q
    a = agen("a")
    return (a ** n * agen("d") + NCPoly.scalar(apq_presentation(), c_n)
            * a ** (n - 1) * agen("b") * agen("c"))


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_e_power_times_f_power(a, b, monkeypatch):
    want = without_swaps(monkeypatch, e_f_straightened, a, b)
    assert u_parse(f"e^{a}*f^{b}") == want


@pytest.mark.parametrize("n", range(1, 8))
def test_d_times_a_power(n, monkeypatch):
    """By induction on n.  At n = 1 it is the defining relation
    d a = a d + (p^-1 - q) b c.  The relations b a = q^-1 a b and
    c a = p^-1 a c give b c a = p^-1 q^-1 a b c, so
    d a^(n+1) = (a^n d + c_n a^(n-1) b c) a
              = a^(n+1) d + ((p^-1 - q) + p^-1 q^-1 c_n) a^n b c,
    that is c_(n+1) = (p^-1 - q) + p^-1 q^-1 c_n, which
    c_n = p^-n q^(1-n) - q solves."""
    want = without_swaps(monkeypatch, d_a_straightened, n)
    assert a_parse(f"d*a^{n}") == want


def gaussian_binomial(m, k, r):
    """[m choose k]_r by the Pascal rule [m+1, k] = r^k [m, k] + [m, k-1]."""
    if k < 0 or k > m:
        return HalfLaurent.zero()
    if k == 0 or k == m:
        return HalfLaurent.one()
    return r ** k * gaussian_binomial(m - 1, k, r) \
        + gaussian_binomial(m - 1, k - 1, r)


def d_power_a_power_straightened(m, n):
    """d^m a^n = sum_k C_k a^(n-k) (b c)^k d^(m-k) with r = p^-1 q^-1 and
    C_k = q^k [m choose k]_r prod_{i<k} (r^(n-i) - 1), written in normal
    order through (b c)^k = (q p^-1)^(k(k-1)/2) b^k c^k."""
    p, q = HalfLaurent.monomial(1, 2, 2), HalfLaurent.monomial(1, 2, -2)
    r = p ** -1 * q ** -1
    pres = apq_presentation()
    total = NCPoly.zero(pres)
    for k in range(min(m, n) + 1):
        coeff = q ** k * gaussian_binomial(m, k, r) * (q * p ** -1) ** (
            k * (k - 1) // 2)
        for i in range(k):
            coeff = coeff * (r ** (n - i) - HalfLaurent.one())
        word = (agen("a") ** (n - k) * agen("b") ** k * agen("c") ** k
                * agen("d") ** (m - k))
        total = total + NCPoly.scalar(pres, coeff) * word
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_d_power_times_a_power(m, n, monkeypatch):
    """By induction on m, from d a^i = a^i d + c_i a^(i-1) z with z = b c
    and c_i = p^-i q^(1-i) - q = q (r^i - 1), r = p^-1 q^-1.
    The relations b a = q^-1 a b, c a = p^-1 a c, d b = p^-1 b d and
    d c = q^-1 c d give z a = r a z and d z = r z d, so
    d (a^i z^k d^l) = r^k a^i z^k d^(l+1) + c_i a^(i-1) z^(k+1) d^l.
    Writing d^m a^n = sum_k C_(m,k) a^(n-k) z^k d^(m-k) with C_(0,0) = 1,
    one more d gives
    C_(m+1,k) = r^k C_(m,k) + q (r^(n-k+1) - 1) C_(m,k-1).
    C_(m,k) = q^k [m choose k]_r P_k with P_k = prod_{i<k} (r^(n-i) - 1)
    solves it: since P_k = P_(k-1) (r^(n-k+1) - 1), the right side is
    q^k P_k (r^k [m choose k]_r + [m choose k-1]_r) = q^k P_k [m+1 choose k]_r
    by the Pascal rule, and [0 choose k]_r = 0 for k > 0.  At m = 1 it is
    the d a^n formula above.  Finally c b = q p^-1 b c moves each c of
    z^k past the b's to its right, k(k-1)/2 swaps in all, so
    z^k = (q p^-1)^(k(k-1)/2) b^k c^k."""
    want = without_swaps(monkeypatch, d_power_a_power_straightened, m, n)
    assert a_parse(f"d^{m}*a^{n}") == want


# Every exchange relation without a correction, written lo hi = r hi lo
# for each pair of letters lo before hi in normal order; a letter of D or
# k is its half power.  In A: ab = q ba, ac = p ca, bc = (p/q) cb,
# bd = p db, cd = q dc, and D^(1/2) commutes with a and d, while
# D^(1/2) b = lambda^-1 b D^(1/2) and D^(1/2) c = lambda c D^(1/2).  In U:
# f k^(1/2) = Q^(1/2) k^(1/2) f and k^(1/2) e = Q^(1/2) e k^(1/2).
P, Q = HalfLaurent.monomial(1, 2, 2), HalfLaurent.monomial(1, 2, -2)
LAMBDA, Q_HALF = HalfLaurent.monomial(1, 0, 2), HalfLaurent.monomial(1, 1, 0)
EXCHANGE = {
    "apq": {("a", "b"): Q, ("a", "c"): P, ("b", "c"): P * Q ** -1,
            ("b", "d"): P, ("c", "d"): Q, ("D", "a"): HalfLaurent.one(),
            ("D", "b"): LAMBDA ** -1, ("D", "c"): LAMBDA,
            ("D", "d"): HalfLaurent.one()},
    "uq": {("f", "k"): Q_HALF, ("k", "e"): Q_HALF},
}


def cross_leg_exchange(pres):
    """The legs of a tensor square commute: r = 1 for g@1 h@2."""
    names = [g for g, _ in pres.generators]
    return {(rewrite.leg_name(lo, 1), rewrite.leg_name(hi, 2)):
            HalfLaurent.one() for lo in names for hi in names}


def run_exponents(g):
    """Runs of 1 to 4 letters, negative ones too where g is invertible, as
    exponents of g: D and k take half powers."""
    base = g.split("@")[0]
    counts = range(1, 5)
    if base in ("a", "D", "k"):
        counts = [*counts, *(-t for t in counts)]
    return [(t, Fraction(t, 2) if base in ("D", "k") else t) for t in counts]


@pytest.mark.parametrize("pres, exchange", [
    (apq_presentation(), EXCHANGE["apq"]),
    (u_presentation(), EXCHANGE["uq"]),
    (rewrite.tensor_square(apq_presentation()),
     cross_leg_exchange(apq_presentation())),
    (rewrite.tensor_square(u_presentation()),
     cross_leg_exchange(u_presentation())),
], ids=["apq", "uq", "apq^x2", "uq^x2"])
def test_whole_run_swaps(pres, exchange, monkeypatch):
    """hi^m lo^n = r^(-m n) lo^n hi^m for runs of m and n letters: moving
    the run hi^m right past lo^n is m n swaps of one letter past another,
    each multiplying by r^-1 (by r for an inverse letter, which the signs
    of m and n count)."""
    if pres.name in EXCHANGE:
        free = {(lo, hi) for (hi, lo), (_, corr) in pres.rules.items()
                if not corr}
        assert set(exchange) == free

    def swapped(factor, lo, lo_exp, hi, hi_exp):
        return (NCPoly.scalar(pres, factor) * NCPoly.gen(pres, lo, lo_exp)
                * NCPoly.gen(pres, hi, hi_exp))

    for (lo, hi), r in exchange.items():
        for n, lo_exp in run_exponents(lo):
            for m, hi_exp in run_exponents(hi):
                want = without_swaps(monkeypatch, swapped, r ** (-m * n),
                                     lo, lo_exp, hi, hi_exp)
                got = (NCPoly.gen(pres, hi, hi_exp)
                       * NCPoly.gen(pres, lo, lo_exp))
                assert got == want, (lo, n, hi, m)


def test_a_run_swap_is_one_step(monkeypatch):
    steps = []
    apply_event = rewrite._apply_event

    def counting(pres, coeff, atoms, i):
        steps.append(atoms)
        return apply_event(pres, coeff, atoms, i)

    monkeypatch.setattr(rewrite, "_apply_event", counting)
    assert agen("b", 4) * agen("a", 4) == NCPoly.scalar(
        apq_presentation(), Q ** -16) * agen("a", 4) * agen("b", 4)
    assert steps == [(("b", 4), ("a", 4))]
