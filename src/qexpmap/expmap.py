"""Exponentiated corepresentation matrices, dual-pairing matrices and the
restricted universal intertwiner.

The central objects:

* t_matrix_closed / t_matrix_factorized: the spin-j matrix of coordinate
  algebra elements, either from the closed single-sum formula or as a
  product of two q-exponentials around a diagonal core.
* l_matrix: the upper/lower triangular matrices of dual algebra elements
  obtained by pushing the factorized matrix through the evaluation maps.
* r_matrix_rep: the intertwiner restricted to a pair of spin
  representations.

Each of these is a memo (``qexpmap.memo``), built once per process for
its validated arguments and shared by every later caller, which must not
mutate it; ``memo.clear()`` forgets them all, so the next call builds
anew over the same presentations.  A shared result costs no rewriting, so
the term guard counts only new work; a build that exceeds it raises and
keeps nothing.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra_a import (a_parse, agen, apq_presentation, coproduct, counit,
                        exponential_coordinates)
from .algebra_u import (Rep, fact_radicand, gamma_rep, hatted, pi_apply,
                        spin_params, u_coproduct, u_parse, u_presentation,
                        u_rep_apply)
from .matrices import Matrix
from .memo import memo
from .reporting import Identity
from .rewrite import NCPoly, tensor, tensor_square
from .scalars import (FracScalar, HalfLaurent, Q_pow, RadScalar, lam_pow,
                      qfact, qint)


def qexp(tsign: int, x: Matrix) -> Matrix:
    """q-exponential E_{t^2}(x) = sum_n t^(-n(n-1)/2) x^n / [n]_t! for
    t = Q (tsign=+1) or t = Q^-1 (tsign=-1), of a nilpotent matrix.

    [n]_{Q^-1} = [n]_Q, so only the prefactor depends on the sign.  The
    identity term is over x's entry type: x[0, 0] ** 0 is that type's 1,
    NCPoly.one of its algebra for a polynomial.
    """
    if tsign not in (1, -1):
        raise ValueError("tsign must be +1 or -1")
    result = Matrix.identity(x.nrows, x[0, 0] ** 0)
    power = result
    for n in range(1, x.nrows + 1):
        power = power * x
        if power.is_zero():
            return result
        coeff = FracScalar(Q_pow(-tsign * n * (n - 1)), qfact(n))
        result = result + power * coeff
    if not (power * x).is_zero():
        raise ArithmeticError("q-exponential of a non-nilpotent matrix")
    return result


# ---------------------------------------------------------------------------
# the exponentiated coordinate matrices


def t_matrix_closed(j, z, norm: str = "symmetric") -> Matrix:
    """Spin-j matrix of coordinate algebra elements, single-sum formula.

    Entry (m, k), with rows and columns indexed by weights j, j-1, ..., -j:

        D^(z-j) * Q^(-(m-k)(2j-m+k)/2) * lambda^(-(m-k)(2j-2z-m-k)/2) * P_mk
        * sum_s Q^(-s(2j-m+k-s)) lambda^(-s(m-k+s))
          * a^(j+k-s) b^(m-k+s) c^s d^(j-m-s)
          / ([j+k-s]! [m-k+s]! [s]! [j-m-s]!)

    with P_mk the normalization prefactor: sqrt([j+m]! [j-m]! [j+k]! [j-k]!)
    when symmetric, [j+m]! [j-m]! when rational.

    The build counts in the integers n = j+m, l = j+k and 2j, and reads
    every [n]! from one table whose entries are chained as qfact chains
    them.
    """
    return _t_closed(*spin_params(j, z, norm), norm)


@memo
def _t_closed(j, z, norm) -> Matrix:
    pres = apq_presentation()
    tj, tz, dz = int(2 * j), int(2 * z), z - j
    fact = [HalfLaurent.one()]
    for n in range(1, tj + 1):
        fact.append(fact[-1] * qint(n))
    # row n's share of P_mk: radicand indices, or the rational P_mk itself
    if norm == "symmetric":
        rowpref = [fact_radicand(j, n - j) for n in range(tj + 1)]
    else:
        rowpref = [fact[n] * fact[tj - n] for n in range(tj + 1)]

    def entry(r, c):
        n, l = tj - r, tj - c
        d = n - l                                   # m-k
        u0 = -d * (tj - d)                          # half-count of Q
        v0 = -d * (2 * tj - tz - n - l)             # half-count of lambda
        pref = (RadScalar.sqrt_qints(rowpref[n] + rowpref[l])
                if norm == "symmetric" else rowpref[n])
        terms = []
        for s in range(max(0, -d), min(l, tj - n) + 1):
            mono = HalfLaurent.monomial(1, u0 - 2 * s * (tj - d - s),
                                        v0 - 2 * s * (d + s))
            den = fact[l - s] * fact[d + s] * fact[s] * fact[tj - n - s]
            # the constructor drops the zero powers
            word = (("D", dz), ("a", l - s), ("b", d + s), ("c", s),
                    ("d", tj - n - s))
            terms.append((pref * FracScalar(mono, den), word))
        return NCPoly(pres, terms)

    return Matrix.build(tj + 1, tj + 1, entry)


def t_matrix_factorized(j, z, norm: str = "symmetric") -> Matrix:
    """Spin-j matrix built as qexp(gamma Jhat-) * core * qexp(beta Jhat+).

    The construction happens at charge z' = j, where the diagonal core is
    diag(a^(j+m) w^(j-m)); the general charge is restored by the group-like
    scaling factor D^(z-j) lambda^((z-j)(m-k)) on entry (m, k).  The
    rescale builds D^(z-j) once and multiplies by it only when z != j, and
    by the lambda power only off the diagonal, where it is not 1; at z = j
    every entry of the core is taken as it is.

    Both normalizations run this construction, each on its own ladder.
    With D = diag(sqrt([j+m]! [j-m]!)), gamma_rep's rational ladder is
    D^-1 J_sym D.  Symmetric runs on gamma_rep's J_sym; rational runs on
    the opposite conjugation D J_sym D^-1, the Rep ladder n -> [n], that
    is (J+)_{m,m-1} = [j+m] and (J-)_{m,m+1} = [j-m], whose coefficients
    are free of radicals and are lifted to RadScalar at the end.  Only
    the charge-j construction is kept; each charge rescales it.
    """
    j, z = spin_params(j, z, norm)
    t = _factorized_core(j, norm)
    shift = int(2 * (z - j))
    dgen = NCPoly.gen(apq_presentation(), "D", z - j) if shift else None

    def rescale(r, c):
        # lambda's half-count 2(z-j)(m-k), as row r has weight m = j-r
        entry = t[r, c]
        if shift and r != c:
            entry = entry * lam_pow(shift * (c - r))
        if dgen is not None:
            entry = dgen * entry
        if norm == "rational":
            entry = entry.map_coeffs(lambda cf: RadScalar([(cf, ())]))
        return entry

    return Matrix.build(t.nrows, t.ncols, rescale)


@memo
def _factorized_core(j, norm):
    """The factorized spin-j matrix at charge j, before the rational
    coefficients are lifted.  closed-vs-factorized compares each entry
    with the closed T's, whose words hold no a^-1 and no D."""
    rep = gamma_rep(j, j, norm) if norm == "symmetric" \
        else Rep(j, j, lambda n: FracScalar(qint(n)))
    jp_hat, jm_hat = hatted(rep)
    coords = exponential_coordinates()
    beta, gamma, w = coords["beta"], coords["gamma"], coords["w"]
    left = qexp(-1, jm_hat.map(lambda s: gamma * s))
    right = qexp(1, jp_hat.map(lambda s: beta * s))
    # row m of diag(a^(j+m) w^(j-m)) * right: w times the row, j-m times,
    # then a^(j+m) times that.  Each product pushes one d (in w) past the
    # a^-1 of beta^n, where w^(j-m) at once multiplies the peel paths;
    # gamma^n = c^n a^-n in left then needs only swaps without corrections.
    rows = []
    for r, row in enumerate(right.rows):      # weight m = j - r
        for _ in range(r):
            row = [w * x for x in row]
        rows.append([agen("a") ** (rep.dim - 1 - r) * x for x in row])
    return left * Matrix(rows)


def t_counit_identities(j, z) -> list[Identity]:
    """Entrywise counit of the spin-j matrix is the identity matrix."""
    t = t_matrix_closed(j, z, "rational")
    pres = apq_presentation()
    lhs = t.map(lambda x: NCPoly.scalar(pres, counit(x)))
    rhs = Matrix.identity(t.nrows, NCPoly.one(pres))
    return [Identity(f"counit(T^({j};{z}))=id", lhs, rhs)]


def _coproduct_identities(mat: Matrix, delta, label) -> list[Identity]:
    """Delta(M_ik) = sum_l M_il (x) M_lk, entry by entry, for a square
    matrix of polynomials with coproduct delta; label(i, k) names each."""
    t2 = tensor_square(mat[0, 0].pres)
    dim = mat.nrows
    idents = []
    for i in range(dim):
        for k in range(dim):
            lhs = delta(mat[i, k])
            rhs = NCPoly.zero(t2)
            for l in range(dim):
                rhs = rhs + tensor(mat[i, l], mat[l, k])
            idents.append(Identity(label(i, k), lhs, rhs))
    return idents


def comodule_identities(j, z) -> list[Identity]:
    """Delta(T_ik) = sum_l T_il (x) T_lk, entry by entry."""
    return _coproduct_identities(
        t_matrix_closed(j, z, "rational"), coproduct,
        lambda i, k: f"Delta(T^({j};{z})[{i},{k}])")


# ---------------------------------------------------------------------------
# the restricted intertwiner


def r_matrix_rep(j1, z1, j2, z2, norm: str = "rational") -> Matrix:
    """The universal intertwiner restricted to a pair of spin reps.

    R = diag(Q^(-2 m1 m2) lambda^(2(z1 m2 - m1 z2)))
        * E_{Q^2}((1-Q^2) A (x) B)

    with A = Q^(-m) lambda^(z1) J+ on the first leg (row weight m),
    B = Q^(m) lambda^(z2) J- on the second and E_{Q^2} the q-exponential
    qexp, sum_n Q^(-n(n-1)/2) (1-Q^2)^n (A (x) B)^n / [n]!.  The series
    terminates at n = 2 min(j1, j2).  In terms of the twisted ladders of
    hatted, A = Q^(-1/2) lambda^(1/2) Jplus_hat and B = Q^(-1/2)
    lambda^(1/2) Jminus_hat, so (1-Q^2) A (x) B is
    Q^(-1) lambda (1-Q^2) Jplus_hat (x) Jminus_hat.
    """
    return _r_matrix(*spin_params(j1, z1, norm), *spin_params(j2, z2, norm),
                     norm)


@memo
def _r_matrix(j1, z1, j2, z2, norm) -> Matrix:
    """r_matrix_rep for validated arguments; qexp sums the series up to
    its first zero power."""
    rep1 = gamma_rep(j1, z1, norm)
    rep2 = gamma_rep(j2, z2, norm)
    jp, jm = hatted(rep1)[0], hatted(rep2)[1]
    total = qexp(1, jp.kron(jm) * (HalfLaurent.monomial(1, -2, 2)
                                   * (1 - Q_pow(4))))
    pref = [HalfLaurent.monomial(1, int(-4 * m1 * m2),
                                 int(4 * (rep1.z * m2 - m1 * rep2.z)))
            for m1 in rep1.mvals for m2 in rep2.mvals]
    return Matrix.build(total.nrows, total.ncols,
                        lambda r, c: pref[r] * total[r, c])


@memo
def _r21_inverse(j1, j2) -> Matrix:
    """R21^-1: the inverse of r_matrix_rep(j2, 0, j1, 0) with its legs
    flipped to (j1, j2).  That flipped R is diag(Q^(-2 m1 m2)) E_{Q^2}(x)
    with x = Q^(-1) lambda (1-Q^2) Jminus_hat (x) Jplus_hat, and
    E_{Q^2}(x)^-1 = E_{Q^-2}(-x), so R21^-1 is
    qexp(-1, -x) diag(Q^(2 m1 m2)).  At charge 0 the lambda^(-1/2) of
    each twisted ladder cancels the lambda of x."""
    rep1 = gamma_rep(j1, 0, "rational")
    rep2 = gamma_rep(j2, 0, "rational")
    jm, jp = hatted(rep1)[1], hatted(rep2)[0]
    total = qexp(-1, jm.kron(jp) * (HalfLaurent.monomial(1, -2, 2)
                                    * (Q_pow(4) - 1)))
    diag = [Q_pow(int(4 * m1 * m2)) for m1 in rep1.mvals for m2 in rep2.mvals]
    return Matrix.build(total.nrows, total.ncols,
                        lambda r, c: total[r, c] * diag[c])


def quasitriangular_identities(j1, z1, j2, z2) -> list[Identity]:
    """R intertwines the coproduct with the opposite coproduct on the
    generators: R Delta(x) = Delta'(x) R."""
    rep1 = gamma_rep(j1, z1, "rational")
    rep2 = gamma_rep(j2, z2, "rational")
    rmat = r_matrix_rep(j1, z1, j2, z2, "rational")

    def wdiag(rep, se, sz):
        # diag(Q^(se m) lambda^(sz z))
        return rep.diag(lambda m: HalfLaurent.monomial(
            1, se * int(2 * m), sz * int(2 * rep.z)))

    idents = []
    for name, g1, g2, szv in (("J+", rep1.Jplus, rep2.Jplus, 1),
                              ("J-", rep1.Jminus, rep2.Jminus, -1)):
        delta = (g1.kron(wdiag(rep2, -1, szv))
                 + wdiag(rep1, 1, -szv).kron(g2))
        delta_op = (wdiag(rep1, -1, szv).kron(g2)
                    + g1.kron(wdiag(rep2, 1, -szv)))
        idents.append(Identity(
            f"R.Delta({name})=Delta'({name}).R @ ({j1},{z1})x({j2},{z2})",
            rmat * delta, delta_op * rmat))
    dj0 = rep1.J0.kron(rep2.identity()) + rep1.identity().kron(rep2.J0)
    idents.append(Identity(
        f"R.Delta(J0)=Delta(J0).R @ ({j1},{z1})x({j2},{z2})",
        rmat * dj0, dj0 * rmat))
    return idents


# ---------------------------------------------------------------------------
# dual-pairing matrices


def _jhat_plus_u() -> NCPoly:
    # Q^(-1/2) e k^-1
    return NCPoly.scalar(u_presentation(), Q_pow(-1)) * u_parse("e*k^-1")


def _jhat_minus_u() -> NCPoly:
    # Q^(1/2) k f
    return NCPoly.scalar(u_presentation(), Q_pow(1)) * u_parse("k*f")


def l_matrix(sign: str, j, norm: str = "symmetric") -> Matrix:
    """Triangular matrix of dual algebra elements for the given sign.

    Obtained by pushing the factorized spin-j construction through the
    evaluation map: one q-exponential leg collapses (its coordinate maps
    to zero), the diagonal core maps to powers of k.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    j, _ = spin_params(j, j, norm)
    return _l_matrix(sign, j, norm)


@memo
def _l_matrix(sign, j, norm) -> Matrix:
    rep = gamma_rep(j, j, norm)
    pres = u_presentation()
    coords = exponential_coordinates()
    m_beta = u_rep_apply(rep, pi_apply(sign, coords["beta"]))
    m_gamma = u_rep_apply(rep, pi_apply(sign, coords["gamma"]))
    jp, jm = _jhat_plus_u(), _jhat_minus_u()
    left = qexp(-1, m_gamma.map(lambda s: s * jm))
    ksign = -2 if sign == "+" else 2
    mid = rep.diag(lambda m: NCPoly.gen(pres, "k", ksign * m))
    right = qexp(1, m_beta.map(lambda s: s * jp))
    return left * mid * right


def rll_identities(j) -> list[Identity]:
    """R L2 L1 = L1 L2 R for sign pairs (+,+), (-,-) and (+,-)."""
    pres = u_presentation()
    lp = l_matrix("+", j, "rational")
    lm = l_matrix("-", j, "rational")
    # charge 0 makes the restricted intertwiner independent of lambda,
    # matching the lambda = 1 algebra the L entries live in
    rmat = r_matrix_rep(j, 0, j, 0, "rational")
    dim = lp.nrows
    ident = Matrix.identity(dim, NCPoly.one(pres))

    # L (x) 1 and 1 (x) L for each sign, each built once
    legs = {sign: (l.kron(ident), ident.kron(l))
            for sign, l in (("+", lp), ("-", lm))}
    idents = []
    for s2, s1 in (("+", "+"), ("-", "-"), ("+", "-")):
        l1_2, l2_1 = legs[s1][0], legs[s2][1]
        idents.append(Identity(
            f"R.L2.L1=L1.L2.R ({s2},{s1}) j={j}",
            rmat * (l2_1 * l1_2), (l1_2 * l2_1) * rmat))
    return idents


def delta_l_identities(sign: str, j) -> list[Identity]:
    """Delta(L_ik) = sum_l L_il (x) L_lk."""
    return _coproduct_identities(
        l_matrix(sign, j, "rational"), u_coproduct,
        lambda i, k: f"Delta(L^{sign}({j})[{i},{k}])")


def pi_t_vs_r_identities(j) -> list[Identity]:
    """Representing the defining 2x2 matrix through the evaluation maps
    reproduces blocks of the restricted intertwiner.

    Plus side: Gamma(pi+(t_ik))[l,m] = R[(i,l),(k,m)] with R restricted to
    the pair (1/2, j).  Minus side: Gamma(pi-(t_ik))[l,m] equals entry
    ((i,l),(k,m)) of R21^-1, the INVERSE of R restricted to the swapped
    pair (j, 1/2) with its legs flipped back to (1/2, j) - the transposed
    subscript placement of the usual statement.
    """
    j = Fraction(j)
    rep = gamma_rep(j, j, "rational")
    half = Fraction(1, 2)
    tdef = [[a_parse("a"), a_parse("b")], [a_parse("c"), a_parse("d")]]
    dim = rep.dim
    idents = []
    for sign, rmat, label, note in (
            ("+", r_matrix_rep(half, 0, j, 0, "rational"), "R-block", ""),
            ("-", _r21_inverse(half, j), "R^-1-block",
             "inverse taken on the swapped pair (j, 1/2)")):
        for i in range(2):
            for k in range(2):
                got = u_rep_apply(rep, pi_apply(sign, tdef[i][k]))
                want = Matrix.build(
                    dim, dim, lambda l, m: rmat[i * dim + l, k * dim + m])
                idents.append(Identity(
                    f"Gamma(pi{sign}(t[{i},{k}])) vs {label} j={j}",
                    got, want, note=note))
    return idents


def tprime_r_identities(j1, j2) -> list[Identity]:
    """Representing both legs of the mixed construction against the
    restricted intertwiner.

    With L = l_matrix(sign, j2) and the first leg represented at spin j1:
    the plus sign reproduces R on (j1, j2) exactly; the minus sign does
    not reproduce R but R21^-1, the leg-flipped inverse of R on (j2, j1),
    and the identity is recorded with that corrected right-hand side.
    """
    j1, j2 = Fraction(j1), Fraction(j2)
    rep1 = gamma_rep(j1, j1, "rational")
    d1 = rep1.dim
    idents = []
    for sign, rhs, note in (
            ("+", r_matrix_rep(j1, 0, j2, 0, "rational"), ""),
            ("-", _r21_inverse(j1, j2),
             "minus sign equals the leg-flipped inverse intertwiner, "
             "not the intertwiner itself")):
        lmat = l_matrix(sign, j2, "rational")
        d2 = lmat.nrows
        blocks = [[u_rep_apply(rep1, lmat[l, m]) for m in range(d2)]
                  for l in range(d2)]
        lhs = Matrix.build(
            d1 * d2, d1 * d2,
            lambda rr, cc: blocks[rr % d2][cc % d2][rr // d2, cc // d2])
        idents.append(Identity(
            f"(Gamma x Gamma(pi{sign}))(T') vs R ({j1},{j2})",
            lhs, rhs, note=note))
    return idents
