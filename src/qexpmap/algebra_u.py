"""The dual quantized enveloping algebra and its finite-dimensional
representations.

Generators e, f and a group-like scaling generator k with half-integer
powers, over the single-parameter scalar ring (lambda = 1, so p = q = Q).
Normal order is f < k < e.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import parser
from .algebra_a import (_coproduct_atom, apq_presentation,
                        quantum_determinant, relation_identities)
from .matrices import Matrix
from .memo import memo
from .reporting import Identity
from .rewrite import (ORDINARY, SCALING, NCPoly, Presentation, UsageError,
                      hom_apply, leg_name, tensor_square)
from .scalars import (FracScalar, HalfLaurent, Q_pow, RadScalar, ScalarError,
                      qint, scalar_lambda_one)


@lru_cache(maxsize=None)
def u_presentation() -> Presentation:
    one = FracScalar.one()
    # [e,f] = (k^2 - k^-2) / (Q - Q^-1)
    denom = Q_pow(2) - Q_pow(-2)
    pos = FracScalar(HalfLaurent.one(), denom)
    rules = {
        ("e", "f"): (one, ((pos, (("k", 2),)), (-pos, (("k", -2),)))),
        ("k", "f"): (Q_pow(-1), ()),    # k^(1/2) f = Q^(-1/2) f k^(1/2)
        ("e", "k"): (Q_pow(-1), ()),    # e k^(1/2) = Q^(-1/2) k^(1/2) e
    }
    return Presentation(
        name="uq",
        generators=(("f", ORDINARY), ("k", SCALING), ("e", ORDINARY)),
        rules=rules,
        lambda_one=True,
    )


def u_parse(text: str) -> NCPoly:
    return parser.parse(text, u_presentation())


def ugen(name: str, exp=1) -> NCPoly:
    return NCPoly.gen(u_presentation(), name, exp)


def u_relation_identities() -> list[Identity]:
    h = Fraction(1, 2)
    idents = [
        Identity("ke=q.ek (half powers)",
                 ugen("k", h) * ugen("e"),
                 NCPoly.scalar(u_presentation(), Q_pow(1))
                 * ugen("e") * ugen("k", h)),
        Identity("kf=(1/q).fk (half powers)",
                 ugen("k", h) * ugen("f"),
                 NCPoly.scalar(u_presentation(), Q_pow(-1))
                 * ugen("f") * ugen("k", h)),
        Identity("[e,f]=(k^2-k^-2)/(q-q^-1)",
                 u_parse("e*f - f*e"),
                 u_parse("k^2 - k^-2").map_coeffs(
                     lambda c: FracScalar(c, Q_pow(2) - Q_pow(-2)))),
        Identity("k.k^-1=1", u_parse("k*k^-1"), u_parse("1")),
    ]
    return idents


def u_coproduct(x: NCPoly) -> NCPoly:
    """Coproduct with group-like k: e, f -> g (x) k^-1 + k (x) g."""
    pres = u_presentation()
    if getattr(x, "pres", None) is not pres:
        raise ValueError("u_coproduct expects an element of the uq algebra")
    t2 = tensor_square(pres)
    return hom_apply(x, lambda c: NCPoly.scalar(t2, c),
                     lambda g, e: _coproduct_atom(_u_coproduct_images, g, e))


@memo
def _u_coproduct_images() -> dict[str, NCPoly]:
    t2 = tensor_square(u_presentation())

    def leg(name, i, exp=1):
        return NCPoly.gen(t2, leg_name(name, i), exp)

    return {
        "e": leg("e", 1) * leg("k", 2, -1) + leg("k", 1) * leg("e", 2),
        "f": leg("f", 1) * leg("k", 2, -1) + leg("k", 1) * leg("f", 2),
    }


def pi_images(sign: str) -> dict:
    """The two evaluation maps from the coordinate algebra onto the dual
    algebra (b or c is killed depending on the sign)."""
    pres = u_presentation()
    zero = NCPoly.zero(pres)
    k = NCPoly.gen(pres, "k", 1)
    kinv = NCPoly.gen(pres, "k", -1)
    # q^(-1/2)(q - q^-1) and q^(1/2)(q^-1 - q)
    cm = (Q_pow(-1) * (Q_pow(2) - Q_pow(-2)))
    bp = (Q_pow(1) * (Q_pow(-2) - Q_pow(2)))
    if sign == "-":
        return {"a": k, "b": zero,
                "c": NCPoly.scalar(pres, cm) * NCPoly.gen(pres, "e"),
                "d": kinv}
    if sign == "+":
        return {"a": kinv, "b": NCPoly.scalar(pres, bp) * NCPoly.gen(pres, "f"),
                "c": zero, "d": k}
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def pi_apply(sign: str, x: NCPoly) -> NCPoly:
    """Apply the evaluation map to an element of the coordinate algebra.

    The source coefficients live at generic lambda; the target algebra sits
    at lambda = 1, so coefficients are specialized on the way through.
    """
    if getattr(x, "pres", None) is not apq_presentation():
        raise ValueError("pi_apply expects an element of the apq algebra")
    pres = u_presentation()
    images = pi_images(sign)
    one = NCPoly.one(pres)
    out = hom_apply(x, lambda c: NCPoly.scalar(pres, c),
                    lambda g, e: one if g == "D" else images[g] ** e)
    return out.map_coeffs(scalar_lambda_one)


# ---------------------------------------------------------------------------
# spin-j representations


class Rep:
    """A finite-dimensional weight representation.

    Rows and columns are indexed by the weights m = j, j-1, ..., -j.
    Jplus/Jminus are the ladder matrices, built from ``ladder``: entry
    (m, m-1) of Jplus is ladder(j+m), entry (m, m+1) of Jminus is
    ladder(j-m), and every other entry is ``zero``.  ``zero`` and ``one``
    are the 0 and 1 of the type of ladder(1), which is defined even at
    j = 0, where no ladder entry is built.  J0 is the weight and z the
    central charge.
    """

    def __init__(self, j, z, ladder):
        self.j = Fraction(j)
        self.z = Fraction(z)
        self.mvals = [self.j - i for i in range(int(2 * self.j) + 1)]
        kind = type(ladder(1))
        self.zero, self.one = kind.zero(), kind.one()
        # s = 1 builds J+ (row m, column m-1), s = -1 builds J- (m, m+1)
        self.Jplus, self.Jminus = (Matrix.build(
            self.dim, self.dim,
            lambda r, c: ladder(int(self.j + s * self.mvals[r]))
            if c == r + s else self.zero) for s in (1, -1))
        self.J0 = self.diag(FracScalar)

    @property
    def dim(self) -> int:
        return len(self.mvals)

    def identity(self) -> Matrix:
        return Matrix.identity(self.dim, self.one)

    def diag(self, fn) -> Matrix:
        """Diagonal matrix with entry fn(m) at weight m."""
        return Matrix.build(
            self.dim, self.dim,
            lambda r, c: fn(self.mvals[r]) if r == c else self.zero)


def spin_params(j, z, norm: str):
    """j and z as Fractions, once they name a spin-j representation of
    central charge z in a known normalization; UsageError otherwise."""
    j, z = Fraction(j), Fraction(z)
    if j < 0 or (2 * j).denominator != 1:
        raise UsageError(f"spin j must be a non-negative half-integer, got {j}")
    if (2 * (z - j)).denominator != 1:
        raise UsageError("charge z must differ from j by a half-integer")
    if norm not in ("symmetric", "rational"):
        raise UsageError(f"unknown normalization {norm!r}")
    return j, z


def gamma_rep(j, z, norm: str = "symmetric") -> Rep:
    """The spin-j representation with central charge z.

    symmetric: ladder(n) = sqrt([n][2j+1-n]), so (J+)_{m,m-1} =
    sqrt([j+m][j-m+1]) and (J-)_{m,m+1} = sqrt([j-m][j+m+1]).
    rational: ladder(n) = [2j+1-n], so (J+)_{m,m-1} = [j-m+1] and
    (J-)_{m,m+1} = [j+m+1]; the diagonal conjugation relating the two is
    stated in t_matrix_factorized.
    """
    j, z = spin_params(j, z, norm)
    top = int(2 * j) + 1
    if norm == "symmetric":
        return Rep(j, z, lambda n: RadScalar.sqrt_qints([n, top - n]))
    return Rep(j, z, lambda n: FracScalar(qint(top - n)))


def hatted(rep: Rep):
    """Twisted ladder matrices absorbing the weight and charge factors:
    Jplus_hat = Jplus * diag(Q^-(m+1/2) lambda^(z-1/2)), whose entry
    (m, m') picks up the factor at its source weight m', and Jminus_hat =
    diag(Q^(m+1/2) lambda^(z-1/2)) * Jminus, at its target weight m.
    """
    lhalf = int(2 * rep.z - 1)  # lambda^(z-1/2) has half-count 2z-1
    jp = rep.Jplus * rep.diag(
        lambda m: HalfLaurent.monomial(1, -int(2 * m + 1), lhalf))
    jm = rep.diag(
        lambda m: HalfLaurent.monomial(1, int(2 * m + 1), lhalf)) * rep.Jminus
    return jp, jm


def u_rep_apply(rep: Rep, x: NCPoly) -> Matrix:
    """Represent an element of the dual algebra as a matrix: f acts as
    Jminus, e as Jplus, and k^s as diag(Q^(s m))."""
    if getattr(x, "pres", None) is not u_presentation():
        raise ValueError("u_rep_apply expects an element of the uq algebra")

    def kdiag(s, mw):
        half = 2 * s * mw
        if half.denominator != 1:
            raise ScalarError(f"k^{s} eigenvalue Q^({s}*{mw}) is not a "
                              f"half-integer power of Q")
        return HalfLaurent.monomial(1, int(half), 0)

    def image(g, e):
        if g == "k":
            return rep.diag(lambda mw: kdiag(e, mw))
        ladder = rep.Jplus if g == "e" else rep.Jminus
        power = ladder
        for _ in range(int(e) - 1):
            power = power * ladder
        return power

    return hom_apply(x, lambda c: rep.identity() * c, image)


def rep_relation_identities(rep: Rep) -> list[Identity]:
    """The defining relations evaluated in a representation."""
    E, F = rep.Jplus, rep.Jminus
    K = rep.diag(lambda m: HalfLaurent.monomial(1, int(2 * m), 0))
    Kinv = rep.diag(lambda m: HalfLaurent.monomial(1, -int(2 * m), 0))
    # k e k^-1 = Q e ; k f k^-1 = Q^-1 f
    lhs_e = K * E * Kinv
    rhs_e = E * Q_pow(2)
    lhs_f = K * F * Kinv
    rhs_f = F * Q_pow(-2)
    comm = E * F - F * E
    denom = Q_pow(2) - Q_pow(-2)
    rhs_c = rep.diag(lambda m: FracScalar(
        HalfLaurent.monomial(1, int(4 * m), 0)
        - HalfLaurent.monomial(1, -int(4 * m), 0), denom))
    return [
        Identity(f"rep(j={rep.j}).kek^-1=q.e", lhs_e, rhs_e),
        Identity(f"rep(j={rep.j}).kfk^-1=q^-1.f", lhs_f, rhs_f),
        Identity(f"rep(j={rep.j}).[e,f]", comm, rhs_c),
        Identity(f"rep(j={rep.j}).casimir-ladders",
                 E * F, rep.diag(lambda m: FracScalar(
                     qint(int(rep.j + m)) * qint(int(rep.j - m + 1))))),
    ]


def pi_homomorphism_identities(sign: str) -> list[Identity]:
    """The evaluation map preserves the six exchange relations and sends
    the quantum determinant to 1."""
    idents = []
    for ident in relation_identities():
        idents.append(Identity(
            f"pi{sign}.{ident.label}",
            pi_apply(sign, ident.lhs), pi_apply(sign, ident.rhs)))
    idents.append(Identity(
        f"pi{sign}.qdet=1",
        pi_apply(sign, quantum_determinant()),
        NCPoly.one(u_presentation())))
    return idents


def fact_radicand(j, m) -> list[int]:
    """The indices of the q-integers whose product is [j+m]! [j-m]!;
    [1] = 1 is omitted."""
    return list(range(2, int(j + m) + 1)) + list(range(2, int(j - m) + 1))


def normalization_similarity_identities(j) -> list[Identity]:
    """The two ladder normalizations are conjugate by the diagonal matrix
    with entries sqrt([j+m]! [j-m]!)."""
    j = Fraction(j)
    sym = gamma_rep(j, j, "symmetric")
    rat = gamma_rep(j, j, "rational")
    S = sym.diag(lambda m: RadScalar.sqrt_qints(fact_radicand(j, m)))
    idents = []
    for name, msym, mrat in (("J+", sym.Jplus, rat.Jplus),
                             ("J-", sym.Jminus, rat.Jminus)):
        idents.append(Identity(
            f"norm-similarity(j={j}).{name}", msym * S, S * mrat))
    return idents
