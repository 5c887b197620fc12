"""The two-parameter quantized coordinate ring of 2x2 matrices.

Generators a, b, c, d with a invertible, plus a central group-like scaling
generator D admitting arbitrary half-integer powers.  Products are rewritten
to the fixed normal order D < a < b < c < d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import parser
from .memo import memo
from .reporting import Identity
from .rewrite import (INVERTIBLE, ORDINARY, SCALING, NCPoly, Presentation,
                      hom_apply, leg_name, tensor, tensor_square)
from .scalars import (FracScalar, HalfLaurent, lam_pow, p_pow, q_pow)


@lru_cache(maxsize=None)
def apq_presentation() -> Presentation:
    one = FracScalar.one()
    xi = q_pow(1) - p_pow(-1)  # q - 1/p, the off-diagonal coupling
    rules = {
        ("b", "a"): (FracScalar(q_pow(-1)), ()),
        ("c", "a"): (FracScalar(p_pow(-1)), ()),
        ("c", "b"): (FracScalar(q_pow(1) * p_pow(-1)), ()),
        ("d", "b"): (FracScalar(p_pow(-1)), ()),
        ("d", "c"): (FracScalar(q_pow(-1)), ()),
        ("d", "a"): (one, ((-xi, (("b", 1), ("c", 1))),)),
        # D^(1/2) b = lambda^-1 b D^(1/2) and D^(1/2) c = lambda c D^(1/2)
        ("a", "D"): (HalfLaurent.one(), ()),
        ("b", "D"): (lam_pow(2), ()),
        ("c", "D"): (lam_pow(-2), ()),
        ("d", "D"): (HalfLaurent.one(), ()),
    }
    return Presentation(
        name="apq",
        generators=(("D", SCALING), ("a", INVERTIBLE), ("b", ORDINARY),
                    ("c", ORDINARY), ("d", ORDINARY)),
        rules=rules,
    )


def a_parse(text: str) -> NCPoly:
    return parser.parse(text, apq_presentation())


def agen(name: str, exp=1) -> NCPoly:
    return NCPoly.gen(apq_presentation(), name, exp)


def quantum_determinant() -> NCPoly:
    """The group-like central element a*d - q*b*c."""
    return a_parse("a*d - q*b*c")


def coproduct(x: NCPoly) -> NCPoly:
    """Matrix coproduct into the two-leg tensor algebra.

    Defined on words in D, a, b, c, d with non-negative powers of a only;
    the localized inverse a^-1 has no polynomial coproduct.
    """
    pres = apq_presentation()
    if getattr(x, "pres", None) is not pres:
        raise ValueError("coproduct expects an element of the apq algebra")
    for word in x.terms:
        for g, e in word:
            if g == "a" and e < 0:
                raise ValueError(
                    "coproduct is undefined on negative powers of a")
    t2 = tensor_square(pres)
    return hom_apply(x, lambda c: NCPoly.scalar(t2, c),
                     lambda g, e: _coproduct_atom(_coproduct_images, g, e))


@memo
def _coproduct_images() -> dict[str, NCPoly]:
    """Delta(t_ik) = sum_l t_il (x) t_lk on the defining matrix T."""
    t = (("a", "b"), ("c", "d"))
    return {t[i][k]: tensor(agen(t[i][0]), agen(t[0][k]))
            + tensor(agen(t[i][1]), agen(t[1][k]))
            for i in range(2) for k in range(2)}


@memo
def _coproduct_atom(images, g, e) -> NCPoly:
    """The coproduct of g^e, built once per process and shared, for the
    coproduct whose generator images images() returns in the tensor square;
    a generator without an image is group-like."""
    image = images()
    if g in image:
        return image[g] ** e
    t2 = next(iter(image.values())).pres
    return NCPoly(t2, [(1, ((leg_name(g, 1), e), (leg_name(g, 2), e)))])


_COUNIT = {"D": 1, "a": 1, "b": 0, "c": 0, "d": 1}


def counit(x: NCPoly):
    """Evaluate at the identity matrix: a,d -> 1 and b,c -> 0."""
    if getattr(x, "pres", None) is not apq_presentation():
        raise ValueError("counit expects an element of the apq algebra")
    return hom_apply(x, lambda c: c, lambda g, e: _COUNIT[g])


def relation_identities() -> list[Identity]:
    """The six defining exchange relations, plus invertibility of a."""
    idents = []
    for label, lhs, rhs in [
        ("ab=q.ba", "a*b", "q*b*a"),
        ("cd=q.dc", "c*d", "q*d*c"),
        ("ac=p.ca", "a*c", "p*c*a"),
        ("bd=p.db", "b*d", "p*d*b"),
        ("bc=(p/q).cb", "b*c", "p*q^-1*c*b"),
        ("ad-da=(q-1/p).bc", "a*d - d*a", "(q - p^-1)*b*c"),
        ("a.a^-1=1", "a*a^-1", "1"),
        ("a^-1.a=1", "a^-1*a", "1"),
    ]:
        idents.append(Identity(label, a_parse(lhs), a_parse(rhs)))
    return idents


def scaling_identities() -> list[Identity]:
    """Commutation of the group-like scaling generator with a, b, c, d."""
    idents = []
    half_factors = {"a": HalfLaurent.one(), "b": lam_pow(-2),
                    "c": lam_pow(2), "d": HalfLaurent.one()}
    for g, mono in half_factors.items():
        for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
            lhs = agen("D", s) * agen(g)
            rhs = NCPoly.scalar(apq_presentation(),
                                mono ** int(2 * s)) * agen(g) * agen("D", s)
            idents.append(Identity(f"D^{s}.{g}", lhs, rhs))
    return idents


def qdet_identities() -> list[Identity]:
    """Centrality and group-likeness of the quantum determinant."""
    det = quantum_determinant()
    pres = apq_presentation()
    # The determinant is not central for p != q; it commutes with the
    # generators exactly like D does: det*x = lambda^(2h)*x*det.
    factors = {"a": HalfLaurent.one(), "b": lam_pow(-4),
               "c": lam_pow(4), "d": HalfLaurent.one()}
    idents = [Identity(f"qdet.scaling.{g}", det * agen(g),
                       NCPoly.scalar(pres, mono) * agen(g) * det)
              for g, mono in factors.items()]
    idents.append(Identity("qdet.scaling.a^-1",
                           det * agen("a", -1), agen("a", -1) * det))
    idents.append(Identity("qdet.scaling.D^1/2",
                           det * agen("D", Fraction(1, 2)),
                           agen("D", Fraction(1, 2)) * det))
    idents.append(Identity(
        "qdet.grouplike",
        coproduct(det), tensor(det, det)))
    idents.append(Identity(
        "qdet.counit",
        NCPoly.scalar(pres, counit(det)), NCPoly.one(pres)))
    idents.append(Identity(
        "qdet.equals.da-bc/p",
        det, a_parse("d*a - p^-1*b*c")))
    return idents


def exponential_coordinates() -> dict[str, NCPoly]:
    """The triangular coordinates beta, gamma, w used by the factorization."""
    return {
        "beta": a_parse("a^-1*b"),
        "gamma": a_parse("c*a^-1"),
        "w": a_parse("d - c*a^-1*b"),
    }


def exponential_coordinate_identities() -> list[Identity]:
    """Exchange relations among a, beta, gamma, w."""
    coords = exponential_coordinates()
    beta, gamma, w = coords["beta"], coords["gamma"], coords["w"]
    a = agen("a")
    scal = lambda s: NCPoly.scalar(apq_presentation(), s)
    return [
        Identity("a.beta=q.beta.a", a * beta, scal(q_pow(1)) * beta * a),
        Identity("a.gamma=p.gamma.a", a * gamma, scal(p_pow(1)) * gamma * a),
        Identity("w.beta=(1/p).beta.w", w * beta, scal(p_pow(-1)) * beta * w),
        Identity("w.gamma=(1/q).gamma.w", w * gamma,
                 scal(q_pow(-1)) * gamma * w),
        Identity("a.w=w.a", a * w, w * a),
        Identity("beta.gamma=gamma.beta", beta * gamma, gamma * beta),
        Identity("qdet=a.w", quantum_determinant(), a * w),
    ]


def counit_identities() -> list[Identity]:
    """(counit x id) and (id x counit) composed with the coproduct both act
    as the identity on the generators."""
    pres = apq_presentation()

    def collapse(x, keep_leg):
        def image(g, e):
            g, _, leg = g.partition("@")
            if int(leg) == keep_leg:
                return agen(g, e)
            return NCPoly.scalar(pres, _COUNIT[g])

        return hom_apply(x, lambda c: NCPoly.scalar(pres, c), image)

    idents = []
    for g in ("a", "b", "c", "d"):
        dg = coproduct(agen(g))
        idents.append(Identity(f"counit.left.{g}", collapse(dg, 2), agen(g)))
        idents.append(Identity(f"counit.right.{g}", collapse(dg, 1), agen(g)))
    for s in (Fraction(1, 2), Fraction(1)):
        ds = coproduct(agen("D", s))
        idents.append(Identity(f"counit.left.D^{s}", collapse(ds, 2),
                               agen("D", s)))
        idents.append(Identity(f"counit.right.D^{s}", collapse(ds, 1),
                               agen("D", s)))
    return idents
