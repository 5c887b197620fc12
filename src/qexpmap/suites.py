"""Named verification suites aggregating the exact identity checks, with
numeric re-checks at random generic parameter points."""

from __future__ import annotations

import random
from fractions import Fraction

from . import algebra_a, algebra_u, expmap
from .algebra_a import apq_presentation
from .algebra_u import gamma_rep, u_presentation
from .confluence import confluence_check
from .matrices import Matrix
from .reporting import CheckResult, Identity, run_identities
from .rewrite import UsageError
from .scalars import HalfLaurent, NumericParams, Q_pow, ScalarError

HALF = Fraction(1, 2)
SPECIALIZE_POINTS = 5       # generic points per identity in `specialize`
POINTS_SEED = 31415         # seed of the generic points' generator
SPECIALIZE_TOL = 1e-10      # relative tolerance of the numeric re-check


def _fr(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _jz_grid(max_j):
    """Spin/charge pairs (j, z) with z in {j, j - 1/2, j - 1}."""
    return [(j, j - dz) for j in _spins(max_j) for dz in (0, HALF, 1)]


def _spins(max_j):
    out = []
    j = HALF
    while j <= max_j:
        out.append(j)
        j += HALF
    return out


def printed_r_half() -> Matrix:
    """The fundamental 4x4 intertwiner in closed form: Q^{1/2} times a
    matrix with entries Q^{-1}, lambda^{-1}, Q^{-1} - Q, lambda, Q^{-1}."""
    mono = HalfLaurent.monomial
    z = HalfLaurent.zero()
    rows = [
        [Q_pow(-1), z, z, z],
        [z, mono(1, 1, -2), Q_pow(-1) - Q_pow(3), z],
        [z, z, mono(1, 1, 2), z],
        [z, z, z, Q_pow(-1)],
    ]
    return Matrix(rows)


# ---------------------------------------------------------------------------
# suite builders: each reads the options that run_suite checked, None where
# not given, and yields (check_name, params, identities)


def _suite_relations(opts):
    yield ("relations.function-algebra", {},
           algebra_a.relation_identities() + algebra_a.scaling_identities())
    yield ("relations.dual-algebra", {}, algebra_u.u_relation_identities())
    yield ("relations.counit-axiom", {}, algebra_a.counit_identities())


def _suite_qdet(opts):
    yield ("qdet", {}, algebra_a.qdet_identities())


def _suite_lie_coords(opts):
    yield ("lie-coords", {}, algebra_a.exponential_coordinate_identities())


def _suite_closed_vs_factorized(opts):
    max_j = opts.get("max_j") or Fraction(3, 2)
    for j, z in _jz_grid(max_j):
        for norm in ("rational", "symmetric"):
            lhs = expmap.t_matrix_closed(j, z, norm)
            rhs = expmap.t_matrix_factorized(j, z, norm)
            yield (f"closed-vs-factorized(j={_fr(j)},z={_fr(z)},{norm})",
                   {"j": _fr(j), "z": _fr(z), "norm": norm},
                   [Identity(f"t-matrix(j={_fr(j)},z={_fr(z)},{norm})",
                             lhs, rhs)])


def _suite_comodule(opts):
    max_j = opts.get("max_j") or Fraction(3, 2)
    j = opts.get("j")
    z = opts.get("z")
    grid = [(j, z if z is not None else j)] if j is not None \
        else _jz_grid(max_j)
    for j, z in grid:
        params = {"j": _fr(j), "z": _fr(z)}
        yield (f"comodule(j={_fr(j)},z={_fr(z)})", params,
               expmap.comodule_identities(j, z)
               + expmap.t_counit_identities(j, z))


def _suite_rep_relations(opts):
    max_j = opts.get("max_j") or Fraction(2)
    for j in _spins(max_j):
        for norm in ("rational", "symmetric"):
            yield (f"rep-relations(j={_fr(j)},{norm})",
                   {"j": _fr(j), "norm": norm},
                   algebra_u.rep_relation_identities(gamma_rep(j, j, norm)))
    for j in _spins(min(max_j, Fraction(3, 2))):
        yield (f"rep-similarity(j={_fr(j)})", {"j": _fr(j)},
               algebra_u.normalization_similarity_identities(j))


def _suite_pi_homomorphism(opts):
    for sign in ("+", "-"):
        yield (f"pi-homomorphism({sign})", {"sign": sign},
               algebra_u.pi_homomorphism_identities(sign))


def _suite_rll(opts):
    max_j = opts.get("max_j") or Fraction(1)
    for j in _spins(max_j):
        yield (f"rll(j={_fr(j)})", {"j": _fr(j)}, expmap.rll_identities(j))


def _suite_delta_l(opts):
    max_j = opts.get("max_j") or Fraction(1)
    for sign in ("+", "-"):
        for j in _spins(max_j):
            yield (f"delta-l({sign},j={_fr(j)})",
                   {"sign": sign, "j": _fr(j)},
                   expmap.delta_l_identities(sign, j))


def _suite_pi_t_vs_r(opts):
    max_j = opts.get("max_j") or Fraction(1)
    for j in _spins(max_j):
        yield (f"pi-t-vs-r(j={_fr(j)})", {"j": _fr(j)},
               expmap.pi_t_vs_r_identities(j))


def _suite_tprime_r(opts):
    pairs = ((HALF, HALF), (HALF, Fraction(1)), (Fraction(1), HALF))
    for j1, j2 in pairs:
        yield (f"tprime-r(j1={_fr(j1)},j2={_fr(j2)})",
               {"j1": _fr(j1), "j2": _fr(j2)},
               expmap.tprime_r_identities(j1, j2))


def _suite_quasitriangular(opts):
    yield ("quasitriangular.closed-form(1/2,1/2)", {},
           [Identity("r(1/2,1/2)=closed-4x4",
                     expmap.r_matrix_rep(HALF, HALF, HALF, HALF),
                     printed_r_half())])
    for j1, j2 in ((HALF, HALF), (HALF, Fraction(1))):
        yield (f"quasitriangular(j1={_fr(j1)},j2={_fr(j2)})",
               {"j1": _fr(j1), "j2": _fr(j2)},
               expmap.quasitriangular_identities(j1, j1, j2, j2))


_BUILDERS = {
    "relations": _suite_relations,
    "qdet": _suite_qdet,
    "lie-coords": _suite_lie_coords,
    "closed-vs-factorized": _suite_closed_vs_factorized,
    "comodule": _suite_comodule,
    "rep-relations": _suite_rep_relations,
    "pi-homomorphism": _suite_pi_homomorphism,
    "rll": _suite_rll,
    "delta-l": _suite_delta_l,
    "pi-t-vs-r": _suite_pi_t_vs_r,
    "tprime-r": _suite_tprime_r,
    "quasitriangular": _suite_quasitriangular,
}

IDENTITY_SUITES = tuple(sorted(_BUILDERS))
SUITES = tuple(sorted(_BUILDERS) + ["confluence", "specialize", "all"])
# the suites that read the max_j and the max_len option
MAX_J_SUITES = ("all", "closed-vs-factorized", "comodule", "delta-l",
                "pi-t-vs-r", "rep-relations", "rll", "specialize")
MAX_LEN_SUITES = ("all", "confluence")


def _run_confluence(opts) -> list[CheckResult]:
    max_len = opts.get("max_len") or 3
    results = []
    for pres in (apq_presentation(), u_presentation()):
        report = confluence_check(pres, max_len=max_len)
        results.append(CheckResult(
            f"confluence({pres.name},max_len={max_len})",
            {"presentation": pres.name, "max_len": max_len},
            report.counterexamples,
            [f"words checked: {report.words_checked}"]))
    return results


def random_points(count: int = 5) -> list[NumericParams]:
    """Generic (p, q) sample points, the same in every run."""
    rng = random.Random(POINTS_SEED)
    points = []
    while len(points) < count:
        try:
            points.append(NumericParams(rng.uniform(0.4, 2.5),
                                        rng.uniform(0.4, 2.5)))
        except ScalarError:
            continue
    return points


def _specialize(check, params, idents, verdicts, points) -> CheckResult:
    """Numeric re-check of identities that hold exactly; the exact failures
    are reported by the exact check."""
    failing = []
    for ident, holds in zip(idents, verdicts):
        if not holds:
            continue
        pt = ident.numeric_close(points, SPECIALIZE_TOL)
        if pt is not None:
            failing.append({"identity": ident.label,
                            "residual": f"numeric mismatch at {pt}"})
    params = dict(params, points=len(points), tol=SPECIALIZE_TOL)
    return CheckResult(f"specialize.{check}", params, failing)


def run_suite(name: str, *, max_j=None, max_len=None, j=None,
              z=None) -> list[CheckResult]:
    """Run one named suite (or 'all').

    max_j, any value Fraction reads, bounds the spins of the suites in
    MAX_J_SUITES and max_len the confluence words; j and z pick the one
    comodule check.  An option the suite does not read, or a range that
    selects no check, raises UsageError, as does an unknown suite.

    Each identity is built once and checked exactly once.  `specialize`
    and `all` then evaluate the same identities numerically at random
    generic points.  Results are sorted by check name, except that
    `specialize` keeps builder order.
    """
    if name not in (*_BUILDERS, "confluence", "specialize", "all"):
        raise UsageError(f"unknown suite {name!r}; choose from {SUITES}")
    if (j is not None or z is not None) and name != "comodule":
        raise UsageError("--j and --z apply only to --suite comodule")
    if z is not None and j is None:
        raise UsageError("--z needs --j")
    if max_j is not None:
        if name not in MAX_J_SUITES:
            raise UsageError("--max-j applies only to --suite "
                             + ", ".join(MAX_J_SUITES))
        if j is not None:
            raise UsageError("--max-j and --j exclude each other")
        try:
            max_j = Fraction(max_j)
        except (TypeError, ValueError, ArithmeticError):
            max_j = None
        if max_j is None or max_j < HALF or (2 * max_j).denominator != 1:
            raise UsageError("--max-j must be a positive half-integer")
    if max_len is not None:
        if name not in MAX_LEN_SUITES:
            raise UsageError("--max-len applies only to --suite "
                             + ", ".join(MAX_LEN_SUITES))
        if max_len < 2:
            raise UsageError("--max-len must be at least 2")
    opts = {"max_j": max_j, "max_len": max_len, "j": j, "z": z}
    if name == "confluence":
        return _run_confluence(opts)
    if name in ("all", "specialize"):
        suites = IDENTITY_SUITES
        points = random_points(SPECIALIZE_POINTS)
    else:
        suites, points = (name,), None
    results = []
    for suite in suites:
        for check, params, idents in _BUILDERS[suite](opts):
            idents = list(idents)
            verdicts = [ident.holds_exactly() for ident in idents]
            if name != "specialize":
                results.append(run_identities(check, params, idents, verdicts))
            if points is not None:
                results.append(_specialize(check, params, idents, verdicts,
                                           points))
    if name == "specialize":
        return results
    if name == "all":
        results.extend(_run_confluence(opts))
    return sorted(results, key=lambda r: r.check)
