"""Identity checking and report structures shared by the verification suites."""

from __future__ import annotations

from .matrices import Matrix
from .rewrite import NCPoly
from .scalars import eval_points, scalar_is_zero


class Identity:
    """One verifiable equation lhs = rhs (matrices, polynomials or scalars)."""

    def __init__(self, label: str, lhs, rhs, note: str = ""):
        self.label, self.lhs, self.rhs, self.note = label, lhs, rhs, note

    def residual(self):
        return self.lhs - self.rhs

    def holds_exactly(self) -> bool:
        return self.lhs == self.rhs

    def numeric_close(self, points, tol: float):
        """The first of `points` at which lhs and rhs differ in a word's
        coefficient by more than tol times the largest coefficient of the
        entry (or 1), else None.  Every coefficient is evaluated at all
        points in one pass, so one that cannot be evaluated at some point
        raises even when an earlier point already mismatched."""
        lhs, rhs = self.lhs, self.rhs
        entries = ([_aligned(lhs[i, j], rhs[i, j]) for i in range(lhs.nrows)
                    for j in range(lhs.ncols)]
                   if isinstance(lhs, Matrix) else [_aligned(lhs, rhs)])
        zeros = [0.0] * len(points)
        first = len(points)
        for coeffs, pairs in entries:
            columns = zip(*[eval_points(c, points) for c in coeffs], zeros)
            for k, vals in zip(range(first), columns):
                bound = tol * max([1.0] + [abs(v) for v in vals])
                if any(abs(vals[i] - vals[j]) > bound for i, j in pairs):
                    first = k
                    break
        return points[first] if first < len(points) else None


def _aligned(lhs, rhs):
    """An entry's coefficients, lhs then rhs in their own word order (so the
    first one that cannot be evaluated at some point raises), and per word
    the indices of its lhs and rhs coefficient; -1 is the 0.0 of a side
    without the word."""
    lt = lhs.terms if isinstance(lhs, NCPoly) else {(): lhs}
    rt = rhs.terms if isinstance(rhs, NCPoly) else {(): rhs}
    left = {w: i for i, w in enumerate(lt)}
    pairs = [(left.pop(w, -1), len(lt) + k) for k, w in enumerate(rt)]
    pairs += [(i, -1) for i in left.values()]
    return [*lt.values(), *rt.values()], pairs


class CheckResult:
    def __init__(self, check: str, params: dict,
                 residuals: list | None = None, notes: list | None = None):
        self.check, self.params = check, params
        self.residuals = [] if residuals is None else residuals
        self.notes = [] if notes is None else notes

    @property
    def passed(self) -> bool:
        return not self.residuals

    def to_json(self):
        return {"check": self.check, "params": self.params,
                "pass": self.passed, "residuals": self.residuals,
                "notes": self.notes}


def run_identities(check: str, params: dict, identities,
                   verdicts) -> CheckResult:
    """Report identities given their exact verdicts (holds_exactly());
    failing labels go into residuals."""
    failing = []
    notes = []
    for ident, holds in zip(identities, verdicts):
        if ident.note:
            notes.append(f"{ident.label}: {ident.note}")
        if not holds:
            failing.append({"identity": ident.label,
                            "residual": _describe(ident.residual())})
    return CheckResult(check, params, failing, notes)


def _describe(res) -> str:
    if isinstance(res, Matrix):
        cells = [f"({i},{j})={res[i, j]}" for i in range(res.nrows)
                 for j in range(res.ncols) if not scalar_is_zero(res[i, j])]
        return "; ".join(cells[:8]) + ("..." if len(cells) > 8 else "")
    return str(res)
