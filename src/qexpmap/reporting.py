"""Identity checking and report structures shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field

from .matrices import Matrix
from .rewrite import NCPoly
from .scalars import NumericParams, eval_numeric, scalar_is_zero


@dataclass
class Identity:
    """One verifiable equation lhs = rhs (matrices, polynomials or scalars)."""
    label: str
    lhs: object
    rhs: object
    note: str = ""

    def residual(self):
        return self.lhs - self.rhs

    def holds_exactly(self) -> bool:
        res = self.residual()
        if isinstance(res, (Matrix, NCPoly)):
            return res.is_zero()
        return scalar_is_zero(res)

    def numeric_close(self, params: NumericParams, tol: float = 1e-10) -> bool:
        return _numeric_close(self.lhs, self.rhs, params, tol)


def _coeff_maps(x, params):
    """Numeric view of a value: {key: float}."""
    if isinstance(x, NCPoly):
        return x.eval_coeffs(params)
    return {(): eval_numeric(x, params)}


def _numeric_close(lhs, rhs, params, tol):
    if isinstance(lhs, Matrix):
        return all(
            _numeric_close(lhs[i, j], rhs[i, j], params, tol)
            for i in range(lhs.nrows) for j in range(lhs.ncols))
    ml, mr = _coeff_maps(lhs, params), _coeff_maps(rhs, params)
    scale = max([1.0] + [abs(v) for v in ml.values()]
                + [abs(v) for v in mr.values()])
    for key in set(ml) | set(mr):
        if abs(ml.get(key, 0.0) - mr.get(key, 0.0)) > tol * scale:
            return False
    return True


@dataclass
class CheckResult:
    check: str
    params: dict
    passed: bool
    residuals: list = field(default_factory=list)
    notes: list = field(default_factory=list)

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
    return CheckResult(check, params, not failing, failing, notes)


def _describe(res) -> str:
    if isinstance(res, Matrix):
        cells = [f"({i},{j})={res[i, j]}" for i in range(res.nrows)
                 for j in range(res.ncols) if not _cell_zero(res[i, j])]
        return "; ".join(cells[:8]) + ("..." if len(cells) > 8 else "")
    return str(res)


def _cell_zero(x) -> bool:
    if isinstance(x, NCPoly):
        return x.is_zero()
    return scalar_is_zero(x)
