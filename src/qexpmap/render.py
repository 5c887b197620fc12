"""Output rendering: plain text, JSON and LaTeX for polynomials and matrices."""

from __future__ import annotations

from fractions import Fraction

from .matrices import Matrix
from .rewrite import NCPoly, _word_sort_key
from .scalars import (FracScalar, HalfLaurent, RadScalar, scalar_lambda_one,
                      scalar_to_json)


# ---------------------------------------------------------------------------
# text


def matrix_text(m: Matrix) -> str:
    cells = [[str(x) for x in row] for row in m.rows]
    widths = [max(len(cells[r][c]) for r in range(m.nrows))
              for c in range(m.ncols)]
    lines = ["[" + ", ".join(cell.rjust(w) for cell, w in zip(row, widths))
             + "]" for row in cells]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON


def poly_json(x: NCPoly):
    return {"algebra": x.pres.name, "terms": x.to_json()}


def matrix_json(m: Matrix):
    def entry(x):
        if isinstance(x, NCPoly):
            return poly_json(x)
        return {"scalar": scalar_to_json(x)}
    return {"rows": m.nrows, "cols": m.ncols, "entries": m.to_json(entry)}


# ---------------------------------------------------------------------------
# LaTeX


_LATEX_NAMES = {"lambda": r"\lambda", "D": r"{\cal D}"}


def _latex_name(g: str) -> str:
    return _LATEX_NAMES.get(g, g)


def _latex_pow(base: str, e) -> str:
    e = Fraction(e)
    if e == 1:
        return base
    es = str(e.numerator) if e.denominator == 1 \
        else f"{e.numerator}/{e.denominator}"
    return f"{base}^{{{es}}}"


def scalar_latex(x, lambda_one: bool = False) -> str:
    if isinstance(x, (int, Fraction)):
        return str(x)
    if lambda_one:
        x = scalar_lambda_one(x)
    if isinstance(x, HalfLaurent):
        return _halflaurent_latex(x, lambda_one)
    if isinstance(x, FracScalar):
        if x.den.is_one():
            return _halflaurent_latex(x.num, lambda_one)
        return (r"\frac{" + _halflaurent_latex(x.num, lambda_one) + "}{"
                + _halflaurent_latex(x.den, lambda_one) + "}")
    if isinstance(x, RadScalar):
        parts = []
        for c, rad in x.terms:
            s = scalar_latex(c, lambda_one)
            if rad:
                root = r"\sqrt{" + "".join(f"[{n}]" for n in rad) + "}"
                s = root if s == "1" else (f"-{root}" if s == "-1"
                                           else f"({s}){root}")
            parts.append(s)
        return " + ".join(parts) if parts else "0"
    raise TypeError(f"cannot render {type(x).__name__}")


def _halflaurent_latex(x: HalfLaurent, lambda_one: bool) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for (u, v) in sorted(x.terms, reverse=True):
        c = x.terms[(u, v)]
        mono = _mono_latex(u, 0 if lambda_one else v, lambda_one)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{mono}"
        parts.append(("-" if c < 0 else "+", body))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _mono_latex(u: int, v: int, lambda_one: bool) -> str:
    if lambda_one:
        return "1" if u == 0 else _latex_pow("q", Fraction(u, 2))
    if u == 0 and v == 0:
        return "1"
    xe, ye = Fraction(u + v, 4), Fraction(u - v, 4)
    factors = []
    if xe.denominator == 1 and ye.denominator == 1:
        if xe:
            factors.append(_latex_pow("p", xe))
        if ye:
            factors.append(_latex_pow("q", ye))
    else:
        if u:
            factors.append(_latex_pow("Q", Fraction(u, 2)))
        if v:
            factors.append(_latex_pow(r"\lambda", Fraction(v, 2)))
    return "".join(factors) if factors else "1"


def poly_latex(x: NCPoly) -> str:
    lam1 = getattr(x.pres, "lambda_one", False)
    if not x.terms:
        return "0"
    pieces = []
    for word in sorted(x.terms, key=lambda w: _word_sort_key(x.pres, w)):
        wstr = "".join(_latex_pow(_latex_name(g), e) for g, e in word)
        cstr = scalar_latex(x.terms[word], lam1)
        if wstr:
            if cstr == "1":
                pieces.append(wstr)
            elif cstr == "-1":
                pieces.append(f"-{wstr}")
            else:
                if "+" in cstr or " - " in cstr:
                    cstr = f"({cstr})"
                pieces.append(f"{cstr}{wstr}")
        else:
            pieces.append(cstr)
    out = pieces[0]
    for p in pieces[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def matrix_latex(m: Matrix) -> str:
    body = " \\\\\n".join(
        " & ".join(poly_latex(x) if isinstance(x, NCPoly) else scalar_latex(x)
                   for x in row)
        for row in m.rows)
    cols = "c" * m.ncols
    return (r"\left(\begin{array}{" + cols + "}\n" + body
            + "\n" + r"\end{array}\right)")


def render_poly(x: NCPoly, fmt: str) -> str:
    import json
    if fmt == "json":
        return json.dumps(poly_json(x), sort_keys=True)
    if fmt == "latex":
        return poly_latex(x)
    return str(x)


def render_matrix(m: Matrix, fmt: str) -> str:
    import json
    if fmt == "json":
        return json.dumps(matrix_json(m), sort_keys=True)
    if fmt == "latex":
        return matrix_latex(m)
    return matrix_text(m)
