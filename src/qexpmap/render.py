"""Output rendering: plain text, JSON and LaTeX for scalars, polynomials and
matrices.

Text and LaTeX go through one renderer for each kind of value.  What differs
between the two formats is held by a fixed ``Style``, ``TEXT`` or ``LATEX``;
the ``__str__`` of every scalar and polynomial is the ``TEXT`` rendering.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, NamedTuple

from .matrices import Matrix
from .rewrite import NCPoly, _word_sort_key
from .scalars import (FracScalar, HalfLaurent, RadScalar, scalar_lambda_one,
                      scalar_to_json)


def _compound(s: str) -> bool:
    """Whether a rendered coefficient is a sum or difference."""
    return "+" in s or " - " in s


class Style(NamedTuple):
    power: str          # format of base^exponent
    sep: str            # between the factors of a product
    names: dict         # display names of parameters and generators
    frac: str           # format of numerator/denominator
    sqrt: str           # format of a radical, given its joined radicand
    rad_coeff: Callable[[str], str]   # a coefficient, not 1, before a radical
    text_parens: bool   # wrap word coefficients with "/" and constant sums


TEXT = Style(
    power="{}^{}", sep="*", names={}, frac="({})/({})", sqrt="sqrt({})",
    rad_coeff=lambda s: f"({s})*" if _compound(s) or "/" in s else s + "*",
    text_parens=True)

LATEX = Style(
    power="{}^{{{}}}", sep="", names={"lambda": r"\lambda", "D": r"{\cal D}"},
    frac=r"\frac{{{}}}{{{}}}", sqrt=r"\sqrt{{{}}}",
    rad_coeff=lambda s: "-" if s == "-1" else f"({s})",
    text_parens=False)


# ---------------------------------------------------------------------------
# scalars


def _pow(style: Style, base: str, e) -> str:
    base = style.names.get(base, base)
    return base if e == 1 else style.power.format(base, e)


def _half(h: int):
    """h/2, as an int when it is one."""
    return h >> 1 if h % 2 == 0 else Fraction(h, 2)


def _mono(style: Style, u: int, v: int, lambda_one: bool) -> str:
    """The monomial Q^(u/2) lambda^(v/2)."""
    if lambda_one:
        # p and q coincide, so Q = q; render powers of q directly
        return "1" if u == 0 else _pow(style, "q", _half(u))
    if u == 0 and v == 0:
        return "1"
    # prefer p/q form when both exponents are integral
    if (u + v) % 4 == 0 and (u - v) % 4 == 0:
        factors = [_pow(style, b, e)
                   for b, e in (("p", (u + v) >> 2), ("q", (u - v) >> 2)) if e]
    else:
        factors = [_pow(style, b, _half(h))
                   for b, h in (("Q", u), ("lambda", v)) if h]
    return style.sep.join(factors)


def _halflaurent(style: Style, x: HalfLaurent, lambda_one: bool) -> str:
    if x.is_zero():
        return "0"
    out = ""
    for (u, v) in sorted(x.terms, reverse=True):
        c = x.terms[(u, v)]
        mono = _mono(style, u, v, lambda_one)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}{style.sep}{mono}"
        if out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out


def scalar_str(x, style: Style = TEXT, lambda_one: bool = False) -> str:
    """A scalar-tower value in the given style; lambda_one renders it at
    p = q."""
    if isinstance(x, (int, Fraction)):
        return str(x)
    if lambda_one:
        x = scalar_lambda_one(x)
    if isinstance(x, HalfLaurent):
        return _halflaurent(style, x, lambda_one)
    if isinstance(x, FracScalar):
        num = _halflaurent(style, x.num, lambda_one)
        if x.den.is_one():
            return num
        return style.frac.format(num, _halflaurent(style, x.den, lambda_one))
    if isinstance(x, RadScalar):
        parts = []
        for c, rad in x.terms:
            s = scalar_str(c, style, lambda_one)
            if rad:
                root = style.sqrt.format(
                    style.sep.join(f"[{n}]" for n in rad))
                s = root if s == "1" else style.rad_coeff(s) + root
            parts.append(s)
        return " + ".join(parts) if parts else "0"
    raise TypeError(f"cannot render {type(x).__name__}")


# ---------------------------------------------------------------------------
# polynomials and matrices


def poly_str(x: NCPoly, style: Style = TEXT) -> str:
    """A polynomial in the given style; coefficients over a lambda-one
    presentation are rendered with p = q identified."""
    if not x.terms:
        return "0"
    pieces = []
    for word in sorted(x.terms, key=lambda w: _word_sort_key(x.pres, w)):
        wstr = style.sep.join(_pow(style, g, e) for g, e in word)
        cstr = scalar_str(x.terms[word], style, x.pres.lambda_one)
        if not wstr:
            if style.text_parens and "+" in cstr:
                cstr = f"({cstr})"
            pieces.append(cstr)
        elif cstr == "1":
            pieces.append(wstr)
        elif cstr == "-1":
            pieces.append(f"-{wstr}")
        else:
            wrap = _compound(cstr)
            if style.text_parens:
                wrap = (wrap or "/" in cstr) and not (
                    cstr.startswith("(") and cstr.endswith(")"))
            if wrap:
                cstr = f"({cstr})"
            pieces.append(f"{cstr}{style.sep}{wstr}")
    out = pieces[0]
    for p in pieces[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _cell(x, style: Style) -> str:
    return poly_str(x, style) if isinstance(x, NCPoly) else scalar_str(x, style)


def matrix_text(m: Matrix) -> str:
    cells = [[_cell(x, TEXT) for x in row] for row in m.rows]
    widths = [max(len(cells[r][c]) for r in range(m.nrows))
              for c in range(m.ncols)]
    lines = ["[" + ", ".join(cell.rjust(w) for cell, w in zip(row, widths))
             + "]" for row in cells]
    return "\n".join(lines)


def matrix_latex(m: Matrix) -> str:
    body = " \\\\\n".join(" & ".join(_cell(x, LATEX) for x in row)
                          for row in m.rows)
    cols = "c" * m.ncols
    return (r"\left(\begin{array}{" + cols + "}\n" + body
            + "\n" + r"\end{array}\right)")


# ---------------------------------------------------------------------------
# JSON


def poly_json(x: NCPoly):
    return {"algebra": x.pres.name, "terms": x.to_json()}


def matrix_json(m: Matrix):
    def entry(x):
        if isinstance(x, NCPoly):
            return poly_json(x)
        return {"scalar": scalar_to_json(x)}
    return {"rows": m.nrows, "cols": m.ncols,
            "entries": [[entry(x) for x in row] for row in m.rows]}


# ---------------------------------------------------------------------------


def render_poly(x: NCPoly, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(poly_json(x), sort_keys=True)
    return poly_str(x, LATEX if fmt == "latex" else TEXT)


def render_matrix(m: Matrix, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(matrix_json(m), sort_keys=True)
    if fmt == "latex":
        return matrix_latex(m)
    return matrix_text(m)
