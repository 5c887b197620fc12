"""Expression parser for algebra elements.

Grammar:

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' rational)?
    atom     := generator-name | integer | 'Q' | 'lambda' | 'p' | 'q'
              | '(' expr ')'
    rational := ['-'] integer ('/' integer)?

Scalar names parse to HalfLaurent monomials ('p' = Q*lambda, 'q' =
Q*lambda^-1; under a lambda_one presentation both read as Q).  The result
is the polynomial denoted by the expression, built by the NCPoly
constructor from the expanded terms: each is validated once, like terms are
merged, and the rewrite engine runs once.  The term guard also bounds the
expansion: a product that would hold more raw terms than the guard raises
GuardExceeded before it is formed.
"""

from __future__ import annotations

from fractions import Fraction

from .rewrite import (GuardExceeded, NCPoly, ParseError, Presentation,
                      RewriteError, _exponent, term_guard)
from .scalars import (HalfLaurent, Q_pow, lam_pow, p_pow, q_pow,
                      scalar_lambda_one)


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_@"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive-descent parser producing raw (coeff, atoms) term lists."""

    def __init__(self, text: str, pres: Presentation):
        self.text = text
        self.pres = pres
        self.tokens = _tokenize(text)
        self.pos = 0
        self.guard = term_guard()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    # raw polynomial = list of (coeff, atoms); no normal ordering

    def product(self, left, right):
        """The expanded product of two raw term lists; GuardExceeded before
        it would hold more terms than the term guard."""
        if len(left) * len(right) > self.guard:
            raise GuardExceeded(
                f"expanding the expression exceeded {self.guard} terms")
        return [(c1 * c2, w1 + w2) for c1, w1 in left for c2, w2 in right]

    def parse(self):
        terms = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return terms

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        terms = self.term()
        if negate:
            terms = [(-c, w) for c, w in terms]
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            if op == "-":
                rhs = [(-c, w) for c, w in rhs]
            terms = terms + rhs
        return terms

    def term(self):
        terms = self.factor()
        while self.peek()[0] == "*":
            self.take()
            terms = self.product(terms, self.factor())
        return terms

    def factor(self):
        start = self.peek()
        base = self.atom()
        if self.peek()[0] != "^":
            return self._unwrap(base)
        self.take()
        exp = self.rational()
        kind, payload = base
        if kind == "gen":
            try:
                exp = _exponent(self.pres, payload, exp)
            except RewriteError as exc:
                raise ParseError(str(exc), start[2]) from None
            return [(1, ((payload, exp),))]
        if kind == "scalar":
            mono = payload
            if mono.is_one():
                return [(1, ())]
            (u, v), = mono.terms
            nu, nv = u * exp, v * exp
            if nu.denominator != 1 or nv.denominator != 1:
                raise ParseError(f"exponent {exp} not representable", start[2])
            return [(HalfLaurent.monomial(1, int(nu), int(nv)), ())]
        terms = payload
        if exp.denominator != 1 or exp < 0:
            raise ParseError("general expressions take nonnegative integer powers",
                             start[2])
        if exp and len(terms) == 1 and len(terms[0][1]) == 1:
            # (c*g^e)^n = c^n*g^(e*n): one atom, not n atoms to merge
            (c, ((g, e),)), = terms
            return [(c ** int(exp), ((g, e * exp),))]
        out = [(1, ())]
        for _ in range(int(exp)):
            out = self.product(out, terms)
        return out

    def _unwrap(self, node):
        kind, payload = node
        if kind == "poly":
            return payload
        if kind == "gen":
            return [(1, ((payload, 1),))]
        return [(payload, ())]

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("poly", [(int(tok[1]), ())])
        if tok[0] == "(":
            self.take()
            terms = self.expr()
            self.take(")")
            return ("poly", terms)
        if tok[0] == "name":
            self.take()
            name = tok[1]
            if name in self.pres.order:
                return ("gen", name)
            scalars = self._scalar_table()
            if name in scalars:
                return ("scalar", scalars[name])
            raise ParseError(f"unknown identifier {name!r}", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def _scalar_table(self):
        table = {"Q": Q_pow(2), "lambda": lam_pow(2),
                 "p": p_pow(), "q": q_pow()}
        if self.pres.lambda_one:
            return {name: scalar_lambda_one(x) for name, x in table.items()}
        return table

    def rational(self) -> Fraction:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        num = int(self.take("num")[1])
        den = 1
        if self.peek()[0] == "/":
            self.take()
            tok = self.take("num")
            den = int(tok[1])
            if den == 0:
                raise ParseError("zero denominator in exponent", tok[2])
        return Fraction(sign * num, den)


def parse(text: str, pres: Presentation) -> NCPoly:
    """Parse an expression into its normal-ordered NCPoly.

    Raises ParseError for malformed text and RewriteError for a term the
    presentation does not allow, such as a negative power of a
    non-invertible generator, even when that term cancels.
    """
    return NCPoly(pres, _Parser(text, pres).parse())
