"""Text grammar for operator expressions.

    expr   := term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ['^' uint]
    atom   := rational | symbol | genref | '(' expr ')' | '-' factor

Juxtaposition multiplies, so formulas transcribe naturally:
"d1 u1 - u1 d1" normalizes to 1. Symbols are u<i>, d<i>, E, k, nu<i>;
generator references are T[i,j], Td[d], C[i], C[i,j], C[{i,...}],
L1[j]..L4[j], L5[i,j], L6[i,j]. All indices are validated against the
active context (n factors, n-2 variables, ambient rank n-1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .embed import l_op, l_op_pair
from .poly import Rat
from .racah import RacahContext
from .weyl import WeylOp

__all__ = ["ParseError", "parse", "elaborate"]

# Largest exponent after '^'; each power of an operator grows its Leibniz expansion.
MAX_EXPONENT = 64


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Rat


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Gen:
    kind: str
    args: tuple


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Sum:
    parts: tuple


@dataclass(frozen=True)
class Prod:
    parts: tuple


# -- tokenizer ------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[][{}(),+\-*^]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", where)
        if match.lastgroup == "number":
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("punct", match.group("punct"), match.start("punct")))
        pos = match.end()
    return tokens


_SYMBOL_RE = re.compile(r"^(u|d|nu)(\d+)$")
_GEN_KINDS = {"T": 2, "Td": 1, "L1": 1, "L2": 1, "L3": 1, "L4": 1, "L5": 2, "L6": 2}


class _Parser:
    def __init__(self, text: str, ctx: RacahContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect(self, value: str):
        tok = self._next()
        if tok[0] != "punct" or tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        if not self.tokens:
            raise ParseError("empty expression", 0)
        ast = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return ast

    def expr(self):
        parts = [self.term()]
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "punct" or tok[1] not in "+-":
                break
            self._next()
            nxt = self.term()
            parts.append(Neg(nxt) if tok[1] == "-" else nxt)
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self):
        parts = [self.factor()]
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok[0] == "punct" and tok[1] == "*":
                self._next()
                parts.append(self.factor())
            elif tok[0] in ("number", "name") or (tok[0] == "punct" and tok[1] == "("):
                parts.append(self.factor())
            else:
                break
        return parts[0] if len(parts) == 1 else Prod(tuple(parts))

    def factor(self):
        base = self.atom()
        tok = self._peek()
        if tok is not None and tok[0] == "punct" and tok[1] == "^":
            self._next()
            etok = self._next()
            if etok[0] != "number" or "/" in etok[1]:
                raise ParseError("exponent must be a non-negative integer", etok[2])
            exponent = etok[1].lstrip("0") or "0"
            if len(exponent) > 2 or int(exponent) > MAX_EXPONENT:
                raise ParseError(f"exponent {etok[1]} exceeds the limit {MAX_EXPONENT}", etok[2])
            return Pow(base, int(exponent))
        return base

    def atom(self):
        tok = self._next()
        kind, value, where = tok
        if kind == "number":
            try:
                return Num(Rat(value))
            except ZeroDivisionError:
                raise ParseError("rational literal with zero denominator", where) from None
        if kind == "punct" and value == "(":
            inner = self.expr()
            self._expect(")")
            return inner
        if kind == "punct" and value == "-":
            return Neg(self.factor())
        if kind == "name":
            follow = self._peek()
            if follow is not None and follow[0] == "punct" and follow[1] == "[":
                return self.genref(value, where)
            return self.symbol(value, where)
        raise ParseError(f"unexpected {value!r}", where)

    def _uint(self) -> int:
        tok = self._next()
        if tok[0] != "number" or "/" in tok[1]:
            raise ParseError("expected an integer index", tok[2])
        return int(tok[1])

    def symbol(self, name: str, where: int):
        n = self.ctx.n
        if name == "E" or name == "k":
            return Sym(name)
        match = _SYMBOL_RE.match(name)
        if match is None:
            raise ParseError(f"unknown symbol {name!r}", where)
        head, idx = match.group(1), int(match.group(2))
        if head in ("u", "d"):
            if not 1 <= idx <= n - 2:
                raise ParseError(
                    f"{name!r} out of range: context has variables u1..u{n - 2}", where
                )
        else:
            if not 1 <= idx <= n:
                raise ParseError(f"{name!r} out of range: parameters nu1..nu{n}", where)
        return Sym(name)

    def genref(self, name: str, where: int):
        n = self.ctx.n
        self._expect("[")
        if name == "C":
            tok = self._peek()
            if tok is not None and tok[0] == "punct" and tok[1] == "{":
                self._next()
                indices = [self._uint()]
                while True:
                    tok = self._next()
                    if tok[0] == "punct" and tok[1] == "}":
                        break
                    if tok[0] != "punct" or tok[1] != ",":
                        raise ParseError("expected ',' or '}' in subset", tok[2])
                    indices.append(self._uint())
                self._expect("]")
                bad = [i for i in indices if not 1 <= i <= n]
                if bad:
                    raise ParseError(f"subset index {bad[0]} out of range 1..{n}", where)
                return Gen("Cset", tuple(sorted(set(indices))))
            indices = [self._uint()]
            tok = self._next()
            if tok[0] == "punct" and tok[1] == ",":
                indices.append(self._uint())
                self._expect("]")
            elif not (tok[0] == "punct" and tok[1] == "]"):
                raise ParseError("expected ',' or ']'", tok[2])
            bad = [i for i in indices if not 1 <= i <= n]
            if bad:
                raise ParseError(f"index {bad[0]} out of range 1..{n}", where)
            return Gen("C", tuple(indices))
        arity = _GEN_KINDS.get(name)
        if arity is None:
            raise ParseError(f"unknown generator {name!r}", where)
        indices = [self._uint()]
        if arity == 2:
            self._expect(",")
            indices.append(self._uint())
        self._expect("]")
        if name == "T":
            limit = n - 1
        elif name == "Td":
            limit = n - 2
        else:
            limit = n
        bad = [i for i in indices if not 1 <= i <= limit]
        if bad:
            raise ParseError(f"index {bad[0]} out of range 1..{limit} for {name}", where)
        return Gen(name, tuple(indices))


def parse(text: str, ctx: RacahContext):
    """Parse an expression against a context; raises ParseError with position."""
    return _Parser(text, ctx).parse()


def elaborate(ast, ctx: RacahContext) -> WeylOp:
    """Evaluate an AST to a normal-form operator via the module constructors."""
    ring = ctx.ring
    if isinstance(ast, Num):
        return WeylOp.scalar(ring, ast.value)
    if isinstance(ast, Sym):
        name = ast.name
        if name == "E":
            return ctx.dm.euler_op()
        if name == "k":
            return WeylOp.from_poly(ring.k())
        head, idx = _SYMBOL_RE.match(name).groups()
        idx = int(idx)
        if head == "u":
            return WeylOp.from_poly(ring.u(idx))
        if head == "d":
            return WeylOp.partial(ring, idx)
        return WeylOp.from_poly(ring.nu(idx))
    if isinstance(ast, Gen):
        kind, args = ast.kind, ast.args
        if kind == "T":
            return ctx.dm.t_op(*args)
        if kind == "Td":
            return ctx.dm.ttilde_op(args[0])
        if kind == "C":
            if len(args) == 1:
                return ctx.c_single(args[0])
            return ctx.c_pair(*args)
        if kind == "Cset":
            return ctx.c_set(args)
        if kind in ("L5", "L6"):
            return l_op_pair(ctx, kind, args[0], args[1]).op
        return l_op(ctx, kind, args[0]).op
    if isinstance(ast, Neg):
        return -elaborate(ast.arg, ctx)
    if isinstance(ast, Pow):
        return elaborate(ast.base, ctx) ** ast.exponent
    if isinstance(ast, Sum):
        out = WeylOp.zero(ring)
        for part in ast.parts:
            out = out + elaborate(part, ctx)
        return out
    if isinstance(ast, Prod):
        out = WeylOp.identity(ring)
        for part in ast.parts:
            out = out * elaborate(part, ctx)
        return out
    raise TypeError(f"not an AST node: {ast!r}")
