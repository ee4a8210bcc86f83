"""Text grammar for operator expressions.

    expr   := term (('+' | '-') term)*
    term   := factor ('*'? factor)*
    factor := atom ['^' uint]
    atom   := rational | name | name '[' list ']' | name '[' '{' list '}' ']'
            | '(' expr ')' | '-' factor
    list   := uint (',' uint)*

Juxtaposition multiplies, so formulas transcribe naturally:
"d1 u1 - u1 d1" normalizes to 1. Each named atom, a symbol such as u3 or
a generator reference such as C[1,3], is one entry of ATOMS: the parser
checks a name against its entry and `elaborate` calls its constructor.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import reduce
from typing import Callable, NamedTuple

from .embed import l_op, l_op_pair
from .poly import Rat
from .racah import RacahContext
from .weyl import CHARGE, WeylOp

__all__ = ["ParseError", "parse", "elaborate", "commutator"]

# Largest exponent after '^'; each power of an operator grows its Leibniz expansion.
MAX_EXPONENT = 64
# Deepest nesting of '(' and unary '-'; the parser and `elaborate` recurse per level.
MAX_DEPTH = 64
# Most work that the products and sums of one `elaborate` call, or of one
# `commute` request with its commutator, may do together, in the units that
# they charge through `weyl.CHARGE`: one per coefficient term pair, one per term
# of each derivative of a right operand's coefficient, `weyl.GAMMA_WORK` per
# (gamma, beta) that the Leibniz kernel visits, and one per coefficient term of
# each part of a sum. A unit takes about 0.2-0.9 us
# with integer coefficients and about 3 us with Fraction ones, on a 2-vCPU VM
# under CPython 3.11.
MAX_PRODUCT_WORK = 2_000_000


class ParseError(ValueError):
    """A malformed expression, or one too costly to elaborate (position None)."""

    def __init__(self, message: str, position: int | None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class Atom(NamedTuple):
    """What the grammar knows about one named atom."""

    bracketed: bool  # written name[i,...]; otherwise its index is part of its name (u3)
    counts: tuple | None  # the index counts it takes; None for any positive count
    offset: int  # its largest index is n - offset
    build: Callable  # build(ctx, *indices) -> WeylOp


# "C{}" is C[{i,...}], the Casimir of a factor subset.
ATOMS = {
    "E": Atom(False, (0,), 0, lambda ctx: ctx.dm.euler_op()),
    "k": Atom(False, (0,), 0, lambda ctx: WeylOp.from_poly(ctx.ring.k())),
    "u": Atom(False, (1,), 2, lambda ctx, i: WeylOp.from_poly(ctx.ring.u(i))),
    "d": Atom(False, (1,), 2, lambda ctx, i: WeylOp.partial(ctx.ring, i)),
    "nu": Atom(False, (1,), 0, lambda ctx, i: WeylOp.from_poly(ctx.ring.nu(i))),
    "T": Atom(True, (2,), 1, lambda ctx, i, j: ctx.dm.t_op(i, j)),
    "Td": Atom(True, (1,), 2, lambda ctx, d: ctx.dm.ttilde_op(d)),
    "C": Atom(
        True, (1, 2), 0, lambda ctx, *ij: ctx.c_pair(*ij) if len(ij) == 2 else ctx.c_single(*ij)
    ),
    "C{}": Atom(True, None, 0, lambda ctx, *a: ctx.c_set(a)),
    "L1": Atom(True, (1,), 0, lambda ctx, j: l_op(ctx, "L1", j).op),
    "L2": Atom(True, (1,), 0, lambda ctx, j: l_op(ctx, "L2", j).op),
    "L3": Atom(True, (1,), 0, lambda ctx, j: l_op(ctx, "L3", j).op),
    "L4": Atom(True, (1,), 0, lambda ctx, j: l_op(ctx, "L4", j).op),
    "L5": Atom(True, (2,), 0, lambda ctx, i, j: l_op_pair(ctx, "L5", i, j).op),
    "L6": Atom(True, (2,), 0, lambda ctx, i, j: l_op_pair(ctx, "L6", i, j).op),
}


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Rat


@dataclass(frozen=True)
class Ref:
    name: str  # the named atom's key in ATOMS
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
    r"(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[][{}(),+\-*^])"
    r"|(?P<error>\S)"
)


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        if match.lastgroup == "error":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        tokens.append((match.lastgroup, match.group(), match.start()))
    return tokens


def _int(digits: str, where: int) -> int:
    """A digit string as an int; one past CPython's int-string limit is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number of {len(digits)} digits is too long", where) from None


class _Parser:
    def __init__(self, text: str, ctx: RacahContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _accept(self, value: str) -> bool:
        """Consume the next token if it is the punctuation `value`."""
        found = self.pos < len(self.tokens) and self.tokens[self.pos][1] == value
        self.pos += found
        return found

    def _expect(self, value: str):
        tok = self._next()
        if tok[0] != "punct" or tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

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
            if self._accept("+"):
                parts.append(self.term())
            elif self._accept("-"):
                parts.append(Neg(self.term()))
            else:
                return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self):
        parts = [self.factor()]
        while True:
            tok = self._peek()
            if self._accept("*") or tok is not None and (tok[0] != "punct" or tok[1] == "("):
                parts.append(self.factor())
            else:
                return parts[0] if len(parts) == 1 else Prod(tuple(parts))

    def factor(self):
        base = self.atom()
        if not self._accept("^"):
            return base
        kind, digits, where = self._next()
        if kind != "number" or "/" in digits:
            raise ParseError("exponent must be a non-negative integer", where)
        exponent = digits.lstrip("0") or "0"
        if len(exponent) > 2 or int(exponent) > MAX_EXPONENT:
            raise ParseError(f"exponent {digits} exceeds the limit {MAX_EXPONENT}", where)
        return Pow(base, int(exponent))

    def atom(self):
        kind, value, where = self._next()
        if kind == "number":
            num, _, den = value.partition("/")
            den = _int(den or "1", where)
            if not den:
                raise ParseError("rational literal with zero denominator", where)
            return Num(Rat(_int(num, where), den))
        if kind == "name":
            return self.ref(value, where)
        if value in ("(", "-"):
            if self.depth == MAX_DEPTH:
                raise ParseError(f"nesting deeper than the limit {MAX_DEPTH}", where)
            self.depth += 1
            if value == "(":
                node = self.expr()
                self._expect(")")
            else:
                node = Neg(self.factor())
            self.depth -= 1
            return node
        raise ParseError(f"unexpected {value!r}", where)

    def _list(self, close: str) -> list:
        """Comma-separated indices up to and including `close`."""
        indices = []
        while True:
            kind, digits, where = self._next()
            if kind != "number" or "/" in digits:
                raise ParseError("expected an integer index", where)
            indices.append(_int(digits, where))
            _, punct, where = self._next()
            if punct == close:
                return indices
            if punct != ",":
                raise ParseError(f"expected ',' or {close!r}, found {punct!r}", where)

    def ref(self, name: str, where: int) -> Ref:
        """A named atom, checked against its ATOMS entry."""
        bracketed = self._accept("[")
        subset = bracketed and self._accept("{")
        key = name + "{}" if subset else name if bracketed else name.rstrip("0123456789")
        atom = ATOMS.get(key)
        if atom is None or atom.bracketed != bracketed:
            raise ParseError(f"unknown {'generator' if bracketed else 'symbol'} {name!r}", where)
        if bracketed:
            args = self._list("}" if subset else "]")
            if subset:
                self._expect("]")
        else:
            args = [_int(name[len(key):], where)] if key != name else []
            name = key
        if atom.counts is not None and len(args) not in atom.counts:
            want = " or ".join(map(str, atom.counts))
            noun = "index" if want == "1" else "indices"
            raise ParseError(f"{name} takes {want} {noun}, found {len(args)}", where)
        limit = self.ctx.n - atom.offset
        for i in args:
            if not 1 <= i <= limit:
                raise ParseError(f"{name} index {i} out of range 1..{limit}", where)
        return Ref(key, tuple(args))


def parse(text: str, ctx: RacahContext):
    """Parse an expression against a context; raises ParseError with position."""
    return _Parser(text, ctx).parse()


def elaborate(ast, ctx: RacahContext) -> WeylOp:
    """Evaluate an AST to a normal-form operator via the module constructors,
    with one budget of MAX_PRODUCT_WORK for every product formed meanwhile, in
    an atom's constructor or for a factor of a power too."""
    with _Budget("an expression"):
        return _value(ast, ctx)


def commutator(lhs, rhs, ctx: RacahContext) -> WeylOp:
    """The commutator of two ASTs' operators, with one budget for both and for it."""
    with _Budget("a commute request"):
        return _value(lhs, ctx).commutator(_value(rhs, ctx))


class _Budget:
    """The work one request has spent, charged through `weyl.CHARGE` while
    the request's operators are formed; past MAX_PRODUCT_WORK it refuses the
    request, so a refusal comes after at most one budget of work."""

    def __init__(self, what: str):
        self.what, self.spent = what, 0

    def charge(self, work: int) -> None:
        self.spent += work
        if self.spent > MAX_PRODUCT_WORK:
            raise ParseError(
                f"{self.what} of {self.spent} units of work exceeds the limit {MAX_PRODUCT_WORK}",
                None,
            )

    def __enter__(self):
        self.token = CHARGE.set(self.charge)

    def __exit__(self, *exc):
        CHARGE.reset(self.token)


def _charged(op: WeylOp) -> WeylOp:
    """op, its coefficient terms charged to the request's budget: what adding
    it into a sum costs, so a long sum of cached atoms is refused in time."""
    CHARGE.get()(sum(len(p.terms) for p in op.terms.values()))
    return op


def _value(node, ctx: RacahContext) -> WeylOp:
    if isinstance(node, Num):
        return WeylOp.scalar(ctx.ring, node.value)
    if isinstance(node, Ref):
        return ATOMS[node.name].build(ctx, *node.args)
    if isinstance(node, Neg):
        return -_value(node.arg, ctx)
    if isinstance(node, Pow):
        base = _value(node.base, ctx)
        return reduce(operator.mul, [base] * node.exponent, WeylOp.identity(ctx.ring))
    if isinstance(node, Sum):
        return reduce(operator.add, (_charged(_value(part, ctx)) for part in node.parts))
    if isinstance(node, Prod):
        return reduce(operator.mul, [_value(part, ctx) for part in node.parts])
    raise TypeError(f"not an AST node: {node!r}")
