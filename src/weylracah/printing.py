"""Canonical text rendering of polynomials and operators.

The printed form is stable (graded-lex, leading terms first) and round-trips
through the expression parser: u1, k, nu3 name ring symbols and d2 names the
derivative in u2.
"""

from __future__ import annotations

from .poly import Poly
from .weyl import WeylOp

__all__ = ["print_canonical", "format_poly"]


def _power(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _monomial_text(ring, monomial: int) -> str:
    """The factors of a packed monomial, "" for 1; cached in `ring.texts`."""
    text = ring.texts.get(monomial)
    if text is None:
        exps = ring.unpack(monomial)
        text = " ".join(_power(name, exp) for name, exp in zip(ring.names, exps) if exp)
        ring.texts[monomial] = text
    return text


def _render(ring, flat_terms) -> str:
    """Text of (coeff, monomial, derivative text) triples in order."""
    if not flat_terms:
        return "0"
    pieces = []
    for index, (coeff, monomial, derivative) in enumerate(flat_terms):
        factors = [text for text in (_monomial_text(ring, monomial), derivative) if text]
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors.insert(0, str(magnitude))
        body = " ".join(factors)
        if index == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(pieces)


def print_canonical(op: WeylOp) -> str:
    """Normal form of an operator, one flat term per rational coefficient."""
    flat = []
    for alpha in sorted(op.terms, key=lambda a: (sum(a), a), reverse=True):
        derivative = " ".join(_power(f"d{pos + 1}", exp) for pos, exp in enumerate(alpha) if exp)
        for monomial, coeff in op.terms[alpha].sorted_terms():
            flat.append((coeff, monomial, derivative))
    return _render(op.ring, flat)


def format_poly(p: Poly) -> str:
    return _render(p.ring, [(coeff, monomial, "") for monomial, coeff in p.sorted_terms()])
