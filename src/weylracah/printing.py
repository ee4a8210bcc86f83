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


def _factor_text(ring, key) -> str:
    """The factors of a packed monomial (an int) or of a derivative exponent
    (a tuple), "" for 1; cached in `ring.texts`, where the two never collide."""
    text = ring.texts.get(key)
    if text is None:
        pairs = zip(ring.names, ring.unpack(key)) if type(key) is int else (
            (f"d{pos + 1}", exp) for pos, exp in enumerate(key))
        text = ring.texts[key] = " ".join(_power(name, exp) for name, exp in pairs if exp)
    return text


def _render(ring, groups) -> str:
    """Text of (derivative exponent, coefficient) pairs in order, the terms
    of each coefficient by decreasing monomial."""
    texts = ring.texts
    pieces = []
    for alpha, p in groups:
        coeffs = p.terms
        derivative = _factor_text(ring, alpha)
        for monomial in sorted(coeffs, reverse=True):
            coeff = coeffs[monomial]
            factors = texts[monomial] if monomial in texts else _factor_text(ring, monomial)
            if derivative:
                factors = f"{factors} {derivative}" if factors else derivative
            sign, coeff = "-" if coeff < 0 else "+", abs(coeff)
            if coeff != 1 or not factors:
                factors = f"{coeff} {factors}" if factors else str(coeff)
            pieces.append(f"{sign} {factors}")
    if not pieces:
        return "0"
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def print_canonical(op: WeylOp) -> str:
    """Normal form of an operator, one flat term per rational coefficient."""
    order = sorted(op.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return _render(op.ring, order)


def format_poly(p: Poly) -> str:
    return _render(p.ring, [((), p)])
