"""Sparse vectors: finite linear combinations stored as {basis key: coefficient}.

Tensor words, normal-ordered U_q terms, module vectors and elements of the
deformation window are all finite k-linear combinations of basis keys.  This
module is the one place that adds a coefficient at a key and drops the key
when the sum is zero.  Coefficients are any ring elements whose truth value
means "nonzero": `int`, `Fraction` and `ScalarQ` all qualify.

Insertion order is kept: a new key goes to the end, a key whose sum cancels
is removed, and a key added again after a cancel goes to the end again.
"""

from __future__ import annotations

from typing import Mapping


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def combine(x: Mapping, y: Mapping, sign: int = 1) -> dict:
    """x + y (sign 1) or x - y (sign -1) as a new dict."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    out = dict(x)
    for key, c in y.items():
        add_term(out, key, c if sign == 1 else -c)
    return out


def scale(x: Mapping, c) -> dict:
    """c * x as a new dict; {} when c is zero."""
    if not c:
        return {}
    return {key: v * c for key, v in x.items()}


class Sparse:
    """A finite linear combination {key: nonzero coefficient}.

    Subclasses name the basis (tensor words, U_q terms) and print it;
    arithmetic returns the subclass of the left operand."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms: dict = {k: c for k, c in terms.items() if c} if terms else {}

    def add_term(self, key, c) -> None:
        add_term(self.terms, key, c)

    def __add__(self, other: "Sparse") -> "Sparse":
        return type(self)(combine(self.terms, other.terms))

    def __sub__(self, other: "Sparse") -> "Sparse":
        return type(self)(combine(self.terms, other.terms, -1))

    def scale(self, c) -> "Sparse":
        return type(self)(scale(self.terms, c))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms
