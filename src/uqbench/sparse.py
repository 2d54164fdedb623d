"""Sparse vectors: finite linear combinations stored as {basis key: coefficient}.

Tensor words, normal-ordered U_q terms, module vectors and elements of the
deformation window are all finite k-linear combinations of basis keys, and
all of them are plain dicts with no zero coefficient.  This module is the
one place that adds a coefficient at a key and drops the key when the sum is
zero (`add_term`), and that adds a scaled combination term by term
(`add_scaled`).  Coefficients are any ring elements whose truth value means
"nonzero": `int`, `Fraction` and `ScalarQ` all qualify.

Insertion order is kept: a new key goes to the end, a key whose sum cancels
is removed, and a key added again after a cancel goes to the end again.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def add_term(acc: dict, key, c) -> None:
    """acc[key] += c, dropping the key when the sum is zero."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def add_scaled(acc: dict, terms: Iterable, c) -> None:
    """acc += c * terms, one `add_term(acc, key, c * v)` per (key, v) pair:
    a dict's `.items()` or any list of pairs, repeated keys allowed."""
    for key, v in terms:
        add_term(acc, key, c * v)


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

