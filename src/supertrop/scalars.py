"""Scalar arithmetic of the two-layer max-plus semiring.

An element is either ``eps`` (bottom), a *tangible* rational, or a *ghost*
rational.  Addition keeps the larger value and turns ties into ghosts;
multiplication adds values, with ghosts absorbing among non-eps elements and
eps absorbing everything.  Every value is an exact rational (``int`` or
``Fraction``) so that ties are detected exactly -- no floats anywhere.

Text encoding, used everywhere a scalar crosses a process boundary:
``"e"`` for eps, otherwise the rational in lowest terms followed by ``"t"``
(tangible) or ``"g"`` (ghost), e.g. ``3t``, ``-1/2g``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import NotInvertible

__all__ = [
    "EPS",
    "Scalar",
    "add",
    "mul",
    "pow",
    "nu",
    "nu_equiv",
    "ghost_surpasses",
    "is_invertible",
    "tangible",
    "ghost",
    "parse_scalar",
    "parse_rational",
    "parse_int",
    "parse_grid",
    "grid_order",
    "format_scalar",
]

_TANGIBLE = 1
_GHOST = 0

# Integers and fractions only: ``Fraction`` on its own would also take
# decimals, exponents, underscores and a leading ``+``.
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")
_INTEGER = re.compile(r"-?[0-9]+")


def _canonical(value):
    """Normalize a group value: int stays int, integral Fractions become int."""
    if isinstance(value, bool):
        raise TypeError("group value must be an int or Fraction, not bool")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"group value must be an int or Fraction, got {type(value).__name__}")


class Scalar:
    """One semiring element.

    ``tag`` is 1 for tangible, 0 for ghost, ``None`` for eps (in which case
    ``value`` is ``None`` too).  Instances are immutable by convention and
    hashable; equality is structural (tag and exact value).
    """

    __slots__ = ("value", "tag")

    def __init__(self, value, tag):
        if tag is None:
            if value is not None:
                raise ValueError("eps carries no value")
        elif tag in (_GHOST, _TANGIBLE):
            value = _canonical(value)
        else:
            raise ValueError(f"tag must be 0, 1 or None, got {tag!r}")
        self.value = value
        self.tag = tag

    @property
    def is_eps(self):
        return self.tag is None

    @property
    def is_tangible(self):
        return self.tag == _TANGIBLE

    @property
    def is_ghost(self):
        return self.tag == _GHOST

    @property
    def token(self):
        """The text encoding of this scalar."""
        if self.tag is None:
            return "e"
        return f"{self.value}{'t' if self.tag else 'g'}"

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.tag))

    def __repr__(self):
        return f"Scalar({self.token!r})"


#: The bottom element: additive identity, multiplicative absorber.
EPS = Scalar(None, None)


def tangible(value) -> Scalar:
    return Scalar(value, _TANGIBLE)


def ghost(value) -> Scalar:
    return Scalar(value, _GHOST)


def add(a: Scalar, b: Scalar) -> Scalar:
    """Semiring sum: eps is neutral, larger value wins, ties become ghosts."""
    if a.tag is None:
        return b
    if b.tag is None:
        return a
    if a.value > b.value:
        return a
    if b.value > a.value:
        return b
    # Equal values always collapse to a ghost, whatever the two tags were.
    if a.tag == _GHOST:
        return a
    if b.tag == _GHOST:
        return b
    return Scalar(a.value, _GHOST)


def mul(a: Scalar, b: Scalar) -> Scalar:
    """Semiring product: values add, tags multiply, eps absorbs."""
    if a.tag is None or b.tag is None:
        return EPS
    return Scalar(a.value + b.value, a.tag & b.tag)


def pow(a: Scalar, k: int) -> Scalar:
    """``k``-fold product of ``a``.

    ``pow(a, 0)`` is the unit ``0t`` for any non-eps ``a``.  Negative powers
    exist only for tangibles (the only invertible elements); ``pow(eps, k)``
    is eps for k >= 1 and an error otherwise.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError("exponent must be an int")
    if k >= 1:
        if a.tag is None:
            return EPS
        return Scalar(a.value * k, a.tag)
    if a.tag is None:
        raise NotInvertible("eps has no zeroth or negative power")
    if k == 0:
        return Scalar(0, _TANGIBLE)
    if a.tag != _TANGIBLE:
        raise NotInvertible("ghosts have no multiplicative inverse")
    return Scalar(a.value * k, _TANGIBLE)


def nu(a: Scalar):
    """Forget the tag: the underlying rational, or ``None`` as the eps marker."""
    return a.value


def nu_equiv(a: Scalar, b: Scalar) -> bool:
    return a.value == b.value


def ghost_surpasses(c: Scalar, d: Scalar) -> bool:
    """True iff ``c = d + g`` for some ghost or absent ``g``.

    Closed form: ``c == d``, or ``c`` is a ghost that is at least as large as
    ``d`` (where eps is below everything).
    """
    if c == d:
        return True
    if c.tag != _GHOST:
        return False
    if d.tag is None:
        return True
    return c.value >= d.value


def is_invertible(a: Scalar) -> bool:
    """True iff some ``x`` satisfies ``a * x = 0t``; exactly the tangibles."""
    return a.tag == _TANGIBLE


def format_scalar(a: Scalar) -> str:
    return a.token


def parse_rational(text: str) -> Fraction:
    """Parse ``-?digits(/digits)?``; raises ValueError on anything else."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad rational {text!r}") from exc


def parse_int(text: str) -> int:
    """Parse ``-?digits`` in ASCII; unlike ``int`` refuses ``+``, ``_`` and
    non-ASCII digits.  Raises ValueError on anything else."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"bad integer {text!r}")
    return int(text)


def parse_scalar(token: str) -> Scalar:
    """Inverse of :func:`format_scalar`; raises ValueError on malformed input."""
    token = token.strip()
    if token == "e":
        return EPS
    if len(token) < 2 or token[-1] not in "tg":
        raise ValueError(f"bad scalar token {token!r}")
    try:
        value = parse_rational(token[:-1])
    except ValueError as exc:
        raise ValueError(f"bad scalar token {token!r}") from exc
    return Scalar(value, _TANGIBLE if token[-1] == "t" else _GHOST)


def _grid_lines(text):
    """``(n, lines)``: the non-blank lines of the matrix text format, stripped,
    and the order n >= 1 on the first; raises ValueError on anything else."""
    lines = [line for line in (raw.strip() for raw in text.splitlines()) if line]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        n = parse_int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the order, got {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    return n, lines


def grid_order(text: str) -> int:
    """The order line of the matrix text format, read without parsing a row,
    so an order can be refused before its rows are built."""
    return _grid_lines(text)[0]


def parse_grid(text: str, parse_token) -> list:
    """Rows of the matrix text format: the order n >= 1, then n lines of n
    tokens, each read by ``parse_token``; raises ValueError on anything else."""
    n, lines = _grid_lines(text)
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows after the order line, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"expected {n} entries per row, got {len(tokens)} in {line!r}")
        rows.append([parse_token(tok) for tok in tokens])
    return rows
