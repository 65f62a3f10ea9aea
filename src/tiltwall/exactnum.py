"""Exact number types, and the wire format: the text of integers, rationals
and comma lists on the command line and in config files.

Everything downstream computes over plain rationals (``fractions.Fraction``,
aliased ``Rat``) and rationals extended by ``+inf`` (``ExtRat``, compared
for equality only, without arithmetic or ordering). Each value type of the
package is a ``Record``: immutable, with its fields named once and, by
default, rational.
``QuadRat`` holds a quadratic irrational ``a + b*sqrt(D)``, the twist
parameter ``beta_bar``, as an exact value that is constructed, compared for
equality and formatted, with no arithmetic of its own. No floating point
enters any verdict; floats appear only in SVG coordinate rendering.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter

Rat = Fraction

_INT_RE = re.compile(r"^[+-]?\d+$", re.ASCII)
_RAT_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)


def parse_int(text: str) -> int:
    """Parse the wire format 'n' (base 10, ASCII). Rejects '1_0', which `int` reads."""
    t = text.strip()
    if not _INT_RE.match(t):
        raise ValueError(f"not an integer in 'n' form: {text!r}")
    return int(t)


def parse_rat(text: str) -> Rat:
    """Parse the wire format 'p' or 'p/q' (base 10, ASCII). Rejects decimals."""
    t = text.strip()
    if not _RAT_RE.match(t):
        raise ValueError(f"not a rational in 'p' or 'p/q' form: {text!r}")
    return Fraction(t)


def parse_list(text: str, what: str, count: int | None, parse=parse_rat) -> list:
    """Parse the wire format of a comma list: `count` entries (any number for
    None), each read by `parse`. The count error names `what` and the text."""
    parts = text.split(",")
    if count is not None and len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated entries, got {len(parts)}: {text!r}")
    return [parse(part) for part in parts]


def as_rat(x: Rat | int) -> Rat:
    """The one coercion rule for exact fields: x itself when it is already a
    Fraction, else Fraction(x). A float is rejected, because its binary value
    (0.1 is 3602879701896397/2**55) is never the rational a caller meant."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"exact rational expected, got float {x!r}")
    return Fraction(x)


class Record:
    """Immutable value; a subclass names its fields once, in `FIELDS`.

    Built by position or keyword (TypeError on a wrong count or an unknown or
    repeated name). A value that is not a Fraction goes through `_coerce`
    (`as_rat`; None keeps it) and `_check` may reject the fields. `==` holds
    within one class only; `hash`, `repr` and `as_tuple` read the same fields.
    Setting or deleting one raises AttributeError (`cached_property` works).
    """

    FIELDS: tuple[str, ...] = ()
    _coerce = staticmethod(as_rat)

    def __init_subclass__(cls):
        # all fields in one C-level read, a tuple even for one field
        get = attrgetter(*cls.FIELDS)
        cls._values = get if len(cls.FIELDS) > 1 else staticmethod(lambda x: (get(x),))

    def __init__(self, *args, **kwargs):
        names = self.FIELDS
        if kwargs or len(args) != len(names):
            rest = names[len(args):]
            if len(args) > len(names) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
            args += tuple(kwargs[name] for name in rest)
        coerce = self._coerce
        # in FIELDS order, so that all instances share one dict key table
        for name, value in zip(names, args):
            if coerce is not None and type(value) is not Fraction:
                value = coerce(value)
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError when the fields break the type's invariant."""

    def as_tuple(self) -> tuple:
        return self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.FIELDS, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


_MULTIPLE = {1: "an integer", 2: "a half-integer", 6: "a sixth-integer"}


def lattice_error(x) -> str | None:
    """Why the lattice value type x is off its lattice, or None when it is on it.

    `type(x).LATTICE` pairs each entry of `x.as_tuple()` with its label and
    the m for which the entry times m must be an integer.
    """
    for (label, m), value in zip(type(x).LATTICE, x.as_tuple()):
        if (m * value).denominator != 1:
            return f"entry {label} = {value} must be {_MULTIPLE[m]}"
    return None


def format_rat(q: Rat | int) -> str:
    return str(as_rat(q))


def format_list(values) -> str:
    """The wire format of a comma list of exact values, read back by `parse_list`."""
    return ",".join(map(format_rat, values))


def rat_sqrt(q: Rat | int) -> Rat | None:
    """Exact square root of a nonnegative rational, or None if irrational.
    A negative q raises ValueError (from `math.isqrt`)."""
    q = as_rat(q)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def ceil_sqrt(q: Rat | int) -> int:
    """Least integer n >= 0 with n*n >= q. Exact."""
    q = as_rat(q)
    # n*n >= q iff n*n > ceil(q) - 1, as n*n is an integer
    return math.isqrt(math.ceil(q) - 1) + 1 if q > 0 else 0


class ExtRat:
    """A rational number or +infinity, as a slope function returns it.

    It carries no arithmetic and no ordering: callers unwrap `.value` first.
    Two slopes compare equal when both are infinite or both have the same
    value.
    """

    __slots__ = ("_v",)

    def __init__(self, value: Rat | int | None):
        self._v = None if value is None else as_rat(value)

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> Rat:
        if self._v is None:
            raise ValueError("infinite value has no rational part")
        return self._v

    def __eq__(self, other):
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self._v == other._v

    def __repr__(self):
        return f"ExtRat({'inf' if self._v is None else self._v!r})"

    def __str__(self):
        return "inf" if self._v is None else str(self._v)


INFINITY = ExtRat(None)


class QuadRat:
    """Exact value a + b*sqrt(radicand), as `beta_bar` and `f_ch2_twisted` return it.

    A plain value: it is constructed, compared for equality and formatted, and
    carries no arithmetic or ordering. radicand >= 0; a perfect-square radicand
    normalizes to b = 0, and b = 0 normalizes radicand to 0. Radicands are not
    reduced, so sqrt(2) and (1/2)*sqrt(8) keep different parts and print
    differently, but equality and hashing compare values: with non-square
    radicands, a + b*sqrt(D) = a' + b'*sqrt(D') iff a = a' and
    b*|b|*D = b'*|b'|*D'. It equals an int or Fraction exactly when it is
    rational.
    """

    __slots__ = ("a", "b", "radicand")

    def __init__(self, a: Rat | int, b: Rat | int = 0, radicand: Rat | int = 0):
        a = as_rat(a)
        b = as_rat(b)
        radicand = as_rat(radicand)
        if radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or radicand == 0:
            b, radicand = Fraction(0), Fraction(0)
        else:
            s = rat_sqrt(radicand)
            if s is not None:
                a, b, radicand = a + b * s, Fraction(0), Fraction(0)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "radicand", radicand)

    def __setattr__(self, *_):
        raise AttributeError("QuadRat is immutable")

    def _key(self) -> tuple[Rat, Rat]:
        return self.a, self.b * abs(self.b) * self.radicand

    def __eq__(self, other):
        if isinstance(other, QuadRat):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # a rational value equals its Fraction, so it hashes as one
        return hash(self.a) if self.b == 0 else hash(self._key())

    def __repr__(self):
        return f"QuadRat({self.a!r}, {self.b!r}, {self.radicand!r})"

    def __str__(self):
        """Canonical form: 'a' when rational, else 'a + b*sqrt(D)' / 'a - b*sqrt(D)'."""
        if self.b == 0:
            return format_rat(self.a)
        b, D = format_rat(abs(self.b)), format_rat(self.radicand)
        return f"{format_rat(self.a)} {'+' if self.b > 0 else '-'} {b}*sqrt({D})"
