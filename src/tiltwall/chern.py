"""Lattice operations on Chern characters: twisting, line-bundle tensoring,
reduction to the rank-3 class, and the twisted-vanishing parameter beta_bar."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QuadRat, Rat, as_rat, format_rat, parse_rat, rat_fields
from .geometry import CharVector, RuledThreefold, line_bundle_char, tensor_product_char


@dataclass(frozen=True)
class ReducedClass:
    """Image (ch0, HF.ch1, F.ch2) of a character; tilt slopes factor through it."""

    r: Rat
    c: Rat
    dd: Rat

    def __post_init__(self):
        rat_fields(self, ("r", "c", "dd"))

    def as_tuple(self) -> tuple[Rat, Rat, Rat]:
        return (self.r, self.c, self.dd)

    def is_lattice(self) -> bool:
        return (
            self.r.denominator == 1
            and self.c.denominator == 1
            and (2 * self.dd).denominator == 1
        )

    def __add__(self, other: "ReducedClass") -> "ReducedClass":
        return ReducedClass(self.r + other.r, self.c + other.c, self.dd + other.dd)

    def __sub__(self, other: "ReducedClass") -> "ReducedClass":
        return ReducedClass(self.r - other.r, self.c - other.c, self.dd - other.dd)

    def __neg__(self) -> "ReducedClass":
        return ReducedClass(-self.r, -self.c, -self.dd)

    def is_zero(self) -> bool:
        return self.r == 0 and self.c == 0 and self.dd == 0

    def lift(self) -> CharVector:
        """A character with this reduction and zeros elsewhere."""
        return CharVector(self.r, self.c, 0, self.dd, 0, 0)


@dataclass(frozen=True)
class TiltPoint:
    """Point of the stability half-plane, carried as (alpha^2, beta) with alpha^2 > 0."""

    alpha2: Rat
    beta: Rat

    def __post_init__(self):
        rat_fields(self, ("alpha2", "beta"))
        if self.alpha2 <= 0:
            raise ValueError("alpha2 must be positive")


def parse_reduced(text: str) -> ReducedClass:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"reduced class needs 3 comma-separated entries, got {len(parts)}")
    return ReducedClass(*(parse_rat(p) for p in parts))


def format_reduced(u: ReducedClass) -> str:
    return ",".join(format_rat(x) for x in u.as_tuple())


def validate_lattice_reduced(u: ReducedClass) -> ReducedClass:
    for name, value, mult, kind in [
        ("r", u.r, 1, "an integer"),
        ("c", u.c, 1, "an integer"),
        ("d", u.dd, 2, "a half-integer"),
    ]:
        if (mult * value).denominator != 1:
            raise ValueError(f"entry {name} = {value} must be {kind}")
    return u


def twist(ch: CharVector, beta: Rat | int, X: RuledThreefold) -> CharVector:
    """Twisted character ch * e^(-beta H) (exponential group law in beta).

    With beta = n/q in lowest terms and ch = (R, C1, C2, DF, DH, E)/L from
    `CharVector._scaled`, each coordinate of the twist is an integer
    polynomial over one common denominator:

        cHF^b = (q C1 - n R) / (L q)
        cHH^b = (q C2 - n d R) / (L q)
        dF^b  = (2 q^2 DF - 2 n q C1 + n^2 R) / (2 L q^2)
        dH^b  = (2 q^2 DH - 2 n q C2 + n^2 d R) / (2 L q^2)
        e^b   = (6 q^3 E - 6 n q^2 DH + 3 n^2 q C2 - d n^3 R) / (6 L q^3)

    These are the rational formulas e - b dH + b^2/2 cHH - b^3/6 d r (and
    their lower-degree analogues) multiplied through by the denominator.
    Numerators are exact Python ints and each coordinate is divided once,
    by Fraction(numerator, denominator), so the result is exact. beta = 0
    returns ch itself.
    """
    b = as_rat(beta)
    if not b:
        return ch
    n, q = b.numerator, b.denominator
    d = X.degree
    L, (R, C1, C2, DF, DH, E) = ch._scaled()
    n2, q2 = n * n, q * q
    return CharVector(
        ch.r,
        Fraction(q * C1 - n * R, L * q),
        Fraction(q * C2 - n * d * R, L * q),
        Fraction(2 * q2 * DF - 2 * n * q * C1 + n2 * R, 2 * L * q2),
        Fraction(2 * q2 * DH - 2 * n * q * C2 + n2 * d * R, 2 * L * q2),
        Fraction(
            6 * q2 * q * E - 6 * n * q2 * DH + 3 * n2 * q * C2 - d * n2 * n * R,
            6 * L * q2 * q,
        ),
    )


def tensor_line(ch: CharVector, a: int, b: int, X: RuledThreefold) -> CharVector:
    """Tensor with the line bundle O(aH + bF)."""
    return tensor_product_char(ch, line_bundle_char(a, b, X), X)


def reduced(ch: CharVector) -> ReducedClass:
    return ReducedClass(ch.r, ch.cHF, ch.dF)


def disc_bar_reduced(u: ReducedClass) -> Rat:
    """c^2 - 2 r d on the reduced lattice."""
    return u.c * u.c - 2 * u.r * u.dd


def beta_bar(ch: CharVector, other_root: bool = False) -> QuadRat:
    """The twist parameter at which the twisted F.ch2 vanishes.

    For nonzero rank this is a root of (r/2) b^2 - cHF b + dF; the default
    takes the minus-sign branch (the smaller root when the rank is positive),
    `other_root=True` the plus-sign branch. For rank zero it is dF/cHF.
    """
    r, c, dd = ch.r, ch.cHF, ch.dF
    if r == 0:
        if c == 0:
            raise ValueError("beta_bar undefined: rank and HF.ch1 both vanish")
        return QuadRat(dd / c)
    disc = c * c - 2 * r * dd
    if disc < 0:
        raise ValueError("beta_bar domain error: negative discriminant with nonzero rank")
    sign = 1 if other_root else -1
    return QuadRat(c / r, Fraction(sign, 1) / r, disc)


def f_ch2_twisted(ch: CharVector, b: QuadRat | Rat | int) -> QuadRat:
    """F.ch2 of the twisted character, evaluated in the quadratic extension."""
    if not isinstance(b, QuadRat):
        b = QuadRat(b)
    return QuadRat(ch.dF) - b * ch.cHF + b * b * Fraction(ch.r, 2)
