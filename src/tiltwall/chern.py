"""Lattice operations on Chern characters: twisting, line-bundle tensoring,
reduction to the rank-3 class, and the twisted-vanishing parameter beta_bar."""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QuadRat, Rat, Record, as_rat, format_rat, lattice_error, parse_rat
from .geometry import CharVector, RuledThreefold, line_bundle_char, tensor_product_char


class ReducedClass(Record):
    """Image (ch0, HF.ch1, F.ch2) of a character; tilt slopes factor through it."""

    FIELDS = ("r", "c", "dd")
    LATTICE = (("r", 1), ("c", 1), ("d", 2))

    def is_lattice(self) -> bool:
        return lattice_error(self) is None


class TiltPoint(Record):
    """Point of the stability half-plane, carried as (alpha^2, beta) with alpha^2 > 0."""

    FIELDS = ("alpha2", "beta")

    def _check(self):
        if self.alpha2 <= 0:
            raise ValueError("alpha2 must be positive")


def parse_reduced(text: str) -> ReducedClass:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"reduced class needs 3 comma-separated entries, got {len(parts)}")
    return ReducedClass(*(parse_rat(p) for p in parts))


def format_reduced(u: ReducedClass) -> str:
    return ",".join(format_rat(x) for x in u.as_tuple())


def _twist_scaled(ch: CharVector, beta: Rat | int, d: int) -> tuple[int, tuple[int, ...]]:
    """(M, (R, C1, C2, DF, DH, E)): the twist ch * e^(-beta H) on a threefold
    of degree d = H^3 as six exact integer numerators over one positive
    denominator M.

    With beta = n/q in lowest terms and ch = (R0, C10, C20, DF0, DH0, E0)/L
    from `CharVector._scaled`, M = 6 L q^3 and

        R  = 6 q^3 R0
        C1 = 6 q^2 (q C10 - n R0)
        C2 = 6 q^2 (q C20 - n d R0)
        DF = 3 q (2 q^2 DF0 - 2 n q C10 + n^2 R0)
        DH = 3 q (2 q^2 DH0 - 2 n q C20 + n^2 d R0)
        E  = 6 q^3 E0 - 6 n q^2 DH0 + 3 n^2 q C20 - d n^3 R0

    These are the rational formulas e - b dH + b^2/2 cHH - b^3/6 d r (and
    their lower-degree analogues) multiplied through by M. At beta = 0 it
    returns `ch._scaled` itself, so M = L there. Every slope, charge and
    defect of a twisted character is an integer polynomial in this output,
    divided once.
    M, R, C1 and DF do not involve d, so a caller reading only those (the
    tilt slope) may pass any degree.
    """
    b = as_rat(beta)
    if not b:
        return ch._scaled
    n, q = b.numerator, b.denominator
    L, (R, C1, C2, DF, DH, E) = ch._scaled
    n2, q2 = n * n, q * q
    q3 = q2 * q
    return 6 * L * q3, (
        6 * q3 * R,
        6 * q2 * (q * C1 - n * R),
        6 * q2 * (q * C2 - n * d * R),
        3 * q * (2 * q2 * DF - 2 * n * q * C1 + n2 * R),
        3 * q * (2 * q2 * DH - 2 * n * q * C2 + n2 * d * R),
        6 * q3 * E - 6 * n * q2 * DH + 3 * n2 * q * C2 - d * n2 * n * R,
    )


def twist(ch: CharVector, beta: Rat | int, X: RuledThreefold) -> CharVector:
    """Twisted character ch * e^(-beta H) (exponential group law in beta).

    The coordinates are `_twist_scaled`'s integer numerators, each divided
    once by its denominator M through Fraction(numerator, M), so the result
    is exact. beta = 0 returns ch itself.
    """
    b = as_rat(beta)
    if not b:
        return ch
    M, nums = _twist_scaled(ch, b, X.degree)
    return CharVector(ch.r, *(Fraction(x, M) for x in nums[1:]))


def tensor_line(ch: CharVector, a: int, b: int, X: RuledThreefold) -> CharVector:
    """Tensor with the line bundle O(aH + bF)."""
    return tensor_product_char(ch, line_bundle_char(a, b, X), X)


def reduced(ch: CharVector) -> ReducedClass:
    return ReducedClass(ch.r, ch.cHF, ch.dF)


def disc_bar_reduced(u: ReducedClass) -> Rat:
    """c^2 - 2 r d on the reduced lattice."""
    return u.c * u.c - 2 * u.r * u.dd


def beta_bar(ch: CharVector) -> QuadRat:
    """The twist parameter at which the twisted F.ch2 vanishes.

    For nonzero rank this is the minus-sign root (the smaller root when the
    rank is positive) of (r/2) b^2 - cHF b + dF. For rank zero it is dF/cHF.
    With (r, cHF, dF) = (R, C1, DF)/L from `CharVector._scaled` the root is
    C1/R - (L/R) sqrt((C1^2 - 2 R DF)/L^2), so each part is one
    Fraction(numerator, denominator) and the sign test reads an int.
    """
    L, (R, C1, _, DF, _, _) = ch._scaled
    if not R:
        if not C1:
            raise ValueError("beta_bar undefined: rank and HF.ch1 both vanish")
        return QuadRat(Fraction(DF, C1))
    disc = C1 * C1 - 2 * R * DF
    if disc < 0:
        raise ValueError("beta_bar domain error: negative discriminant with nonzero rank")
    return QuadRat(Fraction(C1, R), Fraction(-L, R), Fraction(disc, L * L))


def f_ch2_twisted(ch: CharVector, b: QuadRat | Rat | int) -> QuadRat:
    """F.ch2 of the twisted character, evaluated in the quadratic extension.

    dF - b cHF + (r/2) b^2 in closed form: with b = x + y sqrt(D) it is

        (dF - x cHF + r (x^2 + y^2 D) / 2) + y (r x - cHF) sqrt(D),

    built as one QuadRat. A rational b is read as QuadRat(b), with y = D = 0.
    Writing x = xn/xd, y = yn/yd, D = Dn/Dd, (r, cHF, dF) = (R, C1, DF)/L
    from `CharVector._scaled` and P = yd^2 Dd, the two parts are the
    integer quotients

        (2 xd P (xd DF - xn C1) + R (xn^2 P + yn^2 Dn xd^2)) / (2 L xd^2 P)
        yn (R xn - C1 xd) / (L xd yd),

    one Fraction each; the radicand D passes through unchanged.
    """
    if not isinstance(b, QuadRat):
        b = QuadRat(b)
    x, y, D = b.a, b.b, b.radicand
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    L, (R, C1, _, DF, _, _) = ch._scaled
    P = yd * yd * D.denominator
    xd2 = xd * xd
    rational = 2 * xd * P * (xd * DF - xn * C1) + R * (xn * xn * P + yn * yn * D.numerator * xd2)
    return QuadRat(
        Fraction(rational, 2 * L * xd2 * P),
        Fraction(yn * (R * xn - C1 * xd), L * xd * yd),
        D,
    )
