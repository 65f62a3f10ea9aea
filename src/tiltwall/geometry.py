"""The ruled threefold X = P(E) -> C and its numerical intersection ring.

The numerical classes are generated by the relative hyperplane class H and
the fiber class F with relations F^2 = 0, H^2 F = point, H^3 = degree * point.
A Chern character is stored through the six lattice coordinates

    (ch0, HF.ch1, H^2.ch1, F.ch2, H.ch2, ch3)

in this order. Lattice points have integer first three entries, half-integer
F.ch2 and H.ch2, and sixth-integer ch3, but the coordinates themselves are
arbitrary exact rationals so that twists by rational divisor classes stay
inside the type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .exactnum import Rat, Record, parse_list


class RuledThreefold(Record):
    """P(E) over a curve of genus `genus` with H^3 = deg E = `degree`."""

    FIELDS = ("genus", "degree")
    _coerce = None  # ints, checked below

    def _check(self):
        for name, x in zip(self.FIELDS, self.as_tuple()):
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"{name} must be an integer")
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")


class CharVector(Record):
    """Point of the rank-6 numerical Chern lattice, coordinates (r, cHF, cHH, dF, dH, e)."""

    FIELDS = ("r", "cHF", "cHH", "dF", "dH", "e")
    LATTICE = (("r", 1), ("cHF", 1), ("cHH", 1), ("dF", 2), ("dH", 2), ("e", 6))

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, int, int, int, int, int]]:
        """(L, (R, C1, C2, DF, DH, E)): L is the lcm of the six denominators
        and each capital is its coordinate times L, an int.

        Computed at most once per value, on first read, and kept in the
        instance `__dict__`. That is safe because the value is frozen, so
        the numerators never go stale, and the memo is not in `FIELDS`, so
        `==`, `hash`, `repr` and `as_tuple` ignore it.
        """
        r, c1, c2, f, h, e = self.r, self.cHF, self.cHH, self.dF, self.dH, self.e
        rq, c1q, c2q, fq, hq, eq = (
            r.denominator, c1.denominator, c2.denominator,
            f.denominator, h.denominator, e.denominator,
        )
        L = math.lcm(rq, c1q, c2q, fq, hq, eq)
        return L, (
            r.numerator * (L // rq), c1.numerator * (L // c1q), c2.numerator * (L // c2q),
            f.numerator * (L // fq), h.numerator * (L // hq), e.numerator * (L // eq),
        )


CHAR_O = CharVector(1, 0, 0, 0, 0, 0)
SKYSCRAPER = CharVector(0, 0, 0, 0, 0, 1)


def parse_char(text: str) -> CharVector:
    return CharVector(*parse_list(text, "character", 6))


def canonical_and_c2(X: RuledThreefold) -> tuple[tuple[int, int], int, int]:
    """Canonical class (coefficients of H, F) and the pairings c2.H, c2.F."""
    g, d = X.genus, X.degree
    k = (-3, 2 * g - 2 + d)
    c2H = d - 6 * g + 6
    c2F = 3
    return k, c2H, c2F


def line_bundle_char(a: int, b: int, X: RuledThreefold) -> CharVector:
    """Character of O(aH + bF), the exponential of the divisor class.

    With D = aH + bF, D^2 = a^2 H^2 + 2ab HF and D^3 = a^2 (ad + 3b) pt, so
    the entries are 1, a, ad + b, a^2/2, (a^2 d + 2ab)/2 and a^2 (ad + 3b)/6,
    each built as one Fraction(numerator, denominator).
    """
    d = X.degree
    a2 = a * a
    return CharVector(
        Fraction(1),
        Fraction(a),
        Fraction(a * d + b),
        Fraction(a2, 2),
        Fraction(a2 * d + 2 * a * b, 2),
        Fraction(a2 * (a * d + 3 * b), 6),
    )


def tensor_product_char(A: CharVector, B: CharVector, X: RuledThreefold) -> CharVector:
    """Product of characters in the numerical ring, truncated above degree 3.

    Write ch1 = pH + qF and ch2 = xH^2 + yHF; then (A*B)_k = sum over
    i + j = k of A_i*B_j with H^2 F = 1, H^3 = d, F^2 = 0. Every output
    coordinate is bilinear in (A, B), so with A = (Ra, C1a, ..., Ea)/La and
    B = (Rb, ..., Eb)/Lb from `CharVector._scaled` each one is an integer
    numerator over the single denominator La*Lb:

        r   = Ra Rb
        cHF = Ra C1b + Rb C1a
        cHH = Ra C2b + Rb C2a
        dF  = Ra DFb + Rb DFa + C1a C1b
        dH  = Ra DHb + Rb DHa + C1a C2b + C2a C1b - d C1a C1b
        e   = Ra Eb + Rb Ea + C1a DHb + C1b DHa + C2a DFb + C2b DFa
              - d (C1a DFb + C1b DFa)

    The numerators are exact Python ints, and the only division is the one
    Fraction(numerator, La*Lb) per coordinate, so the result equals the
    rational evaluation exactly.
    """
    d = X.degree
    La, (Ra, C1a, C2a, DFa, DHa, Ea) = A._scaled
    Lb, (Rb, C1b, C2b, DFb, DHb, Eb) = B._scaled
    L = La * Lb
    cc = C1a * C1b
    return CharVector(
        Fraction(Ra * Rb, L),
        Fraction(Ra * C1b + Rb * C1a, L),
        Fraction(Ra * C2b + Rb * C2a, L),
        Fraction(Ra * DFb + Rb * DFa + cc, L),
        Fraction(Ra * DHb + Rb * DHa + C1a * C2b + C2a * C1b - d * cc, L),
        Fraction(
            Ra * Eb + Rb * Ea + C1a * DHb + C1b * DHa + C2a * DFb + C2b * DFa
            - d * (C1a * DFb + C1b * DFa),
            L,
        ),
    )


def dual_char(A: CharVector) -> CharVector:
    """Character of the derived dual: signs alternate with cohomological degree."""
    return CharVector(A.r, -A.cHF, -A.cHH, A.dF, A.dH, -A.e)


def fiber_pushforward_char(k: int, A: CharVector) -> CharVector:
    """Character of the pushforward from k fibers: multiply by kF, degrees shift up.

    The result is (0, 0, k r, 0, k cHF, k dF); each moved entry x becomes
    Fraction(k * x.numerator, x.denominator).
    """
    if not isinstance(k, int) or k <= 0:
        raise ValueError("k must be a positive integer")
    r, c, f = A.r, A.cHF, A.dF
    return CharVector(
        Fraction(0),
        Fraction(0),
        Fraction(k * r.numerator, r.denominator),
        Fraction(0),
        Fraction(k * c.numerator, c.denominator),
        Fraction(k * f.numerator, f.denominator),
    )


def euler_char(X: RuledThreefold, ch: CharVector) -> Rat:
    """Euler characteristic by Riemann-Roch, expanded through the ring relations.

    chi = e + c1.ch2 / 2 + (c1^2 + c2).ch1 / 12 + r (1 - g) with
    c1.ch2 = 3 dH - (d + 2g - 2) dF and (c1^2 + c2).ch1 = 12 cHH - (18g - 18 + 8d) cHF;
    over 12 L with ch = (R, C1, C2, DF, DH, E)/L from `CharVector._scaled` it is
    the integer 12 E + 6 (3 DH - (d + 2g - 2) DF) + 12 C2 - (18g - 18 + 8d) C1
    + 12 (1 - g) R, divided once.
    """
    g, d = X.genus, X.degree
    L, (R, C1, C2, DF, DH, E) = ch._scaled
    return Fraction(
        12 * (E + C2 + (1 - g) * R)
        + 6 * (3 * DH - (d + 2 * g - 2) * DF)
        - (18 * g - 18 + 8 * d) * C1,
        12 * L,
    )


def euler_char_pair(X: RuledThreefold, A: CharVector, B: CharVector) -> Rat:
    """chi(A, B) through the dual-tensor character."""
    return euler_char(X, tensor_product_char(dual_char(A), B, X))
