"""Slope functions and the central charge.

All slopes return ExtRat; +inf encodes a vanishing denominator. The heart
sign report is a necessary-condition filter only: a class failing it cannot
underlie an object of the tilted heart, passing certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chern import TiltPoint, twist
from .exactnum import INFINITY, ExtRat, Rat, rat_fields
from .geometry import CharVector, RuledThreefold


@dataclass(frozen=True)
class ChargeParams:
    """Parameters (alpha^2, beta, s, t) of the central charge, s and t positive."""

    alpha2: Rat
    beta: Rat
    s: Rat
    t: Rat

    def __post_init__(self):
        rat_fields(self, ("alpha2", "beta", "s", "t"))
        if self.alpha2 <= 0:
            raise ValueError("alpha2 must be positive")
        if self.s <= 0 or self.t <= 0:
            raise ValueError("s and t must be positive")

    def tilt_point(self) -> TiltPoint:
        return TiltPoint(self.alpha2, self.beta)


@dataclass(frozen=True)
class ChargeValue:
    re: Rat
    im: Rat

    def __post_init__(self):
        rat_fields(self, ("re", "im"))

    def __add__(self, other: "ChargeValue") -> "ChargeValue":
        return ChargeValue(self.re + other.re, self.im + other.im)


def mu_HF(ch: CharVector) -> ExtRat:
    """Fiberwise slope HF.ch1 / ch0."""
    if ch.r == 0:
        return INFINITY
    return ExtRat(ch.cHF / ch.r)


def mu_C(ch: CharVector) -> ExtRat:
    """Base-directed slope with the torsion middle case.

    The middle case uses the numerical proxy r = cHF = dF = 0 for classes
    pushed forward from fibers.
    """
    if ch.r != 0:
        return ExtRat(ch.cHF / ch.r)
    if ch.cHF == 0 and ch.dF == 0 and ch.cHH != 0:
        return ExtRat(ch.dH / ch.cHH)
    return INFINITY


def nu(ch: CharVector, pt: TiltPoint) -> ExtRat:
    """Tilt slope at (alpha^2, beta); depends only on (r, cHF, dF)."""
    b = pt.beta
    c_b = ch.cHF - b * ch.r
    if c_b == 0:
        return INFINITY
    dF_b = ch.dF - b * ch.cHF + b * b / 2 * ch.r
    return ExtRat((dF_b - pt.alpha2 / 2 * ch.r) / c_b)


def nu_mixed(ch: CharVector, pt: TiltPoint, t: Rat | int, X: RuledThreefold) -> ExtRat:
    """Mixed tilt slope weighting H.ch2 and F.ch2 by 1 and t."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    tw = twist(ch, pt.beta, X)
    if tw.cHF == 0:
        return INFINITY
    return ExtRat((tw.dH + t * tw.dF - t * pt.alpha2 / 2 * ch.r) / tw.cHF)


@dataclass(frozen=True)
class HeartReport:
    """Exact evaluation of the sign cascade necessary for heart membership.

    Checks not reached by the cascade are reported True.
    """

    hf_ch1_nonneg: bool
    branch2_checked: bool
    h_ch2_nonneg: bool
    f_ch2_nonneg: bool
    rank_nonpos: bool
    branch3_checked: bool
    ch3_nonneg: bool

    @property
    def passes(self) -> bool:
        return (
            self.hf_ch1_nonneg
            and self.h_ch2_nonneg
            and self.f_ch2_nonneg
            and self.rank_nonpos
            and self.ch3_nonneg
        )


def heart_sign_constraints(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> HeartReport:
    tw = twist(ch, pt.beta, X)
    hf1 = tw.cHF >= 0
    b2 = tw.cHF == 0
    h2 = f2 = r0 = True
    b3 = False
    c3 = True
    if b2:
        h2 = tw.dH >= 0
        f2 = tw.dF >= 0
        r0 = ch.r <= 0
        b3 = ch.r == 0 and tw.dH == 0
        if b3:
            c3 = tw.e >= 0
    return HeartReport(hf1, b2, h2, f2, r0, b3, c3)


def central_charge(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> ChargeValue:
    """The rank-6 central charge; skyscrapers map to -1."""
    a2, t, s, d = p.alpha2, p.t, p.s, X.degree
    tw = twist(ch, p.beta, X)
    re = (s - a2 * d / 4) * tw.cHF - tw.e + a2 / 2 * tw.cHH
    im = tw.dH + t * tw.dF - t * a2 / 2 * ch.r
    return ChargeValue(re, im)


def in_positive_cone(z: ChargeValue) -> bool:
    """Open upper half-plane together with the negative real axis."""
    return z.im > 0 or (z.im == 0 and z.re < 0)


def nu_sigma(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> ExtRat:
    """Charge slope -Re/Im, +inf on the real axis."""
    z = central_charge(ch, p, X)
    if z.im == 0:
        return INFINITY
    return ExtRat(-z.re / z.im)
