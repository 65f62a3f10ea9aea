"""Slope functions and the central charge.

All slopes return ExtRat; +inf encodes a vanishing denominator. The heart
sign report is a necessary-condition filter only: a class failing it cannot
underlie an object of the tilted heart, passing certifies nothing.

Every function of a twisted character works on `chern._twist_scaled`'s
integer numerators: ch^beta = (R, C1, C2, DF, DH, E)/M with M > 0. The
parameters are cleared to ints as well, alpha^2 = a/A, s = sn/sd and
t = tn/td, all denominators positive. Then

    nu      = (2 A DF - a R) / (2 A C1)
    nu_mix  = (2 A td DH + 2 A tn DF - a tn R) / (2 A td C1)
    Re Z    = (td (4 A sn - a d sd) C1 + 2 a sd td C2 - 4 A sd td E) / N
    Im Z    = (4 A sd td DH + 4 A sd tn DF - 2 a sd tn R) / N,  N = 4 A sd td M
    nu_sigma = -Re Z / Im Z, the two numerators' quotient

(`nu` reads only R, C1 and DF, which do not involve the degree, so it needs
no threefold). The heart cascade needs signs only, and M > 0, so
it compares the numerators with 0 and builds no Fraction at all. Each
returned rational is one Fraction(numerator, denominator) of exact Python
ints, so every value equals the rational evaluation exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import TiltPoint, _twist_scaled
from .exactnum import INFINITY, ExtRat, Rat, Record, as_rat
from .geometry import CharVector, RuledThreefold


class ChargeParams(Record):
    """Parameters (alpha^2, beta, s, t) of the central charge, s and t positive."""

    FIELDS = ("alpha2", "beta", "s", "t")

    def _check(self):
        self.tilt_point()  # checks alpha2
        if self.s <= 0 or self.t <= 0:
            raise ValueError("s and t must be positive")

    def tilt_point(self) -> TiltPoint:
        return TiltPoint(self.alpha2, self.beta)


class ChargeValue(Record):
    FIELDS = ("re", "im")


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
        return mu_HF(ch)
    if ch.cHF == 0 and ch.dF == 0 and ch.cHH != 0:
        return ExtRat(ch.dH / ch.cHH)
    return INFINITY


def _nu_parts(ch: CharVector, pt: TiltPoint) -> tuple[int, int] | None:
    """The tilt slope as (2 A DF - a R, 2 A C1) from `_twist_scaled`, None
    when c_beta = 0. R, C1 and DF do not involve the degree, so 0 stands in."""
    _, (R, C1, _, DF, _, _) = _twist_scaled(ch, pt.beta, 0)
    if not C1:
        return None
    a, A = pt.alpha2.numerator, pt.alpha2.denominator
    return 2 * A * DF - a * R, 2 * A * C1


def nu(ch: CharVector, pt: TiltPoint) -> ExtRat:
    """Tilt slope at (alpha^2, beta); depends only on (r, cHF, dF)."""
    parts = _nu_parts(ch, pt)
    if parts is None:
        return INFINITY
    return ExtRat(Fraction(*parts))


def nu_mixed(ch: CharVector, pt: TiltPoint, t: Rat | int, X: RuledThreefold) -> ExtRat:
    """Mixed tilt slope weighting H.ch2 and F.ch2 by 1 and t."""
    t = as_rat(t)
    if t <= 0:
        raise ValueError("t must be positive")
    _, (R, C1, _, DF, DH, _) = _twist_scaled(ch, pt.beta, X.degree)
    if not C1:
        return INFINITY
    a, A = pt.alpha2.numerator, pt.alpha2.denominator
    tn, td = t.numerator, t.denominator
    return ExtRat(Fraction(2 * A * (td * DH + tn * DF) - a * tn * R, 2 * A * td * C1))


class HeartReport(Record):
    """Exact evaluation of the sign cascade necessary for heart membership.

    Checks not reached by the cascade are reported True.
    """

    FIELDS = ("hf_ch1_nonneg", "branch2_checked", "h_ch2_nonneg", "f_ch2_nonneg",
              "rank_nonpos", "branch3_checked", "ch3_nonneg")
    _coerce = None  # bools

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
    _, (R, C1, _, DF, DH, E) = _twist_scaled(ch, pt.beta, X.degree)
    hf1 = C1 >= 0
    b2 = C1 == 0
    h2 = f2 = r0 = True
    b3 = False
    c3 = True
    if b2:
        h2 = DH >= 0
        f2 = DF >= 0
        r0 = R <= 0
        b3 = R == 0 and DH == 0
        if b3:
            c3 = E >= 0
    return HeartReport(hf1, b2, h2, f2, r0, b3, c3)


def _charge_parts(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> tuple[int, int, int]:
    """(Re, Im, N): the central charge as two int numerators over N > 0."""
    M, (R, C1, C2, DF, DH, E) = _twist_scaled(ch, p.beta, X.degree)
    a, A = p.alpha2.numerator, p.alpha2.denominator
    sn, sd = p.s.numerator, p.s.denominator
    tn, td = p.t.numerator, p.t.denominator
    re = td * ((4 * A * sn - a * X.degree * sd) * C1 + 2 * sd * (a * C2 - 2 * A * E))
    im = 2 * sd * (2 * A * (td * DH + tn * DF) - a * tn * R)
    return re, im, 4 * A * sd * td * M


def central_charge(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> ChargeValue:
    """The rank-6 central charge; skyscrapers map to -1."""
    re, im, N = _charge_parts(ch, p, X)
    return ChargeValue(Fraction(re, N), Fraction(im, N))


def nu_sigma(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> ExtRat:
    """Charge slope -Re/Im, +inf on the real axis."""
    re, im, _ = _charge_parts(ch, p, X)
    if not im:
        return INFINITY
    return ExtRat(Fraction(-re, im))
