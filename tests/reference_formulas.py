"""The rational (Fraction) formulas of the lattice constructors and of the
slope, charge and defect functions, kept verbatim as the reference for the
library's integer kernels.

Each body below is the library's formula written directly in Fraction
arithmetic. `twist` here is `reference_twist`, the rational twist formulas,
and `line_bundle_char`, `fiber_pushforward_char` and `beta_bar` are the
Fraction constructors, so no reference calls an integer kernel of the
library apart from `euler_char_pair` in `chi_bounds_via_rr`. At the end are
the hand-expanded untwisted coefficients of Z and Gram rows of Q_weak and
Q_disc, as plain tuples, the reference for `central_charge`,
`bg_weak_defect` and `disc_bar`; `quad_value` evaluates a Gram at a vector.
Last is the Fraction `candidate_box` of the destabilizer scan, the reference
for its integer c range.
"""

from fractions import Fraction
from typing import Sequence

import sympy as sp

from tiltwall import (
    INFINITY,
    CharVector,
    ChargeParams,
    ChargeValue,
    ExtRat,
    HeartReport,
    QuadRat,
    RuledThreefold,
    TiltPoint,
    euler_char_pair,
)
from tiltwall.chern import ReducedClass, disc_bar_reduced
from tiltwall.exactnum import Rat, ceil_sqrt
from tiltwall.walls import no_wall_reason


def reference_twist(ch, beta, X):
    """The rational formulas of the twist, the reference for the integer kernel."""
    b = Fraction(beta)
    d = X.degree
    return CharVector(
        ch.r,
        ch.cHF - b * ch.r,
        ch.cHH - b * d * ch.r,
        ch.dF - b * ch.cHF + b * b / 2 * ch.r,
        ch.dH - b * ch.cHH + b * b / 2 * d * ch.r,
        ch.e - b * ch.dH + b * b / 2 * ch.cHH - b**3 / 6 * d * ch.r,
    )


twist = reference_twist


def line_bundle_char(a: int, b: int, X: RuledThreefold) -> CharVector:
    """Character of O(aH + bF), the exponential of the divisor class."""
    d = X.degree
    return CharVector(
        1,
        a,
        a * d + b,
        Fraction(a * a, 2),
        Fraction(a * a * d, 2) + a * b,
        Fraction(a**3 * d, 6) + Fraction(a * a * b, 2),
    )


def fiber_pushforward_char(k: int, A: CharVector) -> CharVector:
    """Character of the pushforward from k fibers: multiply by kF, degrees shift up."""
    if not isinstance(k, int) or k <= 0:
        raise ValueError("k must be a positive integer")
    return CharVector(0, 0, k * A.r, 0, k * A.cHF, k * A.dF)


def beta_bar(ch: CharVector) -> QuadRat:
    """The twist parameter at which the twisted F.ch2 vanishes."""
    r, c, dd = ch.r, ch.cHF, ch.dF
    if r == 0:
        if c == 0:
            raise ValueError("beta_bar undefined: rank and HF.ch1 both vanish")
        return QuadRat(dd / c)
    disc = c * c - 2 * r * dd
    if disc < 0:
        raise ValueError("beta_bar domain error: negative discriminant with nonzero rank")
    return QuadRat(c / r, -1 / r, disc)


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


def nu_sigma(ch: CharVector, p: ChargeParams, X: RuledThreefold) -> ExtRat:
    """Charge slope -Re/Im, +inf on the real axis."""
    z = central_charge(ch, p, X)
    if z.im == 0:
        return INFINITY
    return ExtRat(-z.re / z.im)


def disc_classical(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:
    """Classical discriminant ch1^2 - 2 ch0 ch2 paired with F and with H."""
    d = X.degree
    p = ch.cHF
    q = ch.cHH - p * d
    f_delta = p * p - 2 * ch.r * ch.dF
    h_delta = p * p * d + 2 * p * q - 2 * ch.r * ch.dH
    return f_delta, h_delta


def disc_bar(ch: CharVector) -> Rat:
    """First generalized discriminant cHF^2 - 2 r dF; twist-invariant, integral on the lattice."""
    return ch.cHF * ch.cHF - 2 * ch.r * ch.dF


def disc_tilde(ch: CharVector, beta: Rat | int, X: RuledThreefold) -> Rat:
    """Second generalized discriminant at the twisted degrees; invariant under O(mF)."""
    tw = twist(ch, beta, X)
    return tw.cHF * tw.cHH - ch.r * tw.dH


def nabla(ch: CharVector, X: RuledThreefold) -> Rat:
    """Defect of the strongest slope-stability inequality; vanishes on line bundles."""
    d = X.degree
    return (
        Fraction(d, 3) * ch.r * ch.dF
        - Fraction(2 * d, 3) * ch.cHF * ch.cHF
        + ch.cHH * ch.cHF
        - ch.r * ch.dH
    )


def bg_main_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the main third-Chern-character inequality at (alpha^2, beta)."""
    a2, d = pt.alpha2, X.degree
    tw = twist(ch, pt.beta, X)
    lhs = (tw.dF - a2 / 2 * ch.r) * (tw.dH - Fraction(d, 3) * tw.dF)
    rhs = (tw.e - a2 / 2 * tw.cHH + a2 * d / 3 * tw.cHF) * tw.cHF
    return lhs - rhs


def bg_nu_zero_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the slope-zero form: bounds ch3 by the alpha^2-weighted degrees."""
    a2, d = pt.alpha2, X.degree
    tw = twist(ch, pt.beta, X)
    return a2 / 2 * tw.cHH - a2 * d / 3 * tw.cHF - tw.e


def bg_star_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the slope-recentered form, evaluated at beta + nu.

    Equals bg_main_defect / cHF^beta identically; requires finite tilt slope.
    """
    v = nu(ch, pt)
    if v.is_infinite:
        raise ValueError("slope-recentered defect needs a finite tilt slope")
    a2, d = pt.alpha2, X.degree
    tw = twist(ch, pt.beta + v.value, X)
    rhs = (a2 + v.value * v.value) * (tw.cHH / 2 - Fraction(d, 3) * tw.cHF)
    return rhs - tw.e


def bg_weak_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the weak form (coefficient d/4 instead of d/3)."""
    a2, d = pt.alpha2, X.degree
    tw = twist(ch, pt.beta, X)
    lhs = (tw.dF - a2 / 2 * ch.r) * tw.dH
    rhs = (tw.e - a2 / 2 * tw.cHH + a2 * d / 4 * tw.cHF) * tw.cHF
    return lhs - rhs


def liu_abcd(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> tuple[Rat, Rat, Rat, Rat]:
    """The four linear functionals with b*c - a*d = bg_weak_defect and
    mixed slope (d - t*a)/c."""
    a2, deg = pt.alpha2, X.degree
    tw = twist(ch, pt.beta, X)
    a = -tw.dF + a2 / 2 * ch.r
    b = -tw.e + a2 / 2 * tw.cHH - a2 * deg / 4 * tw.cHF
    c = tw.cHF
    d = tw.dH
    return a, b, c, d


def fiber_bogomolov_defect(k: int, A: CharVector, X: RuledThreefold) -> Rat:
    """Discriminant of the pushforward from k fibers; twist-invariant."""
    P = fiber_pushforward_char(k, A)
    return P.dH * P.dH - 2 * P.cHH * P.e


def prop42_chi_bounds(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:
    """The two Euler-characteristic functionals against O(H) and O(2H).

    Closed forms; must agree with euler_char_pair on every character.
    """
    g, d = X.genus, X.degree
    chi1 = (
        ch.e
        + ch.dH / 2
        - (g - 1 + Fraction(d, 2)) * ch.dF
        - Fraction(3 * g - 3 + d, 6) * ch.cHF
    )
    chi2 = (
        ch.e
        - ch.dH / 2
        - (g - 1 + Fraction(d, 2)) * ch.dF
        + Fraction(3 * g - 3 + 2 * d, 6) * ch.cHF
    )
    return chi1, chi2


def euler_char(X: RuledThreefold, ch: CharVector) -> Rat:
    """Euler characteristic by Riemann-Roch, expanded through the ring relations."""
    g, d = X.genus, X.degree
    c1_ch2 = 3 * ch.dH - (d + 2 * g - 2) * ch.dF
    c1sq_c2_ch1 = 12 * ch.cHH - (18 * g - 18 + 8 * d) * ch.cHF
    return ch.e + c1_ch2 / 2 + c1sq_c2_ch1 / 12 + ch.r * (1 - g)


def chi_bounds_via_rr(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:
    """The two functionals of `prop42_chi_bounds` through the Riemann-Roch pairing route."""
    return (
        euler_char_pair(X, line_bundle_char(1, 0, X), ch),
        euler_char_pair(X, line_bundle_char(2, 0, X), ch),
    )


_SQRT_D = sp.Symbol("s", positive=True)


def _sym(q: Rat | int) -> sp.Rational:
    q = Fraction(q)
    return sp.Rational(q.numerator, q.denominator)


def f_ch2_twisted(ch: CharVector, b: QuadRat | Rat | int) -> tuple[Rat, Rat, Rat]:
    """F.ch2 of the twisted character at b = x + y sqrt(D), expanded by sympy.

    sqrt(D) is the symbol s: dF - b cHF + (r/2) b^2 is expanded, reduced by
    s^2 -> D and read off as (a, b, radicand) of a + b sqrt(radicand), with
    radicand 0 when b is 0 (QuadRat's normal form). Only the parts of the
    argument are read, so no QuadRat arithmetic enters the reference.
    """
    x, y, D = (b.a, b.b, b.radicand) if isinstance(b, QuadRat) else (b, 0, 0)
    beta = _sym(x) + _sym(y) * _SQRT_D
    poly = sp.expand(_sym(ch.dF) - beta * _sym(ch.cHF) + beta**2 * _sym(ch.r) / 2)
    poly = sp.rem(poly, _SQRT_D**2 - _sym(D), _SQRT_D)
    c0, c1 = (Fraction(int(c.p), int(c.q)) for c in (poly.coeff(_SQRT_D, 0), poly.coeff(_SQRT_D, 1)))
    return c0, c1, Fraction(D) if c1 != 0 else Fraction(0)


def charge_coefficients(p: ChargeParams, X: RuledThreefold) -> tuple[tuple[Rat, ...], tuple[Rat, ...]]:
    """Expand the twisted degrees of the charge into untwisted coordinates:
    the coefficient vectors of Re Z and Im Z."""
    a2, b, s, t, d = p.alpha2, p.beta, p.s, p.t, Fraction(X.degree)
    re = (
        -b * s + b**3 * d / 6 - a2 * b * d / 4,
        s - a2 * d / 4,
        (a2 - b * b) / 2,
        Fraction(0),
        b,
        Fraction(-1),
    )
    im = (
        b * b / 2 * d + t / 2 * (b * b - a2),
        -t * b,
        -b,
        t,
        Fraction(1),
        Fraction(0),
    )
    return re, im


def _functional_coeffs_abcd(pt: TiltPoint, d: Fraction):
    """Coefficient vectors of the four weak-inequality functionals."""
    a2, b = pt.alpha2, pt.beta
    fa = (a2 / 2 - b * b / 2, b, Fraction(0), Fraction(-1), Fraction(0), Fraction(0))
    fb = (
        b**3 * d / 6 - a2 * b * d / 4,
        -a2 * d / 4,
        (a2 - b * b) / 2,
        Fraction(0),
        b,
        Fraction(-1),
    )
    fc = (-b, Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    fd = (b * b / 2 * d, Fraction(0), -b, Fraction(0), Fraction(1), Fraction(0))
    return fa, fb, fc, fd


Gram = tuple[tuple[Rat, ...], ...]


def _sym_outer(x: Sequence[Fraction], y: Sequence[Fraction]) -> Gram:
    return tuple(
        tuple((x[i] * y[j] + x[j] * y[i]) / 2 for j in range(6)) for i in range(6)
    )


def bg_weak_gram(pt: TiltPoint, X: RuledThreefold) -> Gram:
    """Gram rows of b*c - a*d, the weak inequality defect."""
    fa, fb, fc, fd = _functional_coeffs_abcd(pt, Fraction(X.degree))
    bc, ad = _sym_outer(fb, fc), _sym_outer(fa, fd)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(bc, ad))


def disc_bar_gram() -> Gram:
    """Gram rows of cHF^2 - 2 r dF."""
    rows = [[Fraction(0)] * 6 for _ in range(6)]
    rows[1][1] = Fraction(1)
    rows[0][3] = rows[3][0] = Fraction(-1)
    return tuple(map(tuple, rows))


def quad_value(rows: Gram, v: Sequence[Rat]) -> Rat:
    """v^T M v for the Gram rows M."""
    return sum(v[i] * rows[i][j] * v[j] for i in range(6) for j in range(6))


def candidate_box(u: ReducedClass, rank_bound: int):
    """Per-rank (c range, d interval) of the scan, with Fraction ends for the
    c range when r_u != 0 and a fixed center d_u/c_u when r_u = 0."""
    if no_wall_reason(u):
        return
    delta = disc_bar_reduced(u)
    r_u, c_u, d_u = u.r, u.c, u.dd

    if r_u != 0:
        mu = c_u / r_u
        rho2max = delta * delta / 4
        cdev = Fraction(ceil_sqrt(rho2max + delta / (r_u * r_u)))
        cbar_max = Fraction(ceil_sqrt(delta + rho2max * r_u * r_u))
        c_min_center, c_max_center = mu - cdev, mu + cdev
    else:
        fixed_center = d_u / c_u
        cbar_max = c_u

    for r_w in range(-rank_bound, rank_bound + 1):
        if r_u != 0:
            ends = (c_min_center * r_w, c_max_center * r_w)
            lo = min(ends)
            hi = max(ends) + cbar_max
        else:
            if r_w == 0:
                continue  # no wall exists against a rank-0 base class
            lo = fixed_center * r_w
            hi = fixed_center * r_w + cbar_max
        c_lo = lo.numerator // lo.denominator
        c_hi = -((-hi.numerator) // hi.denominator)

        def d_interval(c_w: int, r_w=r_w):
            cw2 = Fraction(c_w * c_w)
            if r_w != 0:
                a, b = (cw2 - delta) / (2 * r_w), cw2 / (2 * r_w)
                return (a, b) if a <= b else (b, a)
            if cw2 > delta:
                return None
            base = 2 * r_u * d_u - (c_u - c_w) ** 2
            a, b = base / (2 * r_u), (base + delta - cw2) / (2 * r_u)
            return (a, b) if a <= b else (b, a)

        yield r_w, c_lo, c_hi, d_interval
