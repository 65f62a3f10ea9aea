"""Discriminants and Bogomolov-Gieseker-type inequalities as exact defects.

Every inequality is exposed as LHS - RHS (or the orientation making
"defect >= 0" mean "inequality holds"), so equality loci and margins are
visible. None of the checkers verifies the semistability hypothesis of the
statement it encodes; callers report verdicts as conditional.

Each defect is an integer polynomial evaluated once. A twisted defect reads
ch^beta = (R, C1, C2, DF, DH, E)/M from `chern._twist_scaled` (M > 0), with
r = R/M, and clears alpha^2 = a/A; an untwisted one reads
ch = (R, C1, C2, DF, DH, E)/L from the property `CharVector._scaled`,
which each value computes at most once. Multiplying each rational
formula through by its denominator gives

    disc_tilde   = (C1 C2 - R DH) / M^2
    bg_main      = ((2A DF - a R)(3 DH - d DF) - (6A E - 3a C2 + 2a d C1) C1) / (6 A M^2)
    bg_nu_zero   = (3a C2 - 2a d C1 - 6A E) / (6 A M)
    bg_weak      = (2 (2A DF - a R) DH - (4A E - 2a C2 + a d C1) C1) / (4 A M^2)
    liu (a,b,c,d)= ((a R - 2A DF)/(2A M), (2a C2 - a d C1 - 4A E)/(4A M), C1/M, DH/M)
    bg_star      = ((a vd^2 + A vn^2)(3 C2 - 2d C1) - 6 A vd^2 E) / (6 A vd^2 M)
                   twisted at beta + nu, nu = vn/vd in lowest terms
    disc_bar     = (C1^2 - 2 R DF) / L^2
    nabla        = (d R DF - 2d C1^2 + 3 C1 C2 - 3 R DH) / (3 L^2)
    chi1, chi2   = (6E +- 3DH - 3(2g - 2 + d) DF -+ (3g - 3 + d or 2d) C1) / (6L)

The numerators are exact Python ints and each returned value is one
Fraction(numerator, denominator), so it equals the rational evaluation
exactly. `corollary_defect` keeps its own route (through `disc_tilde` and
`disc_bar`), so it stays an independent check of `nabla`.
"""

from __future__ import annotations

from fractions import Fraction

from .chern import TiltPoint, _twist_scaled
from .exactnum import Rat
from .geometry import CharVector, RuledThreefold
from .stability import _nu_parts


def disc_classical(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:
    """Classical discriminant ch1^2 - 2 ch0 ch2 paired with F and with H."""
    d = X.degree
    L, (R, P, C2, DF, DH, _) = ch._scaled
    Q = C2 - P * d
    L2 = L * L
    return (
        Fraction(P * P - 2 * R * DF, L2),
        Fraction(P * P * d + 2 * P * Q - 2 * R * DH, L2),
    )


def disc_bar(ch: CharVector) -> Rat:
    """First generalized discriminant cHF^2 - 2 r dF; twist-invariant, integral on the lattice."""
    L, (R, C1, _, DF, _, _) = ch._scaled
    return Fraction(C1 * C1 - 2 * R * DF, L * L)


def disc_tilde(ch: CharVector, beta: Rat | int, X: RuledThreefold) -> Rat:
    """Second generalized discriminant at the twisted degrees; invariant under O(mF)."""
    M, (R, C1, C2, _, DH, _) = _twist_scaled(ch, beta, X.degree)
    return Fraction(C1 * C2 - R * DH, M * M)


def nabla(ch: CharVector, X: RuledThreefold) -> Rat:
    """Defect of the strongest slope-stability inequality; vanishes on line bundles."""
    d = X.degree
    L, (R, C1, C2, DF, DH, _) = ch._scaled
    return Fraction(d * (R * DF - 2 * C1 * C1) + 3 * (C1 * C2 - R * DH), 3 * L * L)


def corollary_defect(ch: CharVector, X: RuledThreefold) -> Rat:
    """Same quantity as `nabla`, assembled from the two discriminants."""
    d = X.degree
    return (
        disc_tilde(ch, 0, X)
        - Fraction(d, 6) * disc_bar(ch)
        - Fraction(d, 2) * ch.cHF * ch.cHF
    )


def bg_main_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the main third-Chern-character inequality at (alpha^2, beta)."""
    a, A, d = pt.alpha2.numerator, pt.alpha2.denominator, X.degree
    M, (R, C1, C2, DF, DH, E) = _twist_scaled(ch, pt.beta, X.degree)
    lhs = (2 * A * DF - a * R) * (3 * DH - d * DF)
    rhs = (6 * A * E - 3 * a * C2 + 2 * a * d * C1) * C1
    return Fraction(lhs - rhs, 6 * A * M * M)


def bg_nu_zero_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the slope-zero form: bounds ch3 by the alpha^2-weighted degrees."""
    a, A, d = pt.alpha2.numerator, pt.alpha2.denominator, X.degree
    M, (_, C1, C2, _, _, E) = _twist_scaled(ch, pt.beta, X.degree)
    return Fraction(3 * a * C2 - 2 * a * d * C1 - 6 * A * E, 6 * A * M)


def bg_star_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the slope-recentered form, evaluated at beta + nu.

    Equals bg_main_defect / cHF^beta identically; requires finite tilt slope.
    """
    parts = _nu_parts(ch, pt)
    if parts is None:
        raise ValueError("star form needs a finite tilt slope at (alpha2, beta)")
    v = Fraction(*parts)
    a, A, d = pt.alpha2.numerator, pt.alpha2.denominator, X.degree
    M, (_, C1, C2, _, _, E) = _twist_scaled(ch, pt.beta + v, X.degree)
    vn, vd = v.numerator, v.denominator
    vd2 = vd * vd
    return Fraction(
        (a * vd2 + A * vn * vn) * (3 * C2 - 2 * d * C1) - 6 * A * vd2 * E, 6 * A * vd2 * M
    )


def bg_weak_defect(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> Rat:
    """Defect of the weak form (coefficient d/4 instead of d/3)."""
    a, A, d = pt.alpha2.numerator, pt.alpha2.denominator, X.degree
    M, (R, C1, C2, DF, DH, E) = _twist_scaled(ch, pt.beta, X.degree)
    lhs = 2 * (2 * A * DF - a * R) * DH
    rhs = (4 * A * E - 2 * a * C2 + a * d * C1) * C1
    return Fraction(lhs - rhs, 4 * A * M * M)


def liu_abcd(ch: CharVector, pt: TiltPoint, X: RuledThreefold) -> tuple[Rat, Rat, Rat, Rat]:
    """The four linear functionals with b*c - a*d = bg_weak_defect and
    mixed slope (d - t*a)/c."""
    an, A, deg = pt.alpha2.numerator, pt.alpha2.denominator, X.degree
    M, (R, C1, C2, DF, DH, E) = _twist_scaled(ch, pt.beta, X.degree)
    a = Fraction(an * R - 2 * A * DF, 2 * A * M)
    b = Fraction(2 * an * C2 - an * deg * C1 - 4 * A * E, 4 * A * M)
    return a, b, Fraction(C1, M), Fraction(DH, M)


def fiber_bogomolov_defect(k: int, A: CharVector, X: RuledThreefold) -> Rat:
    """Discriminant of the pushforward from k fibers; twist-invariant.

    The pushforward is (0, 0, k r, 0, k cHF, k dF), so dH^2 - 2 cHH e is
    k^2 (cHF^2 - 2 r dF) = k^2 disc_bar(A).
    """
    if not isinstance(k, int) or k <= 0:
        raise ValueError("k must be a positive integer")
    return k * k * disc_bar(A)


def prop42_chi_bounds(ch: CharVector, X: RuledThreefold) -> tuple[Rat, Rat]:
    """The two Euler-characteristic functionals against O(H) and O(2H).

    Closed forms; must agree with euler_char_pair on every character.
    """
    g, d = X.genus, X.degree
    L, (_, C1, _, DF, DH, E) = ch._scaled
    common = 6 * E - 3 * (2 * g - 2 + d) * DF
    return (
        Fraction(common + 3 * DH - (3 * g - 3 + d) * C1, 6 * L),
        Fraction(common - 3 * DH + (3 * g - 3 + 2 * d) * C1, 6 * L),
    )

