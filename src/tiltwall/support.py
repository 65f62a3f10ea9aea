"""Support-property machinery for the central charge on the rank-6 lattice.

The candidate quadratic forms are the two-parameter family

    Q = mu * Q_weak(alpha^2, beta) + lambda * Q_disc

where Q_weak polarizes the weak inequality defect b*c - a*d and Q_disc the
first discriminant. A witness would have to be negative definite on ker Z
and nonnegative on the equality-case classes. The certificate lemma below
rules out every member of the family for every charge, so nothing searches
it: `null_kernel_vector` checks the lemma's vector exactly and returns it.

Nothing here expands the twist again. Z is linear in ch, so the i-th
coefficient of Re Z and Im Z is `central_charge(e_i)` on the unit character
e_i. `bg_weak_defect` and `disc_bar` are quadratic in ch, so each form is
the polarization Q[i][j] = (q(e_i + e_j) - q(e_i) - q(e_j)) / 2 read off q
on the six unit characters and their 15 pairwise sums. Every value read is
an exact Fraction from the layer-3 kernels, so every entry is exact.

Certificate lemma: if a nonzero v in ker Z is isotropic for every generator
of the family, then every combination Q of them has Q(v) = 0, so none is
negative definite on ker Z. For every charge, v = (0, 0, 1, 0, beta,
(alpha^2 + beta^2)/2) lies in ker Z and Q_weak(v) = Q_disc(v) = 0, so the
whole family is ruled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .chern import TiltPoint
from .exactnum import Rat, RatMatrix, as_rat
from .geometry import CharVector, RuledThreefold
from .inequalities import bg_weak_defect, disc_bar
from .stability import ChargeParams, central_charge

_UNITS = tuple(CharVector(*[int(i == j) for j in range(6)]) for i in range(6))
_PAIR_SUMS = tuple(
    (i, j, _UNITS[i] + _UNITS[j]) for i in range(6) for j in range(i + 1, 6)
)


@dataclass(frozen=True)
class QForm6:
    """Symmetric rational quadratic form on the six lattice coordinates."""

    matrix: RatMatrix

    def __post_init__(self):
        if self.matrix.rows != 6 or self.matrix.cols != 6:
            raise ValueError("QForm6 needs a 6x6 matrix")
        if not self.matrix.is_symmetric():
            raise ValueError("QForm6 needs a symmetric matrix")

    def value(self, v: Sequence[Rat | int]) -> Rat:
        vv = [as_rat(x) for x in v]
        return sum(
            vv[i] * self.matrix[i, j] * vv[j] for i in range(6) for j in range(6)
        )

    def value_char(self, ch: CharVector) -> Rat:
        return self.value(ch.as_tuple())


@dataclass(frozen=True)
class ChargeFunctionals:
    """Real and imaginary parts of the charge as linear functionals."""

    re_coeffs: tuple[Rat, ...]
    im_coeffs: tuple[Rat, ...]

    def evaluate(self, v: Sequence[Rat | int]) -> tuple[Rat, Rat]:
        vv = [as_rat(x) for x in v]
        return (
            sum(a * x for a, x in zip(self.re_coeffs, vv)),
            sum(a * x for a, x in zip(self.im_coeffs, vv)),
        )


def charge_functionals(p: ChargeParams, X: RuledThreefold) -> ChargeFunctionals:
    """Re Z and Im Z as coefficient vectors: Z is linear, so they are its
    values on the unit characters."""
    zs = [central_charge(e, p, X) for e in _UNITS]
    return ChargeFunctionals(tuple(z.re for z in zs), tuple(z.im for z in zs))


def _polarize(q: Callable[[CharVector], Rat]) -> QForm6:
    """The symmetric matrix of the quadratic form q on the lattice coordinates."""
    diag = [q(e) for e in _UNITS]
    rows = [[diag[i] if i == j else None for j in range(6)] for i in range(6)]
    for i, j, s in _PAIR_SUMS:
        rows[i][j] = rows[j][i] = (q(s) - diag[i] - diag[j]) / 2
    return QForm6(RatMatrix(rows))


def bg_quadratic_form(pt: TiltPoint, X: RuledThreefold) -> QForm6:
    """Polarization of b*c - a*d; evaluates to the weak inequality defect."""
    return _polarize(lambda ch: bg_weak_defect(ch, pt, X))


def disc_bar_form() -> QForm6:
    """Polarization of cHF^2 - 2 r dF."""
    return _polarize(disc_bar)


# Never built; bench/ reads it and calls verify_support positionally. ROADMAP item 1 removes both.
@dataclass(frozen=True)
class SupportWitness:
    lam: Rat
    mu: Rat
    form: QForm6


def family_forms(p: ChargeParams, X: RuledThreefold) -> tuple[QForm6, QForm6]:
    """The generators (Q_weak, Q_disc) of the family `verify_support` rules out."""
    return bg_quadratic_form(p.tilt_point(), X), disc_bar_form()


def null_kernel_vector(p: ChargeParams, X: RuledThreefold) -> tuple[Rat, ...]:
    """v = (0, 0, 1, 0, beta, (alpha^2 + beta^2)/2), checked exactly to lie in
    ker Z and to be isotropic for both generators of `family_forms`.

    By the certificate lemma, v proves that no mu*Q_weak + lambda*Q_disc is
    negative definite on ker Z. The lemma holds for every charge, so a failed
    check is a fault in the forms or in Z, and raises ArithmeticError.
    """
    b = p.beta
    v = (Fraction(0), Fraction(0), Fraction(1), Fraction(0), b, (p.alpha2 + b * b) / 2)
    fun = charge_functionals(p, X)
    forms = family_forms(p, X)
    if fun.evaluate(v) != (0, 0) or any(q.value(v) != 0 for q in forms):
        raise ArithmeticError(f"the null-line certificate fails at v = {v}")
    return v


def verify_support(
    p: ChargeParams,
    X: RuledThreefold,
    lambda_candidates: Sequence[Rat | int],
    mu_candidates: Sequence[Rat | int],
) -> None:
    """Look for a support-property witness mu*Q_weak + lambda*Q_disc among
    the candidates; there is none, for any charge.

    The candidates are validated, then `null_kernel_vector` proves that no
    member of the family is a witness. The answer None means "no witness".
    """
    lams = [as_rat(x) for x in lambda_candidates]
    mus = [as_rat(x) for x in mu_candidates]
    if any(x < 0 for x in lams):
        raise ValueError("lambda candidates must be nonnegative")
    if any(x <= 0 for x in mus):
        raise ValueError("mu candidates must be positive")
    null_kernel_vector(p, X)
