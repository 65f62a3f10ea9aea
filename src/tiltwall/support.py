"""Support-property machinery for the central charge on the rank-6 lattice.

The candidate quadratic forms are the two-parameter family

    Q = mu * Q_weak(alpha^2, beta) + lambda * Q_disc

where Q_weak polarizes the weak inequality defect b*c - a*d and Q_disc the
first discriminant. A witness must be negative definite on ker Z (exact
Sylvester minors on the restricted Gram matrix) and nonnegative on the
equality-case fixture classes. Failure to find a witness in a finite grid is
reported as inconclusive, never as a refutation.

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
whole family is ruled out before any grid cell is tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .chern import TiltPoint
from .exactnum import Rat, RatMatrix, as_rat, is_positive_definite
from .geometry import (
    CharVector,
    RuledThreefold,
    fiber_pushforward_char,
    line_bundle_char,
)
from .inequalities import bg_weak_defect, disc_bar
from .stability import ChargeParams, central_charge

_COORDS = ("r", "cHF", "cHH", "dF", "dH", "e")
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

    def add(self, other: "QForm6") -> "QForm6":
        return QForm6(self.matrix.add(other.matrix))

    def scale(self, k: Rat | int) -> "QForm6":
        return QForm6(self.matrix.scale(k))

    def upper_entries(self) -> list[tuple[str, str, Rat]]:
        """The 21 independent entries, row-major upper triangle."""
        return [
            (_COORDS[i], _COORDS[j], self.matrix[i, j])
            for i in range(6)
            for j in range(i, 6)
        ]


@dataclass(frozen=True)
class ChargeFunctionals:
    """Real and imaginary parts of the charge as linear functionals."""

    re_coeffs: tuple[Rat, ...]
    im_coeffs: tuple[Rat, ...]

    def matrix(self) -> RatMatrix:
        return RatMatrix([self.re_coeffs, self.im_coeffs])

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


def is_negative_definite_on(Q: QForm6, basis: Sequence[Sequence[Rat | int]]) -> bool:
    """Restrict to the span of `basis` and test definiteness of the negation."""
    if not basis:
        raise ValueError("empty basis")
    b = RatMatrix(basis).transpose()
    if b.rows != 6:
        raise ValueError("basis vectors must have 6 coordinates")
    if b.rank() != b.cols:
        raise ValueError("basis vectors must be linearly independent")
    gram = b.transpose() @ Q.matrix @ b
    return is_positive_definite(gram.scale(-1))


def equality_case_fixtures(X: RuledThreefold) -> list[CharVector]:
    """Classes carrying semistable objects with vanishing discriminant:
    line bundles and their fiber pushforwards."""
    fixtures = []
    for a in range(-3, 4):
        for b in range(-3, 4):
            lb = line_bundle_char(a, b, X)
            fixtures.append(lb)
            fixtures.append(fiber_pushforward_char(1, lb))
    return fixtures


@dataclass(frozen=True)
class SupportWitness:
    lam: Rat
    mu: Rat
    form: QForm6


def family_forms(p: ChargeParams, X: RuledThreefold) -> tuple[QForm6, QForm6]:
    """The generators (Q_weak, Q_disc) of the family `verify_support` searches."""
    return bg_quadratic_form(p.tilt_point(), X), disc_bar_form()


def null_kernel_vector(
    fun: ChargeFunctionals, p: ChargeParams, forms: Sequence[QForm6]
) -> tuple[Rat, ...] | None:
    """v = (0, 0, 1, 0, beta, (alpha^2 + beta^2)/2) if Z(v) = 0 and q(v) = 0
    for every q in `forms`, else None.

    Such a v certifies that no combination of `forms` is negative definite
    on ker Z. Both conditions are checked exactly, not assumed.
    """
    b = p.beta
    v = (Fraction(0), Fraction(0), Fraction(1), Fraction(0), b, (p.alpha2 + b * b) / 2)
    if fun.evaluate(v) != (0, 0) or any(q.value(v) != 0 for q in forms):
        return None
    return v


def verify_support(
    p: ChargeParams,
    X: RuledThreefold,
    lambda_candidates: Sequence[Rat | int],
    mu_candidates: Sequence[Rat | int],
) -> SupportWitness | None:
    """Grid-search mu*Q_weak + lambda*Q_disc for a support-property witness.

    Returns the first witness in grid order (lambda outer, mu inner), or None.
    None is inconclusive: the family may simply miss every witness.

    Before the grid, `null_kernel_vector` looks for a kernel vector isotropic
    for both generators. By the certificate lemma in the module docstring
    such a vector rules out every cell, so None is returned without a
    Sylvester test. The vector exists for every charge, so the grid only
    runs for a family the certificate does not cover.
    """
    lams = [as_rat(x) for x in lambda_candidates]
    mus = [as_rat(x) for x in mu_candidates]
    if any(x < 0 for x in lams):
        raise ValueError("lambda candidates must be nonnegative")
    if any(x <= 0 for x in mus):
        raise ValueError("mu candidates must be positive")
    fun = charge_functionals(p, X)
    q_weak, q_disc = family_forms(p, X)
    if null_kernel_vector(fun, p, [q_weak, q_disc]) is not None:
        return None
    # The (dH, e) minor of Z is -1 for every input, so ker Z has dimension 4.
    kernel = fun.matrix().kernel_basis()
    fixtures = equality_case_fixtures(X)

    for lam in lams:
        for mu in mus:
            q = q_weak.scale(mu).add(q_disc.scale(lam))
            if not is_negative_definite_on(q, kernel):
                continue
            if any(q.value_char(ch) < 0 for ch in fixtures):
                continue
            return SupportWitness(lam, mu, q)
    return None
