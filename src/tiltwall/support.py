"""Support-property certificate for the central charge on the rank-6 lattice.

The candidate quadratic forms are the two-parameter family

    Q = mu * Q_weak(alpha^2, beta) + lambda * Q_disc

where Q_weak is the weak inequality defect b*c - a*d (`bg_weak_defect` at the
charge's tilt point) and Q_disc the first discriminant (`disc_bar`). A witness
would have to be negative definite on ker Z and nonnegative on the
equality-case classes.

Certificate lemma: if a nonzero v in ker Z is isotropic for every generator
of the family, then every combination Q of them has Q(v) = 0, so none is
negative definite on ker Z. For every charge, v = (0, 0, 1, 0, beta,
(alpha^2 + beta^2)/2) lies in ker Z and Q_weak(v) = Q_disc(v) = 0, so the
whole family is ruled out and nothing searches it.

`null_kernel_vector` checks the lemma's conditions at v with the layer-3
kernels themselves: Z is linear, so v is in ker Z exactly when
`central_charge(v)` is 0, and the value of a quadratic form at v is the
defect of v, `bg_weak_defect(v)` or `disc_bar(v)`. Each is an exact Fraction,
so the check is exact, and the twist is written out only in `chern`.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .exactnum import Rat, Record, as_rat
from .geometry import CharVector, RuledThreefold
from .inequalities import bg_weak_defect, disc_bar
from .stability import ChargeParams, central_charge


# Never built; bench/ reads it and calls verify_support positionally. ROADMAP item 1 removes both.
class SupportWitness(Record):
    FIELDS = ("lam", "mu", "form")
    _coerce = None


def null_kernel_vector(p: ChargeParams, X: RuledThreefold) -> tuple[Rat, ...]:
    """v = (0, 0, 1, 0, beta, (alpha^2 + beta^2)/2), checked exactly to have
    Z(v) = 0, `bg_weak_defect(v)` = 0 at the charge's tilt point and
    `disc_bar(v)` = 0.

    By the certificate lemma, v proves that no mu*Q_weak + lambda*Q_disc is
    negative definite on ker Z. The lemma holds for every charge, so a failed
    check is a fault in a kernel, and raises ArithmeticError.
    """
    b = p.beta
    v = (Fraction(0), Fraction(0), Fraction(1), Fraction(0), b, (p.alpha2 + b * b) / 2)
    ch = CharVector(*v)
    z = central_charge(ch, p, X)
    if z.re != 0 or z.im != 0 or bg_weak_defect(ch, p.tilt_point(), X) != 0 or disc_bar(ch) != 0:
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
