"""Shared generators: seeded random data (from tiltwall.selftest) and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from tiltwall import ChargeParams, CharVector, ReducedClass, RuledThreefold, TiltPoint
from tiltwall.selftest import (  # re-exported to the test modules
    rand_lattice_char,
    rand_point,
    rand_rat,
    rand_reduced,
    rand_threefold,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260809)


def lift(u: ReducedClass) -> CharVector:
    """A character with reduction u and zeros elsewhere."""
    return CharVector(u.r, u.c, 0, u.dd, 0, 0)


# Entrywise sum, difference and negation of lattice values (CharVector,
# ReducedClass), which carry no arithmetic of their own.
def add(x, y):
    return type(x)(*(a + b for a, b in zip(x.as_tuple(), y.as_tuple())))


def sub(x, y):
    return type(x)(*(a - b for a, b in zip(x.as_tuple(), y.as_tuple())))


def neg(x):
    return type(x)(*(-a for a in x.as_tuple()))


rats = st.fractions(min_value=-30, max_value=30, max_denominator=6)

lattice_chars = st.builds(
    CharVector,
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-8, 8),
    st.integers(-10, 10).map(lambda n: Fraction(n, 2)),
    st.integers(-10, 10).map(lambda n: Fraction(n, 2)),
    st.integers(-18, 18).map(lambda n: Fraction(n, 6)),
)

reduced_classes = st.builds(
    ReducedClass,
    st.integers(-3, 3),
    st.integers(-4, 4),
    st.integers(-8, 8).map(lambda n: Fraction(n, 2)),
)

threefolds = st.builds(RuledThreefold, st.integers(0, 5), st.integers(-3, 5))

tilt_points = st.builds(
    TiltPoint,
    st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(lambda q: q > 0),
    rats,
)

# Non-lattice entries with large denominators, for the integer kernels of
# twist and tensor_product_char against their rational reference formulas.
wide_rats = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6)

wide_chars = st.builds(CharVector, wide_rats, wide_rats, wide_rats, wide_rats, wide_rats, wide_rats)

# beta = 0 (as int and as Fraction), integers, and denominators up to 10^12.
wide_betas = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-50, 50),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**12),
)

# Degrees on both sides of zero.
wide_threefolds = st.builds(RuledThreefold, st.integers(0, 5), st.integers(-20, 20))

# Positive parameters (alpha^2, s, t) with large denominators, for the
# integer slope, charge and defect kernels against their rational formulas.
wide_pos_rats = st.fractions(min_value=0, max_value=1000, max_denominator=10**6).filter(
    lambda q: q > 0
)

wide_tilt_points = st.builds(TiltPoint, wide_pos_rats, wide_betas)

wide_charges = st.builds(ChargeParams, wide_pos_rats, wide_betas, wide_pos_rats, wide_pos_rats)
