from fractions import Fraction

import pytest
from hypothesis import given

from tiltwall import (
    CHAR_O,
    INFINITY,
    SKYSCRAPER,
    ChargeParams,
    ChargeValue,
    CharVector,
    RuledThreefold,
    TiltPoint,
    central_charge,
    fiber_pushforward_char,
    heart_sign_constraints,
    line_bundle_char,
    mu_C,
    mu_HF,
    nu,
    nu_mixed,
    nu_sigma,
    tensor_line,
    twist,
)
from conftest import (
    add,
    lattice_chars,
    neg,
    rand_lattice_char,
    rand_point,
    rand_threefold,
    threefolds,
    tilt_points,
)


class TestMuHF:
    def test_line_bundles(self, rng):
        for _ in range(20):
            X = rand_threefold(rng)
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            assert mu_HF(line_bundle_char(a, b, X)) == a

    def test_rank_zero_infinite(self):
        assert mu_HF(SKYSCRAPER) == INFINITY

    def test_direct_sum(self):
        assert mu_HF(CharVector(2, 1, 0, 0, 0, 0)) == Fraction(1, 2)


class TestMuC:
    def test_first_case(self):
        X = RuledThreefold(1, 2)
        assert mu_C(line_bundle_char(1, 0, X)) == 1

    def test_torsion_case(self):
        assert mu_C(fiber_pushforward_char(1, CHAR_O)) == 0

    def test_skyscraper_infinite(self):
        assert mu_C(SKYSCRAPER) == INFINITY

    def test_rank_zero_with_nonzero_cHF_infinite(self):
        assert mu_C(CharVector(0, 1, 0, 0, 0, 0)) == INFINITY


class TestNu:
    def test_o_h_at_unit_point(self):
        X = RuledThreefold(0, 3)
        assert nu(line_bundle_char(1, 0, X), TiltPoint(1, 0)) == 0

    def test_structure_sheaf_symmetric_point(self):
        assert nu(CHAR_O, TiltPoint(1, -1)) == 0

    def test_infinite_on_vanishing_denominator(self):
        assert nu(CHAR_O, TiltPoint(1, 0)) == INFINITY

    @given(lattice_chars, tilt_points)
    def test_factors_through_reduction(self, ch, pt):
        other = CharVector(ch.r, ch.cHF, ch.cHH + 7, ch.dF, ch.dH - 3, ch.e + 1)
        assert nu(ch, pt) == nu(other, pt)

    @given(lattice_chars, tilt_points, threefolds)
    def test_fiber_twist_invariance(self, ch, pt, X):
        for m in (-4, 2):
            assert nu(tensor_line(ch, 0, m, X), pt) == nu(ch, pt)


class TestNuMixed:
    def test_o_h_example(self):
        X = RuledThreefold(0, 3)
        got = nu_mixed(line_bundle_char(1, 0, X), TiltPoint(1, 0), 1, X)
        assert got == Fraction(3, 2)

    def test_infinite_case(self):
        X = RuledThreefold(0, 3)
        assert nu_mixed(CHAR_O, TiltPoint(1, 0), 1, X) == INFINITY

    def test_fiber_twist_shifts_by_m(self, rng):
        for _ in range(60):
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            t = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            m = rng.randint(-5, 5)
            base = nu_mixed(ch, pt, t, X)
            shifted = nu_mixed(tensor_line(ch, 0, m, X), pt, t, X)
            if base.is_infinite:
                assert shifted.is_infinite
            else:
                assert shifted == base.value + m

    def test_rejects_nonpositive_t(self):
        X = RuledThreefold(0, 1)
        with pytest.raises(ValueError):
            nu_mixed(CHAR_O, TiltPoint(1, 0), 0, X)

    def test_rejects_float_t(self):
        X = RuledThreefold(0, 1)
        with pytest.raises(TypeError, match="float"):
            nu_mixed(CHAR_O, TiltPoint(1, 0), 0.5, X)


class TestHeart:
    def test_structure_sheaf_fails(self):
        X = RuledThreefold(0, 3)
        rep = heart_sign_constraints(CHAR_O, TiltPoint(1, 0), X)
        assert rep.branch2_checked and not rep.rank_nonpos and not rep.passes

    def test_shifted_structure_sheaf_passes(self):
        X = RuledThreefold(0, 3)
        rep = heart_sign_constraints(neg(CHAR_O), TiltPoint(1, 0), X)
        assert rep.passes

    def test_skyscraper_passes_through_branch3(self):
        X = RuledThreefold(2, -1)
        rep = heart_sign_constraints(SKYSCRAPER, TiltPoint(1, 0), X)
        assert rep.branch3_checked and rep.ch3_nonneg and rep.passes

    def test_im_nonnegative_under_sign_conditions(self, rng):
        seen = 0
        while seen < 80:
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            pt = rand_point(rng)
            tw = twist(ch, pt.beta, X)
            if not heart_sign_constraints(ch, pt, X).passes:
                continue
            if tw.dH < 0 or tw.dF < pt.alpha2 * ch.r / 2:
                continue
            seen += 1
            t = Fraction(rng.randint(1, 5))
            p = ChargeParams(pt.alpha2, pt.beta, 1, t)
            z = central_charge(ch, p, X)
            assert z.im >= 0
            if tw.dH > 0:
                assert z.im > 0


class TestCentralCharge:
    def test_skyscraper(self, rng):
        for _ in range(10):
            X = rand_threefold(rng)
            p = ChargeParams(
                Fraction(rng.randint(1, 9), 2),
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(1, 5)),
                Fraction(rng.randint(1, 5)),
            )
            assert central_charge(SKYSCRAPER, p, X) == ChargeValue(-1, 0)

    def test_shifted_structure_sheaf_has_positive_im(self):
        X = RuledThreefold(0, 3)
        p = ChargeParams(1, 0, 1, 1)
        z = central_charge(neg(CHAR_O), p, X)
        assert z.im == Fraction(1, 2)

    @given(lattice_chars, lattice_chars, threefolds)
    def test_linearity(self, a, b, X):
        p = ChargeParams(1, Fraction(1, 2), 1, 2)
        za, zb = central_charge(a, p, X), central_charge(b, p, X)
        assert central_charge(add(a, b), p, X) == ChargeValue(za.re + zb.re, za.im + zb.im)

    def test_twist_compatibility(self, rng):
        for _ in range(60):
            X = rand_threefold(rng)
            ch = rand_lattice_char(rng)
            b0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            s, t = Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))
            a2 = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            at_b0 = central_charge(ch, ChargeParams(a2, b0, s, t), X)
            at_zero = central_charge(twist(ch, b0, X), ChargeParams(a2, 0, s, t), X)
            assert at_b0 == at_zero


class TestNuSigma:
    def test_skyscraper_infinite(self):
        X = RuledThreefold(0, 3)
        assert nu_sigma(SKYSCRAPER, ChargeParams(1, 0, 1, 1), X) == INFINITY

    def test_sign_convention(self, rng):
        X = RuledThreefold(0, 3)
        p = ChargeParams(1, 0, 1, 1)
        for _ in range(200):
            ch = rand_lattice_char(rng)
            z = central_charge(ch, p, X)
            if z.im == 0:
                assert nu_sigma(ch, p, X) == INFINITY
            else:
                assert nu_sigma(ch, p, X) == -z.re / z.im


class TestSeeSaw:
    def test_mu_hf_mediant(self, rng):
        for _ in range(200):
            a, b = rand_lattice_char(rng), rand_lattice_char(rng)
            if a.r <= 0 or b.r <= 0:
                continue
            lo, hi = sorted([mu_HF(a), mu_HF(b)])
            assert lo <= mu_HF(add(a, b)) <= hi

    def test_nu_mediant_when_denominators_positive(self, rng):
        seen = 0
        while seen < 120:
            a, b = rand_lattice_char(rng), rand_lattice_char(rng)
            pt = rand_point(rng)
            ca = a.cHF - pt.beta * a.r
            cb = b.cHF - pt.beta * b.r
            if ca <= 0 or cb <= 0:
                continue
            seen += 1
            lo, hi = sorted([nu(a, pt), nu(b, pt)])
            assert lo <= nu(add(a, b), pt) <= hi

    def test_nu_mixed_mediant_when_denominators_positive(self, rng):
        seen = 0
        while seen < 80:
            X = rand_threefold(rng)
            a, b = rand_lattice_char(rng), rand_lattice_char(rng)
            pt = rand_point(rng)
            t = Fraction(rng.randint(1, 4))
            ca = a.cHF - pt.beta * a.r
            cb = b.cHF - pt.beta * b.r
            if ca <= 0 or cb <= 0:
                continue
            seen += 1
            lo, hi = sorted([nu_mixed(a, pt, t, X), nu_mixed(b, pt, t, X)])
            assert lo <= nu_mixed(add(a, b), pt, t, X) <= hi


class TestChargeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChargeParams(0, 0, 1, 1)
        with pytest.raises(ValueError):
            ChargeParams(1, 0, 0, 1)
        with pytest.raises(ValueError):
            ChargeParams(1, 0, 1, Fraction(-1, 2))

    def test_float_rejected(self):
        for i in range(4):
            entries = [1, 0, 1, 1]
            entries[i] = 0.5
            with pytest.raises(TypeError):
                ChargeParams(*entries)


class TestChargeValue:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ChargeValue(0.5, 1)
        with pytest.raises(TypeError):
            ChargeValue(1, 0.5)
