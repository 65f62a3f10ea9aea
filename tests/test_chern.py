from fractions import Fraction

import pytest
from hypothesis import example, given

from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    CharVector,
    QuadRat,
    ReducedClass,
    RuledThreefold,
    TiltPoint,
    beta_bar,
    f_ch2_twisted,
    line_bundle_char,
    reduced,
    tensor_line,
    tensor_product_char,
    twist,
)
from conftest import (
    lattice_chars,
    lift,
    rand_lattice_char,
    rats,
    threefolds,
    wide_betas,
    wide_chars,
    wide_threefolds,
)
from reference_formulas import reference_twist


class TestTwist:
    @given(lattice_chars, threefolds)
    def test_zero_twist(self, ch, X):
        assert twist(ch, 0, X) == ch

    @given(rats, threefolds)
    def test_structure_sheaf_formula(self, b, X):
        d = X.degree
        assert twist(CHAR_O, b, X) == CharVector(
            1, -b, -b * d, b * b / 2, b * b * d / 2, -(b**3) * d / 6
        )

    @given(lattice_chars, rats, rats, threefolds)
    def test_group_law(self, ch, b1, b2, X):
        assert twist(twist(ch, b1, X), b2, X) == twist(ch, b1 + b2, X)

    @given(wide_chars, wide_betas, wide_threefolds)
    @example(CharVector(1, 0, 0, 0, 0, 0), Fraction(1, 3), RuledThreefold(0, 0))
    @example(
        CharVector(Fraction(-7, 999983), Fraction(5, 3), 2, Fraction(1, 10**6), -1, Fraction(11, 7)),
        Fraction(-999999999989, 10**12),
        RuledThreefold(2, -5),
    )
    def test_matches_rational_formulas(self, ch, b, X):
        tw = twist(ch, b, X)
        assert tw == reference_twist(ch, b, X)
        assert all(type(x) is Fraction for x in tw.as_tuple())

    def test_float_beta_rejected(self):
        with pytest.raises(TypeError):
            twist(CHAR_O, 0.5, RuledThreefold(0, 1))

    def test_integer_twist_is_line_bundle_tensor(self, rng):
        for _ in range(40):
            X = RuledThreefold(rng.randint(0, 4), rng.randint(-3, 5))
            ch = rand_lattice_char(rng)
            n = rng.randint(-4, 4)
            assert twist(ch, n, X) == tensor_line(ch, -n, 0, X)


class TestTensorLine:
    @given(lattice_chars, threefolds)
    def test_identity(self, ch, X):
        assert tensor_line(ch, 0, 0, X) == ch

    def test_unit_gives_line_bundle(self, rng):
        for _ in range(30):
            X = RuledThreefold(rng.randint(0, 4), rng.randint(-3, 5))
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert tensor_line(CHAR_O, a, b, X) == line_bundle_char(a, b, X)

    @given(lattice_chars, threefolds)
    def test_fiber_twist_closed_form(self, ch, X):
        for m in (-3, 1, 5):
            got = tensor_line(ch, 0, m, X)
            assert got == CharVector(
                ch.r,
                ch.cHF,
                ch.cHH + m * ch.r,
                ch.dF,
                ch.dH + m * ch.cHF,
                ch.e + m * ch.dF,
            )

    @given(lattice_chars, threefolds)
    def test_fiber_twist_preserves_reduction(self, ch, X):
        for m in (-2, 3):
            assert reduced(tensor_line(ch, 0, m, X)) == reduced(ch)


class TestFloatRejected:
    def test_reduced_class(self):
        assert ReducedClass(1, Fraction(1, 2), 0).c == Fraction(1, 2)
        for i in range(3):
            entries = [1, 0, 0]
            entries[i] = 0.5
            with pytest.raises(TypeError):
                ReducedClass(*entries)

    def test_tilt_point(self):
        with pytest.raises(TypeError):
            TiltPoint(0.5, 0)
        with pytest.raises(TypeError):
            TiltPoint(1, 0.1)


class TestReduced:
    def test_examples(self):
        X = RuledThreefold(2, 5)
        assert reduced(CHAR_O) == ReducedClass(1, 0, 0)
        assert reduced(line_bundle_char(1, 0, X)) == ReducedClass(1, 1, Fraction(1, 2))
        assert reduced(SKYSCRAPER) == ReducedClass(0, 0, 0)

    @given(lattice_chars, rats, threefolds)
    def test_commutes_with_twist(self, ch, b, X):
        lifted = lift(reduced(ch))
        assert reduced(twist(ch, b, X)) == reduced(twist(lifted, b, X))


class TestBetaBar:
    def test_structure_sheaf(self):
        assert beta_bar(CHAR_O) == QuadRat(0)

    def test_line_bundle_rational_case(self):
        X = RuledThreefold(0, 3)
        oh = line_bundle_char(1, 0, X)
        bb = beta_bar(oh)
        assert bb == QuadRat(1)
        assert twist(oh, bb.a, X).dF == 0

    def test_rank_zero_branch(self):
        ch = CharVector(0, 2, 0, 1, 0, 0)
        assert beta_bar(ch) == QuadRat(Fraction(1, 2))

    def test_irrational_case_annihilates(self):
        ch = CharVector(1, 0, 0, -1, 0, 0)  # disc = 2
        bb = beta_bar(ch)
        assert bb.b != 0 and bb.radicand == 2
        assert f_ch2_twisted(ch, bb) == QuadRat(0)

    def test_unreduced_radicand_equals_reduced(self):
        # both are -sqrt(2); the first keeps the parts -1/2 and 8
        doubled = beta_bar(CharVector(2, 0, 0, -2, 0, 0))
        single = beta_bar(CharVector(1, 0, 0, -1, 0, 0))
        assert (doubled.b, doubled.radicand) == (Fraction(-1, 2), 8)
        assert doubled == single and hash(doubled) == hash(single)
        assert doubled != QuadRat(single.a, -single.b, single.radicand)  # the other root

    def test_both_roots_annihilate(self, rng):
        count = 0
        while count < 60:
            ch = rand_lattice_char(rng)
            if ch.r == 0:
                continue
            disc = ch.cHF**2 - 2 * ch.r * ch.dF
            if disc < 0:
                continue
            count += 1
            lo = beta_bar(ch)
            hi = QuadRat(2 * ch.cHF / ch.r - lo.a, -lo.b, lo.radicand)  # roots sum to 2 cHF / r
            assert f_ch2_twisted(ch, lo) == QuadRat(0)
            assert f_ch2_twisted(ch, hi) == QuadRat(0)
            if ch.r > 0:  # the default branch is the smaller root
                if lo.b == 0:
                    assert lo.a <= hi.a
                else:
                    assert (lo.a, lo.radicand) == (hi.a, hi.radicand) and lo.b < 0 < hi.b

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="negative discriminant"):
            beta_bar(CharVector(1, 0, 1, 1, 0, 0))
        with pytest.raises(ValueError, match="undefined"):
            beta_bar(SKYSCRAPER)


class TestTensorLineAgainstProduct:
    @given(lattice_chars, threefolds)
    def test_matches_full_product(self, ch, X):
        for a, b in ((1, 0), (0, 2), (-1, 3)):
            assert tensor_line(ch, a, b, X) == tensor_product_char(
                ch, line_bundle_char(a, b, X), X
            )
