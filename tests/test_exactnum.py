import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tiltwall.exactnum import (
    INFINITY,
    ExtRat,
    QuadRat,
    as_rat,
    ceil_sqrt,
    format_rat,
    parse_rat,
    rat_sqrt,
)

rats = st.fractions(min_value=-40, max_value=40, max_denominator=12)


class TestRat:
    @pytest.mark.parametrize("text,value", [("3", 3), ("-7/2", Fraction(-7, 2)), ("+4/6", Fraction(2, 3))])
    def test_parse(self, text, value):
        assert parse_rat(text) == value

    @pytest.mark.parametrize("bad", ["1.5", "a/b", "1/0", "3/-2", "", "1/ 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @given(rats)
    def test_round_trip(self, q):
        assert parse_rat(format_rat(q)) == q

    def test_format_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            format_rat(0.1)

    @given(rats, rats)
    def test_exact_add_sub(self, x, y):
        assert (x + y) - y == x

    @given(rats, rats.filter(lambda q: q != 0))
    def test_exact_mul_div(self, x, y):
        assert (x * y) / y == x


class TestSqrtHelpers:
    def test_rat_sqrt(self):
        assert rat_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rat_sqrt(2) is None
        assert rat_sqrt(0) == 0
        with pytest.raises(ValueError):
            rat_sqrt(-1)

    @given(rats.map(abs))
    def test_ceil_sqrt(self, q):
        n = ceil_sqrt(q)
        assert n * n >= q
        assert n == 0 or Fraction((n - 1) ** 2) < q

    def test_rat_sqrt_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            rat_sqrt(0.25)

    def test_ceil_sqrt_rejects_float(self):
        with pytest.raises(TypeError, match="float"):
            ceil_sqrt(2.5)


class TestQuadRat:
    def test_float_rejected(self):
        for args in [(0.1,), (0, 0.5, 2), (0, 1, 2.0)]:
            with pytest.raises(TypeError, match="float"):
                QuadRat(*args)

    def test_perfect_square_normalizes(self):
        x = QuadRat(1, 1, Fraction(9, 4))
        assert (x.a, x.b, x.radicand) == (Fraction(5, 2), 0, 0)

    def test_zero_b_normalizes_radicand(self):
        assert QuadRat(3, 0, 7) == QuadRat(3)

    def test_equality(self):
        assert QuadRat(Fraction(3, 2)) == Fraction(3, 2) and Fraction(3, 2) == QuadRat(Fraction(3, 2))
        assert QuadRat(-2) == -2
        assert QuadRat(0, 1, 2) != 0
        assert QuadRat(1, 1, 2) != QuadRat(1, -1, 2)
        assert QuadRat(0, 1, 2) != QuadRat(0, 1, 3)
        assert QuadRat(1, 1, 2) != 1.0
        assert hash(QuadRat(1, 1, Fraction(9, 4))) == hash(QuadRat(Fraction(5, 2)))

    def test_equality_compares_values_not_parts(self):
        # (1/2)*sqrt(8) and sqrt(2) are one number with different parts
        half_root8, root2 = QuadRat(0, Fraction(1, 2), 8), QuadRat(0, 1, 2)
        assert half_root8 == root2 and hash(half_root8) == hash(root2)
        assert (str(half_root8), str(root2)) == ("0 + 1/2*sqrt(8)", "0 + 1*sqrt(2)")
        assert QuadRat(1, -2, Fraction(1, 3)) == QuadRat(1, -1, Fraction(4, 3))
        assert QuadRat(0, 1, 2) != QuadRat(0, -1, 2)
        assert QuadRat(1, 1, 2) != QuadRat(0, 1, 2)
        assert len({half_root8, root2, QuadRat(0, -1, 2)}) == 2
        assert len({QuadRat(3), 3, Fraction(3)}) == 1

    def test_no_arithmetic_or_ordering(self):
        x = QuadRat(1, 1, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt, operator.ge):
            with pytest.raises(TypeError):
                op(x, 1)

    def test_format_pinned(self):
        for x, text in (
            (QuadRat(3), "3"),
            (QuadRat(Fraction(-3, 2)), "-3/2"),
            (QuadRat(Fraction(1, 2), Fraction(-1, 3), 5), "1/2 - 1/3*sqrt(5)"),
            (QuadRat(0, 2, Fraction(7, 2)), "0 + 2*sqrt(7/2)"),
        ):
            assert str(x) == text


class TestAsRat:
    def test_fraction_passes_through(self):
        x = Fraction(3, 7)
        assert as_rat(x) is x

    def test_int_becomes_fraction(self):
        assert type(as_rat(5)) is Fraction and as_rat(5) == 5

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            as_rat(0.1)


class TestExtRat:
    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ExtRat(0.1)

    def test_total_order(self):
        assert INFINITY > ExtRat(10**9)
        assert not INFINITY < INFINITY
        assert INFINITY == INFINITY
        assert ExtRat(Fraction(1, 2)) < ExtRat(1)
        assert ExtRat(3) == 3

    def test_str(self):
        assert str(INFINITY) == "inf"
        assert str(ExtRat(Fraction(-3, 2))) == "-3/2"

    def test_comparison_table(self):
        # every operator, both operand orders, against the key (is_inf, value)
        def key(x):
            if isinstance(x, ExtRat):
                return (True, 0) if x.is_infinite else (False, x.value)
            return (False, Fraction(x))

        ops = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]
        ext = [ExtRat(-2), ExtRat(Fraction(1, 2)), ExtRat(1), INFINITY, ExtRat(None)]
        plain = [-2, 0, 1, Fraction(1, 2), Fraction(-7, 3)]
        pairs = [(a, b) for a in ext for b in ext + plain]
        pairs += [(b, a) for a, b in pairs]
        for a, b in pairs:
            for op in ops:
                assert op(a, b) is op(key(a), key(b)), (a, b)
        for a, b in ((ExtRat(1), 0.5), (0.5, ExtRat(1)), (INFINITY, 0.5)):
            for op in ops[2:]:
                with pytest.raises(TypeError):
                    op(a, b)
