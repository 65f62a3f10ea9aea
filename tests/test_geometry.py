from fractions import Fraction

import pytest
from hypothesis import example, given

from tiltwall import (
    CHAR_O,
    SKYSCRAPER,
    CharVector,
    RuledThreefold,
    canonical_and_c2,
    dual_char,
    euler_char,
    euler_char_pair,
    fiber_pushforward_char,
    format_list,
    line_bundle_char,
    parse_char,
    tensor_product_char,
)
from tiltwall.chern import parse_reduced
from tiltwall.exactnum import lattice_error

from conftest import add, lattice_chars, rand_lattice_char, threefolds, wide_chars, wide_threefolds

GD_GRID = [(g, d) for g in range(6) for d in range(-3, 6)]


class MiniRing:
    """Independent intersection-ring oracle: classes as coefficient dicts on
    the monomial basis 1, H, F, H^2, HF, pt with the relations baked into a
    multiplication table."""

    BASIS = ("1", "H", "F", "HH", "HF", "pt")

    def __init__(self, d: int):
        self.d = d
        self.table = {
            ("1", b): {b: 1} for b in self.BASIS
        }
        self.table.update(
            {
                ("H", "H"): {"HH": 1},
                ("H", "F"): {"HF": 1},
                ("F", "F"): {},
                ("H", "HH"): {"pt": d},
                ("H", "HF"): {"pt": 1},
                ("F", "HH"): {"pt": 1},
                ("F", "HF"): {},
                ("H", "pt"): {},
                ("F", "pt"): {},
                ("HH", "HH"): {},
                ("HH", "HF"): {},
                ("HF", "HF"): {},
                ("HH", "pt"): {},
                ("HF", "pt"): {},
                ("pt", "pt"): {},
            }
        )

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for bx, cx in x.items():
            for by, cy in y.items():
                key = (bx, by) if (bx, by) in self.table else (by, bx)
                for bz, cz in self.table[key].items():
                    out[bz] = out.get(bz, Fraction(0)) + cx * cy * cz
        return out

    def from_char(self, ch: CharVector) -> dict:
        p = ch.cHF
        q = ch.cHH - p * self.d
        x = ch.dF
        y = ch.dH - x * self.d
        return {"1": ch.r, "H": p, "F": q, "HH": x, "HF": y, "pt": ch.e}

    def to_char(self, z: dict) -> CharVector:
        r, p, q, x, y, e = (z.get(b, Fraction(0)) for b in self.BASIS)
        return CharVector(r, p, p * self.d + q, x, x * self.d + y, e)

def mini_chi(g: int, d: int, ch: CharVector) -> Fraction:
    """chi via the oracle ring: integrate ch(E).td(X) in degree 3."""
    ring = MiniRing(d)
    c1 = {"H": Fraction(3), "F": Fraction(-(2 * g - 2 + d))}
    c2 = {"HH": Fraction(3), "HF": Fraction(-(6 * g - 6 + 2 * d))}
    c1c1 = ring.mul(c1, c1)
    todd = {"1": Fraction(1)}
    for b, c in c1.items():
        todd[b] = todd.get(b, Fraction(0)) + c / 2
    for b, c in c1c1.items():
        todd[b] = todd.get(b, Fraction(0)) + c / 12
    for b, c in c2.items():
        todd[b] = todd.get(b, Fraction(0)) + c / 12
    c1c2 = ring.mul(c1, c2)
    for b, c in c1c2.items():
        todd[b] = todd.get(b, Fraction(0)) + c / 24
    product = ring.mul(ring.from_char(ch), todd)
    return product.get("pt", Fraction(0))


class TestThreefold:
    def test_validation(self):
        with pytest.raises(ValueError):
            RuledThreefold(-1, 0)
        with pytest.raises(ValueError):
            RuledThreefold(0, Fraction(1, 2))  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="genus must be an integer"):
            RuledThreefold(genus=True, degree=0)
        with pytest.raises(ValueError, match="degree must be an integer"):
            RuledThreefold(0, degree=1.0)  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "g,d,k,c2h,c2f", [(0, 3, (-3, 1), 9, 3), (1, 0, (-3, 0), 0, 3)]
    )
    def test_canonical_examples(self, g, d, k, c2h, c2f):
        assert canonical_and_c2(RuledThreefold(g, d)) == (k, c2h, c2f)

    @pytest.mark.parametrize("g,d", GD_GRID)
    def test_c1c2_is_24_chi(self, g, d):
        k, c2h, c2f = canonical_and_c2(RuledThreefold(g, d))
        assert -k[0] * c2h - k[1] * c2f == 24 * (1 - g)


class TestLineBundle:
    def test_trivial(self):
        X = RuledThreefold(2, 1)
        assert line_bundle_char(0, 0, X) == CHAR_O

    def test_o_h_degree_three(self):
        X = RuledThreefold(0, 3)
        assert line_bundle_char(1, 0, X) == CharVector(
            1, 1, 3, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2)
        )

    def test_o_f(self):
        X = RuledThreefold(4, -2)
        assert line_bundle_char(0, 1, X) == CharVector(1, 0, 1, 0, 0, 0)

    def test_group_law(self, rng):
        for _ in range(50):
            X = RuledThreefold(rng.randint(0, 4), rng.randint(-3, 5))
            a1, b1, a2, b2 = (rng.randint(-4, 4) for _ in range(4))
            lhs = tensor_product_char(
                line_bundle_char(a1, b1, X), line_bundle_char(a2, b2, X), X
            )
            assert lhs == line_bundle_char(a1 + a2, b1 + b2, X)


def _hf_basis(ch, d):
    """Coefficients (p, q, x, y) with ch1 = pH + qF and ch2 = xH^2 + yHF."""
    p = ch.cHF
    q = ch.cHH - p * d
    x = ch.dF
    y = ch.dH - x * d
    return p, q, x, y


def reference_tensor_product_char(A, B, X):
    """The rational product formulas, the reference for the integer kernel."""
    d = X.degree
    pa, qa, xa, ya = _hf_basis(A, d)
    pb, qb, xb, yb = _hf_basis(B, d)
    r = A.r * B.r
    p = A.r * pb + B.r * pa
    q = A.r * qb + B.r * qa
    x = A.r * xb + B.r * xa + pa * pb
    y = A.r * yb + B.r * ya + pa * qb + qa * pb
    e = (
        A.r * B.e
        + B.r * A.e
        + pa * xb * d + pa * yb + qa * xb
        + pb * xa * d + pb * ya + qb * xa
    )
    return CharVector(r, p, p * d + q, x, x * d + y, e)


class TestTensorDual:
    @given(wide_chars, wide_chars, wide_threefolds)
    @example(CHAR_O, SKYSCRAPER, RuledThreefold(0, 0))
    @example(
        CharVector(Fraction(3, 999983), -2, Fraction(5, 7), Fraction(-1, 2), Fraction(1, 10**6), 4),
        CharVector(-1, Fraction(7, 6), 0, Fraction(2, 999979), 3, Fraction(-5, 6)),
        RuledThreefold(1, -9),
    )
    def test_matches_rational_formulas(self, a, b, X):
        ab = tensor_product_char(a, b, X)
        assert ab == reference_tensor_product_char(a, b, X)
        assert all(type(x) is Fraction for x in ab.as_tuple())

    def test_against_ring_oracle(self, rng):
        for _ in range(40):
            X = RuledThreefold(rng.randint(0, 4), rng.randint(-3, 5))
            a, b = rand_lattice_char(rng), rand_lattice_char(rng)
            ring = MiniRing(X.degree)
            assert ring.to_char(ring.mul(ring.from_char(a), ring.from_char(b))) == tensor_product_char(a, b, X)

    @given(lattice_chars, threefolds)
    def test_unit(self, ch, X):
        assert tensor_product_char(ch, CHAR_O, X) == ch

    @given(lattice_chars, lattice_chars, threefolds)
    def test_commutative(self, a, b, X):
        assert tensor_product_char(a, b, X) == tensor_product_char(b, a, X)

    def test_skyscraper_absorbs(self):
        X = RuledThreefold(1, 2)
        assert tensor_product_char(line_bundle_char(1, 0, X), SKYSCRAPER, X) == SKYSCRAPER

    @given(lattice_chars)
    def test_dual_involution(self, ch):
        assert dual_char(dual_char(ch)) == ch

    def test_dual_line_bundle(self, rng):
        for _ in range(30):
            X = RuledThreefold(rng.randint(0, 4), rng.randint(-3, 5))
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert dual_char(line_bundle_char(a, b, X)) == line_bundle_char(-a, -b, X)

    def test_dual_skyscraper(self):
        assert dual_char(SKYSCRAPER) == CharVector(0, 0, 0, 0, 0, -1)


class TestPushforward:
    def test_structure_sheaf(self):
        assert fiber_pushforward_char(1, CHAR_O) == CharVector(0, 0, 1, 0, 0, 0)

    def test_linear_in_k(self, rng):
        ch = rand_lattice_char(rng)
        one = fiber_pushforward_char(1, ch)
        assert fiber_pushforward_char(2, ch) == add(one, one)

    def test_o_h(self):
        X = RuledThreefold(0, 3)
        assert fiber_pushforward_char(1, line_bundle_char(1, 0, X)) == CharVector(
            0, 0, 1, 0, 1, Fraction(1, 2)
        )

    @given(lattice_chars)
    def test_twice_is_zero(self, ch):
        twice = fiber_pushforward_char(1, fiber_pushforward_char(1, ch))
        assert twice == CharVector(0, 0, 0, 0, 0, 0)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            fiber_pushforward_char(0, CHAR_O)


class TestEulerChar:
    @pytest.mark.parametrize("g,d", GD_GRID)
    def test_structure_sheaf(self, g, d):
        assert euler_char(RuledThreefold(g, d), CHAR_O) == 1 - g

    def test_skyscraper(self):
        assert euler_char(RuledThreefold(3, -2), SKYSCRAPER) == 1

    def test_o_h_on_p2_bundle(self):
        X = RuledThreefold(0, 3)
        assert euler_char(X, line_bundle_char(1, 0, X)) == 6

    @pytest.mark.parametrize("g,d", [(0, 3), (2, -1), (5, 4)])
    def test_chi_oh_closed_form(self, g, d):
        X = RuledThreefold(g, d)
        assert euler_char(X, line_bundle_char(1, 0, X)) == d + 3 * (1 - g)

    def test_against_ring_oracle(self, rng):
        for _ in range(60):
            g, d = rng.randint(0, 5), rng.randint(-3, 5)
            ch = rand_lattice_char(rng)
            assert euler_char(RuledThreefold(g, d), ch) == mini_chi(g, d, ch)

    @given(lattice_chars, lattice_chars, threefolds)
    def test_linearity(self, a, b, X):
        assert euler_char(X, add(a, b)) == euler_char(X, a) + euler_char(X, b)

    def test_denominator_divides_12(self, rng):
        for _ in range(100):
            X = RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))
            v = euler_char(X, rand_lattice_char(rng))
            assert (12 * v).denominator == 1

    def test_integer_on_object_classes(self, rng):
        # combinations of line bundles, fiber pushforwards and skyscrapers
        for _ in range(80):
            X = RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))
            ch = CharVector(0, 0, 0, 0, 0, rng.randint(-3, 3))
            for _ in range(4):
                lb = line_bundle_char(rng.randint(-4, 4), rng.randint(-4, 4), X)
                piece = lb if rng.random() < 0.6 else fiber_pushforward_char(rng.randint(1, 3), lb)
                k = rng.randint(-2, 2)
                ch = add(ch, CharVector(*(k * x for x in piece.as_tuple())))
            assert euler_char(X, ch).denominator == 1


class TestEulerPair:
    def test_self_pair_is_chi_o(self, rng):
        for _ in range(20):
            X = RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))
            a = line_bundle_char(rng.randint(-3, 3), rng.randint(-3, 3), X)
            assert euler_char_pair(X, a, a) == 1 - X.genus

    def test_oh_against_o(self):
        X = RuledThreefold(1, 2)
        assert euler_char_pair(X, line_bundle_char(1, 0, X), CHAR_O) == 0

    def test_line_bundle_twist_consistency(self, rng):
        for _ in range(30):
            X = RuledThreefold(rng.randint(0, 5), rng.randint(-3, 5))
            a = rng.randint(-3, 3)
            lhs = euler_char(X, line_bundle_char(a, 0, X))
            assert lhs == euler_char_pair(X, line_bundle_char(-a, 0, X), CHAR_O)


class TestCoercion:
    def test_entries_become_fractions(self):
        ch = CharVector(1, Fraction(1, 2), 0, 0, 0, 0)
        assert all(type(x) is Fraction for x in ch.as_tuple())

    def test_float_entry_rejected(self):
        for i in range(6):
            entries = [1, 0, 0, 0, 0, 0]
            entries[i] = 0.1
            with pytest.raises(TypeError):
                CharVector(*entries)


class TestScaledMemo:
    """`CharVector._scaled` is computed once per value, on first read, and is
    not part of the value."""

    @staticmethod
    def odd() -> CharVector:
        return CharVector(Fraction(1, 2), 3, Fraction(-5, 7), 0, 1, Fraction(1, 6))

    def test_read_once_on_demand(self):
        ch = self.odd()
        assert "_scaled" not in vars(ch)
        assert ch._scaled is ch._scaled
        assert ch._scaled == (42, (21, 126, -30, 0, 42, 7))
        assert "_scaled" in vars(ch)

    def test_not_part_of_the_value(self):
        a, b = self.odd(), self.odd()
        a._scaled
        assert "_scaled" in vars(a) and "_scaled" not in vars(b)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a.as_tuple() == (Fraction(1, 2), 3, Fraction(-5, 7), 0, 1, Fraction(1, 6))

    def test_still_frozen(self):
        ch = self.odd()
        ch._scaled
        with pytest.raises(AttributeError):
            ch.r = 1
        assert ch.r == Fraction(1, 2)


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(50):
            ch = rand_lattice_char(rng)
            assert parse_char(format_list(ch.as_tuple())) == ch

    def test_parse_validates_width(self):
        with pytest.raises(ValueError, match="6"):
            parse_char("1,2,3")

    def test_lattice_validation_messages(self):
        # one table per type gives the first offending entry
        for text, message in (
            ("1,0,0,1/3,0,0", "entry dF = 1/3 must be a half-integer"),
            ("1,0,0,0,0,1/4", "entry e = 1/4 must be a sixth-integer"),
            ("1/2,0,0,0,0,1/4", "entry r = 1/2 must be an integer"),
            ("0,0,1/2,1/2,3/2,1/6", "entry cHH = 1/2 must be an integer"),
        ):
            ch = parse_char(text)
            assert lattice_error(ch) == message
        assert lattice_error(parse_char("1,2,3,1/2,-3/2,5/6")) is None
        for text, message in (
            ("1,1/3,0", "entry c = 1/3 must be an integer"),
            ("1,0,1/3", "entry d = 1/3 must be a half-integer"),
        ):
            u = parse_reduced(text)
            assert lattice_error(u) == message
        assert lattice_error(parse_reduced("-1,2,-3/2")) is None
