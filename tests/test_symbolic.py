"""Symbolic cross-checks of the algebraic identities the package relies on.

sympy expands both routes in free symbols, so these are proofs over the
rational function field rather than sample-based checks.
"""

import sympy as sp

R, C1, C2, DF, DH, E, A2, B, D, T, S = sp.symbols(
    "r c1 c2 dF dH e a2 b d t s", rational=True
)


def twisted(beta):
    return {
        "cHF": C1 - beta * R,
        "cHH": C2 - beta * D * R,
        "dF": DF - beta * C1 + beta**2 / 2 * R,
        "dH": DH - beta * C2 + beta**2 / 2 * D * R,
        "e": E - beta * DH + beta**2 / 2 * C2 - beta**3 / 6 * D * R,
    }


TW = twisted(B)


def test_main_equals_denominator_times_star():
    main = (TW["dF"] - A2 / 2 * R) * (TW["dH"] - sp.Rational(1, 3) * D * TW["dF"]) - (
        TW["e"] - A2 / 2 * TW["cHH"] + A2 * D / 3 * TW["cHF"]
    ) * TW["cHF"]
    slope = (TW["dF"] - A2 / 2 * R) / TW["cHF"]
    re_tw = twisted(B + slope)
    star = (A2 + slope**2) * (re_tw["cHH"] / 2 - D / 3 * re_tw["cHF"]) - re_tw["e"]
    assert sp.simplify(main - TW["cHF"] * star) == 0


def test_weak_defect_is_bc_minus_ad():
    weak = (TW["dF"] - A2 / 2 * R) * TW["dH"] - (
        TW["e"] - A2 / 2 * TW["cHH"] + A2 * D / 4 * TW["cHF"]
    ) * TW["cHF"]
    fa = -TW["dF"] + A2 / 2 * R
    fb = -TW["e"] + A2 / 2 * TW["cHH"] - A2 * D / 4 * TW["cHF"]
    fc = TW["cHF"]
    fd = TW["dH"]
    assert sp.simplify(fb * fc - fa * fd - weak) == 0


def test_nabla_two_displays_and_invariance():
    nabla = D / 3 * R * DF - 2 * D / 3 * C1**2 + C2 * C1 - R * DH
    tilde0 = C1 * C2 - R * DH
    discbar = C1**2 - 2 * R * DF
    assert sp.simplify(nabla - (tilde0 - D / 6 * discbar - D / 2 * C1**2)) == 0
    nabla_tw = (
        D / 3 * R * TW["dF"] - 2 * D / 3 * TW["cHF"] ** 2 + TW["cHH"] * TW["cHF"] - R * TW["dH"]
    )
    assert sp.simplify(nabla_tw - nabla) == 0


def test_disc_bar_twist_invariance():
    assert sp.simplify((TW["cHF"] ** 2 - 2 * R * TW["dF"]) - (C1**2 - 2 * R * DF)) == 0


def test_charge_splits_through_liu_functionals():
    re = (S - A2 * D / 4) * TW["cHF"] - TW["e"] + A2 / 2 * TW["cHH"]
    im = TW["dH"] + T * TW["dF"] - T * A2 / 2 * R
    fa = -TW["dF"] + A2 / 2 * R
    fb = -TW["e"] + A2 / 2 * TW["cHH"] - A2 * D / 4 * TW["cHF"]
    assert sp.simplify(re - (S * TW["cHF"] + fb)) == 0
    assert sp.simplify(im - (TW["dH"] - T * fa)) == 0


def test_null_line_certificate_lemma():
    # v = (0, 0, 1, 0, beta, (alpha^2 + beta^2)/2) lies in ker Z and is
    # isotropic for Q_weak and Q_disc at every charge and threefold
    v = {R: 0, C1: 0, C2: 1, DF: 0, DH: B, E: (A2 + B**2) / 2}
    tw = {k: x.subs(v, simultaneous=True) for k, x in TW.items()}
    r = 0
    re = (S - A2 * D / 4) * tw["cHF"] - tw["e"] + A2 / 2 * tw["cHH"]
    im = tw["dH"] + T * tw["dF"] - T * A2 / 2 * r
    fa = -tw["dF"] + A2 / 2 * r
    fb = -tw["e"] + A2 / 2 * tw["cHH"] - A2 * D / 4 * tw["cHF"]
    fc = tw["cHF"]
    fd = tw["dH"]
    q_weak = fb * fc - fa * fd
    q_disc = C1**2 - 2 * R * DF
    assert sp.simplify(re) == 0 and sp.simplify(im) == 0
    assert sp.simplify(q_weak) == 0
    assert sp.simplify(q_disc.subs(v, simultaneous=True)) == 0


def test_charge_functional_coefficients():
    from fractions import Fraction

    from tiltwall import ChargeParams, CharVector, RuledThreefold, central_charge

    re = (S - A2 * D / 4) * TW["cHF"] - TW["e"] + A2 / 2 * TW["cHH"]
    im = TW["dH"] + T * TW["dF"] - T * A2 / 2 * R
    coords = (R, C1, C2, DF, DH, E)
    subs = {A2: sp.Rational(3, 2), B: sp.Rational(-1, 3), S: 2, T: sp.Rational(1, 2), D: 5}
    p = ChargeParams(Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 2))
    X = RuledThreefold(1, 5)
    for k, x in enumerate(coords):
        # Z is linear, so its k-th coefficient is Z on the k-th unit character
        z = central_charge(CharVector(*[int(i == k) for i in range(6)]), p, X)
        re_coeff = sp.simplify(sp.expand(re).coeff(x, 1).subs(subs))
        im_coeff = sp.simplify(sp.expand(im).coeff(x, 1).subs(subs))
        assert sp.Rational(z.re) == re_coeff
        assert sp.Rational(z.im) == im_coeff


def test_chi_functionals_from_riemann_roch():
    # chi against O(H) and O(2H) via symbolic twist + the Riemann-Roch sum
    G = sp.symbols("g", rational=True)

    def chi(ch):
        r, c1, c2, dF, dH, e = ch
        c1_ch2 = 3 * dH - (D + 2 * G - 2) * dF
        c1sq_c2_ch1 = 12 * c2 - (18 * G - 18 + 8 * D) * c1
        return e + c1_ch2 / 2 + c1sq_c2_ch1 / 12 + r * (1 - G)

    def twist_tuple(n):
        t = twisted(n)
        return (R, t["cHF"], t["cHH"], t["dF"], t["dH"], t["e"])

    chi1 = chi(twist_tuple(sp.Integer(1)))
    chi2 = chi(twist_tuple(sp.Integer(2)))
    expected1 = E + DH / 2 - (G - 1 + D / 2) * DF - (3 * G - 3 + D) / 6 * C1
    expected2 = E - DH / 2 - (G - 1 + D / 2) * DF + (3 * G - 3 + 2 * D) / 6 * C1
    assert sp.simplify(chi1 - expected1) == 0
    assert sp.simplify(chi2 - expected2) == 0


# Reduced classes u = (r_u, c_u, d_u) and w = (r_w, c_w, d_w), and the apex
# (b0, rho^2) of their numerical wall: center psi/chi, squared radius
# b0^2 - 2 omega/chi, as in the `walls` module docstring.
RU, CU, DU, RW, CW, DW = sp.symbols("r_u c_u d_u r_w c_w d_w", rational=True)
U, W = (RU, CU, DU), (RW, CW, DW)
V = tuple(x - y for x, y in zip(U, W))  # u - w


def _apex(u, w):
    (ru, cu, du), (rw, cw, dw) = u, w
    chi = ru * cw - rw * cu
    psi = ru * dw - rw * du
    omega = cu * dw - cw * du
    b0 = psi / chi
    return b0, b0**2 - 2 * omega / chi


B0, RHO2 = _apex(U, W)


def test_apex_twisted_d_is_half_rho2_r():
    # at the apex both tilt slopes vanish: d^b0 = (rho^2/2) r for u, w and u - w;
    # times chi this is a determinant with a repeated row
    for r, c, d in (U, W, V):
        d_apex = d - B0 * c + B0**2 / 2 * r
        assert sp.simplify(d_apex - RHO2 / 2 * r) == 0


def test_apex_disc_is_cbar_squared_minus_rho2_r_squared():
    # disc = c^2 - 2 r d is twist-invariant, so at the apex
    # disc(x) = cbar_x^2 - rho^2 r_x^2 with cbar_x = c_x - b0 r_x
    for r, c, d in (U, W, V):
        cbar = c - B0 * r
        assert sp.simplify((c**2 - 2 * r * d) - (cbar**2 - RHO2 * r**2)) == 0


def test_window_at_apex_holds_along_the_wall():
    # Along the chord b = b0 + t rho, |t| <= 1, c^b(x) = cbar_x - t rho r_x is the
    # convex combination (1-t)/2 * p + (1+t)/2 * m of p, m = cbar_x +- rho r_x.
    # p + m = 2 cbar_x and p m = disc(x). For x = w, (A) gives disc(w) >= 0 and
    # the window at the apex cbar_w >= 0; for x = u - w, (B) gives
    # disc(u - w) >= 0 and the window cbar_u - cbar_w = cbar_{u-w} >= 0. Two
    # reals with p + m >= 0 and p m >= 0 are both >= 0, because
    # (p - m)^2 = (p + m)^2 - 4 p m <= (p + m)^2. So c^b(w) >= 0 and
    # c^b(u) - c^b(w) = c^b(u - w) >= 0 on the whole chord: the window (E) at
    # the apex implies it along the wall.
    t, rho, p, m = sp.symbols("t rho p m", real=True)
    for r, c, d in (W, V):
        cbar = c - B0 * r
        c_along = c - (B0 + t * rho) * r
        plus, minus = cbar + rho * r, cbar - rho * r
        assert sp.expand(c_along - ((1 - t) / 2 * plus + (1 + t) / 2 * minus)) == 0
        assert sp.expand(plus + minus - 2 * cbar) == 0
        disc = c**2 - 2 * r * d
        assert sp.simplify((plus * minus).subs(rho, sp.sqrt(RHO2)) - disc) == 0
    # twisting is linear, so the window's right side is the u - w window
    cu_b, cw_b = (x[1] - (B0 + t * rho) * x[0] for x in (U, W))
    assert sp.expand((cu_b - cw_b) - (V[1] - (B0 + t * rho) * V[0])) == 0
    assert sp.expand((p - m) ** 2 - ((p + m) ** 2 - 4 * p * m)) == 0


def test_window_upper_half_follows_from_abc():
    # The scan tests only the lower half 0 <= cbar_w of the window (E). At the
    # apex, with cbar_v = cbar_u - cbar_w for v = u - w,
    #   rho^2 chi^2 = cbar_w cbar_v (disc(u) - disc(w) - disc(v))
    #                 - cbar_w^2 disc(v) - cbar_v^2 disc(w).
    # If cbar_w >= 0 but cbar_w > cbar_u, then cbar_v < 0 and (A), (B), (C)
    # make every term on the right <= 0, so chi = 0 and there is no semicircle.
    chi = RU * CW - RW * CU
    cbar_w, cbar_v = (c - B0 * r for r, c, _ in (W, V))
    disc_u, disc_w, disc_v = (c**2 - 2 * r * d for r, c, d in (U, W, V))
    rhs = cbar_w * cbar_v * (disc_u - disc_w - disc_v) - cbar_w**2 * disc_v - cbar_v**2 * disc_w
    assert sp.simplify(RHO2 * chi**2 - rhs) == 0
    # A vertical wall (chi = 0 != P) sits at b = O / P, in doubled coordinates
    # D = 2 d, where P c_x - O r_x = D_x chi for x = u and w: the window reads
    # cbar_w = cbar_u = 0 there.
    P, O = RU * 2 * DW - RW * 2 * DU, CU * 2 * DW - CW * 2 * DU
    for r, c, d in (U, W):
        assert sp.expand(P * c - O * r - 2 * d * chi) == 0


def test_radius_bound_is_a_ratio_of_integers():
    # The steps of rho^2 <= disc(u)^2 / 4 in the `walls` module docstring,
    # for a semicircle (chi != 0) of classes passing (A)-(C).
    chi = RU * CW - RW * CU
    P, O = RU * 2 * DW - RW * 2 * DU, CU * 2 * DW - CW * 2 * DU
    disc_u, disc_w, disc_v = (c**2 - 2 * r * d for r, c, d in (U, W, V))
    e = disc_u - disc_w - disc_v
    # 1. rho^2 = N / (4 chi^2) with N = P^2 - 4 O chi; chi, P, O (and each disc)
    #    are ints for lattice classes, since 2 d is
    N = P**2 - 4 * O * chi
    assert sp.simplify(RHO2 - N / (4 * chi**2)) == 0
    # 2. N in discriminants: N = e^2 - 4 disc(w) disc(u - w)
    assert sp.expand(N - (e**2 - 4 * disc_w * disc_v)) == 0
    # 3. disc(u)^2 - N = (disc(u) - e)(disc(u) + e) + 4 disc(w) disc(u - w), where
    #    disc(u) - e = disc(w) + disc(u - w) >= 0 by (A) and (B), and e >= 0 by (C),
    #    so every factor is >= 0 and N <= disc(u)^2
    assert sp.expand(disc_u - e - (disc_w + disc_v)) == 0
    assert sp.expand(disc_u**2 - N - ((disc_u - e) * (disc_u + e) + 4 * disc_w * disc_v)) == 0
    # 4. disc(u)^2/4 - rho^2 = (disc(u)^2 (chi^2 - 1) + disc(u)^2 - N) / (4 chi^2),
    #    and chi^2 >= 1 for a nonzero int, so rho^2 <= disc(u)^2 / 4
    gap = (disc_u**2 * (chi**2 - 1) + disc_u**2 - N) / (4 * chi**2)
    assert sp.simplify(disc_u**2 / 4 - RHO2 - gap) == 0
