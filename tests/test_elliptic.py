"""Special lattice parameters and the Lame/Riccati coefficient functions."""

import math

import numpy as np
import pytest

from isoforge import elliptic, reparam, theta
from isoforge.errors import (InvalidLattice, IsoforgeError, NoBracket,
                             NoCriticalOmega, PoleProximity, SpecInvalid)

from conftest import lame_c1

LAMBDA0_REF = 0.354729892522


def test_lambda0_value(lam0):
    assert abs(lam0 - LAMBDA0_REF) < 1e-9


def test_lambda0_defining_equation(lam0):
    assert abs(elliptic.theta2_logdd0(lam0)) < 1e-12


def test_lambda0_bracket_signs():
    assert elliptic.theta2_logdd0(0.2) * elliptic.theta2_logdd0(0.5) < 0


@pytest.mark.parametrize("lam", [0.05, 0.08, 0.15, 0.25, 0.32])
def test_critical_omega_exists(lam):
    crit = elliptic.solve_critical_omega(theta.rhombic(lam))
    assert 0 < crit.omega < np.pi / 4
    assert crit.residual < 1e-12


@pytest.mark.parametrize("lam", [0.36, 0.45])
def test_critical_omega_absent(lam):
    with pytest.raises(NoCriticalOmega):
        elliptic.solve_critical_omega(theta.rhombic(lam))


@pytest.mark.parametrize("lam", [0.005, 0.015, 0.3547298])
def test_critical_omega_out_of_reach_below_lambda0(lam, lam0):
    """Below lambda0 the zero can lie out of the solver's reach: theta2'/
    theta2 loses its realness to round-off (0.005), the zero lies within
    round-off of pi/4 (0.015) or below 1e-3 (0.3547298).  The typed error
    does not name lambda >= lambda0 as its cause."""
    assert lam < lam0
    with pytest.raises(NoCriticalOmega, match="no critical omega") as exc:
        elliptic.solve_critical_omega(theta.rhombic(lam))
    assert ">= lambda0" not in str(exc.value)


def test_solve_critical_omega_evaluates_no_theta_array(grid_arrays):
    """The critical omega is one Brent solve in scalar theta values: no
    scan of theta2'/theta2 on an array."""
    elliptic.solve_critical_omega(theta.rhombic(0.32))
    assert grid_arrays["elliptic"] == []


@pytest.mark.parametrize("lam", [0.005, 0.01])
def test_r_lost_in_round_off_raises_invalid_lattice(lam):
    """Below rhombic lambda about 0.0135 the theta values are lost in
    round-off and R(omega) is no longer real: it raises InvalidLattice
    naming lambda, where it raised an untyped ArithmeticError; so does
    C1."""
    fam = elliptic.Family(theta.rhombic(lam), 0.3, "explicit")
    with pytest.raises(InvalidLattice, match=f"on rhombic lambda = {lam} "):
        fam.R
    with pytest.raises(InvalidLattice, match=f"on rhombic lambda = {lam} "):
        fam.C1


@pytest.mark.parametrize("lam", [0.0135, 0.014])
def test_small_rhombic_lambda_keeps_a_real_r(lam):
    """Just above that band a family is built and R(omega) is real: no
    lambda is refused for its size alone."""
    assert np.isfinite(elliptic.Family(theta.rhombic(lam), 0.3, "explicit").R)


@pytest.mark.parametrize("lam, omega", [(0.02, 0.0458),
                                        (0.015, 0.03529879386055947)])
def test_c1_near_its_zero_is_real(lam, omega):
    """Near omega = 2.3 lambda C1 is a small sum of terms of size 800 to
    1,500, whose theta values are accurate: it is real to their round-off
    (it raised an untyped ArithmeticError, measured against |C1|), and it
    satisfies the Lame equation to 1e-7 of their size."""
    fam = elliptic.Family(theta.rhombic(lam), omega, "explicit")
    e1, e2, e3 = fam.e
    size = abs(fam.t1p0 ** 2 / fam.td ** 2) * (abs(e1) + abs(e2) + abs(e3))
    h, u = 1e-5, omega + 0.31
    U, _, U1, _ = elliptic._uu1_complex(u, fam)
    upp = (elliptic._uu1_complex(u + h, fam)[1]
           - elliptic._uu1_complex(u - h, fam)[1]) / (2 * h)
    assert isinstance(fam.C1, float)
    assert abs(fam.C1 - (upp / U + 8 * U * U1)) < 1e-7 * size


def test_critical_omega_shrinks_toward_lambda0():
    oms = [elliptic.solve_critical_omega(theta.rhombic(lam)).omega
           for lam in (0.33, 0.345, 0.354)]
    assert oms[0] > oms[1] > oms[2] > 0


def test_critical_omega_rejects_rectangular():
    with pytest.raises(InvalidLattice):
        elliptic.solve_critical_omega(theta.rectangular(0.3))


def test_coeffs_at_omega(crit032):
    """Q3's coefficients are the closed forms 2U1'(w), -U2(w), -2U'(w) and
    -U(w)^2 with U(w) = -1/R; the generic evaluator agrees at u = omega."""
    cub, R = crit032.q3, crit032.R
    assert abs(cub.c0 + 1.0 / R ** 2) < 1e-12 * max(1.0, 1.0 / R ** 2)
    assert cub.c2 == -crit032.C1
    s = elliptic.coeffs(crit032.omega, crit032)
    assert abs(s.U + 1.0 / R) < 1e-11
    assert s.U1 == 0.0  # theta1(0) sums to 0 exactly: no s^4 term
    assert abs(s.U2 + cub.c2) < 1e-11 * max(1.0, abs(cub.c2))
    assert abs(s.Uprime + cub.c1 / 2) < 1e-9
    assert abs(s.U1prime - cub.c3 / 2) < 1e-9


def test_realness_on_grid(crit032):
    # _real inside coeffs raises if imaginary parts leak; a pass is the check
    for u in np.linspace(0.05, 1.4, 25):
        elliptic.coeffs(float(u), crit032)


def test_wronskian_constant(crit032):
    us = np.linspace(0.1, 1.3, 100)
    w = []
    for u in us:
        s = elliptic.coeffs(float(u), crit032)
        w.append(s.Uprime * s.U1 - s.U * s.U1prime)
    w = np.array(w)
    assert np.std(w) < 1e-9 * max(1.0, np.mean(np.abs(w)))


def test_u2_plus_6uu1_constant(crit032):
    us = np.linspace(0.1, 1.3, 100)
    c = []
    for u in us:
        s = elliptic.coeffs(float(u), crit032)
        c.append(s.U2 + 6 * s.U * s.U1)
    assert np.std(c) < 1e-10 * max(1.0, abs(np.mean(c)))


def test_lame_equation_by_finite_differences(crit032):
    """U''/U = C1 - 8 U U1 with U'' by central differences of U'."""
    c1 = elliptic.c1_at_critical(crit032)
    h = 1e-5
    for u in (0.45, 0.8, 1.2):
        s = elliptic.coeffs(u, crit032)
        up = elliptic.coeffs(u + h, crit032).Uprime
        um = elliptic.coeffs(u - h, crit032).Uprime
        upp = (up - um) / (2 * h)
        assert abs(upp / s.U + 8 * s.U * s.U1 - c1) < 1e-7


def test_family_refuses_unknown_mode_and_omega(lat032):
    """A Family's mode is one of three, an explicit omega lies in (0, pi/2)
    and the limit family has omega = 0 on the rhombic lattice at lambda0;
    anything else is SpecInvalid."""
    lam0 = elliptic.solve_lambda0()
    for lat, omega, mode in ((lat032, 0.3, "auto"), (lat032, 0.0, "explicit"),
                             (lat032, np.pi / 2, "explicit"),
                             (lat032, np.inf, "explicit"),
                             (lat032, np.nan, "explicit"),
                             (theta.rhombic(lam0), 0.3, "limit"),
                             (lat032, 0.0, "limit"),
                             (theta.rhombic(lam0 + 2e-11), 0.0, "limit"),
                             (theta.rectangular(lam0), 0.0, "limit")):
        with pytest.raises(SpecInvalid):
            elliptic.Family(lat, omega, mode)
    assert elliptic.Family(lat032, 0.3, "explicit").omega == 0.3
    # the lambda0 of the configs, to 12 digits, is one
    assert elliptic.Family(theta.rhombic(0.354729892522), 0.0,
                           "limit").mode == "limit"


def test_family_constants_match_the_direct_formulas(crit032, rect_fam):
    """The cached constants are the theta values they name, and C1 is the
    closed form of `c1_at_critical` on both lattices."""
    for fam in (crit032, rect_fam):
        lat, om, i = fam.lattice, fam.omega, fam.den
        assert fam.td == theta.theta_grid(i, om, lat)
        assert fam.t1p0 == theta.theta_grid(1, 0.0, lat, 1)
        assert fam.c == theta.theta_grid(i, om, lat, 1) / fam.td
        assert fam.R == elliptic._real(
            2 * fam.td ** 2 / (fam.t1p0 * theta.theta_grid(1, 2 * om, lat)),
            "R")
        assert fam.C1 == elliptic.c1_at_critical(fam)
    assert (crit032.den, rect_fam.den) == (2, 4)
    assert crit032.residual < 1e-13


def test_explicit_family_at_the_critical_omega_has_its_c1(crit032):
    """An explicit family at the critical omega has the critical family's
    C1, R and Q3, bit for bit."""
    fam = elliptic.Family(crit032.lattice, crit032.omega, "explicit")
    assert fam.C1 == crit032.C1
    assert fam.R == crit032.R
    assert fam.q3 == crit032.q3


def test_q3_refuses_a_family_off_the_critical_omega(crit032, rect_fam, sph):
    """Off the critical omega (c != 0) the closed-form coefficients are not
    Q3's, so fam.q3 raises SpecInvalid, and so does build_spherical on such
    a family: rhombic lambda 0.32 and rectangular lambda 0.9 at omega 0.3."""
    off = elliptic.Family(crit032.lattice, 0.3, "explicit")
    for fam in (off, rect_fam):
        with pytest.raises(SpecInvalid, match="critical omega"):
            fam.q3
        with pytest.raises(SpecInvalid, match="critical omega"):
            reparam.build_spherical(sph, fam)


def _mp_lame_c1(kind, lam, omega):
    """U''/U + 8 U U1 at u = omega + 0.31 by mpmath at 30 digits: jtheta
    for the thetas and mp.diff for U''."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        tau = mp.mpc(0.5 if kind == "rhombic" else 0, lam)
        q = mp.exp(1j * mp.pi * tau)
        den = 2 if kind == "rhombic" else 4

        def th(i, z, k=0):
            return mp.jtheta(i, z, q, k)

        om = mp.mpf(omega)
        c = th(den, om, 1) / th(den, om)
        k = -th(1, 0, 1) / (2 * th(den, om))

        def U(x):
            return k * th(1, x + om) / th(den, x) * mp.exp(-x * c)

        def U1(x):
            return -k * th(1, x - om) / th(den, x) * mp.exp(x * c)

        u = om + mp.mpf("0.31")
        val = mp.diff(U, u, 2) / U(u) + 8 * U(u) * U1(u)
        return float(mp.re(val)), float(abs(mp.im(val)))


@pytest.mark.parametrize("kind,lam,omega", [
    ("rhombic", 0.32, None), ("rhombic", 0.32, 0.3), ("rhombic", 0.3, 1.0),
    ("rectangular", 0.3, 0.3), ("rectangular", 0.25, 0.5)])
def test_c1_closed_form_matches_mpmath_oracle(kind, lam, omega):
    """C1 is the Lame constant U''/U + 8 U U1 to 1e-12 relative, at the
    critical and at explicit omegas, on both lattices."""
    lat = (theta.rhombic(lam) if kind == "rhombic"
           else theta.rectangular(lam))
    fam = (elliptic.solve_critical_omega(lat) if omega is None
           else elliptic.Family(lat, omega, "explicit"))
    want, imag = _mp_lame_c1(kind, lam, fam.omega)
    assert imag < 1e-20 * max(1.0, abs(want))
    assert abs(fam.C1 - want) < 1e-12 * abs(want)


def test_c1_two_routes(crit032, rect_fam):
    """Closed form vs the Lame-equation probe recovery, at the critical
    omega and on a rectangular lattice."""
    for fam in (crit032, rect_fam):
        closed = elliptic.c1_at_critical(fam)
        probed = lame_c1(fam)
        assert abs(closed - probed) < 1e-8 * max(1.0, abs(closed))


def test_coeffs_pole_guard(crit032):
    with pytest.raises(PoleProximity):
        elliptic.coeffs(np.pi / 2, crit032)


def test_gauss_legendre_matches_leggauss():
    """Golub-Welsch nodes and weights equal numpy's leggauss to roundoff and
    integrate x^k exactly up to k = 2n - 1; each rule is solved once and
    shared read-only."""
    for n in (1, 2, 5, 16, 40):
        x, w = elliptic.gauss_legendre(n)
        assert elliptic.gauss_legendre(n)[0] is x
        assert not (x.flags.writeable or w.flags.writeable)
        xr, wr = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - xr)) < 1e-14 and np.max(np.abs(w - wr)) < 1e-14
        for k in range(2 * n):
            assert abs(w @ x ** k - (1 + (-1) ** k) / (k + 1)) < 1e-14


def test_q3_forms_agree(crit032):
    cub = crit032.q3
    assert cub.c3 > 0
    rng = np.random.default_rng(7)
    for s in rng.uniform(-1.0, 2.0, 10):
        coeff_form = cub(s)
        fact = cub.c3 * np.prod([s - r for r in cub.roots])
        assert abs(coeff_form - fact) < 1e-9 * max(1.0, abs(coeff_form))
    for r in cub.roots:
        assert abs(cub(r)) < 1e-10


def test_q3_root_structure(crit032):
    """One real root; the other two are a conjugate pair."""
    roots = crit032.q3.roots
    real = [r for r in roots if abs(r.imag) < 1e-9]
    pairs = [r for r in roots if abs(r.imag) >= 1e-9]
    assert len(real) == 1 and len(pairs) == 2
    assert abs(pairs[0] - np.conj(pairs[1])) < 1e-10


def test_g2g3_independent_of_u0(crit032):
    g2a, g3a = elliptic.g2g3(crit032.omega, crit032)
    g2b, g3b = elliptic.g2g3(crit032.omega + 0.37, crit032)
    assert abs(g2a - g2b) < 1e-9 * max(1.0, abs(g2a))
    assert abs(g3a - g3b) < 1e-9 * max(1.0, abs(g3a))


def test_rectangular_has_no_critical_point():
    """theta4' keeps one sign on (0, pi/2) and the even theta curvatures at 0
    keep one sign each on rectangular lattices: no interior critical point."""
    for lam in (0.7, 0.9, 1.2):
        lat = theta.rectangular(lam)
        grid = np.linspace(0.05, np.pi / 2 - 0.05, 50)
        d = np.real(theta.theta_grid(4, grid, lat, 1))
        assert np.all(d > 0)
        assert np.real(theta.theta_grid(4, 0.0, lat, 2)) > 0
        assert np.real(theta.theta_grid(3, 0.0, lat, 2)) < 0


def test_general_omega_coefficients_satisfy_lame(rect_fam):
    """The non-critical path (exponential factors kept) still solves the
    Lame equation with the closed-form C1, on rectangular lattices too."""
    om = rect_fam.omega
    c1 = rect_fam.C1
    h = 1e-5
    for u in (om + 0.4, om + 0.9):
        U, Up, U1, _ = elliptic._uu1_complex(u, rect_fam)
        upp = (elliptic._uu1_complex(u + h, rect_fam)[1]
               - elliptic._uu1_complex(u - h, rect_fam)[1]) / (2 * h)
        assert abs(upp / U + 8 * U * U1 - c1) < 1e-6


# ---------------------------------------------------------------------------
# Brent root finder

# the (xtol, rtol) of the callers: solve_lambda0 and reparam._w_of_s,
# solve_critical_omega, frame.close_torus; and a loose xtol, under which
# the -delta of the step acceptance test decides a step of "steep_tanh_offset"
CALLER_TOLS = [(1e-14, 8.9e-16), (1e-15, 8.9e-16), (1e-13, 8.9e-16),
               (1e-2, 8.9e-16)]

BRACKETS = {
    "smooth": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "smooth_cubic": (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    "kinked": (lambda x: math.copysign(abs(x - 0.3) ** 0.5, x - 0.3),
               0.0, 1.0),
    "kinked_wide": (lambda x: math.copysign(abs(x - 0.123456789) ** 0.5,
                                            x - 0.123456789), -2.0, 0.5),
    "steep_tanh": (lambda x: math.tanh(80 * (x - 0.4)), 0.0, 1.0),
    "steep_tanh_offset": (lambda x: math.tanh(154.2 * (x - 0.785)) + 2.5e-4,
                          0.0, 1.0),
    "flat": (lambda x: (x - 0.61) ** 3 + 1e-12, 0.0, 1.0),
    # a fifth-order root: neither implementation converges in 100 steps
    "flat_quintic": (lambda x: (x - 0.25) ** 5, 0.0, 1.0),
    "flat_exp": (lambda x: math.copysign(
        math.exp(-1 / (x - 0.5) ** 2) if x != 0.5 else 0.0, x - 0.5),
        0.0, 1.3),
}


def _recording(f):
    """f together with the list of points it was called at."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


@pytest.mark.parametrize("tols", CALLER_TOLS, ids=["1e-14", "1e-15", "1e-13", "loose"])
@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_brentq_matches_scipy_step_for_step(name, tols):
    """Same iterates and same root (or the same failure to converge) as
    scipy.optimize.brentq, bit for bit."""
    optimize = pytest.importorskip("scipy.optimize")
    f, a, b = BRACKETS[name]
    xtol, rtol = tols
    ours, ours_xs = _recording(f)
    theirs, theirs_xs = _recording(f)
    try:
        expected = optimize.brentq(theirs, a, b, xtol=xtol, rtol=rtol)
    except RuntimeError:
        with pytest.raises(NoBracket, match="did not converge"):
            elliptic.brentq(ours, a, b, xtol=xtol, rtol=rtol)
    else:
        assert elliptic.brentq(ours, a, b, xtol=xtol, rtol=rtol) == expected
    assert ours_xs == theirs_xs


def test_brentq_nonconvergence_matches_scipy():
    """A triple root that neither implementation resolves in 100 steps."""
    optimize = pytest.importorskip("scipy.optimize")

    def f(x):
        return (x - 1e-3) ** 3

    with pytest.raises(RuntimeError, match="converge"):
        optimize.brentq(f, -1.0, 2.0, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(NoBracket, match="did not converge"):
        elliptic.brentq(f, -1.0, 2.0, xtol=1e-14, rtol=8.9e-16)


def test_lambda0_matches_scipy_brentq():
    optimize = pytest.importorskip("scipy.optimize")
    assert elliptic.solve_lambda0() == optimize.brentq(
        elliptic.theta2_logdd0, 0.1, 0.6, xtol=1e-14, rtol=8.9e-16)


def test_brentq_typed_failures():
    with pytest.raises(NoBracket, match="no sign change"):
        elliptic.brentq(lambda x: x * x + 1, -1.0, 1.0, xtol=1e-14,
                        rtol=8.9e-16)
    with pytest.raises(NoBracket, match="NaN"):
        elliptic.brentq(lambda x: math.nan if 0 < x < 1 else x - 0.5,
                        0.0, 1.0, xtol=1e-14, rtol=8.9e-16)
    with pytest.raises(IsoforgeError):
        elliptic.brentq(lambda x: (x - 1e-3) ** 3, -1.0, 2.0, xtol=1e-14,
                        rtol=8.9e-16)


def test_brentq_endpoint_roots_and_tolerance():
    assert elliptic.brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-14,
                           rtol=8.9e-16) == 1.0
    assert elliptic.brentq(lambda x: x, 0.0, 1.0, xtol=1e-14,
                           rtol=8.9e-16) == 0.0
    root = elliptic.brentq(lambda x: x * x - 2, 0.0, 2.0, xtol=1e-14,
                           rtol=8.9e-16)
    assert abs(root - math.sqrt(2)) < 1e-14


def _real_outcome(z, what="z"):
    try:
        return elliptic._real(z, what, SpecInvalid)
    except SpecInvalid as exc:
        return type(exc), str(exc)


def test_real_scalar_path_matches_the_array_path():
    """A number and the 0-d array of it give _real the same value, or the
    same error type and message: on both sides of the tolerance, at |z|
    around 1, for NaN, infinities and magnitudes whose |z| overflows."""
    tol = elliptic._REAL_TOL
    rng = np.random.default_rng(41)
    nan, inf = float("nan"), float("inf")
    values = [0.0, -0.0, 1.0, 0.5 + 0.9e-9j, 0.5 + 1.1e-9j, 3.0 + 2.9e-9j,
              3.0 + 3.1e-9j, 1.0 + tol * 1j, complex(nan, 0.0),
              complex(0.0, nan), complex(nan, 1.0), complex(1.0, nan),
              complex(inf, 0.0), complex(inf, 1.0), complex(1.0, inf),
              complex(1.7e308, 1.7e308), complex(1.7e308, 1e299), -2.5, 3, True]
    values += list(rng.normal(size=50) * 10.0 ** rng.integers(-5, 5, 50)
                   * (1 + 1j * tol * rng.uniform(0, 2, 50)))
    values += [np.float64(0.25), np.complex128(1 + 2j), np.float32(0.1),
               np.int64(-4), np.complex64(0.5 + 0.5j)]
    with np.errstate(over="ignore", invalid="ignore"):
        for z in values:
            want = _real_outcome(np.asarray(z))
            got = _real_outcome(z)
            assert type(got) is type(want)
            if isinstance(want, float):
                assert got == want or (math.isnan(got) and math.isnan(want))
            else:
                assert got == want
