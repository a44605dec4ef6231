"""The planar curve family, its metric data and elastica diagnostics."""

import functools
import tracemalloc

import numpy as np
import pytest

from isoforge import curvefamily, elliptic, theta
from isoforge.errors import DomainW, PoleProximity

from conftest import MIRRORED_FORMS, curve_form

RNG = np.random.default_rng(11)


def _random_w(lat, n=6, margin=0.12):
    top = 2 * np.pi * lat.lam
    return RNG.uniform(margin * top, (1 - margin) * top, n)


def test_closure_at_critical_omega(crit032):
    for w in _random_w(crit032.lattice, 5):
        u = RNG.uniform(0, 2 * np.pi)
        g0 = curve_form("gamma", u, float(w), crit032)
        g1 = curve_form("gamma", u + 2 * np.pi, float(w), crit032)
        assert abs(g1 - g0) < 1e-10


def test_gamma_modulus_at_omega(crit032):
    R = crit032.R
    for w in _random_w(crit032.lattice, 5):
        g = curve_form("gamma", crit032.omega, float(w), crit032)
        assert abs(abs(g) - abs(R)) < 1e-10


def test_gamma_conjugation(crit032):
    for w in _random_w(crit032.lattice, 5):
        u = RNG.uniform(0, 2 * np.pi)
        a = np.conj(curve_form("gamma", u, float(w), crit032))
        b = -curve_form("gamma", u, -float(w), crit032)
        assert abs(a - b) < 1e-11


def test_gamma_u_closed_form_vs_fd(crit032):
    w = 0.9
    u = 0.83
    exact = curve_form("gamma_u", u, w, crit032)
    errs = []
    for h in (1e-4, 5e-5):
        fd = (curve_form("gamma", u + h, w, crit032)
              - curve_form("gamma", u - h, w, crit032)) / (2 * h)
        errs.append(abs(fd - exact))
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert errs[1] < 1e-8


def test_gamma_u_is_minus_i_gamma_w(crit032):
    u, w, h = 0.61, 1.1, 1e-5
    gw = (curve_form("gamma", u, w + h, crit032)
          - curve_form("gamma", u, w - h, crit032)) / (2 * h)
    assert abs(curve_form("gamma_u", u, w, crit032) + 1j * gw) < 1e-8


def test_tangent_at_omega(crit032):
    R = crit032.R
    for w in _random_w(crit032.lattice, 4):
        eis = curve_form("exp_isigma", crit032.omega, float(w), crit032)
        g = curve_form("gamma", crit032.omega, float(w), crit032)
        assert abs(eis + g / R) < 1e-10


def test_polar_decomposition(crit032):
    for w in _random_w(crit032.lattice, 4):
        us = np.linspace(0.1, 2 * np.pi, 17)
        gu = curve_form("gamma_u", us, float(w), crit032)
        eh = curve_form("exp_h", us, float(w), crit032)
        eis = curve_form("exp_isigma", us, float(w), crit032)
        assert np.max(np.abs(np.abs(eis) - 1.0)) < 1e-12
        assert np.max(np.abs(gu - eh * eis)) < 1e-10 * np.max(eh)


def test_metric_identity(crit032):
    """e^h = 2 Re(W1 conj gamma) pointwise."""
    for w in _random_w(crit032.lattice, 20):
        u = RNG.uniform(0, 2 * np.pi)
        eh = curve_form("exp_h", u, float(w), crit032)
        g = curve_form("gamma", u, float(w), crit032)
        W1 = curvefamily.w1(float(w), crit032)
        assert abs(eh - 2 * np.real(W1 * np.conj(g))) < 1e-9 * eh


def test_sigma_riccati(crit032):
    """sigma_w = W e^{i sigma} + W1 e^{-i sigma} with W = conj W1, and
    sigma_w from branch-free finite differences of e^{i sigma}."""
    u, h = 0.77, 1e-5
    for w in (0.6, 1.0, 1.5):
        eis = curve_form("exp_isigma", u, w, crit032)
        ep = curve_form("exp_isigma", u, w + h, crit032)
        em = curve_form("exp_isigma", u, w - h, crit032)
        sig_w = np.imag((ep - em) / (2 * h) / eis)
        W1 = curvefamily.w1(w, crit032)
        rhs = np.conj(W1) * eis + W1 / eis
        assert abs(rhs.imag) < 1e-9  # the combination is real
        assert abs(sig_w - rhs.real) < 1e-8


def test_w1_blows_up_at_band_bottom(crit032):
    assert abs(curvefamily.w1(1e-3, crit032)) > abs(curvefamily.w1(1e-2, crit032)) \
        > abs(curvefamily.w1(1e-1, crit032))


def test_exp_h_degenerates_at_band_edges(crit032):
    """s = e^{-h}(omega, .) is increasing, so e^h collapses toward the top
    of the band and blows up toward the bottom."""
    top = 2 * np.pi * crit032.lattice.lam
    ws = top * np.array([0.9, 0.99, 0.999])
    vals = [curve_form("exp_h", crit032.omega, float(w), crit032) for w in ws]
    assert vals[0] > vals[1] > vals[2]
    lows = [curve_form("exp_h", crit032.omega, w, crit032)
            for w in (1e-1, 1e-2, 1e-3)]
    assert lows[0] < lows[1] < lows[2]


def test_domain_guards(crit032):
    top = 2 * np.pi * crit032.lattice.lam
    with pytest.raises(DomainW):
        curve_form("exp_h", 0.3, top + 0.1, crit032)
    with pytest.raises(DomainW):
        curvefamily.w1(-0.5, crit032)
    # gamma allows the mirrored band for the conjugation symmetry
    curve_form("gamma", 0.3, -0.5, crit032)
    with pytest.raises(DomainW):
        curve_form("gamma", 0.3, top + 0.1, crit032)


def test_dlog_gamma_u_checks_the_band(crit032):
    """The log-derivative refuses w outside the mirrored band, as gamma_u
    does, and accepts the mirrored negative w."""
    top = 2 * np.pi * crit032.lattice.lam
    for w in (top + 0.1, 0.0, -top - 0.1):
        with pytest.raises(DomainW):
            curve_form("dlog_gamma_u", 0.3, w, crit032)
    assert np.isfinite(curve_form("dlog_gamma_u", 0.3, -0.5, crit032))


def test_wrappers_raise_on_the_same_inputs(crit032):
    """Every form of a one-form grid refuses w outside its band with
    DomainW (gamma, gamma_u and the log-derivative on the mirrored band),
    as does hyperbolic_speed, and the points next to the zero of
    theta1((z + omega)/2) with PoleProximity."""
    fam, top = crit032, 2 * np.pi * crit032.lattice.lam
    us = np.array([0.3, 1.1])
    mirrored = tuple(functools.partial(curve_form, name)
                     for name in MIRRORED_FORMS)
    band = (*(functools.partial(curve_form, name)
              for name in ("exp_h", "exp_isigma", "kappa_hyp")),
            curvefamily.hyperbolic_speed)
    for form in mirrored + band:
        for w in (top + 0.1, 0.0, top, -top - 0.1):
            with pytest.raises(DomainW):
                form(us, w, fam)
    for form in band:
        with pytest.raises(DomainW):
            form(us, -0.5, fam)
    for form in mirrored:
        assert np.all(np.isfinite(form(us, -0.5, fam)))
    # theta1((z + omega)/2) ~ theta1'(0) (z + omega)/2 vanishes at z = -omega
    near = np.array([0.3, -fam.omega])
    for form in mirrored + band[:2]:
        for w in (1e-12, -1e-12) if form in mirrored else (1e-12,):
            with pytest.raises(PoleProximity):
                form(near, w, fam)
        with pytest.raises(PoleProximity):
            form(-fam.omega, 1e-12, fam)


@pytest.mark.parametrize("mirrored", [False, True], ids=["band", "mirrored"])
@pytest.mark.parametrize("kind", ["critical", "explicit", "rectangular"])
def test_forms_match_the_four_array_quotients(crit032, rect_fam, kind,
                                              mirrored):
    """e^h, e^{i sigma}, gamma_u and kappa_hyp, which forms_at reads from
    A and D alone, equal to 1e-13 relative the quotients of the module
    docstring in the four arrays at z and zb, each by theta_grid:
    e^h = D Db/(A Ab) e^{u Re c} (real to 1e-13 there too) and
    e^{i sigma} = -i D Ab/(A Db) e^{i w c}, with gamma_u = e^h e^{i sigma}
    and kappa_hyp = Im (h + i sigma)_u / (2 |W1|) + Re(rot e^{i sigma}).
    On the critical rhombic family (c = 0), an explicit omega (c != 0)
    and a rectangular lattice (td = theta4, lam = 1), on the band and on
    the mirrored band (negative w, where W1 and so kappa_hyp are not
    defined).  A point next to the zero of A at z = -omega still raises
    PoleProximity, on either side of w = 0."""
    fam = {"critical": crit032, "rectangular": rect_fam,
           "explicit": elliptic.Family(crit032.lattice, 0.3, "explicit")}[kind]
    lat, om, c, td = fam.lattice, fam.omega, fam.c, fam.den
    u = np.linspace(0.0, 2 * np.pi, 9)
    w = _random_w(lat, n=4)
    if mirrored:
        w = np.concatenate([w[:2], -w[2:]])
    names = ("exp_h", "exp_isigma", "gamma_u") + (() if mirrored
                                                  else ("kappa_hyp",))
    got = curvefamily.forms_at(u, w, fam, names, mirrored=mirrored)

    z = u[:, None] + 1j * w
    A, Ab = (theta.theta_grid(1, (x + om) / 2, lat) for x in (z, np.conj(z)))
    D, Db = (theta.theta_grid(td, (x - om) / 2, lat) for x in (z, np.conj(z)))
    eh = D * Db / (A * Ab) * np.exp(u * c.real)[:, None]
    assert np.all(np.abs(eh.imag) <= 1e-13 * np.abs(eh))
    want = {"exp_h": eh.real,
            "exp_isigma": -1j * D * Ab / (A * Db) * np.exp(1j * w * c)}
    want["gamma_u"] = want["exp_h"] * want["exp_isigma"]
    if not mirrored:
        dlog = (theta.theta_grid(td, (z - om) / 2, lat, 1) / D
                - theta.theta_grid(1, (z + om) / 2, lat, 1) / A + c)
        W1 = curvefamily.w1(w, fam)
        rot = -np.abs(W1) / (1j * W1)
        want["kappa_hyp"] = (dlog.imag / (2 * np.abs(W1))
                             + np.real(rot * want["exp_isigma"]))
    for name in names:
        scale = np.max(np.abs(want[name]))
        assert np.max(np.abs(got[name] - want[name])) <= 1e-13 * scale, name

    for w0 in (1e-12, -1e-12) if mirrored else (1e-12,):
        with pytest.raises(PoleProximity):
            curvefamily.forms_at(-om, w0, fam, ("exp_h", "exp_isigma"),
                                 mirrored=mirrored)


def test_curve_grid_matches_the_wrappers(crit032, rect_fam):
    """Every form of one forms_at call for all of FORMS equals, bit for
    bit, the same form asked for alone; the forms are (len(u), len(w))
    grids, a number drops its axis, and two numbers give a number."""
    for fam in (crit032, rect_fam):
        u = np.linspace(0.0, 2 * np.pi, 7)
        w = _random_w(fam.lattice, n=3)
        grid = curvefamily.forms_at(u, w, fam, curvefamily.FORMS)
        for name in ("gamma", "gamma_u", "exp_h", "exp_isigma",
                     "dlog_gamma_u"):
            assert grid[name].shape == (7, 3)
            assert np.array_equal(grid[name], curve_form(name, u, w, fam))
            # a row or column alone, to round-off
            full = grid[name]
            for part, want in ((curvefamily.forms_at(u[2], w, fam, (name,)),
                                full[2]),
                               (curvefamily.forms_at(u, w[1], fam, (name,)),
                                full[:, 1])):
                got = part[name]
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(full))
        one = curvefamily.forms_at(0.7, float(w[1]), fam, ("gamma", "exp_h"))
        assert isinstance(one["gamma"], complex)
        assert isinstance(one["exp_h"], float)
    w = float(_random_w(crit032.lattice, n=1)[0])
    us = np.linspace(0.0, 2 * np.pi, 9)
    assert np.array_equal(
        curvefamily.forms_at(us, w, crit032, curvefamily.FORMS)["kappa_hyp"],
        curve_form("kappa_hyp", us, w, crit032))


@pytest.mark.parametrize("forms, indices, orders", [
    (("gamma",), (1, 1), (0, 0)),
    (("exp_h", "exp_isigma"), (1, 2), (0, 0)),
    (("dlog_gamma_u",), (1, 1, 2, 2), (0, 1, 0, 1)),
    (("exp_h", "gamma"), (1, 1, 2), (0, 0, 0)),
], ids=["gamma", "eh-eis", "dlog", "eh-gamma"])
def test_curve_grid_fetches_only_the_arrays_of_its_forms(
        crit032, theta_arrays, forms, indices, orders):
    """forms_at fetches the theta arrays the named forms read (gamma: A
    and G; e^h and e^{i sigma}: A and D; (h + i sigma)_u: A, A', D and
    D') in one theta_tensor call, one product on the rhombic
    lattice, and each form equals, bit for bit, the form of a call for all
    of FORMS."""
    u = np.linspace(0.0, 2 * np.pi, 7)
    w = _random_w(crit032.lattice, n=3)
    got = curvefamily.forms_at(u, w, crit032, forms)
    assert theta_arrays.calls == [(indices, 7, (len(indices), 3))]
    assert theta_arrays.products == [1]
    assert tuple(k for _, k, _, _ in theta_arrays.arrays) == orders
    full = curvefamily.forms_at(u, w, crit032, curvefamily.FORMS)
    for name in forms:
        assert np.array_equal(got[name], full[name]), name


def test_rectangular_grid_makes_two_theta_products(rect_fam, theta_arrays):
    """On a rectangular lattice td = theta4 has m0 = 0 and theta1 m0 = 1,
    so the five arrays of all the forms take two matrix products, one per
    m0, in the same theta_tensor call that serves a rhombic grid."""
    u = np.linspace(0.0, 2 * np.pi, 7)
    w = _random_w(rect_fam.lattice, n=3)
    curvefamily.forms_at(u, w, rect_fam, ("gamma", "exp_h", "dlog_gamma_u"))
    assert theta_arrays.calls == [((1, 1, 1, 4, 4), 7, (5, 3))]
    assert theta_arrays.products == [2]


def test_forms_at_returns_exactly_its_names(crit032, lam0, theta_arrays):
    """The result holds the named forms and no others, also where a form
    is computed on the way to another (kappa_hyp from e^{i sigma} and
    (h + i sigma)_u); an unknown name, or a name of the other kind of
    family (limit or not), raises ValueError before any theta array is
    fetched."""
    limit = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    for fam, names in ((crit032, ("gamma", "h")), (crit032, ("gamma_hat",)),
                       (limit, ("gamma_hat", "gamma"))):
        with pytest.raises(ValueError, match="unknown forms"):
            curvefamily.forms_at(0.3, 1.0, fam, names)
    assert theta_arrays.calls == []
    for names in (("gamma",), ("kappa_hyp",), ("exp_h", "gamma"),
                  curvefamily.FORMS):
        got = curvefamily.forms_at(0.3, 1.0, crit032, names)
        assert tuple(got) == names


@pytest.mark.parametrize("kind", ["critical", "explicit", "rectangular"])
def test_curves_block_matches_single_curve(crit032, rect_fam, kind):
    """Each w column of a block of curves on 4097 u samples, as the curves
    command evaluates them, matches the forms of that w alone to round-off:
    on the critical rhombic family (c = 0), an explicit omega (c != 0) and
    a rectangular lattice (td = theta4)."""
    fam = {"critical": crit032, "rectangular": rect_fam,
           "explicit": elliptic.Family(crit032.lattice, 0.3, "explicit")}[kind]
    us = np.linspace(0.0, 2 * np.pi, 4097)
    ws = _random_w(fam.lattice, n=4)
    names = ("gamma", "gamma_u", "exp_h", "exp_isigma", "dlog_gamma_u",
             "kappa_hyp")
    block = curvefamily.forms_at(us, ws, fam, names)
    for k, w in enumerate(ws):
        single = curvefamily.forms_at(us, w, fam, names)
        for name in names:
            want, got = single[name], block[name][:, k]
            assert np.all(np.abs(got - want)
                          <= 1e-14 * np.maximum(1.0, np.abs(want))), (name, w)


def test_curve_grid_memory_peak(crit032):
    """A 4097-point curve (gamma, e^h, e^{i sigma}, kappa) reads all five
    theta arrays, yet its traced peak stays at or below the 1,117,124
    bytes of evaluating them point by point (the theta_tensor temporaries
    are bounded by its row blocks)."""
    us = np.linspace(0.0, 2 * np.pi, 4097)

    def curve(u):
        return curvefamily.forms_at(
            u, 0.7, crit032, ("gamma", "exp_h", "exp_isigma", "kappa_hyp"))

    curve(us[:3])  # fill the coefficient caches
    tracemalloc.start()
    try:
        curve(us)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_117_124


def test_w1_pole_guard_rectangular(rect_fam):
    """theta1(i w) vanishes mid-band at w = pi*lam on rectangular lattices."""
    w_pole = np.pi * rect_fam.lattice.lam
    with pytest.raises(PoleProximity):
        curvefamily.w1(w_pole, rect_fam)
    # away from the pole the evaluation is fine
    curvefamily.w1(w_pole / 2, rect_fam)


# ---------------------------------------------------------------------------
# hyperbolic elastica diagnostics


def test_hyperbolic_speed_constant(crit032):
    for w in (0.7, 1.2):
        us = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        speed = curvefamily.hyperbolic_speed(us, w, crit032)
        a = 2 * abs(curvefamily.w1(w, crit032))
        assert np.all(speed > 0)  # standardized curve sits in the half-plane
        assert np.std(speed) < 1e-9 * np.mean(speed)
        assert abs(np.mean(speed) - a) < 1e-9 * a


def test_standardization_preserves_modulus(crit032):
    us = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    w = 0.9
    g = curve_form("gamma", us, w, crit032)
    gt = curvefamily.hyperbolic_standardize(us, w, crit032)
    assert np.max(np.abs(np.abs(gt) - np.abs(g))) < 1e-12 * np.max(np.abs(g))


def test_kappa_hyp_against_osculating_circle(crit032):
    """Independent oracle: Euclidean osculating circle -> half-plane geodesic
    curvature y_center / r_euclid, with derivatives by finite differences."""
    w = 1.0
    h = 1e-4

    def gt(u):
        return complex(curvefamily.hyperbolic_standardize([u], w, crit032)[0])

    for u in np.linspace(0.3, 5.9, 10):
        d1 = (gt(u + h) - gt(u - h)) / (2 * h)
        d2 = (gt(u + h) - 2 * gt(u) + gt(u - h)) / h ** 2
        speed = abs(d1)
        kappa_e = np.imag(np.conj(d1) * d2) / speed ** 3
        center = gt(u) + (1j * d1 / speed) / kappa_e
        oracle = center.imag * kappa_e  # y0 / r with the orientation sign
        got = float(curve_form("kappa_hyp", u, w, crit032))
        assert abs(got - oracle) < 1e-6 * max(1.0, abs(oracle))


def test_elastica_constants(crit032):
    top = 2 * np.pi * crit032.lattice.lam
    for w in top * np.array([0.25, 0.5, 0.75]):
        ec = curvefamily.elastica_constants(float(w), crit032)
        assert ec.residual_max < 1e-6
        assert abs(ec.mu_imag) < 1e-8
        assert ec.mu_std < 1e-7
        # Lambda = (d/dw log W1) / a against finite differences
        h = 1e-6
        fd = (np.log(curvefamily.w1(float(w) + h, crit032))
              - np.log(curvefamily.w1(float(w) - h, crit032))) / (2 * h)
        assert abs(ec.Lambda - fd / ec.a) < 1e-6


# ---------------------------------------------------------------------------
# the omega -> 0 limit family


def test_limit_curves_close_at_lambda0(lam0):
    lat = theta.rhombic(lam0)
    fam = elliptic.Family(lat, 0.0, "limit")
    for w in _random_w(lat, 4):
        u = RNG.uniform(0, 2 * np.pi)
        a = curve_form("gamma_hat", u, float(w), fam)
        b = curve_form("gamma_hat", u + 2 * np.pi, float(w), fam)
        assert abs(a - b) < 1e-10


def test_limit_period_defect_off_lambda0(monkeypatch):
    """At lambda != lambda0 only the linear term is aperiodic; its period
    defect is -2 pi i theta2''(0) theta2(0) / theta1'(0)^2.  A Family
    refuses the limit mode off lambda0, so this one skips that check."""
    monkeypatch.setattr(elliptic.Family, "__post_init__", lambda self: None)
    lat = theta.rhombic(0.32)
    fam = elliptic.Family(lat, 0.0, "limit")
    want = (-2j * np.pi * theta.theta_grid(2, 0.0, lat, 2)
            * theta.theta_grid(2, 0.0, lat)
            / theta.theta_grid(1, 0.0, lat, 1) ** 2)
    w = 0.8
    got = (curve_form("gamma_hat", 2 * np.pi + 0.3, w, fam)
           - curve_form("gamma_hat", 0.3, w, fam))
    assert abs(got - complex(want)) < 1e-10


def test_limit_data_real_valued(lam0):
    lat = theta.rhombic(lam0)
    fam = elliptic.Family(lat, 0.0, "limit")
    for w in _random_w(lat, 5):
        # W_hat and r are validated real inside; d is purely imaginary
        d = curvefamily.limit_d(float(w), fam)
        assert abs(d.real) < 1e-9 * max(1.0, abs(d))
        assert np.isfinite(curvefamily.w_hat(float(w), fam))
        assert np.isfinite(curvefamily.limit_r(float(w), fam))


def test_limit_forms_match_mpmath(lam0):
    """gamma_hat and gamma_hat_u of one forms_at call on the mirrored band
    equal the module docstring's formulas in mpmath's jtheta at 40 digits,
    to 1e-13 relative, on both sides of w = 0."""
    mpmath = pytest.importorskip("mpmath")
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    us, ws = np.array([0.3, 2.0, 4.5]), np.array([-1.9, -0.5, 0.9, 1.8])
    got = curvefamily.forms_at(us, ws, fam, curvefamily.LIMIT_FORMS,
                               mirrored=True)
    with mpmath.workdps(40):
        q = mpmath.e ** (1j * mpmath.pi * mpmath.mpmathify(fam.lattice.tau))

        def th(i, z, order=0):
            return mpmath.jtheta(i, z, q, derivative=order)

        k = 1j * th(2, 0) ** 2 / th(1, 0, 1) ** 2
        slope = -k * th(2, 0, 2) / th(2, 0)
        for a, u in enumerate(us):
            for b, w in enumerate(ws):
                z = mpmath.mpc(u, w)
                t0, t1, t2 = (th(1, z / 2, order) for order in range(3))
                want = (slope * z + 2 * k * t1 / t0,
                        slope + k * (t2 * t0 - t1 ** 2) / t0 ** 2)
                for name, x in zip(curvefamily.LIMIT_FORMS, want):
                    assert abs(got[name][a, b] - complex(x)) <= 1e-13 * abs(x)


def test_limit_gamma_hat_u_vs_fd(lam0):
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    u, w, h = 1.1, 0.9, 1e-5
    fd = (curve_form("gamma_hat", u + h, w, fam)
          - curve_form("gamma_hat", u - h, w, fam)) / (2 * h)
    assert abs(fd - curve_form("gamma_hat_u", u, w, fam)) < 1e-8
