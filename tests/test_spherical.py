"""Sphere data of the second curvature-line family and the rotation axis."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoforge import curvefamily, elliptic, frame, reparam, spherical, surface
from isoforge.errors import PoleProximity

from conftest import curve_form, pde_levels, period_nodes, q_coeffs

RNG = np.random.default_rng(31)


def _probe_us(crit, n=7):
    """u-samples inside the pole-free window around omega."""
    return np.sort(np.concatenate(
        [[crit.omega], RNG.uniform(0.1, np.pi / 2 - 0.15, n)]))


# oracles on the rows (phi2, phi1, phi0) that integrate_phis returns


def alpha_beta(phis, us, crit):
    """Sphere data alpha(u), beta(u) of the rows phis at us."""
    c = elliptic.coeffs(us, crit)
    den = c.U1 * phis[:, 2] + c.U * phis[:, 0]
    return c.U1 / den, -phis[:, 0] / den


def intersection_angle(phis, us, crit):
    """psi(u) with tan(psi) = -phi2/U1, limit-safe at U1 -> 0 (u -> omega)."""
    return np.arctan2(-phis[:, 0], elliptic.coeffs(us, crit).U1)


def curvature_p(phi, eh):
    """p(u, v) = phi2 e^{-h} + phi1 + phi0 e^h (third-fundamental-form
    entry), phi one row (phi2, phi1, phi0)."""
    phi2, phi1, phi0 = phi
    return phi2 / eh + phi1 + phi0 * eh


def curvature_q(phi, eh):
    """q = p_w / h_w = -phi2 e^{-h} + phi0 e^h, phi one row."""
    phi2, _, phi0 = phi
    return -phi2 / eh + phi0 * eh


def characterization_residual(surf, sph, crit, us, n_v=33):
    """Max residual of e^h - alpha q + beta h_u over the probe grid us x
    w(v) at n_v v-samples of a period, for surf built from the
    SphericalSpec sph.

    The vanishing of this combination is exactly the condition that the
    v-curves are spherical; alpha, beta, q all come from the phi rows.
    """
    spec = surf.recipe.spec
    phis = spherical.integrate_phis(sph, crit, us)
    a, b = alpha_beta(phis, us, crit)
    ws = np.asarray(spec.w(np.linspace(0.0, spec.period, n_v)), dtype=float)
    grid = curvefamily.forms_at(us, ws, surf.recipe.fam,
                                ("exp_h", "dlog_gamma_u"))
    eh, hu = grid["exp_h"], np.real(grid["dlog_gamma_u"])
    q = curvature_q(phis.T[:, :, None], eh)
    return float(np.max(np.abs(eh - a[:, None] * q + b[:, None] * hu)))


def test_phi_initial_data(sph, crit032):
    """At u = omega the triple is delta^{-1}(1, -(s1+s2), s1 s2), which makes
    alpha(omega) = 0 and beta(omega) = R."""
    us = np.array([crit032.omega])
    phis = spherical.integrate_phis(sph, crit032, us)
    assert phis.shape == (1, 3)
    e1 = float((sph.s1 + sph.s2).real)
    e2 = float((sph.s1 * sph.s2).real)
    want = np.array([1.0, -e1, e2]) / sph.delta
    assert np.max(np.abs(phis[0] - want)) < 1e-14

    (a,), (b,) = alpha_beta(phis, us, crit032)
    R = crit032.R
    assert abs(a) < 1e-12
    assert abs(b - R) < 1e-10 * abs(R)


def test_characterization_residual(sph, sph_surf, crit032):
    us = _probe_us(crit032)
    res = characterization_residual(sph_surf, sph, crit032, us)
    assert res < 1e-7


def test_q_is_p_w_over_h_w(sph, crit032):
    """q = p_w / h_w, with p_w by finite differences of p(u, w)."""
    u = 0.9
    phi, = spherical.integrate_phis(sph, crit032, [u])
    h = 1e-6
    for w in (0.6, 1.0, 1.4):
        hw = -float(np.imag(curve_form("dlog_gamma_u", u, w, crit032)))
        pp = curvature_p(phi, curve_form("exp_h", u, w + h, crit032))
        pm = curvature_p(phi, curve_form("exp_h", u, w - h, crit032))
        q = curvature_q(phi, curve_form("exp_h", u, w, crit032))
        assert abs((pp - pm) / (2 * h) - q * hw) < 1e-7 * max(1.0, abs(q * hw))


def test_ratio_p_over_hw_is_u_independent(sph, sph_spec, crit032):
    """p / h_w depends on v only, with |p / h_w| = sqrt(1 - w'(v)^2)."""
    us = _probe_us(crit032, 5)
    phis = spherical.integrate_phis(sph, crit032, us)
    for v in RNG.uniform(0.05, 0.95, 5) * sph_spec.period:
        w = float(sph_spec.w(v))
        wp = float(sph_spec.planes(v)[1])
        vals = []
        for u, phi in zip(us, phis):
            eh = float(curve_form("exp_h", u, w, crit032))
            hw = -float(np.imag(curve_form("dlog_gamma_u", u, w, crit032)))
            vals.append(float(curvature_p(phi, eh)) / hw)
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-7
        assert abs(abs(vals[0]) - np.sqrt(1.0 - wp ** 2)) < 1e-7


def test_intersection_angle_consistent(sph, crit032):
    """atan2(-phi2, U1) and atan2(beta, alpha) agree modulo pi."""
    us = _probe_us(crit032, 5)
    phis = spherical.integrate_phis(sph, crit032, us)
    a, b = alpha_beta(phis, us, crit032)
    psi_loc = intersection_angle(phis, us, crit032)
    gap = (psi_loc - np.arctan2(b, a) + np.pi / 2) % np.pi - np.pi / 2
    assert np.max(np.abs(gap)) < 1e-12


def test_sphere_centers(sph, sph_surf, crit032, monkeypatch):
    """Each centre is the v-average of a v-independent Z_v = f - alpha n +
    beta fu/|fu|, and matches the least-squares sphere through its v-curve,
    whose radius is hypot(alpha, beta)."""
    R = abs(crit032.R)
    requested = []
    phis_of = spherical.integrate_phis
    monkeypatch.setattr(spherical, "integrate_phis", lambda sph, crit, us: (
        requested.append(us) or phis_of(sph, crit, us)))
    alphas, centers = spherical.sphere_centers(sph_surf, sph)
    us, = requested
    assert len(alphas) >= 5 and centers.shape == (len(alphas), 3)
    a, b = alpha_beta(phis_of(sph, crit032, us), us, crit032)
    assert np.array_equal(alphas, a)
    for i, alpha, beta, center in zip(np.searchsorted(sph_surf.u, us), a, b,
                                      centers):
        pts = sph_surf.points[i]
        fu = sph_surf.fu[i]
        z_v = (pts - alpha * sph_surf.n[i]
               + beta * fu / np.linalg.norm(fu, axis=-1, keepdims=True))
        assert np.max(np.linalg.norm(z_v - center, axis=-1)) < 1e-6 * R
        fit_center, fit_radius = reparam.fit_sphere(pts)
        assert np.max(np.abs(center - fit_center)) < 1e-6 * R
        assert abs(np.hypot(alpha, beta) - fit_radius) < 1e-6 * R


def test_center_at_omega_is_origin(sph_surf, crit032):
    """alpha(omega) = 0, beta(omega) = R place the u = omega sphere at the
    origin: Z = f + R f_u/|f_u| with f_u/|f_u| = -f/R there."""
    from isoforge import surface
    R = crit032.R
    f = surface.fields_at(crit032, sph_surf.recipe.spec,
                          np.array([crit032.omega]), sph_surf.v, sph_surf.phi)
    unit_u = f["fu"][0] / np.linalg.norm(f["fu"][0], axis=-1, keepdims=True)
    z = f["points"][0] + R * unit_u
    assert np.max(np.linalg.norm(z, axis=-1)) < 1e-8 * abs(R)


def test_centers_collinear_and_cone_point(sph, sph_surf):
    alphas, centers = spherical.sphere_centers(sph_surf, sph)
    ratio, a_dir, b_point = spherical.collinearity(alphas, centers)
    assert ratio < 1e-6
    # the regression reproduces each center
    for alpha, center in zip(alphas, centers):
        line = alpha * a_dir + b_point
        assert np.max(np.abs(line - center)) < 1e-6

    assert spherical.cone_point(sph_surf, b_point) < 1e-7


def _monodromy_axis(spec, crit):
    return frame.monodromy(frame.integrate(spec, crit,
                                           period_nodes(spec)).phi[-1]).axis


def test_axis_closed_form(sph, sph_spec, sph_surf, crit032):
    """The coefficients square-sum to the closed form |Z'(omega)|^2, and the
    assembled vector has that norm and one direction at every v."""
    ax = spherical.axis(sph, sph_surf, _monodromy_axis(sph_spec, crit032))
    assert ax["axis_unit"] < 1e-9
    assert ax["axis_norm_sq"] < 1e-8
    _, _, _, assembled = spherical._axis_terms(sph, sph_surf)
    assert np.max(spherical.angle(assembled, assembled[0])) < 1e-7


def test_axis_z2_encodes_sqrt_q(sph, sph_spec, sph_surf, crit032):
    """|zeta2| carries the signed root: zeta2 delta s / R = sqrt(Q(s)) up
    to the sign of the branch."""
    R = crit032.R
    v, (_, zeta2, _), _, _ = spherical._axis_terms(sph, sph_surf)
    ws = np.asarray(sph_spec.w(v), dtype=float)
    for z2, w in zip(zeta2, ws):
        s = 1.0 / float(curve_form("exp_h", crit032.omega, float(w), crit032))
        q = max(float(np.polyval(q_coeffs(sph, crit032), s)), 0.0)
        got = abs(z2 * sph.delta * s / R)
        assert abs(got - np.sqrt(q)) < 1e-9 * max(1.0, np.sqrt(q))


def test_axis_parallel_to_monodromy(sph, sph_spec, sph_surf, crit032):
    ax = spherical.axis(sph, sph_surf, _monodromy_axis(sph_spec, crit032))
    assert ax["axis_vs_monodromy"] < 1e-6  # between lines: the sign is free


def _count_c1(monkeypatch):
    """The list of families elliptic.c1_at_critical is called with."""
    calls = []
    c1 = elliptic.c1_at_critical
    monkeypatch.setattr(elliptic, "c1_at_critical",
                        lambda crit: calls.append(crit) or c1(crit))
    return calls


def test_phis_are_one_theta_tensor_call(sph, crit032, monkeypatch):
    """The phi rows are closed forms in e^h at three w: one `theta_tensor`
    call each, no `coeffs` (U', U1', U2) and so no Lame constant, and no
    Magnus solve, on a freshly solved family too."""
    fresh = elliptic.solve_critical_omega(crit032.lattice)
    calls, tensors = _count_c1(monkeypatch), []

    def never(*args, **kwargs):
        raise AssertionError("the phi rows evaluated U', U1' or U2, or "
                             "solved an ODE")

    monkeypatch.setattr(elliptic, "coeffs", never)
    monkeypatch.setattr(frame, "_magnus_solve", never)
    tensor = curvefamily.theta_tensor
    monkeypatch.setattr(curvefamily, "theta_tensor",
                        lambda *a: tensors.append(a) or tensor(*a))
    for k in range(1, 3):
        spherical.integrate_phis(sph, fresh, [0.2, fresh.omega + 0.3])
        assert len(tensors) == k
    assert calls == []


def test_family_computes_lame_constant_once(sph, sph_surf, crit032,
                                            monkeypatch):
    """The PDE battery, the phi-system and the sphere centers of one
    freshly solved family compute C1 once together, and a second pass
    not at all."""
    calls = _count_c1(monkeypatch)
    fresh = elliptic.solve_critical_omega(crit032.lattice)
    surf = dataclasses.replace(sph_surf, recipe=dataclasses.replace(
        sph_surf.recipe, fam=fresh))
    for _ in range(2):
        pde_levels(surf, (4e-4, 8e-4))
        spherical.integrate_phis(sph, fresh, [0.2, 0.9])
        spherical.sphere_centers(surf, sph)
        assert len(calls) == 1


def test_angle_resolves_tiny_angles():
    """atan2(|a x b|, a . b) resolves 1e-10 rad, where arccos of the dot
    product of two unit vectors reads 0 or about 2e-8."""
    a = np.array([0.48, -0.6, 0.64])
    perp = np.cross(a, [0.0, 0.0, 1.0])
    perp /= np.linalg.norm(perp)
    b = np.cos(1e-10) * a + np.sin(1e-10) * perp
    assert abs(spherical.angle(a, b) - 1e-10) < 1e-14
    assert abs(spherical.angle(a, -b) - (np.pi - 1e-10)) < 1e-14
    both = spherical.angle(np.stack([a, a]), np.stack([b, perp]))
    assert np.allclose(both, [1e-10, np.pi / 2], rtol=1e-6, atol=0)


def _phi_oracle(sph, crit, us):
    """The 3x3 phi-system of the SphericalSpec sph solved by SciPy's DOP853
    from omega to each u."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    y0 = np.array([1.0, -(sph.s1 + sph.s2).real, (sph.s1 * sph.s2).real])
    y0 /= sph.delta

    def rhs(u, y):
        c = elliptic.coeffs(u, crit)
        return [-c.U1 * y[1], 2 * c.U * y[0] - 2 * c.U1 * y[2], c.U * y[1]]

    return np.array([solve_ivp(rhs, (crit.omega, u), y0, method="DOP853",
                               rtol=1e-13, atol=1e-14).y[:, -1] for u in us])


def test_phis_match_oracle_both_directions(sph, crit032):
    """sym2(M) phi(omega) equals the 3x3 system solved directly, on both
    sides of omega, for a conjugate-pair and a real-pair spec."""
    real_pair = reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9)
    us = np.array([-0.4, 0.03, 0.2, crit032.omega + 0.3, 1.0, 1.45])
    for spec in (sph, real_pair):
        got = spherical.integrate_phis(spec, crit032, us)
        want = _phi_oracle(spec, crit032, us)
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert np.max(err) <= 1e-10


def test_phis_match_a_fine_magnus_solve(sph, crit032):
    """The closed form agrees with the phi-system solved by SciPy's DOP853
    at rtol 1e-13 (`_phi_oracle`) to 1e-12 relative, on both sides of
    omega up to |u| = 1.5, for a conjugate-pair and a real-pair spec."""
    real_pair = reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9)
    us = np.array([-1.5, -0.8, -0.2, 0.03, crit032.omega, 0.6, 1.1, 1.5])
    for spec in (sph, real_pair):
        got = spherical.integrate_phis(spec, crit032, us)
        want = _phi_oracle(spec, crit032, us)
        err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
        assert np.max(err) <= 1e-12


_entry = st.floats(-3.0, 3.0)
_mat = st.tuples(_entry, _entry, _entry, _entry).map(
    lambda e: np.array(e).reshape(2, 2))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(a=_mat, b=_mat, U=_entry, U1=_entry)
def test_sym2_is_multiplicative_with_phi_derivative(a, b, U, U1):
    """sym2(AB) = sym2(A) sym2(B), and the derivative of sym2 at the
    identity maps X = [[0, -U1], [U, 0]] to the phi-system's matrix (sym2 is
    quadratic, so the central difference with step 1 is exact)."""
    scale = max(1.0, np.max(np.abs(a)) * np.max(np.abs(b))) ** 2
    prod = spherical.sym2(a) @ spherical.sym2(b)
    assert np.max(np.abs(spherical.sym2(a @ b) - prod)) <= 1e-13 * scale
    x = np.array([[0.0, -U1], [U, 0.0]])
    deriv = (spherical.sym2(np.eye(2) + x) - spherical.sym2(np.eye(2) - x)) / 2
    want = np.array([[0.0, -U1, 0.0], [2 * U, 0.0, -2 * U1], [0.0, U, 0.0]])
    assert np.max(np.abs(deriv - want)) <= 1e-14 * max(1.0, abs(U), abs(U1)) ** 2


def test_phis_refuse_u_past_the_pole(sph, crit032, monkeypatch):
    """theta2 vanishes at u = pi/2: a requested u at or past it raises
    PoleProximity before e^h or the coefficients are evaluated anywhere."""

    def never(*args, **kwargs):
        raise AssertionError("evaluated past the pole check")

    monkeypatch.setattr(curvefamily, "forms_at", never)
    monkeypatch.setattr(elliptic, "coeffs", never)
    monkeypatch.setattr(elliptic, "riccati_u_u1", never)
    for us in ([1.7], [0.5, np.pi / 2], [-1.6, 0.4], [np.nan]):
        with pytest.raises(PoleProximity, match="pole-free interval"):
            spherical.integrate_phis(sph, crit032, us)


def test_sphere_centers_batches_coefficients(sph, sph_surf, crit032,
                                            monkeypatch):
    """sphere_centers evaluates U, U1 at all its samples in one call, and
    needs neither `coeffs` (U', U1', U2) nor the Lame constant, on a
    freshly solved family too."""
    c1_calls, u_u1_calls = _count_c1(monkeypatch), []
    u_u1 = elliptic.riccati_u_u1
    monkeypatch.setattr(elliptic, "riccati_u_u1",
                        lambda u, crit: u_u1_calls.append(u) or u_u1(u, crit))

    def never(*args, **kwargs):
        raise AssertionError("sphere_centers evaluated U', U1' or U2")

    monkeypatch.setattr(elliptic, "coeffs", never)
    fresh = elliptic.solve_critical_omega(crit032.lattice)
    surf = dataclasses.replace(sph_surf, recipe=dataclasses.replace(
        sph_surf.recipe, fam=fresh))
    alphas, _ = spherical.sphere_centers(surf, sph)
    assert len(u_u1_calls) == 1
    assert np.shape(u_u1_calls[0]) == (len(alphas),)
    assert len(c1_calls) == 0


def test_cone_point_matches_a_loop_over_columns(sph, sph_surf):
    """The batched plane fit of cone_point equals one mean and one SVD per
    v-column, bit for bit."""
    _, _, b_point = spherical.collinearity(
        *spherical.sphere_centers(sph_surf, sph))
    worst = spherical.cone_point(sph_surf, b_point)
    ref = 0.0
    for j in range(sph_surf.points.shape[1]):
        pts = sph_surf.points[:, j, :]
        mean = np.mean(pts, axis=0)
        _, _, vt = np.linalg.svd(pts - mean, full_matrices=False)
        ref = max(ref, abs(float(np.dot(b_point - mean, vt[2]))))
    assert worst == ref and ref > 0
