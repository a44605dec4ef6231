"""Reparametrization specs: admissibility, s(w), spherical construction."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoforge import reparam
from isoforge.errors import (DegenerateFit, DomainW, NoOscillation,
                             SingularRoot, SpecInvalid)

from conftest import curve_form, q_coeffs

RNG = np.random.default_rng(23)


def test_analytic_admissible(lat032):
    spec = reparam.analytic(np.pi * lat032.lam, 0.3, 2 * np.pi)
    rep = reparam.validate(spec, lat032)
    assert rep.ok and not rep.flags
    wp = spec.planes(np.linspace(0.0, spec.period, 4001))[1]
    assert np.max(np.abs(wp)) <= 0.3 + 1e-12


def test_analytic_too_steep_flagged(lat032):
    spec = reparam.analytic(np.pi * lat032.lam, 2.0, 2 * np.pi)
    rep = reparam.validate(spec, lat032)
    assert not rep.ok
    assert any("w'" in f or "escapes" in f for f in rep.flags)


def test_constant_admissible_without_flags(lat032):
    """A constant w is admissible, and verify passes it: no flag."""
    spec = reparam.constant(np.pi * lat032.lam)
    rep = reparam.validate(spec, lat032)
    assert rep.ok and not rep.flags


def test_out_of_band_flagged(lat032):
    top = 2 * np.pi * lat032.lam
    spec = reparam.analytic(top, 0.2, 2 * np.pi)  # mean on the band edge
    rep = reparam.validate(spec, lat032)
    assert not rep.ok
    assert any("escapes" in f for f in rep.flags)


def test_s_of_w_matches_exp_minus_h(crit032):
    top = 2 * np.pi * crit032.lattice.lam
    for w in RNG.uniform(0.1 * top, 0.9 * top, 20):
        s = reparam.s_of_w(float(w), crit032)
        eh = curve_form("exp_h", crit032.omega, float(w), crit032)
        assert abs(s - 1.0 / eh) < 1e-10 * max(1.0, abs(s))


def test_s_of_w_satisfies_cubic(crit032):
    """s'(w)^2 = Q3(s) with s' by central differences."""
    cub = crit032.q3
    h = 1e-5
    top = 2 * np.pi * crit032.lattice.lam
    for w in (0.3 * top, 0.5 * top, 0.7 * top):
        s = reparam.s_of_w(w, crit032)
        sp = (reparam.s_of_w(w + h, crit032)
              - reparam.s_of_w(w - h, crit032)) / (2 * h)
        q3s = cub(s)
        assert abs(sp ** 2 - q3s) < 1e-8 * max(1.0, abs(q3s))


def test_w_of_s_iterates_are_those_of_s_of_w(crit032, monkeypatch):
    """The inversion computes s_of_w's constants once but keeps its value:
    at every Brent iterate, the function is s_of_w(w) - s exactly."""
    brentq = reparam.brentq
    seen = []

    def recording(f, a, b, **kwargs):
        def g(w):
            seen.append((w, f(w)))
            return seen[-1][1]
        return brentq(g, a, b, **kwargs)

    monkeypatch.setattr(reparam, "brentq", recording)
    for s in (0.7, 1.3, 4.0):
        seen.clear()
        w = reparam._w_of_s(s, crit032)
        assert len(seen) > 5 and w in [x for x, _ in seen]
        for x, fx in seen:
            assert fx == reparam.s_of_w(x, crit032) - s


def test_s_of_w_domain(crit032):
    with pytest.raises(DomainW):
        reparam.s_of_w(-0.1, crit032)
    with pytest.raises(DomainW):
        reparam.s_of_w(2 * np.pi * crit032.lattice.lam, crit032)


def test_s_of_w_monotone(crit032):
    top = 2 * np.pi * crit032.lattice.lam
    ws = np.linspace(0.05 * top, 0.95 * top, 40)
    ss = reparam.s_of_w(ws, crit032)
    assert np.all(np.diff(ss) > 0)


# ---------------------------------------------------------------------------
# spherical construction


def test_spherical_q_coefficient_identity(sph, crit032, monkeypatch):
    """Q's real coefficients equal -(s-s1)^2(s-s2)^2 + delta^2 Q3 at every
    s, and the turning points that build_spherical's knots start and end on
    are roots of Q."""
    coeffs = q_coeffs(sph, crit032)
    s = np.linspace(-1.0, 3.0, 41)
    want = (-((s - sph.s1) * (s - sph.s2)) ** 2
            + sph.delta ** 2 * crit032.q3(s))
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(np.polyval(coeffs, s) - want)) < 1e-12 * scale
    _, (_, (s_knots, _), _) = _recorded_spherical(sph, crit032, monkeypatch)
    ends = np.polyval(coeffs, s_knots[[0, -1]])
    assert np.max(np.abs(ends)) < 1e-12 * max(1.0, np.max(np.abs(coeffs)))


def test_spherical_passes_validation(sph_spec, lat032):
    rep = reparam.validate(sph_spec, lat032)
    assert rep.ok, rep.flags
    assert rep.root_residual < 1e-8


def test_spherical_periodicity(sph_spec):
    vs = np.linspace(0.0, sph_spec.period, 101)
    a = np.asarray(sph_spec.w(vs))
    b = np.asarray(sph_spec.w(vs + sph_spec.period))
    assert np.max(np.abs(a - b)) < 1e-9
    # half-period mirror symmetry w(V - v) = w(v)
    c = np.asarray(sph_spec.w(sph_spec.period - vs))
    assert np.max(np.abs(a - c)) < 1e-9


def test_spherical_wprime_vs_fd(sph_spec):
    """The recorded derivative matches finite differences of w(v)."""
    h = 1e-6
    for v in RNG.uniform(0.05, 0.95, 8) * sph_spec.period:
        fd = (float(sph_spec.w(v + h)) - float(sph_spec.w(v - h))) / (2 * h)
        assert abs(fd - float(sph_spec.planes(v)[1])) < 1e-6


def test_spherical_composite_derivative(sph, sph_spec, crit032):
    """w'(v) = w'(s) s'(v) = sqrt(Q)/ (|delta| sqrt(Q3)) on the s-track."""
    cub = crit032.q3
    for v in RNG.uniform(0.02, 0.48, 6) * sph_spec.period:
        s = float(reparam.s_of_w(sph_spec.w(v), crit032))
        want = (np.sqrt(max(np.polyval(q_coeffs(sph, crit032), s), 0.0))
                / (abs(sph.delta) * np.sqrt(float(cub(s)))))
        assert abs(float(sph_spec.planes(v)[1]) - want) < 1e-9


def test_spherical_signed_root_consistent(sph_spec):
    vs = np.linspace(0.0, sph_spec.period, 500)
    _, wp, root = sph_spec.planes(vs)
    assert np.max(np.abs(1.0 - wp ** 2 - root ** 2)) < 1e-8


def test_spherical_real_pair_root_changes_sign(crit032):
    """A real-pair spec whose oscillation interval crosses s1 or s2 has a
    sign-changing root; the recorded branch is the smooth one."""
    spec = reparam.build_spherical(
        reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9), crit032)
    vs = np.linspace(0.0, spec.period, 2000)
    root = spec.planes(vs)[2]
    assert np.min(root) < 0 < np.max(root)
    rep = reparam.validate(spec, crit032.lattice)
    assert rep.ok, rep.flags


def test_spherical_endpoint_consistency(sph, crit032, monkeypatch):
    """Accumulated w at the top turning point matches direct inversion."""
    spec, (_, (s_knots, _), _) = _recorded_spherical(sph, crit032,
                                                     monkeypatch)
    w_b = reparam._w_of_s(s_knots[-1], crit032)
    assert abs(spec.w(spec.period / 2) - w_b) < 1e-7


def test_spherical_rejects_bad_specs(crit032):
    with pytest.raises(SpecInvalid):
        reparam.build_spherical(
            reparam.SphericalSpec(delta=0.0, s1=0.5, s2=0.9), crit032)
    with pytest.raises(SpecInvalid):
        reparam.build_spherical(
            reparam.SphericalSpec(delta=0.4, s1=0.5 + 0.3j, s2=0.7 + 0.3j),
            crit032)
    # s1 = s2 and a tiny delta: Q's roots next to s1 are almost double
    with pytest.raises(SingularRoot,
                       match="root of Q at s = 0.598999 is not simple"):
        reparam.build_spherical(
            reparam.SphericalSpec(delta=1e-6, s1=0.6, s2=0.6), crit032)


def test_spherical_no_oscillation_for_tiny_delta(crit032):
    """delta -> 0 makes Q -> -(s-s1)^2(s-s2)^2 <= 0: no interval survives."""
    with pytest.raises(NoOscillation):
        reparam.build_spherical(
            reparam.SphericalSpec(delta=1e-6, s1=0.45 + 0.25j,
                                  s2=0.45 - 0.25j), crit032)


# ---------------------------------------------------------------------------
# sphere fitting and the geometric certificate


def test_fit_sphere_recovers_synthetic():
    center = np.array([0.3, -1.2, 2.0])
    radius = 1.7
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = center + radius * dirs
    c, r = reparam.fit_sphere(pts)
    assert np.max(np.abs(c - center)) < 1e-10
    assert abs(r - radius) < 1e-10


def test_fit_sphere_refuses_coplanar_points():
    """Points on a circle in a tilted plane lie on a pencil of spheres: the
    least-squares system has rank 3, and no sphere is fitted."""
    t = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    x, y = np.cos(t), np.sin(t)
    pts = np.stack([x, y, 0.3 * x - 0.2 * y + 1.0], axis=1)
    with pytest.raises(DegenerateFit, match="too flat"):
        reparam.fit_sphere(pts)


def test_sphericality_certificate_positive(sph_surf):
    cert = reparam.sphericality_certificate(sph_surf)
    assert cert["sphere_fit"] < 1e-6
    assert cert["sphere_angle"] < 1e-7


def test_sphericality_certificate_negative_control(torus_surf):
    """A generic analytic reparametrization has non-spherical v-curves."""
    cert = reparam.sphericality_certificate(torus_surf)
    assert not (cert["sphere_fit"] < 1e-6 and cert["sphere_angle"] < 1e-5)
    assert cert["sphere_fit"] > 1e-3


# ---------------------------------------------------------------------------
# cubic Hermite evaluator against SciPy


def _random_knots(rng, n):
    x = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    return x, rng.normal(size=n), rng.normal(size=n) * 5


def test_cubic_hermite_matches_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(11)
    for n in (2, 3, 50, 1601):
        x, y, d = _random_knots(rng, n)
        ours = reparam.cubic_hermite(x, y, d)
        theirs = interpolate.CubicHermiteSpline(x, y, d)
        inside = rng.uniform(x[0], x[-1], 4000)
        outside = np.concatenate([x[0] - rng.uniform(0, 1, 50),
                                  x[-1] + rng.uniform(0, 1, 50)])
        for q in (inside, outside, x, inside.reshape(40, 100)):
            assert np.array_equal(ours(q), theirs(q))
        for q in (x[0], x[-1], float(inside[0])):
            assert np.ndim(ours(q)) == 0
            assert ours(q) == theirs(q)


def test_spherical_splines_match_scipy(sph, crit032, monkeypatch):
    """build_spherical's two interpolants (one cubic_hermite on the knots
    of both) equal CubicHermiteSpline on the same knot data, at the fold
    points 0 and V/2 and in between."""
    interpolate = pytest.importorskip("scipy.interpolate")
    spec, (x, (sy, wy), (sd, wd)) = _recorded_spherical(sph, crit032,
                                                        monkeypatch)
    s_ref = interpolate.CubicHermiteSpline(x, sy, sd)
    w_ref = interpolate.CubicHermiteSpline(x, wy, wd)
    half = spec.period / 2
    assert x[0] == 0.0 and x[-1] == half
    v = np.concatenate([[0.0, half], RNG.uniform(0.0, half, 500)])
    assert np.array_equal(spec.w(v), w_ref(v))
    assert spec.w(half) == w_ref(half) and spec.w(0.0) == w_ref(0.0)
    # s(v), clipped to the turning points, through the signed root
    s_v = np.clip(s_ref(v), sy[0], sy[-1])
    pair = np.array([1.0, -(sph.s1 + sph.s2).real, (sph.s1 * sph.s2).real])
    root = np.polyval(pair, s_v) / (sph.delta * np.sqrt(crit032.q3(s_v)))
    assert np.array_equal(spec.planes(v)[2], root)


def test_cubic_hermite_rows_equal_each_row_alone():
    """Curves stacked on one set of knots share a knot search and give
    each curve's own values bit for bit, for scalars and arrays."""
    rng = np.random.default_rng(12)
    for n in (2, 5, 1601):
        x, y, d = _random_knots(rng, n)
        y2, d2 = rng.normal(size=n), rng.normal(size=n) * 5
        both = reparam.cubic_hermite(x, [y, y2], [d, d2])
        q = np.concatenate([rng.uniform(x[0] - 1, x[-1] + 1, 300), x[[0, -1]]])
        for xq in (q, q.reshape(2, -1), x[0], float(q[7])):
            got = both(xq)
            assert got.shape == (2,) + np.shape(xq)
            assert np.array_equal(got[0], reparam.cubic_hermite(x, y, d)(xq))
            assert np.array_equal(got[1], reparam.cubic_hermite(x, y2, d2)(xq))


def _recorded_spherical(sph, crit, monkeypatch):
    """build_spherical(sph, crit) and the knot data it gave cubic_hermite."""
    data = []
    cubic_hermite = reparam.cubic_hermite

    def recording(x, y, dydx):
        data.append((x, y, dydx))
        return cubic_hermite(x, y, dydx)

    monkeypatch.setattr(reparam, "cubic_hermite", recording)
    spec = reparam.build_spherical(sph, crit)
    monkeypatch.undo()
    (knots,) = data
    return spec, knots


def _closure_oracles(spec, sph, crit, knots):
    """w, wprime and signed_root as build_spherical made them before the
    spec had one evaluator: three closures, each folding v and searching
    the knots on its own, with s and w on separate splines."""
    x, (s_y, w_y), (s_d, w_d) = knots
    s_spline = reparam.cubic_hermite(x, s_y, s_d)
    w_spline = reparam.cubic_hermite(x, w_y, w_d)
    s_a, s_b = s_y[0], s_y[-1]
    delta, cub, period, half = float(sph.delta), crit.q3, spec.period, x[-1]
    s1, s2 = complex(sph.s1), complex(sph.s2)
    pair = np.array([1.0, -(s1 + s2).real, (s1 * s2).real])
    quot = np.polydiv(q_coeffs(sph, crit),
                      np.polymul([1.0, -s_a], [-1.0, s_b]))[0]

    def q_of(s):
        return (np.clip(s - s_a, 0.0, None) * np.clip(s_b - s, 0.0, None)
                * np.polyval(quot, s))

    def fold(v):
        vv = np.mod(np.asarray(v, dtype=float), period)
        mirrored = vv > half
        return np.where(mirrored, period - vv, vv), mirrored

    def s_of(v):
        return np.clip(s_spline(fold(v)[0]), s_a, s_b)

    def w(v):
        out = w_spline(fold(v)[0])
        return float(out) if np.isscalar(v) else out

    def wprime(v):
        s = s_of(v)
        mag = np.sqrt(q_of(s)) / (abs(delta) * np.sqrt(cub(s)))
        out = np.where(fold(v)[1], -mag, mag)
        return float(out) if np.isscalar(v) else out

    def signed_root(v):
        s = s_of(v)
        out = np.polyval(pair, s) / (delta * np.sqrt(cub(s)))
        return float(out) if np.isscalar(v) else out

    return w, wprime, signed_root


def _probe_vs(period, rng):
    """Scalars and arrays of v: the fold points, the mirrored half, v past
    one period and below zero."""
    half = period / 2
    inside = rng.uniform(0.0, period, 400)
    arrays = [inside, rng.uniform(half, period, 100),
              inside + 3 * period, -inside, inside.reshape(20, 20),
              np.array([0.0, half, period, 2 * period])]
    scalars = [0.0, half, period, 1.3 * period, -0.2 * period,
               float(inside[0]), np.float64(inside[1]), 7, np.array(0.4 * period)]
    return arrays, scalars


@pytest.mark.parametrize("s1, s2, delta", [(0.45 + 0.25j, 0.45 - 0.25j, 0.5),
                                           (0.5, 0.9, 0.4)])
def test_spherical_planes_match_the_per_quantity_closures(crit032, monkeypatch,
                                                          s1, s2, delta):
    """planes(v) gives w, w' and the signed root bit for bit as the three
    closures that each folded v and searched the knots did, with the same
    types (a float for a number), on a conjugate and a real pair."""
    sph = reparam.SphericalSpec(delta=delta, s1=s1, s2=s2)
    spec, knots = _recorded_spherical(sph, crit032, monkeypatch)
    oracles = _closure_oracles(spec, sph, crit032, knots)
    arrays, scalars = _probe_vs(spec.period, np.random.default_rng(5))
    for v in arrays + scalars:
        got = spec.planes(v)
        for value, oracle in zip(got, oracles):
            want = oracle(v)
            assert type(value) is type(want)
            assert np.shape(value) == np.shape(want)
            assert np.array_equal(value, want)
        assert np.array_equal(spec.w(v), got[0])


def test_analytic_planes_match_the_per_quantity_closures():
    """The analytic planes take sin and cos once and equal the closures
    w, w' and sqrt(clip(1 - w'^2)) bit for bit."""
    mean, amp, period = 1.0053, 0.35, 6.0
    spec = reparam.analytic(mean, amp, period)
    freq = 2 * np.pi / period

    def w(v):
        return mean + amp * np.sin(freq * np.asarray(v, dtype=float))

    def wprime(v):
        return amp * freq * np.cos(freq * np.asarray(v, dtype=float))

    def signed_root(v):
        return np.sqrt(np.clip(1.0 - wprime(v) ** 2, 0.0, None))

    arrays, scalars = _probe_vs(period, np.random.default_rng(6))
    for v in arrays + scalars:
        for value, oracle in zip(spec.planes(v), (w, wprime, signed_root)):
            want = oracle(v)
            assert type(value) is type(want)
            assert np.array_equal(value, want)


def test_coarse_samples_are_every_other_fine_sample():
    """np.linspace(0, V, 2001) is np.linspace(0, V, 4001)[::2] bit for bit,
    which the one-evaluation validation pair relies on."""
    rng = np.random.default_rng(17)
    periods = np.concatenate([rng.uniform(0.1, 50.0, 2000),
                              np.exp(rng.uniform(-20, 20, 2000)),
                              [1.0, 2 * np.pi, 6.0, 1e-300, 1e300]])
    for period in periods:
        assert np.array_equal(np.linspace(0.0, period, 2001),
                              np.linspace(0.0, period, 4001)[::2])


@pytest.mark.parametrize("which", ["analytic", "constant", "conjugate",
                                   "real", "steep"])
def test_validate_pair_equals_two_calls(crit032, lat032, which, monkeypatch):
    """validate(..., n=4001) evaluates the spec once, and its report
    carries root_dd2 on every other sample, bit for bit the root_dd2 of
    the separate call at n = 2001 (the battery's coarse level)."""
    band = 2 * np.pi * lat032.lam
    spec = {
        "analytic": lambda: reparam.analytic(band / 2, 0.3, 5.0),
        "constant": lambda: reparam.constant(band / 2),
        "conjugate": lambda: reparam.build_spherical(reparam.SphericalSpec(
            delta=0.5, s1=0.45 + 0.25j, s2=0.45 - 0.25j), crit032),
        "real": lambda: reparam.build_spherical(reparam.SphericalSpec(
            delta=0.4, s1=0.5, s2=0.9), crit032),
        "steep": lambda: reparam.analytic(band / 2, 2.0, 2 * np.pi),
    }[which]()
    sizes = []

    def planes(v, _planes=spec.planes):
        sizes.append(np.size(v))
        return _planes(v)
    fine = reparam.validate(dataclasses.replace(spec, planes=planes), lat032,
                            n=4001)
    assert sizes == [4001]
    coarse = reparam.validate(spec, lat032, n=2001)
    assert fine.root_dd2_coarse == coarse.root_dd2
    assert fine == reparam.validate(spec, lat032, n=4001)


def _numpy_turning_points(qcoef, s_floor):
    """The oscillation interval of build_spherical as it found it with
    numpy: the real roots of Q polished by three array Newton steps with
    np.polyval and np.polyder, and the first interval with Q > 0 at its
    midpoint above the real root of Q3."""
    roots = np.roots(qcoef)
    rr = np.sort(np.array(
        [r.real for r in roots if abs(r.imag) < 1e-7 * max(1.0, abs(r))]))
    dq = np.polyder(qcoef)
    for _ in range(3):
        rr = rr - np.polyval(qcoef, rr) / np.polyval(dq, rr)
    for a, b in zip(rr[:-1], rr[1:]):
        if b - a >= 1e-10 and np.polyval(qcoef, 0.5 * (a + b)) > 0 \
                and a > s_floor + 1e-8:
            return float(a), float(b)
    raise AssertionError("no oscillation interval")


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(0.4, 0.6), a=st.floats(0.35, 0.55),
       b=st.floats(0.15, 0.35))
def test_spherical_python_float_steps_equal_numpys(crit032, delta, a, b):
    """Over the spherical benchmark's (delta, a, b) box, s1 = conj(s2) =
    a + bi on lambda 0.32: build_spherical's Python-float root polishing
    gives numpy's turning points, its quotient and remainder are
    np.polydiv's (which drops a leading remainder coefficient up to 1e-8),
    and _polyval on arrays is np.polyval, all bit for bit; the knots are
    those of the two-pass quadrature."""
    sph = reparam.SphericalSpec(delta=delta, s1=complex(a, b),
                                s2=complex(a, -b))
    seen, knots = [], []
    with pytest.MonkeyPatch.context() as mp:
        quotient, hermite = reparam._quotient, reparam.cubic_hermite
        mp.setattr(reparam, "_quotient",
                   lambda *args: seen.append(args) or quotient(*args))
        mp.setattr(reparam, "cubic_hermite",
                   lambda *args: knots.append(args) or hermite(*args))
        reparam.build_spherical(sph, crit032)
    ((q, s_a, s_b),), ((v_edges, (s_edges, w_edges), _),) = seen, knots
    qcoef = q_coeffs(sph, crit032)
    assert q == qcoef.tolist()
    s_floor = [r.real for r in crit032.q3.roots if abs(r.imag) < 1e-9][0]
    assert (s_a, s_b) == _numpy_turning_points(qcoef, s_floor)

    quot, rem = reparam._quotient(q, s_a, s_b)
    want_quot, want_rem = np.polydiv(qcoef, np.polymul([1.0, -s_a],
                                                       [-1.0, s_b]))
    assert quot == want_quot.tolist()
    assert rem[len(rem) - len(want_rem):] == want_rem.tolist()
    assert all(abs(r) <= 1e-8 for r in rem[:len(rem) - len(want_rem)])
    s = np.concatenate([np.linspace(s_a, s_b, 257),
                        np.random.default_rng(3).uniform(s_a, s_b, 256)])
    assert np.array_equal(reparam._polyval(quot, s), np.polyval(want_quot, s))
    assert np.array_equal(reparam._polyval(q, s), np.polyval(qcoef, s))

    # the quadrature as two passes, each forming s(theta) at the nodes
    edges = np.linspace(0.0, np.pi / 2, 1601)
    nodes, weights = reparam.gauss_legendre(5)

    def cumulative(g):
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        pts = mid[:, None] + half[:, None] * nodes[None, :]
        return np.concatenate([[0.0], np.cumsum(half * (g(pts) @ weights))])

    def s_of(th):
        return s_a + (s_b - s_a) * np.sin(th) ** 2

    assert np.array_equal(v_edges, cumulative(
        lambda th: 2 * abs(delta) / np.sqrt(np.polyval(want_quot, s_of(th)))))
    assert np.array_equal(w_edges, w_edges[0] + cumulative(
        lambda th: (s_b - s_a) * np.sin(2 * th)
        / np.sqrt(crit032.q3(s_of(th)))))
    assert np.array_equal(s_edges, s_of(edges))
