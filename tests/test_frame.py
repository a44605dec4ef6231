"""Frame integration on unit quaternions, monodromy, rotational extension."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoforge import curvefamily, frame, quat, reparam
from isoforge.errors import (DegenerateRotation, DomainW, InvalidLattice,
                             NoBracket, SpecInvalid, StepFailure)

from conftest import period_nodes
from test_quat import stacked_cross


def test_constant_coefficient_closed_form(crit032):
    """For constant w the generator is a fixed imaginary quaternion A and
    Phi(v) = exp(v A) = cos(|A| v) + sin(|A| v) A/|A|."""
    w0 = np.pi * crit032.lattice.lam
    spec = reparam.constant(w0, period=2.0)
    traj = frame.integrate(spec, crit032, period_nodes(spec, n=16))
    W1 = curvefamily.w1(w0, crit032)
    a_vec = np.array([0.0, 0.0, -W1.imag, W1.real])  # root = 1
    mag = np.linalg.norm(a_vec)
    for v, phi in zip(traj.v, traj.phi):
        want = np.concatenate([[np.cos(mag * v)],
                               np.sin(mag * v) * a_vec[1:] / mag])
        assert np.max(np.abs(phi - want)) < 1e-10


def test_generator_in_jk_plane(crit032, torus_spec):
    a_of_v = frame.generator(torus_spec, crit032)
    for v in np.linspace(0, torus_spec.period, 13):
        a = a_of_v(float(v))
        assert abs(a[0]) < 1e-14 and abs(a[1]) < 1e-14


def test_unit_norm_preserved(crit032, torus_spec):
    traj = frame.integrate(torus_spec, crit032, period_nodes(torus_spec))
    norms = np.linalg.norm(traj.phi, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert traj.stats["prenorm_drift"] < 1e-8
    assert np.allclose(traj.phi[0], [1, 0, 0, 0])


def test_generator_accepts_arrays(crit032, torus_spec):
    a_of_v = frame.generator(torus_spec, crit032)
    vs = np.linspace(0, torus_spec.period, 12).reshape(3, 4)
    batch = a_of_v(vs)
    assert batch.shape == (3, 4, 4)
    for v, a in zip(vs.ravel(), batch.reshape(-1, 4)):
        assert np.allclose(a, a_of_v(float(v)), rtol=1e-13, atol=0)


def test_w1_array_matches_scalar(crit032, torus_spec):
    """w1 on an array of w is the scalar w1 at each point, to 1e-13."""
    vs = np.linspace(0.0, torus_spec.period, 257)
    ws = np.asarray(torus_spec.w(vs))
    batch = curvefamily.w1(ws, crit032)
    assert batch.shape == ws.shape
    for w, val in zip(ws, batch):
        direct = curvefamily.w1(float(w), crit032)
        assert isinstance(direct, complex)
        assert abs(val - direct) <= 1e-13 * abs(direct)


def test_w1_array_checks_every_point(crit032):
    band = 2 * np.pi * crit032.lattice.lam
    with pytest.raises(DomainW):
        curvefamily.w1(np.array([0.5, band + 0.1, 1.0]), crit032)
    with pytest.raises(DomainW):
        curvefamily.w1(np.array([0.5, np.nan]), crit032)


def test_integrate_stats_keys(crit032, torus_spec):
    """The stats that reports and the benchmark tracer read."""
    stats = frame.integrate(torus_spec, crit032,
                            period_nodes(torus_spec)).stats
    assert set(stats) == {"n_steps", "n_rejected", "err_est", "prenorm_drift"}
    assert isinstance(stats["n_steps"], int) and stats["n_steps"] >= 128
    assert isinstance(stats["n_rejected"], int) and stats["n_rejected"] >= 0
    assert 0.0 < stats["err_est"] <= 1e-12
    assert 0.0 <= stats["prenorm_drift"] < 1e-13


def test_err_est_within_step_tol(crit032, torus_spec, sph_spec):
    for spec in (torus_spec, sph_spec):
        for tol in (1e-6, 1e-10, 1e-13):
            stats = frame.integrate(spec, crit032, period_nodes(spec),
                                    step_tol=tol).stats
            assert stats["err_est"] <= tol


def test_magnus_local_error_is_seventh_order(crit032, torus_spec):
    """One-step error estimate |E_h - E_{h/2} E_{h/2}| shrinks by 2^7 when
    h halves (sixth-order method); 2^6.5 leaves room for the next term."""
    a_of_v = frame.generator(torus_spec, crit032)
    V = torus_spec.period
    starts = np.linspace(0.0, V, 7)[:-1]
    errs = []
    for h in (V / 16, V / 32):
        g = a_of_v(starts[:, None] + h * frame._NODES)[..., 1:]
        _, err = frame._propagators(g, np.full(len(starts), h))
        errs.append(err)
    assert np.all(errs[1] > 1e-12)  # above roundoff
    assert np.all(errs[0] / errs[1] >= 2 ** 6.5)


def _bump_generator(p, q, c):
    """A(v): an imaginary quaternion (..., 3) with a steep bump at v = c;
    elementwise in v, so any batching gives the same A."""

    def gen(v):
        bump = np.exp(-((v - c) / 0.05) ** 2)
        return np.stack([p * np.sin(v), q + 8 * bump, -q * np.cos(2 * v)],
                        axis=-1)

    return gen


def test_bump_systems_have_rejections():
    """The bump of `_bump_generator` makes the step control split steps,
    so the tests below exercise refined solves."""
    _, stats, _ = frame._magnus_solve(_bump_generator(1.0, 0.5, 1.0),
                                      np.linspace(0.0, 2.0, 9), 0.25, 1e-11)
    assert stats["n_rejected"] > 0


def test_extra_nodes_leave_the_grid_frame_unchanged(crit032, torus_spec):
    """The steps are laid from h0 alone, so three nodes more move no bit
    of the frame on a 128-per-period grid; the frame at the extra nodes is
    what `at` reads from the grid's solve."""
    grid = period_nodes(torus_spec, n=128)
    extra = np.array([0.1234, 2.5, 5.99]) * torus_spec.period / 6.0
    both = np.unique(np.concatenate([grid, extra]))
    alone = frame.integrate(torus_spec, crit032, grid, step_tol=1e-13)
    more = frame.integrate(torus_spec, crit032, both, step_tol=1e-13)
    assert np.array_equal(more.phi[np.isin(both, grid)], alone.phi)
    assert np.array_equal(more.phi[np.isin(both, extra)], alone.at(extra))
    assert more.stats["n_steps"] == alone.stats["n_steps"] == 128


def test_frame_at_off_step_v_matches_a_finer_solve(crit032, torus_spec,
                                                   sph_spec):
    """Phi read off the steps, by one partial step each, agrees with a
    solve on 32 times shorter steps to 1e-12, at random v and in any
    array shape."""
    rng = np.random.default_rng(11)
    for spec in (torus_spec, sph_spec):
        V = spec.period
        traj = frame.integrate(spec, crit032, period_nodes(spec, n=8))
        v = rng.uniform(0.0, V, (5, 8))
        got = traj.at(v)
        assert got.shape == (5, 8, 4)
        a_of_v = frame.generator(spec, crit032)
        nodes = np.concatenate([[0.0], np.sort(v.ravel()), [V]])
        ref, _, _ = frame._magnus_solve(lambda vv: a_of_v(vv)[..., 1:],
                                        nodes, V / 4096, 1e-13)
        want = ref[1:-1][np.argsort(np.argsort(v.ravel()))].reshape(got.shape)
        assert np.max(np.abs(got - want)) < 1e-12


def test_err_est_covers_the_partial_steps(crit032, torus_spec, sph_spec):
    """The estimates of the partial steps (each full step against its two
    halves) to a solve's nodes, and to the v that `at` reads, are folded
    into its err_est.  On the spline-built real-pair spec at step_tol 1e-13
    a partial step's estimate exceeds every accepted step's."""
    real_pair = reparam.build_spherical(
        reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9), crit032)
    rng = np.random.default_rng(3)
    over = []
    for spec, tol in ((torus_spec, 1e-12), (sph_spec, 1e-12),
                      (real_pair, 1e-13)):
        on_steps = frame.integrate(spec, crit032, period_nodes(spec, n=128),
                                   step_tol=tol)
        accepted = on_steps.stats["err_est"]
        v = rng.uniform(0.0, spec.period, 200)
        _, err = frame._evaluate(on_steps.steps, v)
        assert len(err) == 200 and np.all(err > 0)
        over.append(np.max(err) > accepted)
        nodes = np.concatenate([[0.0], np.sort(v), [spec.period]])
        off = frame.integrate(spec, crit032, nodes, step_tol=tol)
        assert off.stats["err_est"] == max(accepted, np.max(err))
        on_steps.at(v)
        assert on_steps.stats["err_est"] == off.stats["err_est"]
    assert over[-1]


def test_frame_at_refuses_v_outside_its_solve(crit032, torus_spec):
    traj = frame.integrate(torus_spec, crit032, period_nodes(torus_spec))
    for v in (-1e-9, torus_spec.period * (1 + 1e-12), np.nan):
        with pytest.raises(ValueError, match="outside the solved interval"):
            traj.at(np.array([1.0, v]))


def test_one_generator_call_per_round(monkeypatch):
    """Each round evaluates its steps in one generator call.  The steps of
    a round after the first are dyadic parts of h0: each step rejected in
    the round before is split, in order, into 2^k equal parts that tile
    it."""
    h0 = 0.25
    gen = _bump_generator(1.0, 0.5, 1.0)
    calls, rounds = [], []
    round_ = frame._round

    def counted(v):
        calls.append(len(v))
        return gen(v)

    def recorded(g, a, b):
        rounds.append((a, b))
        return round_(g, a, b)

    monkeypatch.setattr(frame, "_round", recorded)
    _, stats, steps = frame._magnus_solve(
        counted, np.arange(0.0, 2.0 + h0 / 2, h0), h0, 1e-11)
    assert len(rounds) >= 3 and len(calls) == len(rounds)
    ends = steps[1]
    accepted = set(zip(ends[:-1], ends[1:]))
    for (a0, b0), (a1, b1) in zip(rounds, rounds[1:]):
        rel = (b1 - a1) / h0
        assert np.allclose(rel, 2.0 ** np.round(np.log2(rel)), rtol=1e-9)
        at = 0
        for lo, hi in zip(a0, b0):
            if (lo, hi) in accepted:
                continue
            n = np.searchsorted(b1, hi, "right") - at
            assert n >= 2 and n & (n - 1) == 0
            part = slice(at, at + n)
            assert a1[at] == lo and b1[at + n - 1] == hi
            assert np.array_equal(a1[part][1:], b1[part][:-1])
            assert np.allclose(b1[part] - a1[part], (hi - lo) / n,
                               rtol=1e-12, atol=0)
            at += n
        assert at == len(a1)
    assert sum(calls) == stats["n_steps"] + stats["n_rejected"]


def test_spherical_frame_takes_two_rounds(crit032, sph_spec, monkeypatch):
    """A rejected step is split by its estimate, not halved: the frame of
    sph_spec, from its 128 first steps per period, takes at most two
    generator calls before the partial-step round to the nodes of a 48 x 48
    surface, which is one call more."""
    calls, before = [], []
    w1, evaluate = curvefamily.w1, frame._evaluate
    monkeypatch.setattr(curvefamily, "w1",
                        lambda *a: calls.append(1) or w1(*a))
    monkeypatch.setattr(frame, "_evaluate",
                        lambda *a: before.append(len(calls)) or evaluate(*a))
    frame.integrate(sph_spec, crit032, period_nodes(sph_spec, n=48))
    assert before[0] <= 2 and len(calls) == before[0] + 1


def test_points_per_generator_call_are_bounded():
    """A solve of 10^5 steps passes at most _MAX_POINTS points to any
    generator call."""
    sizes = []
    gen = _bump_generator(0.3, 0.2, 5.0)

    def counted(v):
        sizes.append(v.size)
        return gen(v)

    nodes = np.linspace(0.0, 1.0, 10 ** 5 + 1)
    y, stats, _ = frame._magnus_solve(counted, nodes, 1e-5, 1e-10)
    assert y.shape == (len(nodes), 4)
    assert stats["n_steps"] == 10 ** 5
    assert len(sizes) > 1 and max(sizes) <= frame._MAX_POINTS
    assert sum(sizes) == 9 * 10 ** 5


def test_stacked_propagators_match_three_calls():
    """The full step and both halves stacked into one `_magnus6` call give
    the propagators and error estimates of three separate calls."""
    rng = np.random.default_rng(5)
    g = rng.normal(size=(40, 9, 3))
    h = rng.uniform(0.01, 0.3, 40)
    full = frame._magnus6(g[:, 0:3], h)
    two = quat.qmul(frame._magnus6(g[:, 6:9], h / 2),
                    frame._magnus6(g[:, 3:6], h / 2))
    e, err = frame._propagators(g, h)
    assert np.array_equal(e, two)
    assert np.array_equal(err, np.max(np.abs(full - two), axis=1))


def _stacked_magnus6(a, h):
    """`frame._magnus6` as it was written: |Omega| by np.linalg.norm, the
    commutators by the stacked cross product."""
    a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2]
    h = h[:, None]
    b1 = h * a2
    b2 = np.sqrt(15.0) / 3 * h * (a3 - a1)
    b3 = 10.0 / 3 * h * (a3 - 2 * a2 + a1)
    c1 = 2 * stacked_cross(b1, b2)
    c2 = -2 * stacked_cross(b1, 2 * b3 + c1) / 60
    om = b1 + b3 / 12 + 2 * stacked_cross(-20 * b1 - b3 + c1, b2 + c2) / 240
    ang = np.linalg.norm(om, axis=-1)
    return np.concatenate([np.cos(ang)[:, None],
                           np.sinc(ang / np.pi)[:, None] * om], axis=-1)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 300), scale=st.sampled_from([1e-3, 1.0, 30.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_magnus6_equals_its_stacked_form(n, scale, seed):
    """`_magnus6`, with |Omega| as the plane sum of surface._norm, equals
    its np.linalg.norm and np.stack form bit for bit, exact zeros
    included."""
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(n, 3, 3))
    a[rng.random(a.shape) < 0.2] = 0.0
    h = rng.uniform(0.0, 0.3, n)
    assert np.array_equal(frame._magnus6(a, h), _stacked_magnus6(a, h))


@pytest.mark.parametrize("which", ["torus", "spherical"])
def test_generator_equals_its_stacked_form(torus_spec, sph_spec, crit032,
                                           which):
    """frame.generator fills its (..., 4) array directly: the values of
    the np.stack of (0, 0, -root Im W1, root Re W1), on arrays and
    scalars."""
    spec = torus_spec if which == "torus" else sph_spec
    gen = frame.generator(spec, crit032)
    rng = np.random.default_rng(7)
    for v in (rng.uniform(0.0, spec.period, (5, 9)),
              np.linspace(0.0, spec.period, 33), 0.37 * spec.period):
        w, _, root = spec.planes(np.asarray(v, dtype=float))
        W1 = curvefamily.w1(w, crit032)
        root = np.asarray(root, dtype=float)
        zero = np.zeros(np.shape(root))
        want = np.stack([zero, zero, -root * np.imag(W1),
                         root * np.real(W1)], axis=-1)
        got = gen(v)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _failure(gen, step_tol):
    with pytest.raises(StepFailure) as info:
        frame._magnus_solve(gen, np.linspace(0.0, 2.0, 5), 0.5, step_tol)
    return str(info.value)


def test_failing_system_names_its_step(monkeypatch):
    """A solve fails on the first step whose A is not finite, whichever
    generator call holds it; on a rejected step whose parts fall under the
    floor (1e-13 of the span), naming the one with the shortest; and on
    more pending steps than _MAX_GROWTH per initial step."""
    gen = _bump_generator(0.3, 0.2, 1.0)

    def nan_late(v):
        a = gen(v)
        a[v > 1.0] = np.nan
        return a

    assert _failure(nan_late, 1e-11).startswith("non-finite generator on [1.0")

    def singular(v):
        # |A| grows as |v - c|^(-1/2) towards a non-dyadic c = 29/15
        a = gen(v)
        a[..., 0] += 1 / np.sqrt(np.abs(v - 29 / 15))
        return a

    assert _failure(singular, 1e-11).startswith(
        "step size underflow at v = 1.9333")

    def nan_on_late_parts(v):
        # the parts of the split steps of 0.5 (at step_tol 1e-30, eight
        # each) from v = 1.25 on
        a = gen(v)
        lo, hi = v.min(axis=1), v.max(axis=1)
        a[(hi - lo < 0.25) & (lo > 1.25)] = np.nan
        return a

    # 4 steps a call: the second round (32 steps) holds the first part
    # from 1.25 in its sixth call
    monkeypatch.setattr(frame, "_MAX_POINTS", 4 * 9)
    assert (_failure(nan_on_late_parts, 1e-30)
            == "non-finite generator on [1.25, 1.3125]")
    monkeypatch.setattr(frame, "_MAX_GROWTH", 1)
    assert (_failure(gen, 1e-30)
            == "step_tol = 1e-30 not met: 32 steps pending")


def test_magnus_matches_dormand_prince(crit032, torus_spec, sph_spec):
    """The Magnus frame agrees with SciPy's Dormand-Prince 8(5,3) pair run
    on Phi' = A Phi at tight tolerances."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    for spec, tol in ((torus_spec, 1e-12), (sph_spec, 5e-11)):
        a_of_v = frame.generator(spec, crit032)
        nodes = np.linspace(0.0, spec.period, 9)
        ref = solve_ivp(lambda v, y: quat.qmul(a_of_v(v), y),
                        (0.0, spec.period), [1.0, 0.0, 0.0, 0.0],
                        method="DOP853", t_eval=nodes, rtol=1e-13, atol=1e-14)
        traj = frame.integrate(spec, crit032, v_nodes=nodes)
        assert np.max(np.abs(traj.phi - ref.y.T)) < tol


def test_refinement_is_local(crit032):
    """A rejected step is split without touching the others: the kinks of
    |signed root| on a real-pair spherical spec are resolved by a few
    dozen extra steps, not by refining the whole period."""
    spec = reparam.build_spherical(
        reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9), crit032)

    def abs_root(v):
        w, wp, root = spec.planes(v)
        return w, wp, np.abs(np.asarray(root))

    kinked = dataclasses.replace(spec, planes=abs_root)
    smooth = frame.integrate(spec, crit032, period_nodes(spec)).stats
    stats = frame.integrate(kinked, crit032, period_nodes(kinked)).stats
    assert stats["n_rejected"] > smooth["n_rejected"]
    assert stats["n_steps"] - smooth["n_steps"] < 200


def test_nan_signed_root_raises_step_failure(crit032, torus_spec):
    """A root that turns NaN beyond the first period (which validation
    samples) stops the integration at once without large allocations."""
    V = torus_spec.period

    def nan_root(v):
        w, wp, root = torus_spec.planes(v)
        return w, wp, np.where(np.asarray(v) > 1.5 * V, np.nan, root)

    nan_late = dataclasses.replace(torus_spec, planes=nan_root)
    tracemalloc.start()
    try:
        with pytest.raises(StepFailure):
            frame.integrate(nan_late, crit032,
                            period_nodes(nan_late, periods=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_unreachable_step_tol_raises(crit032, torus_spec):
    with pytest.raises(StepFailure):
        frame.integrate(torus_spec, crit032, period_nodes(torus_spec),
                        step_tol=1e-20)


def test_step_failure_on_a_lossy_lattice_names_lambda():
    """On rhombic lambda 0.01 the theta values carry a relative round-off
    of 5.3e-8, above step_tol: the solve's StepFailure becomes an
    InvalidLattice naming lambda, chained from it.  A step_tol below
    _EST_ROUNDOFF keeps its StepFailure on any lattice (the test above)."""
    from isoforge import elliptic, theta
    fam = elliptic.Family(theta.rhombic(0.01), 0.3, "explicit")
    with pytest.raises(InvalidLattice, match="rhombic lambda = 0.01: ") as info:
        frame.integrate(reparam.analytic(0.0314, 0.01, 5.0), fam, [0.0, 5.0])
    assert isinstance(info.value.__cause__, StepFailure)


def test_integrate_rejects_inadmissible_spec(crit032, lat032):
    """|w'| > 1: the signed root would be clipped; integrate refuses."""
    band = 2 * np.pi * lat032.lam
    with pytest.raises(SpecInvalid, match=r"\|w'\| reaches"):
        frame.integrate(reparam.analytic(band / 2, 0.8, 3.0), crit032,
                        [0.0, 3.0])
    with pytest.raises(SpecInvalid, match="escapes the band"):
        frame.integrate(reparam.analytic(0.1, 0.2, 6.0), crit032, [0.0, 6.0])


def test_monodromy_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = rng.normal(size=4)
        m = q / np.sqrt(quat.qnorm2(q))
        traj = frame.FrameTrajectory(v=np.array([0.0, 1.0]),
                                     phi=np.array([[1, 0, 0, 0], m]),
                                     stats={})
        mono = frame.monodromy(traj.phi[-1])
        rebuilt = np.concatenate([[np.cos(mono.theta / 2)],
                                  np.sin(mono.theta / 2) * mono.axis])
        assert np.max(np.abs(rebuilt - mono.M)) < 1e-12
        assert 0 <= mono.theta <= np.pi


def test_monodromy_known_rotation():
    m = np.array([np.cos(np.pi / 3), 0, 0, np.sin(np.pi / 3)])
    traj = frame.FrameTrajectory(v=np.array([0.0, 1.0]),
                                 phi=np.array([[1.0, 0, 0, 0], m]), stats={})
    mono = frame.monodromy(traj.phi[-1])
    assert abs(mono.theta - 2 * np.pi / 3) < 1e-14
    assert np.allclose(mono.axis, [0, 0, 1])


def test_monodromy_identity_degenerate():
    traj = frame.FrameTrajectory(v=np.array([0.0, 1.0]),
                                 phi=np.array([[1.0, 0, 0, 0]] * 2), stats={})
    with pytest.raises(DegenerateRotation):
        frame.monodromy(traj.phi[-1])


def test_phi_quasi_periodicity(crit032, torus_spec):
    """Phi(v + V) = Phi(v) M at sampled v."""
    V = torus_spec.period
    vs = np.linspace(0.0, V, 9)
    nodes = np.unique(np.concatenate([vs, vs + V]))
    traj = frame.integrate(torus_spec, crit032, v_nodes=nodes)
    lut = {float(v): phi for v, phi in zip(traj.v, traj.phi)}
    mono = frame.monodromy(
        frame.integrate(torus_spec, crit032, v_nodes=np.array([0.0, V])).phi[-1])
    m = mono.M
    for v in vs:
        lhs = lut[float(v + V)]
        rhs = quat.qmul(lut[float(v)], m)
        if np.dot(lhs, rhs) < 0:
            rhs = -rhs
        assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_integrate_node_validation(crit032, torus_spec):
    with pytest.raises(SpecInvalid):
        frame.integrate(torus_spec, crit032, v_nodes=np.array([0.5, 1.0]))
    with pytest.raises(SpecInvalid):
        frame.integrate(torus_spec, crit032, v_nodes=np.array([0.0, 1.0, 0.5]))


def test_step_tol_controls_accuracy(crit032, torus_spec):
    """Tightening step_tol moves the monodromy toward a reference value."""
    nodes = period_nodes(torus_spec)
    ref = frame.monodromy(frame.integrate(torus_spec, crit032, nodes,
                                          step_tol=1e-13).phi[-1]).M
    for tol in (1e-6, 1e-9):
        m = frame.monodromy(frame.integrate(torus_spec, crit032, nodes,
                                            step_tol=tol).phi[-1]).M
        # errors stay under the requested tolerance (roundoff floor ~1e-13)
        assert np.max(np.abs(m - ref)) < max(tol, 1e-12)


def test_extend_by_rotation_identity(torus_surf, crit032, torus_spec):
    mono = frame.monodromy(frame.integrate(
        torus_spec, crit032, period_nodes(torus_spec)).phi[-1])
    same = frame.extend_by_rotation(torus_surf, mono, 1)
    assert same is torus_surf


def test_extend_matches_direct_two_periods(crit032, torus_spec):
    from isoforge import surface
    recipe = surface.SurfaceRecipe(fam=crit032, spec=torus_spec, nu=24, nv=24)
    piece = surface.build(recipe)
    mono = frame.monodromy(frame.integrate(
        torus_spec, crit032, period_nodes(torus_spec)).phi[-1])
    extended = frame.extend_by_rotation(piece, mono, 2)
    direct = surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=torus_spec, nu=24, nv=24, periods=2))
    assert extended.points.shape == direct.points.shape
    gap = np.max(np.linalg.norm(extended.points - direct.points, axis=-1))
    assert gap < 1e-6


def test_close_torus_no_bracket(crit032, lat032):
    band = 2 * np.pi * lat032.lam
    with pytest.raises(NoBracket):
        frame.close_torus(band / 2, 6.0, crit032, target_angle=6.0)


def test_close_torus_bracket_respects_admissibility():
    """At lambda = 0.34, V = 5 the band bound 0.9 pi lambda exceeds V/2pi,
    where |w'| passes 1; the default bracket stops at V/2pi."""
    from isoforge import elliptic, theta
    crit = elliptic.solve_critical_omega(theta.rhombic(0.34))
    band = 2 * np.pi * 0.34
    amp, achieved = frame.close_torus(band / 2, 5.0, crit, 2 * np.pi / 3)
    assert abs(achieved - 2 * np.pi / 3) < 1e-9
    assert amp <= 5.0 / (2 * np.pi)
    spec = reparam.analytic(band / 2, amp, 5.0)
    assert reparam.validate(spec, crit.lattice).ok
    assert frame.monodromy(frame.integrate(
        spec, crit, np.linspace(0.0, 5.0, 9)).phi[-1]).theta == achieved


def test_close_torus_validates_the_scan_ends_only(crit032, lat032,
                                                 monkeypatch):
    """close_torus validates two specs, the first and the last scanned
    amplitude, and every amplitude it then integrates, Brent's included,
    lies between them."""
    validated, scanned = [], []
    require, solve = frame._require_valid, frame._frame
    monkeypatch.setattr(frame, "_require_valid", lambda spec, fam: (
        validated.append(spec), require(spec, fam))[1])
    monkeypatch.setattr(frame, "_frame", lambda spec, *a: (
        scanned.append(spec), solve(spec, *a))[1])
    band = 2 * np.pi * lat032.lam
    frame.close_torus(band / 2, 6.0, crit032, 2 * np.pi / 3)
    amps = np.linspace(0.02, min(0.9 * band / 2, 6.0 / (2 * np.pi)), 17)
    assert len(validated) == 2

    def amp(spec):
        return spec.planes(np.array([1.5]))[0][0] - band / 2

    ends = [amp(spec) for spec in validated]
    assert np.allclose(ends, amps[[0, -1]], rtol=1e-12)
    assert len(scanned) > 17
    assert all(ends[0] - 1e-12 <= amp(s) <= ends[1] + 1e-12 for s in scanned)
    # each amplitude is solved once: Brent's bracket ends are scanned
    # amplitudes, and the amplitude it returns is one of its iterates
    assert len({amp(s) for s in scanned}) == len(scanned)


def test_spherical_frame_searches_the_knots_once_per_round(crit032, sph_spec,
                                                           monkeypatch):
    """Each generator call of a spherical frame integration folds v and
    searches the spline knots once, for w and the signed root together;
    the one search more is the admissibility check's."""
    searches, calls = [], []
    searchsorted, w1 = np.searchsorted, curvefamily.w1

    def counted_search(*args, **kwargs):
        searches.append(1)
        return searchsorted(*args, **kwargs)

    def counted_w1(*args):
        calls.append(1)
        return w1(*args)

    monkeypatch.setattr(np, "searchsorted", counted_search)
    monkeypatch.setattr(curvefamily, "w1", counted_w1)
    frame.integrate(sph_spec, crit032, period_nodes(sph_spec))
    assert len(calls) > 1
    assert len(searches) == len(calls) + 1
