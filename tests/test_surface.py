"""Immersion assembly, isothermic diagnostics and the residual battery."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isoforge import (curvefamily, elliptic, frame, quat, reparam, surface,
                      theta, verify)
from isoforge.errors import SpecInvalid

from conftest import curve_form, pde_levels, stencil_frame


def test_isothermic_diagnostics(torus_surf):
    d = torus_surf.diagnostics
    assert d["orthogonality"] < 1e-10
    assert d["conformality_u"] < 1e-10
    assert d["conformality_v"] < 1e-10
    assert d["normal_unit"] < 1e-10
    assert d["normal_tangency"] < 1e-10


def test_expH_matches_curvefamily(torus_surf, crit032):
    spec = torus_surf.recipe.spec
    j = len(torus_surf.v) // 3
    w = float(spec.w(torus_surf.v[j]))
    eh = curve_form("exp_h", torus_surf.u, w, crit032)
    assert np.max(np.abs(torus_surf.expH[:, j] - eh)) < 1e-12 * np.max(eh)


def test_normal_is_normalized_cross_product(torus_surf):
    cross = np.cross(torus_surf.fu, torus_surf.fv)
    cross /= np.linalg.norm(cross, axis=-1, keepdims=True)
    assert np.max(np.linalg.norm(cross - torus_surf.n, axis=-1)) < 1e-9


def test_fu_matches_fd_in_u(torus_surf, crit032):
    spec = torus_surf.recipe.spec
    j = 7
    v = [float(torus_surf.v[j])]
    phi = torus_surf.phi[j:j + 1]
    u0 = np.array([0.9])
    errs = []
    for h in (1e-4, 5e-5):
        lo = surface.fields_at(crit032, spec, u0 - h, v, phi)["points"]
        hi = surface.fields_at(crit032, spec, u0 + h, v, phi)["points"]
        fd = (hi - lo) / (2 * h)
        fu = surface.fields_at(crit032, spec, u0, v, phi)["fu"]
        errs.append(float(np.max(np.abs(fd - fu))))
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert errs[1] < 1e-7


def test_fv_matches_fd_in_v(torus_surf, crit032):
    spec = torus_surf.recipe.spec
    dv = 1e-4
    v0 = 0.41 * spec.period
    nodes = np.array([0.0, v0 - dv, v0, v0 + dv])
    traj = frame.integrate(spec, crit032, v_nodes=nodes)
    us = torus_surf.u[::8]
    f = surface.fields_at(crit032, spec, us, nodes[1:], traj.phi[1:])
    fd = (f["points"][:, 2] - f["points"][:, 0]) / (2 * dv)
    assert np.max(np.abs(fd - f["fv"][:, 1])) < 1e-6


def _cj(z):
    """(a + b i) j = a j + b k as a vector array (..., 3)."""
    z = np.asarray(z, dtype=complex)
    return np.stack([np.zeros(z.shape), z.real, z.imag], axis=-1)


def _fields_by_column(fam, spec, u, v, phi):
    """Reference: one v column at a time, scalar w, quaternion sandwiches."""
    out = {k: [] for k in ("points", "fu", "fv", "n", "expH")}
    ivec = np.array([1.0, 0.0, 0.0])
    for j, vj in enumerate(v):
        w, wp, root = map(float, spec.planes(vj))
        gam = curve_form("gamma", u, w, fam)
        eis = curve_form("exp_isigma", u, w, fam)
        eh = curve_form("exp_h", u, w, fam)
        zk = np.stack([np.zeros(len(u)), -eis.imag, eis.real], axis=-1)
        out["points"].append(quat.qsandwich(phi[j], _cj(gam)))
        out["fu"].append(eh[:, None] * quat.qsandwich(phi[j], _cj(eis)))
        out["fv"].append(eh[:, None] * quat.qsandwich(phi[j], root * ivec + wp * zk))
        out["n"].append(quat.qsandwich(phi[j], wp * ivec - root * zk))
        out["expH"].append(eh)
    return {k: np.stack(val, axis=1) for k, val in out.items()}


def test_grid_fields_match_column_loop(torus_surf, crit032, theta_arrays,
                                      monkeypatch):
    """At 8192 points per block, 512 x 49 points span four blocks of
    columns, 13, 12, 12 and 12 wide."""
    monkeypatch.setattr(surface, "_BLOCK_POINTS", 8192)
    spec = torus_surf.recipe.spec
    u = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
    got = surface.fields_at(crit032, spec, u, torus_surf.v, torus_surf.phi)
    assert [b[1] for _, _, b in theta_arrays.calls] == [13, 12, 12, 12]
    want = _fields_by_column(crit032, spec, u, torus_surf.v, torus_surf.phi)
    assert set(got) == set(want)
    for name in want:
        assert got[name].shape == want[name].shape
        scale = max(1.0, float(np.max(np.abs(want[name]))))
        assert np.max(np.abs(got[name] - want[name])) < 1e-14 * scale, name


def test_fields_at_grids_are_views_of_component_planes(torus_surf, limit_surf,
                                                       crit032):
    """Each (nu, nv, 3) field grid of fields_at, and so of build, and of
    the limit surface is the moveaxis view of one C-contiguous (3, nu, nv)
    array of xyz planes."""
    spec = torus_surf.recipe.spec
    u = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)  # four blocks
    got = surface.fields_at(crit032, spec, u, torus_surf.v, torus_surf.phi)
    nv = len(torus_surf.v)
    for fields, nu in ((got, 512), (vars(torus_surf), len(torus_surf.u)),
                       (vars(limit_surf), len(limit_surf.u))):
        for name in ("points", "fu", "fv", "n"):
            grid = fields[name]
            planes = np.moveaxis(grid, -1, 0)
            assert grid.shape == (nu, nv, 3), name
            assert planes.flags.c_contiguous and not grid.flags.owndata, name
            assert planes.base is grid.base and grid.base.shape == (3, nu, nv)


# scales of the components: zeros of both signs, subnormals, values whose
# squares come near underflow and overflow (1e-150, 1e150), ordinary ones
_scale = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-150, 1.0, 1e150,
                          1e154])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shape=st.tuples(st.integers(1, 3), st.integers(1, 40)),
       seed=st.integers(0, 2**32 - 1),
       scales=st.lists(_scale, min_size=1, max_size=4, unique=True))
def test_plane_norm_and_dot_match_numpy_bitwise(shape, seed, scales):
    """surface._norm and _dot give np.linalg.norm(x, axis=-1) and
    np.sum(x * y, axis=-1) bit for bit (the sign of a zero included), on
    (..., 3) views of xyz planes, on C-ordered arrays, on a mix of both
    and broadcast against one row."""
    rng = np.random.default_rng(seed)
    px, py = (rng.normal(size=(3,) + shape) * rng.choice(scales, (3,) + shape)
              for _ in range(2))
    views = np.moveaxis(px, 0, -1), np.moveaxis(py, 0, -1)
    c_ordered = tuple(np.ascontiguousarray(a) for a in views)
    for x, y in (views, c_ordered, (views[0], c_ordered[1]),
                 (views[0], c_ordered[1][:1])):
        with np.errstate(over="ignore", invalid="ignore"):
            assert (surface._norm(x).tobytes()
                    == np.linalg.norm(x, axis=-1).tobytes())
            assert (surface._dot(x, y).tobytes()
                    == np.sum(x * y, axis=-1).tobytes())


def test_fields_at_memory_peak(crit032, torus_spec):
    """Blocks of columns bound the temporaries: a 128 x 129 grid stays
    under 5 MB (its five output grids take 1.7 MB)."""
    u = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    v = np.linspace(0.0, torus_spec.period, 129)
    phi = frame.integrate(torus_spec, crit032, v_nodes=v).phi
    surface.fields_at(crit032, torus_spec, u[:2], v[:2], phi[:2])
    tracemalloc.start()
    try:
        surface.fields_at(crit032, torus_spec, u, v, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_fields_at_splits_a_display_grid_into_balanced_blocks(crit032,
                                                             torus_spec,
                                                             theta_arrays):
    """A 128 x 129 grid runs as ceil(16512 / _BLOCK_POINTS) blocks of
    whole columns, one theta_tensor call each, whose widths differ by at
    most one and each of which holds at most _BLOCK_POINTS points."""
    u = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
    v = np.linspace(0.0, torus_spec.period, 129)
    phi = np.tile([1.0, 0.0, 0.0, 0.0], (len(v), 1))
    surface.fields_at(crit032, torus_spec, u, v, phi)
    assert len(theta_arrays.calls) == -(-128 * 129 // surface._BLOCK_POINTS)
    assert {len_a for _, len_a, _ in theta_arrays.calls} == {128}
    widths = [b[1] for _, _, b in theta_arrays.calls]
    assert sum(widths) == 129 and max(widths) - min(widths) <= 1
    assert 128 * max(widths) <= surface._BLOCK_POINTS


def test_fields_at_block_evaluates_five_theta_arrays(torus_surf, crit032,
                                                     theta_arrays):
    """One block of columns fetches the three theta arrays that gamma,
    e^{i sigma} and e^h share -- theta1((z + omega)/2), theta1((z -
    3 omega)/2) and td((z - omega)/2), none at zb -- in one theta_tensor
    call (one product on the rhombic lattice) without the derivative
    arrays, evaluates no array twice and none point by point."""
    u = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    v = torus_surf.v[:40]
    assert len(u) * len(v) <= surface._BLOCK_POINTS
    surface.fields_at(crit032, torus_surf.recipe.spec, u, v,
                      torus_surf.phi[:40])
    assert theta_arrays.calls == [((1, 1, 2), 64, (3, 40))]
    assert theta_arrays.products == [1]
    assert {k[:2] for k in theta_arrays.arrays} == {(1, 0), (2, 0)}
    assert len(set(theta_arrays.arrays)) == len(theta_arrays.arrays) == 3
    assert theta_arrays.grid == []


def test_build_block_makes_one_theta_call_for_five_arrays(crit032,
                                                          torus_spec,
                                                          theta_arrays):
    """A 48 x 49 build is one block of columns: its fields read gamma,
    e^h and e^{i sigma}, so one theta_tensor call fetches A, G and D
    without the derivative arrays A' and D'."""
    surface.build(surface.SurfaceRecipe(fam=crit032, spec=torus_spec,
                                        nu=48, nv=48))
    assert theta_arrays.calls == [((1, 1, 2), 48, (3, 49))]
    assert {k for _, k, _, _ in theta_arrays.arrays} == {0}


def _assert_inversion_symmetric(rep, crit):
    """The involution holds to 1e-8 |R|, the u = omega sphere and the
    tangency there to 1e-9."""
    assert rep["inversion_involution"] < 1e-8 * abs(crit.R), rep
    assert rep["inversion_omega_sphere"] < 1e-9, rep
    assert rep["inversion_omega_parallel"] < 1e-9, rep


def _assert_dual_symmetric(rep):
    """The dual one-form matches to 1e-8, the double dual to 1e-7 and the
    loop integral closes to 1e-10."""
    assert rep["dual_dual_u"] < 1e-8, rep
    assert rep["dual_dual_v"] < 1e-8, rep
    assert rep["dual_double_dual"] < 1e-7, rep
    assert rep["dual_loop_integral"] < 1e-10, rep


def test_inversion_grid_fetches_a_and_g_only(torus_surf, crit032,
                                             theta_arrays):
    """The involution reads only the points of the 2 omega - u grid, so
    that grid fetches A and G and no td row; points and fu on the
    u = omega row are a block of the battery's union grid."""
    row = verify.small_grids(torus_surf, crit032)[2]
    theta_arrays.calls.clear()
    theta_arrays.arrays.clear()
    rep = surface.inversion_symmetry(torus_surf, crit032, row)
    _assert_inversion_symmetric(rep, crit032)
    assert theta_arrays.calls == [((1, 1), 48, (2, 49))]
    assert {k for _, k, _, _ in theta_arrays.arrays} == {0}


def test_battery_solves_no_quadrature_rule_again(torus_surf, crit032,
                                                 monkeypatch):
    """Gauss-Legendre rules are solved once per process: after a first
    battery, another calls eigh only on planarity's (nv, 3, 3) stacks,
    where it solved the dual loop's 16 x 16 Jacobi matrix on every call."""
    verify.battery(torus_surf, crit032)
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: (
        shapes.append(np.shape(a)), eigh(a))[1])
    verify.battery(torus_surf, crit032)
    assert shapes == [(len(torus_surf.v), 3, 3)]


def test_dual_symmetry_on_even_nu_evaluates_no_grid(torus_surf, crit032,
                                                    theta_arrays):
    """On an even nu the dual checks read fu and fv at pi - u from the
    surface's grid, and the loop's u- and v-edges are blocks of the
    battery's union grid: dual_symmetry fetches no theta array."""
    loop = verify.small_grids(torus_surf, crit032)[3]
    theta_arrays.calls.clear()
    _assert_dual_symmetric(surface.dual_symmetry(torus_surf, loop))
    assert theta_arrays.calls == []


def test_dual_rows_match_the_fresh_shifted_grid(torus_surf, crit032):
    """On an even nu, fu and fv at pi - u read from the grid's rows
    (nu/2 - i) mod nu agree with a fresh evaluation at pi - u to 1e-13 of
    max e^h, and so do the dual residuals computed from either."""
    s = torus_surf
    nu = len(s.u)
    rows = (nu // 2 - np.arange(nu)) % nu
    fresh = surface.fields_at(crit032, s.recipe.spec, np.pi - s.u, s.v, s.phi,
                              ("fu", "fv"))
    top = np.max(s.expH)
    for name in ("fu", "fv"):
        assert np.max(np.abs(getattr(s, name)[rows] - fresh[name])) < 1e-13 * top
    e2h = s.expH[..., None] ** 2
    want = {"dual_dual_u": np.linalg.norm(fresh["fu"] - s.fu / e2h, axis=-1),
            "dual_dual_v": np.linalg.norm(fresh["fv"] - s.fv / e2h, axis=-1),
            "dual_double_dual": np.maximum(
                np.linalg.norm(fresh["fu"] * e2h - s.fu, axis=-1),
                np.linalg.norm(fresh["fv"] * e2h - s.fv, axis=-1))}
    got = surface.dual_symmetry(s, verify.small_grids(s, crit032)[3])
    for name, res in want.items():
        assert abs(got[name] - np.max(res) / top) < 1e-13, name


def _separate_small_grids(s, fam):
    """Each check's small grid evaluated on its own points, one traj.at and
    one fields_at per grid: the PDE stencil's frame, fv_vs_fd's probes,
    the u = omega row and the dual loop's weights and edges, in the layout
    of verify.small_grids."""
    spec, dv = s.recipe.spec, 1e-4
    _, v_probes = surface._gauss_codazzi_probes(s)
    stencil_phi = stencil_frame(s.traj, v_probes, (4e-4, 8e-4))
    v0 = np.linspace(0.31, 0.77, 3) * spec.period
    nodes = (v0[:, None] + [-dv, 0.0, dv]).ravel()
    fv = surface.fields_at(fam, spec, s.u[:: max(1, len(s.u) // 8)], nodes,
                           s.traj.at(nodes), ("points", "fv", "expH"))
    row = surface.fields_at(fam, spec, [fam.omega], s.v, s.phi,
                            ("points", "fu"))
    x, weights = elliptic.gauss_legendre(16)
    (ua, ub), (va, vb) = s.u[1:3], s.v[1:3]
    um = 0.5 * (ua + ub) + 0.5 * (ub - ua) * x
    vm = 0.5 * (va + vb) + 0.5 * (vb - va) * x
    loop = (0.5 * (ub - ua) * weights, 0.5 * (vb - va) * weights,
            surface.fields_at(fam, spec, um, [va, vb], s.phi[1:3],
                              ("fu", "expH")),
            surface.fields_at(fam, spec, [ua, ub], vm, s.traj.at(vm),
                              ("fv", "expH")))
    return stencil_phi, fv, row, loop


@pytest.mark.parametrize("grid", [(48, 48, 1), (47, 24, 1), (32, 24, 2)])
def test_small_grids_match_separate_evaluations(crit032, torus_spec, grid):
    """The blocks of verify.small_grids' one union fields_at (fv_vs_fd's
    probes, the u = omega row, the dual loop's edges) equal each grid
    evaluated on its own to round-off, its one traj.at reads the frame of
    the separate reads, and the battery leaves the solve's err_est where
    the separate reads leave it; on an even, an odd and a two-period
    grid."""
    nu, nv, periods = grid
    surf = surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=torus_spec, nu=nu, nv=nv, periods=periods))
    err0 = surf.traj.stats["err_est"]
    want = _separate_small_grids(surf, crit032)
    err_separate = surf.traj.stats["err_est"]
    surf.traj.stats["err_est"] = err0
    verify.battery(surf, crit032)
    assert surf.traj.stats["err_est"] == err_separate
    stencil, fv, row, loop = verify.small_grids(surf, crit032)
    assert np.max(np.abs(stencil[2] - want[0])) <= 1e-15
    pairs = [(fv, want[1]), (row, want[2]), (loop[2], want[3][2]),
             (loop[3], want[3][3])]
    for got, ref in pairs:
        for name in ref:
            assert got[name].shape == ref[name].shape, name
            scale = max(1.0, float(np.max(np.abs(ref[name]))))
            assert np.max(np.abs(got[name] - ref[name])) <= 1e-14 * scale
    assert all(np.array_equal(g, w) for g, w in zip(loop[:2], want[3][:2]))


def test_dual_symmetry_on_odd_nu_evaluates_the_shifted_grid(crit032,
                                                            torus_spec,
                                                            theta_arrays):
    """pi - u is no grid row when nu is odd: the dual checks evaluate fu
    and fv on the shifted grid, and pass."""
    surf = surface.build(surface.SurfaceRecipe(fam=crit032, spec=torus_spec,
                                               nu=47, nv=24))
    loop = verify.small_grids(surf, crit032)[3]
    theta_arrays.calls.clear()
    _assert_dual_symmetric(surface.dual_symmetry(surf, loop))
    assert theta_arrays.calls == [((1, 2), 47, (2, 25))]


@pytest.mark.parametrize("names", [
    ("points",), ("points", "fu"), ("fu", "fv"), ("fu", "expH"),
    ("fv", "expH"), ("fu", "fv", "n", "expH"), ("points", "fv"),
    ("points", "fu", "fv", "expH")])
def test_fields_at_subset_equals_the_full_call(torus_surf, crit032, names,
                                               monkeypatch):
    """Each set of fields equals, bit for bit, the same arrays of the full
    call, on a grid of three blocks at 8192 points per block, 17, 16 and
    16 columns wide: among them those the battery requests (build's all,
    the involution's points, the odd-nu dual checks' fu and fv, the PDE
    stencil's fu, fv, n and expH, and the union of the small grids'
    points, fu, fv and expH)."""
    monkeypatch.setattr(surface, "_BLOCK_POINTS", 8192)
    spec = torus_surf.recipe.spec
    u = np.linspace(0.0, 2 * np.pi, 384, endpoint=False)
    v, phi = torus_surf.v, torus_surf.phi
    cols = surface._BLOCK_POINTS // len(u)
    assert 2 * cols < len(v) <= 3 * cols and len(v) % 3 == 1
    full = surface.fields_at(crit032, spec, u, v, phi)
    assert tuple(full) == surface.FIELDS
    got = surface.fields_at(crit032, spec, u, v, phi, names)
    assert sorted(got) == sorted(names)
    for name in names:
        assert np.array_equal(got[name], full[name]), name
    with pytest.raises(ValueError, match="unknown fields"):
        surface.fields_at(crit032, spec, u, v, phi, ("points", "h"))


def test_pde_battery_shares_theta_arrays_per_shift(torus_surf, crit032,
                                                   theta_arrays, monkeypatch):
    """Both probe steps share one stencil: the frame read from the
    surface's solve (no integration), one forms_at call (one theta_tensor
    call for the four arrays its forms read, A, A', D and D', on the 5
    u-shifts x (5 w(v) shifts + 4 w-shifts) of the probes), one coeffs
    sample and one fields_at call for fu, fv, n and expH (one
    theta_tensor call for A and D in one block); no array is evaluated
    twice.  (theta_grid still serves W1 along the frame.)"""
    counts = {"integrate": 0, "fields_at": 0, "coeffs": 0}
    for mod, name in ((frame, "integrate"), (surface, "fields_at"),
                      (surface, "coeffs")):
        def counted(*a, _f=getattr(mod, name), _n=name, **k):
            counts[_n] += 1
            return _f(*a, **k)
        monkeypatch.setattr(mod, name, counted)
    spec = torus_surf.recipe.spec
    u_probes = np.array([0.3, 0.9, 2.0, 3.5])
    v_probes = np.linspace(0.4, 0.8, 5) * spec.period
    steps = (4e-4, 8e-4)
    phi = stencil_frame(torus_surf.traj, v_probes, steps)
    levels = surface.pde_battery(crit032, spec, u_probes, v_probes, phi,
                                 steps)
    assert len(levels) == 2
    assert counts == {"integrate": 0, "fields_at": 1, "coeffs": 1}
    assert sorted(theta_arrays.calls) == [((1, 1, 2, 2), 20, (4, 45)),
                                          ((1, 2), 20, (2, 25))]
    assert len(set(theta_arrays.arrays)) == len(theta_arrays.arrays)


def test_pde_battery_levels_match_single_step_runs(torus_surf, crit032):
    """Each level of a two-step battery equals the battery run on its step
    alone, up to the round-off its 1/h^2 differences amplify."""
    spec = torus_surf.recipe.spec
    u_probes = np.array([0.3, 0.9, 2.0, 3.5])
    v_probes = np.linspace(0.4, 0.8, 5) * spec.period

    def battery(steps):
        phi = stencil_frame(torus_surf.traj, v_probes, steps)
        return surface.pde_battery(crit032, spec, u_probes, v_probes, phi,
                                   steps)

    both = battery((4e-4, 8e-4))
    for h, level in zip((4e-4, 8e-4), both):
        alone, = battery((h,))
        assert level.keys() == alone.keys()
        for name in level:
            assert abs(level[name] - alone[name]) <= 1e-2 * alone[name], name


def test_pde_battery_computes_lame_constant_once(torus_surf, crit032,
                                                 monkeypatch):
    """On a freshly solved family the battery computes C1 once; a second
    battery reads the family's cached value."""
    calls = []
    c1 = elliptic.c1_at_critical
    monkeypatch.setattr(elliptic, "c1_at_critical",
                        lambda crit: calls.append(crit) or c1(crit))
    fresh = elliptic.solve_critical_omega(crit032.lattice)
    surf = dataclasses.replace(torus_surf, recipe=dataclasses.replace(
        torus_surf.recipe, fam=fresh))
    pde_levels(surf, (4e-4, 8e-4))
    assert len(calls) == 1
    pde_levels(surf, (4e-4, 8e-4))
    assert len(calls) == 1


def test_planarity_certificate(torus_surf):
    rep = surface.planarity_certificate(torus_surf)
    assert rep["planarity"] < 1e-8
    assert rep["joachimsthal"] < 1e-8
    assert rep["normals_rank_defect"] == 0  # rank 3: generic (cone) case


def test_inversion_symmetry(torus_surf, crit032):
    row = verify.small_grids(torus_surf, crit032)[2]
    _assert_inversion_symmetric(
        surface.inversion_symmetry(torus_surf, crit032, row), crit032)


def test_dual_symmetry(torus_surf, crit032):
    loop = verify.small_grids(torus_surf, crit032)[3]
    _assert_dual_symmetric(surface.dual_symmetry(torus_surf, loop))


def test_pde_battery_converges(torus_surf, crit032):
    stencil = verify.small_grids(torus_surf, crit032)[0]
    fine, coarse = surface.pde_battery(crit032, torus_surf.recipe.spec,
                                       *stencil)
    for name in fine:
        order = np.log2(coarse[name] / fine[name])
        assert order > 1.9, (name, order)
        assert fine[name] < 2e-5, (name, fine[name])


def test_u_closure_negative_control_rectangular(rect_fam):
    """Rectangular recipes satisfy all local identities but never close."""
    from isoforge import reparam
    band = 2 * np.pi * rect_fam.lattice.lam
    spec = reparam.analytic(0.25 * band, 0.1 * band, 6.0)
    us = np.array([0.0, 2 * np.pi])
    defect = 0.0
    diam = 0.0
    for v in np.linspace(0.0, spec.period, 7):
        w = float(spec.w(v))
        g = curve_form("gamma", np.linspace(0, 2 * np.pi, 64), w, rect_fam)
        diam = max(diam, float(np.max(np.abs(g)) - np.min(np.abs(g))))
        pair = curve_form("gamma", us, w, rect_fam)
        defect = max(defect, abs(pair[1] - pair[0]))
    assert defect > 1e-2 * max(diam, 1e-9)


# ---------------------------------------------------------------------------
# the omega -> 0 limit surface


def test_limit_diagnostics(limit_surf):
    d = limit_surf.diagnostics
    assert d["orthogonality"] < 1e-7
    assert d["conformality"] < 1e-7


def test_limit_u_closure(limit_surf, lam0):
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    spec = limit_surf.recipe.spec
    for v in np.linspace(0.0, spec.period, 5):
        w = float(spec.w(v))
        g = curve_form("gamma_hat", np.array([0.0, 2 * np.pi]), w, fam)
        assert abs(g[1] - g[0]) < 1e-8


def test_limit_planes_tangent_to_cylinder(limit_surf):
    """Plane normals of the u-curves are horizontal (rank-2 family)."""
    rep = surface.planarity_certificate(limit_surf)
    assert rep["planarity"] < 1e-8
    assert rep["joachimsthal"] < 1e-5
    assert rep["normals_rank_defect"] == 0  # rank 2 on the limit family
    # explicit horizontality: every best-fit plane normal has zero k-component
    for j in range(0, len(limit_surf.v), 6):
        pts = limit_surf.points[:, j, :]
        q = pts - np.mean(pts, axis=0)
        _, _, vt = np.linalg.svd(q, full_matrices=False)
        assert abs(vt[-1][2]) < 1e-7


def test_limit_fv_vs_fd(limit_surf):
    """Closed-form fv of the limit immersion against grid differences."""
    j = len(limit_surf.v) // 2
    v = limit_surf.v
    dvgrid = v[j + 1] - v[j - 1]
    fd = (limit_surf.points[:, j + 1] - limit_surf.points[:, j - 1]) / dvgrid
    err = np.max(np.linalg.norm(fd - limit_surf.fv[:, j], axis=-1))
    # grid-level central differencing: O(dv^2) truncation only
    assert err < 10.0 * dvgrid ** 2


def test_limit_build_refuses_inadmissible_spec(lam0):
    """|w'| up to 1.68 > 1: build_limit refuses the spec instead of
    integrating a clipped root."""
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    band = 2 * np.pi * lam0
    recipe = surface.SurfaceRecipe(fam=fam, spec=reparam.analytic(band / 2, 0.8, 3.0),
                                   nu=8, nv=8)
    with pytest.raises(SpecInvalid, match=r"\|w'\| reaches"):
        surface.build(recipe)


def test_limit_frame_matches_oracle(lam0, limit_spec):
    """E = e^{-2ia} and T of the limit frame against SciPy's DOP853 on the
    nonlinear form a' = root W_hat, T' = root r (cos 2a, -sin 2a), over two
    periods."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    spec = limit_spec
    v = np.linspace(0.0, 2 * spec.period, 97)

    def rhs(vv, y):
        w, _, root = map(float, spec.planes(vv))
        rr = root * curvefamily.limit_r(w, fam)
        return [root * curvefamily.w_hat(w, fam),
                rr * np.cos(2 * y[0]), -rr * np.sin(2 * y[0])]

    ref = solve_ivp(rhs, (0.0, v[-1]), [0.0, 0.0, 0.0], method="DOP853",
                    t_eval=v, rtol=1e-13, atol=1e-14).y
    E, T = surface._limit_frame_arrays(fam, spec, v)
    assert np.max(np.abs(E - np.exp(-2j * ref[0]))) <= 1e-10
    assert np.max(np.abs(T - (ref[1] + 1j * ref[2]))) <= 1e-10


def test_panel_rule_integrates_polynomials_to_each_node():
    """The limit frame's integration matrix S gives the integral from -1
    to each node of x^d, d = 0..9, to round-off, and its rule's weights
    integrate x^d over [-1, 1]: a inside a panel is exact on the
    polynomials of the rule's degree."""
    x, weights, s = surface._panel_rule(10)
    for d in range(10):
        want = (x ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
        assert np.max(np.abs(s @ x ** d - want)) <= 2e-15
        assert abs(weights @ x ** d - (1 - (-1.0) ** (d + 1)) / (d + 1)) <= 2e-15


def test_limit_coefficients_accept_arrays(lam0):
    """w_hat and limit_r on an array equal the scalar values."""
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    ws = np.linspace(0.1, 2 * np.pi * lam0 - 0.1, 7).reshape(7, 1)
    for fn in (curvefamily.w_hat, curvefamily.limit_r):
        got = fn(ws, fam)
        assert got.shape == ws.shape and got.dtype == float
        want = np.array([fn(float(w), fam) for w in ws.ravel()])
        assert np.max(np.abs(got.ravel() - want)) <= 1e-13 * np.max(np.abs(want))
