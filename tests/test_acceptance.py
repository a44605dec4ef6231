"""End-to-end acceptance checks, one pass/fail line per criterion.

Each test evaluates its criterion completely, prints a single
"criterion NN (...): PASS|FAIL" line, and then asserts.
"""

import time

import numpy as np
import pytest

from isoforge import curvefamily, elliptic, frame, reparam
from isoforge import surface, theta, verify
from isoforge.errors import NoCriticalOmega

from conftest import curve_form, pde_levels, period_nodes

LAMBDA0_REF = 0.354729892522


def _report(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, detail


@pytest.fixture(scope="module")
def acc_surf(crit032):
    """128x128 reference surface on a mild analytic profile."""
    band = 2 * np.pi * crit032.lattice.lam
    spec = reparam.analytic(band / 2, 0.2, 6.0)
    return surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=spec, nu=128, nv=128))


def test_criterion_01_lambda0():
    t0 = time.perf_counter()
    lam0 = elliptic.solve_lambda0()
    dt = time.perf_counter() - t0
    err = abs(lam0 - LAMBDA0_REF)
    _report(1, "lambda0", err < 1e-9 and dt < 1.0,
            f"err={err:.2e}, {dt:.2f}s")


def test_criterion_02_critical_omega_dichotomy():
    ok = True
    detail = []
    for lam in (0.15, 0.25, 0.32):
        t0 = time.perf_counter()
        crit = elliptic.solve_critical_omega(theta.rhombic(lam))
        dt = time.perf_counter() - t0
        ok &= abs(crit.residual) < 1e-12 and 0 < crit.omega < np.pi / 4
        ok &= dt < 1.0
        detail.append(f"{lam}:res={abs(crit.residual):.1e}")
    for lam in (0.36, 0.45):
        t0 = time.perf_counter()
        try:
            elliptic.solve_critical_omega(theta.rhombic(lam))
            ok = False
            detail.append(f"{lam}:unexpected root")
        except NoCriticalOmega:
            detail.append(f"{lam}:none")
        ok &= time.perf_counter() - t0 < 1.0
    _report(2, "critical-omega dichotomy", ok, ", ".join(detail))


def test_criterion_03_closure_and_negative_control():
    crit = elliptic.solve_critical_omega(theta.rhombic(25 / 78))
    top = 2 * np.pi * crit.lattice.lam
    us = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    ws = np.linspace(0.05 * top, 0.95 * top, 16)
    closure = 0.0
    for w in ws:
        g0 = curve_form("gamma", us, float(w), crit)
        g1 = curve_form("gamma", us + 2 * np.pi, float(w), crit)
        closure = max(closure, float(np.max(np.abs(g1 - g0))))

    rect = elliptic.Family(theta.rectangular(0.9), 0.3, "explicit")
    rtop = 2 * np.pi * 0.9
    defect = 0.0
    ratio = np.inf
    for w in rtop * np.array([0.1, 0.2, 0.3, 0.4]):  # below the W1 pole
        g = curve_form("gamma", np.linspace(0, 2 * np.pi, 128), float(w), rect)
        diam = float(np.max(np.abs(g[:, None] - g[None, :])))
        d = abs(curve_form("gamma", 2 * np.pi, float(w), rect)
                - curve_form("gamma", 0.0, float(w), rect))
        defect = max(defect, d)
        ratio = min(ratio, d / diam)
    _report(3, "u-closure + rectangular control",
            closure < 1e-9 and ratio > 1e-2,
            f"closure={closure:.2e}, control ratio={ratio:.2e}")


def test_criterion_04_pde_battery(acc_surf):
    t0 = time.perf_counter()
    # order from the 8e-4 -> 4e-4 halving (truncation-dominated); absolute
    # residuals at the finest 2e-4 step
    steps = (2e-4, 4e-4, 8e-4)
    finest, fine, coarse = pde_levels(acc_surf, steps)
    dt = time.perf_counter() - t0
    ok = dt < 30.0
    worst_order = np.inf
    worst_res = 0.0
    for name, val in fine.items():
        order = np.log2(coarse[name] / val)
        worst_order = min(worst_order, order)
        worst_res = max(worst_res, finest[name])
        ok &= order >= 1.9 and finest[name] < 1e-6
    _report(4, "PDE battery", ok,
            f"min order={worst_order:.2f}, max residual={worst_res:.2e}, "
            f"{dt:.1f}s")


def test_criterion_05_symmetry_involutions(acc_surf, crit032):
    R = abs(crit032.R)
    loop = verify.small_grids(acc_surf, crit032)[2]
    inv = surface.inversion_symmetry(acc_surf, crit032)
    dual = surface.dual_symmetry(acc_surf, loop)
    ok = (inv["inversion_involution"] < 1e-8 * R
          and inv["inversion_omega_sphere"] < 1e-9
          and inv["inversion_omega_parallel"] < 1e-9
          and dual["dual_dual_u"] < 1e-8
          and dual["dual_dual_v"] < 1e-8
          and dual["dual_double_dual"] < 1e-7
          and dual["dual_loop_integral"] < 1e-10)
    _report(5, "inversion + dual symmetry", ok,
            f"inv={inv['inversion_involution'] / R:.2e}R, "
            f"dual_u={dual['dual_dual_u']:.2e}, "
            f"dual_v={dual['dual_dual_v']:.2e}")


def test_criterion_06_metric_identity(acc_surf, crit032):
    spec = acc_surf.recipe.spec
    us = acc_surf.u
    worst = 0.0
    for v in acc_surf.v[::8]:
        w = float(spec.w(v))
        eh = curve_form("exp_h", us, w, crit032)
        gam = curve_form("gamma", us, w, crit032)
        W1 = curvefamily.w1(w, crit032)
        worst = max(worst, float(np.max(
            np.abs(eh - 2 * np.real(W1 * np.conj(gam))) / eh)))
    _report(6, "metric identity", worst < 1e-9, f"max rel={worst:.2e}")


def test_criterion_07_elastica(crit032):
    top = 2 * np.pi * crit032.lattice.lam
    ok = True
    worst = 0.0
    for w in top * np.array([0.2, 0.35, 0.5, 0.65, 0.8]):
        ec = curvefamily.elastica_constants(float(w), crit032)
        h = 1e-6
        fd = (np.log(curvefamily.w1(float(w) + h, crit032))
              - np.log(curvefamily.w1(float(w) - h, crit032))) / (2 * h)
        lam_err = abs(ec.Lambda - fd / ec.a)
        ok &= (ec.residual_max < 1e-6 and abs(ec.mu_imag) < 1e-8
               and lam_err < 1e-6)
        worst = max(worst, ec.residual_max)
    _report(7, "elastica ODE + constants", ok, f"max residual={worst:.2e}")


def test_criterion_08_frame_monodromy(acc_surf, crit032):
    spec = acc_surf.recipe.spec
    V = spec.period
    vs = np.linspace(0.0, V, 17)
    nodes = np.unique(np.concatenate([vs, vs + V]))
    traj = frame.integrate(spec, crit032, v_nodes=nodes)
    lut = {float(v): phi for v, phi in zip(traj.v, traj.phi)}
    mono = frame.monodromy(
        frame.integrate(spec, crit032, v_nodes=np.array([0.0, V])).phi[-1])
    from isoforge import quat
    m = mono.M
    quasi = 0.0
    for v in vs:
        lhs = lut[float(v + V)]
        rhs = quat.qmul(lut[float(v)], m)
        if np.dot(lhs, rhs) < 0:
            rhs = -rhs
        quasi = max(quasi, float(np.max(np.abs(lhs - rhs))))

    piece = surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=spec, nu=32, nv=32))
    extended = frame.extend_by_rotation(piece, mono, 2)
    direct = surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=spec, nu=32, nv=32, periods=2))
    seam = float(np.max(np.linalg.norm(extended.points - direct.points,
                                       axis=-1)))
    _report(8, "frame quasi-periodicity + extension",
            quasi < 1e-8 and seam < 1e-6,
            f"quasi={quasi:.2e}, seam={seam:.2e}")


def test_criterion_09_torus_closing(crit032):
    band = 2 * np.pi * crit032.lattice.lam
    target = 2 * np.pi / 3

    t0 = time.perf_counter()
    amp, achieved = frame.close_torus(band / 2, 6.0, crit032, target)
    angle_err = abs(achieved - target)
    spec = reparam.analytic(band / 2, amp, 6.0)
    piece = surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=spec, nu=48, nv=48))
    mono = frame.monodromy(frame.integrate(spec, crit032,
                                           period_nodes(spec)).phi[-1])
    torus = frame.extend_by_rotation(piece, mono, 3)
    gap = float(np.max(np.linalg.norm(
        torus.points[:, -1, :] - torus.points[:, 0, :], axis=-1)))
    dt = time.perf_counter() - t0
    _report(9, "torus closing", angle_err < 1e-9 and gap < 1e-6 and dt < 60.0,
            f"|theta-2pi/3|={angle_err:.2e}, gap={gap:.2e}, {dt:.1f}s")


def test_criterion_10_spherical(sph, sph_spec, sph_surf, crit032):
    mono = frame.monodromy(frame.integrate(sph_spec, crit032,
                                           period_nodes(sph_spec)).phi[-1])
    vals = verify.spherical_battery(sph_surf, mono, sph)
    ok = (vals["sphere_fit"] < 1e-6 and vals["collinearity"] < 1e-6
          and vals["axis_norm_sq"] < 1e-8 and vals["axis_vs_monodromy"] < 1e-6)
    _report(10, "spherical second family", ok,
            f"fit={vals['sphere_fit']:.2e}, collin={vals['collinearity']:.2e}, "
            f"|Z'|^2 rel={vals['axis_norm_sq']:.2e}, "
            f"axis angle={vals['axis_vs_monodromy']:.2e}")


def test_criterion_11_g2_g3_invariance(crit032):
    a = elliptic.g2g3(crit032.omega, crit032)
    b = elliptic.g2g3(crit032.omega + 0.37, crit032)
    rel = max(abs(x - y) / max(abs(x), 1e-30) for x, y in zip(a, b))
    _report(11, "g2/g3 invariance", rel < 1e-9, f"max rel={rel:.2e}")


def test_criterion_12_limit_surface(limit_surf, lam0):
    fam = elliptic.Family(theta.rhombic(lam0), 0.0, "limit")
    spec = limit_surf.recipe.spec
    closure = 0.0
    for v in np.linspace(0.0, spec.period, 7):
        g = curvefamily.forms_at(np.array([0.0, 2 * np.pi]), float(spec.w(v)),
                                 fam, ("gamma_hat",))["gamma_hat"]
        closure = max(closure, float(abs(g[1] - g[0])))
    conf = limit_surf.diagnostics["conformality"]
    plan = surface.planarity_certificate(limit_surf)
    # normals_rank_defect 0: the plane normals have rank 2 on the limit
    ok = (closure < 1e-9 and conf < 1e-7 and plan["planarity"] < 1e-8
          and plan["joachimsthal"] < 1e-5 and plan["normals_rank_defect"] == 0)
    _report(12, "limit surface certificates", ok,
            f"closure={closure:.2e}, conformality={conf:.2e}, "
            f"rank={2 + plan['normals_rank_defect']}")
