"""The checks that `verify`, `surface` and `spherical` report.

CHECKS is the one table of check names, in report order, with each check's
default tolerance and kind, which says what moves that tolerance; it alone
holds the thresholds that decide pass or fail.  The certificates of the
surface, reparam and spherical modules return plain values, several as a
dict keyed by CHECKS names, and pass no verdict.  `battery` collects the
surface checks' values and `spherical_battery` the spherical command's,
each as a name -> value dict; `entries` turns such a dict into a report's
check entries, each judged against its tolerance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# modules, not names: importing this module executes no other
from . import curvefamily, reparam, spherical, surface


class Check(NamedTuple):
    """A check passes when |value| < its tolerance, by default tol.

    kind "residual": tolerances.<name> and --tol move tol.  "convergence",
    a measure of how an error shrinks between two resolutions:
    tolerances.<name> moves tol, --tol does not.  "structural", a 0/1 or
    rank check: neither does.
    """
    tol: float
    kind: str = "residual"
    spherical_tol: float | None = None  # the default on reparam.kind spherical


# A quadrature-built spherical w(v) has much larger v-derivatives than the
# analytic profiles, so the truncation constant of the PDE residuals (and
# hence their cap) is larger.
_PDE = Check(1e-5, spherical_tol=1e-2)

CHECKS = {
    # surface battery; the limit surface has conformality, the others
    # conformality_u/_v, normal_unit and normal_tangency
    "orthogonality": Check(1e-10),
    "conformality": Check(1e-10),
    "conformality_u": Check(1e-10),
    "conformality_v": Check(1e-10),
    "normal_unit": Check(1e-10),
    "normal_tangency": Check(1e-10),
    "u_closure": Check(1e-9),
    # not on the limit surface, from metric_identity to dual_loop_integral
    "metric_identity": Check(1e-9),
    "pde_gauss": _PDE,
    "pde_codazzi_u": _PDE,
    "pde_codazzi_v": _PDE,
    "pde_harmonic": _PDE,
    "pde_cauchy_riemann": _PDE,
    "pde_riccati": _PDE,
    "pde_hw_quartic": _PDE,
    "pde_order_deficit": Check(0.05, "convergence"),
    "fv_vs_fd": Check(1e-6),
    "reparam_admissible": Check(0.5, "structural"),
    "root_consistency": Check(1e-8),
    "root_branch_smoothness": Check(1.5, "convergence"),
    # at the critical omega only
    "inversion_involution": Check(1e-8),
    "inversion_involution_rel": Check(1e-8),
    "inversion_omega_sphere": Check(1e-8),
    "inversion_omega_parallel": Check(1e-8),
    "dual_dual_u": Check(1e-8),
    "dual_dual_v": Check(1e-8),
    "dual_double_dual": Check(1e-7),
    "dual_loop_integral": Check(1e-7),
    "planarity": Check(1e-8),
    "joachimsthal": Check(1e-8),
    "normals_rank_defect": Check(0.5, "structural"),
    # sphere_fit and sphere_angle: the battery on spherical specs;
    # sphere_fit through axis_vs_monodromy: the spherical command
    "sphere_fit": Check(1e-6),
    "sphere_angle": Check(1e-6),
    "collinearity": Check(1e-6),
    "cone_point_planes": Check(1e-7),
    "axis_unit": Check(1e-9),
    "axis_norm_sq": Check(1e-8),
    "axis_vs_monodromy": Check(1e-6),
}


def entries(values, cfg, tol=None) -> list:
    """The report's {"name", "value", "tolerance", "pass"} entries of a
    name -> value dict, in its order.  A residual check's tolerance is
    `tol` (--tol) if given, else the config's tolerances.<name>, else its
    default; a convergence check's is the config's or its default, and a
    structural check keeps its default."""
    tols = cfg.get("tolerances", {})
    is_spherical = cfg["reparam"]["kind"] == "spherical"
    out = []
    for name, value in values.items():
        check = CHECKS[name]
        bound = check.tol
        if is_spherical and check.spherical_tol:
            bound = check.spherical_tol
        if check.kind == "residual" and tol is not None:
            bound = float(tol)
        elif check.kind != "structural":
            bound = float(tols.get(name, bound))
        out.append({"name": name, "value": float(value), "tolerance": bound,
                    "pass": bool(abs(value) < bound)})
    return out


def battery(surf, fam) -> dict:
    """The values of every surface-level certificate of surf on fam."""
    spec = surf.recipe.spec
    is_limit = fam.mode == "limit"
    values = dict(surf.diagnostics)  # the build's metric and normal residuals

    # u-closure of gamma (gamma_hat on the limit; closed only at critical
    # omega on rhombic lattices) between u = 0 and 2 pi, rows 0 and 64 of
    # one grid
    ws = np.asarray(spec.w(np.linspace(0.0, spec.period, 9)), dtype=float)
    names = ("gamma_hat",) if is_limit else ("exp_h", "gamma")
    g = curvefamily.forms_at(np.linspace(0.0, 2 * np.pi, 65), ws, fam, names)
    gam = g[names[-1]]
    values["u_closure"] = float(np.max(np.abs(gam[-1] - gam[0])))

    if not is_limit:
        # metric identity e^h = 2 Re(W1 conj gamma) on that grid's 64 u < 2 pi
        eh, gam = g["exp_h"][:-1], gam[:-1]
        w1 = curvefamily.w1(ws, fam)
        values["metric_identity"] = float(
            np.max(np.abs(eh - 2 * np.real(w1 * np.conj(gam))) / eh))

        # PDE identities: require second-order convergence of the FD
        # residuals plus a residual cap; with w' = 0 at every v-sample
        # pde_codazzi_v vanishes identically, its roundoff of no order
        stencil, fv_fd, loop = small_grids(surf, fam)
        res, coarse = surface.pde_battery(fam, spec, *stencil)
        values.update(res)
        flat = surface.is_flat(surf)
        orders = [np.log2(coarse[k] / res[k]) for k in res
                  if res[k] > 1e-12 and not (flat and k == "pde_codazzi_v")]
        values["pde_order_deficit"] = (max(0.0, 1.9 - min(orders)) if orders
                                       else 0.0)

        # closed-form fv against a finite difference of the immersion
        values["fv_vs_fd"] = _fv_fd_residual(fv_fd)

        # admissibility + branch smoothness of the signed root: a wrong
        # branch (e.g. |.| of a sign-changing root) kinks, so its second
        # divided differences keep growing under mesh refinement
        rep = surf.traj.admissibility  # the frame solve validated with it
        values["reparam_admissible"] = 0.0 if rep.ok else 1.0
        values["root_consistency"] = rep.root_residual
        # floor the denominator so roundoff-level dd2 (constant w) passes
        values["root_branch_smoothness"] = (rep.root_dd2
                                            / max(rep.root_dd2_coarse, 1.0))

        if fam.mode == "critical":  # symmetry involutions
            values.update(surface.inversion_symmetry(surf, fam))
            values.update(surface.dual_symmetry(surf, loop))

    values.update(surface.planarity_certificate(surf))
    if spec.kind == "spherical" and not is_limit:
        values.update(reparam.sphericality_certificate(surf))
    return values


_FV_DV = 1e-4  # the v-step of fv_vs_fd's differences


def _fv_fd_residual(f):
    """Max |fv - d(points)/dv| (catches sign errors) on f, fv_vs_fd's
    block of `small_grids` (three probes, each at -dv, 0 and +dv), relative
    to its largest e^h = |fv|: the truncation error grows with scale."""
    pts = f["points"].reshape(-1, 3, 3, 3)        # (u, probe, shift, xyz)
    fd = (pts[:, :, 2] - pts[:, :, 0]) / (2 * _FV_DV)
    err = np.max(np.abs(fd - f["fv"].reshape(pts.shape)[:, :, 1]))
    return float(err / np.max(f["expH"]))


def small_grids(surf, fam):
    """The battery's small grids on surf, (stencil, fv_fd, loop):
    pde_battery's arguments after fam and spec, then the blocks of
    fv_vs_fd and of dual_symmetry's loop (None off a critical family).
    One `traj.at` reads the frame at every v off the display grid, and the
    blocks are the diagonal blocks of one `fields_at` tensor (their u and
    v concatenated): 26 x 27 points on a 128 x 128 critical grid.  The
    u = omega row of inversion_symmetry comes with the display grid
    (`surface.build`)."""
    critical, steps = fam.mode == "critical", (4e-4, 8e-4)
    u_probes, v_probes = surface._gauss_codazzi_probes(surf)
    v0 = np.linspace(0.31, 0.77, 3) * surf.recipe.spec.period
    fv_v = (v0[:, None] + [-_FV_DV, 0.0, _FV_DV]).ravel()
    um, vm, *weights = surface._dual_loop(surf) if critical else [[]] * 4
    off_grid = [surface._stencil(v_probes, steps).ravel(), fv_v, vm]
    phi = np.split(surf.traj.at(np.concatenate(off_grid)),
                   np.cumsum([len(v) for v in off_grid[:-1]]))
    # (u, v, frame at v): fv_vs_fd's every (nu // 8)-th u x probes, then
    # on a critical family the loop's edges
    blocks = [(surf.u[:: max(1, len(surf.u) // 8)], fv_v, phi[1]),
              (um, surf.v[1:3], surf.phi[1:3]),
              (surf.u[1:3], vm, phi[2])][:3 if critical else 1]
    f = surface.fields_at(fam, surf.recipe.spec,
                          *(np.concatenate(x) for x in zip(*blocks)),
                          ("points", "fu", "fv", "expH"))
    iu, iv = (np.cumsum([0] + [len(b[k]) for b in blocks]) for k in (0, 1))
    fv_fd, *rest = ({k: x[iu[i]:iu[i + 1], iv[i]:iv[i + 1]]
                     for k, x in f.items()} for i in range(len(blocks)))
    loop = (*weights, *rest) if critical else None
    return (u_probes, v_probes, phi[0], steps), fv_fd, loop


def spherical_battery(surf, mono, sph) -> dict:
    """The values of the spherical second family's certificates of surf,
    built from the SphericalSpec sph on a critical family, against `mono`,
    the monodromy of the surface's frame."""
    ratio, _, b_point = spherical.collinearity(
        *spherical.sphere_centers(surf, sph))
    return {
        "sphere_fit": reparam.sphere_fit(surf),
        "collinearity": ratio,
        "cone_point_planes": spherical.cone_point(surf, b_point),
        **spherical.axis(sph, surf, mono.axis),
    }
