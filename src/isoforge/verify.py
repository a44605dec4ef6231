"""The checks that `verify`, `surface` and `spherical` report.

CHECKS is the one table of check names, in report order, with each check's
default tolerance and whether it is structural: a 0/1 or rank check whose
bound no tolerance moves.  `battery` computes the surface checks' values
and `spherical_battery` the spherical command's, each as a name -> value
dict; `entries` turns such a dict into a report's check entries.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# modules, not names: importing this module executes no other
from . import curvefamily, reparam, spherical, surface


class Check(NamedTuple):
    """A check passes when |value| < its tolerance, by default tol."""
    tol: float
    structural: bool = False  # tolerances.<name> and --tol leave tol as is
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
    "pde_order_deficit": Check(0.05),
    "fv_vs_fd": Check(1e-6),
    "reparam_admissible": Check(0.5, structural=True),
    "root_consistency": Check(1e-8),
    "root_branch_smoothness": Check(1.5),
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
    "normals_rank_defect": Check(0.5, structural=True),
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
    default; a structural check keeps its default."""
    tols = cfg.get("tolerances", {})
    is_spherical = cfg["reparam"]["kind"] == "spherical"
    out = []
    for name, value in values.items():
        check = CHECKS[name]
        bound = check.tol
        if is_spherical and check.spherical_tol:
            bound = check.spherical_tol
        if not check.structural:
            bound = float(tol if tol is not None else tols.get(name, bound))
        out.append({"name": name, "value": float(value), "tolerance": bound,
                    "pass": bool(abs(value) < bound)})
    return out


def battery(surf, fam) -> dict:
    """The values of every surface-level certificate of surf on fam."""
    spec = surf.recipe.spec
    is_limit = fam.mode == "limit"
    # the metric and normal residuals of the build (not its frame stats)
    values = {name: val for name, val in surf.diagnostics.items()
              if name in CHECKS}

    # u-closure of gamma (closed only at critical omega on rhombic lattices)
    ws = np.asarray(spec.w(np.linspace(0.0, spec.period, 9)), dtype=float)
    ends = np.array([0.0, 2 * np.pi])
    g0 = (curvefamily.gamma_hat(ends[:, None], ws, fam) if is_limit
          else curvefamily.gamma(ends, ws, fam))
    values["u_closure"] = float(np.max(np.abs(g0[1] - g0[0])))

    if not is_limit:
        # metric identity e^h = 2 Re(W1 conj gamma)
        us = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        grid = curvefamily.CurveGrid(us, ws, fam, forms=("exp_h", "gamma"))
        eh, gam = grid.exp_h, grid.gamma
        w1 = curvefamily.w1(ws, fam)
        values["metric_identity"] = float(
            np.max(np.abs(eh - 2 * np.real(w1 * np.conj(gam))) / eh))

        # the frame at the v-nodes of the PDE stencil, the fv_vs_fd probes
        # and the dual loop, from one integration
        v_sets = [surface.gauss_codazzi_nodes(surf), _fv_fd_nodes(spec)]
        if fam.mode == "critical":
            v_sets.append(surface.dual_loop_nodes(surf))
        traj = surface.battery_frame(fam, spec, v_sets)

        # PDE identities: require second-order convergence of the FD
        # residuals plus a residual cap
        res, coarse = surface.gauss_codazzi_residuals(surf, traj)
        values.update((f"pde_{name}", val) for name, val in res.items())
        orders = [np.log2(coarse[k] / res[k]) for k in res
                  if res[k] > 1e-12]
        values["pde_order_deficit"] = (max(0.0, 1.9 - min(orders)) if orders
                                       else 0.0)

        # closed-form fv against a finite difference of the immersion
        values["fv_vs_fd"] = _fv_fd_residual(surf, fam, traj)

        # admissibility + branch smoothness of the signed root: a wrong
        # branch (e.g. |.| of a sign-changing root) kinks, so its second
        # divided differences keep growing under mesh refinement
        rep_c = reparam.validate(spec, fam.lattice, n=2001)
        rep_f = reparam.validate(spec, fam.lattice, n=4001)
        values["reparam_admissible"] = 0.0 if rep_f.ok else 1.0
        values["root_consistency"] = rep_f.root_residual
        # floor the denominator so roundoff-level dd2 (constant w) passes
        values["root_branch_smoothness"] = (rep_f.root_dd2
                                            / max(rep_c.root_dd2, 1.0))

        if fam.mode == "critical":  # symmetry involutions
            inv = surface.inversion_symmetry(surf, fam)
            values.update((f"inversion_{name}", val)
                          for name, val in inv.residuals.items())
            dual = surface.dual_symmetry(surf, traj)
            values.update((f"dual_{name}", val)
                          for name, val in dual.residuals.items())

    plan = surface.planarity_certificate(surf)
    values["planarity"] = plan.max_deviation_rel
    values["joachimsthal"] = plan.angle_std_max
    # generic surfaces have plane normals spanning 3-space; the limit
    # surface's planes are all tangent to one cylinder (rank 2)
    values["normals_rank_defect"] = plan.normal_rank - (2 if is_limit else 3)

    if spec.kind == "spherical" and not is_limit:
        cert = reparam.sphericality_certificate(surf)
        values["sphere_fit"] = cert.sphere_residual_rel
        values["sphere_angle"] = cert.angle_std_max
    return values


def _fv_fd_nodes(spec, dv=1e-4):
    """The (probe, shift) v-nodes of _fv_fd_residual: three probes, each
    at -dv, 0 and +dv."""
    v0 = np.linspace(0.31, 0.77, 3) * spec.period
    return v0[:, None] + [-dv, 0.0, dv]


def _fv_fd_residual(surf, fam, traj, dv=1e-4):
    """Max |fv - d(points)/dv| at a few probes (catches sign errors), from
    one field grid over the probes' stencils.  The frame there comes from
    traj, an integration that holds `_fv_fd_nodes(spec, dv)` among its
    nodes (the battery's `surface.battery_frame`)."""
    spec = surf.recipe.spec
    nodes = _fv_fd_nodes(spec, dv).ravel()
    us = surf.u[:: max(1, len(surf.u) // 8)]
    f = surface.fields_at(fam, spec, us, nodes,
                          surface.phi_at(traj, nodes), ("points", "fv"))
    pts = f["points"].reshape(len(us), 3, 3, 3)   # (u, probe, shift, xyz)
    fd = (pts[:, :, 2] - pts[:, :, 0]) / (2 * dv)
    return float(np.max(np.abs(fd - f["fv"].reshape(pts.shape)[:, :, 1])))


def spherical_battery(surf, crit, mono) -> dict:
    """The values of the spherical second family's certificates of surf
    on the critical family crit: per-curve sphere fits, collinear sphere
    centres, the cone point's planes and the closed-form axis, against
    `mono`, the monodromy of the surface's frame."""
    cert = reparam.sphericality_certificate(surf)
    samples = spherical.sphere_centers(surf, crit)
    ratio, _, _ = spherical.collinearity(samples)
    _, plane_dist = spherical.cone_point(surf, samples)
    ax = spherical.axis(surf.recipe.spec, crit, surf)
    axdir = ax.Zprime_omega / np.linalg.norm(ax.Zprime_omega)
    angle = float(spherical.angle(axdir, mono.axis))
    return {
        "sphere_fit": cert.sphere_residual_rel,
        "collinearity": ratio,
        "cone_point_planes": plane_dist,
        "axis_unit": ax.unit_residual,
        "axis_norm_sq": abs(ax.norm_sq_assembled - ax.norm_sq) / ax.norm_sq,
        # between lines: the axis sign is free
        "axis_vs_monodromy": min(angle, np.pi - angle),
    }
