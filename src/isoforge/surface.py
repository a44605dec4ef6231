"""Immersion assembly f(u,v) = Phi^{-1} gamma j Phi and its verification battery.

All frame fields come from closed forms: with z j = a j + b k for z = a + ib,

    f   = Phi^{-1} ( gamma j ) Phi,
    f_u = e^h Phi^{-1} ( e^{i sigma} j ) Phi,
    f_v = e^h Phi^{-1} ( sqrt(1-w'^2) i + w' e^{i sigma} k ) Phi,
    n   =     Phi^{-1} ( w' i - sqrt(1-w'^2) e^{i sigma} k ) Phi,

where sqrt(1-w'^2) is the spec's signed root.  fields_at evaluates the
fields its caller names on a (u, v) grid in blocks of whole v columns: the
fewest blocks of at most _BLOCK_POINTS points, their widths differing by at
most one (np.array_split's rule), so a 128 x 129 display grid runs as three
blocks of 43 columns.  Each block is one `curvefamily.forms_at` call on
u x w(block), for the closed forms its fields read (points: gamma;
fu, fv: e^h and e^{i sigma}; n: e^{i sigma}; expH: e^h), whose theta
arrays come from one `theta.theta_tensor` call with the truncation bound
of the theta series.  The blocks keep the theta temporaries bounded, and
the frame acts through one 3x3 rotation matrix per column
(quat.qrotation(Phi), whose columns are Phi^{-1} i Phi, Phi^{-1} j Phi and
Phi^{-1} k Phi).  Each vector field is stored as component planes: one
C-contiguous (3, nu, nv) array of its x, y and z grids, assembled plane by
plane and exposed as the (nu, nv, 3) view np.moveaxis(planes, 0, -1);
elementwise results keep the layout, and reshape(-1, 3) of such a view
copies.  Every norm and dot product over xyz (`_norm`, `_dot`) adds the
three planes: bit for bit the values of numpy's 3-wide reduce, at a
fraction of its time on C-ordered grids (0.1 against 0.4 ms at
128 x 129) and on the battery's fresh temporaries, where
np.linalg.norm's own (..., 3) temporaries cost most.

A recipe whose family has mode "limit" builds the omega -> 0 limit surface
(planes tangent to a cylinder) instead, assembled from the limit data
gamma_hat, W_hat, r; its rotation e^{-2ia(v)} and translation T(v) solve a
linear 2x2 system, integrated by the frame module's Magnus solver.

The residual battery (Gauss, Codazzi, harmonicity, Cauchy-Riemann, Riccati)
evaluates the closed-form fields on one small finite-difference stencil grid
around all probes and all probe steps at once, whose steps are independent
of the display grid, so truncation error is controlled by the probe step
alone.  The frame at the battery's own v-nodes (that stencil, the dual
loop's quadrature nodes) comes from one integration over all of them
(`battery_frame`), looked up per node by `phi_at`.

Every certificate here (`build`'s diagnostics, each level of `pde_battery`,
`inversion_symmetry`, `dual_symmetry` and `planarity_certificate`) returns
its values as a plain dict keyed by `verify.CHECKS` names and passes no
verdict: `verify.CHECKS` alone holds the thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvefamily, frame, reparam
from .elliptic import Family, coeffs, gauss_legendre
from .quat import qrotation
from .reparam import ReparamSpec


@dataclass(frozen=True)
class SurfaceRecipe:
    fam: Family              # its mode "limit" selects the limit surface
    spec: ReparamSpec
    nu: int = 128
    nv: int = 128            # v samples per period
    periods: int = 1


@dataclass(frozen=True)
class SampledSurface:
    u: np.ndarray            # (nu,)
    v: np.ndarray            # (nv_total,)
    points: np.ndarray       # (nu, nv_total, 3)
    fu: np.ndarray
    fv: np.ndarray
    n: np.ndarray
    expH: np.ndarray         # (nu, nv_total)
    phi: np.ndarray          # (nv_total, 4) frame samples (None for limit)
    recipe: SurfaceRecipe
    diagnostics: dict = field(default_factory=dict)


# grid points per block of whole v columns in fields_at (one column when
# nu is larger).  Each block pays a fixed cost for its forms_at call (the theta
# call and the forms, about half of a one-column call's 0.3 to 0.6 ms), so
# display-size grids want few blocks; but beyond about 8k points the cost
# per point rises again (a cache knee).  On a 128 x 129 grid, three blocks
# of 43 columns ran faster than five, two or one.
_BLOCK_POINTS = 8192


def _norm(x):
    """|x| over the last axis of a (..., 3) grid, from its x, y and z
    planes: bit for bit np.linalg.norm(x, axis=-1), whose 3-wide reduce
    also adds the squares left to right."""
    x0, x1, x2 = np.moveaxis(x, -1, 0)
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def _dot(x, y):
    """x . y over the last axis of (..., 3) grids, broadcasting, from
    their planes: bit for bit np.sum(x * y, axis=-1), whose reduce starts
    from +0.0 (so three products of -0.0 sum to +0.0 here too)."""
    (x0, x1, x2), (y0, y1, y2) = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
    return x0 * y0 + x1 * y1 + x2 * y2 + 0.0


# the fields of fields_at and the curvefamily forms each one reads
_FIELD_FORMS = {
    "points": ("gamma",),
    "fu": ("exp_h", "exp_isigma"),
    "fv": ("exp_h", "exp_isigma"),
    "n": ("exp_isigma",),
    "expH": ("exp_h",),
}
FIELDS = tuple(_FIELD_FORMS)


def fields_at(fam: Family, spec: ReparamSpec, u, v, phi, names=FIELDS):
    """Closed-form immersion fields on the tensor grid u x v.

    phi must hold the frame at the nodes of v, shape (len(v), 4).
    Returns a dict of the fields in names (all of FIELDS by default):
    the (nu, nv, 3) grids points/fu/fv/n and the (nu, nv) metric factor
    expH.  Only those are assembled, from the theta arrays their closed
    forms read.  Each (nu, nv, 3) grid is the
    np.moveaxis(planes, 0, -1) view of one C-contiguous (3, nu, nv) array
    of x, y and z planes, so a reduction over xyz and numpy's elementwise
    results keep plane order; its reshape(-1, 3) copies.
    """
    unknown = set(names) - set(FIELDS)
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = len(u), len(v)
    forms = tuple(dict.fromkeys(f for name in names for f in _FIELD_FORMS[name]))
    w_arr, wp, root = spec.planes(v)
    # rot[c, b, j]: component c of the image of basis vector b (i, j, k) at
    # v_j, contiguous in j like the planes
    rot = np.ascontiguousarray(np.moveaxis(qrotation(phi), 0, -1))
    planes = {name: np.empty((3, nu, nv)) for name in names
              if name != "expH"}
    eh = np.empty((nu, nv)) if "expH" in names else None
    # the fewest blocks of at most _BLOCK_POINTS points, the first
    # nv % nblocks of them one column wider (np.array_split's widths)
    nblocks = -(-nv // max(1, _BLOCK_POINTS // max(nu, 1)))
    width, wider = divmod(nv, max(nblocks, 1))
    edges = np.cumsum([0] + [width + 1] * wider + [width] * (nblocks - wider))
    for lo, hi in zip(edges[:-1], edges[1:]):
        cols = slice(lo, hi)
        f = curvefamily.forms_at(u, w_arr[cols], fam, forms)
        gam, eis, eh_c = (f.get(x) for x in ("gamma", "exp_isigma", "exp_h"))
        if "expH" in names:
            eh[:, cols] = eh_c
        ri, rj, rk = (rot[:, b, None, cols] for b in range(3))  # (3, 1, cols)
        # z j = a j + b k and z k = a k - b j for z = a + ib
        if "points" in planes:
            planes["points"][:, :, cols] = gam.real * rj + gam.imag * rk
        if "fu" in planes:
            planes["fu"][:, :, cols] = eh_c * (eis.real * rj + eis.imag * rk)
        if "fv" in planes or "n" in planes:
            eis_k = eis.real * rk - eis.imag * rj
        if "fv" in planes:
            planes["fv"][:, :, cols] = eh_c * (root[cols] * ri + wp[cols] * eis_k)
        if "n" in planes:
            planes["n"][:, :, cols] = wp[cols] * ri - root[cols] * eis_k
    out = {name: np.moveaxis(p, 0, -1) for name, p in planes.items()}
    if "expH" in names:
        out["expH"] = eh
    return out


def build(recipe: SurfaceRecipe) -> SampledSurface:
    """Sample the immersion on a (u, v) grid with its frame fields."""
    if recipe.fam.mode == "limit":
        return build_limit(recipe)
    spec, fam = recipe.spec, recipe.fam
    u = np.linspace(0.0, 2 * np.pi, recipe.nu, endpoint=False)
    v = np.linspace(0.0, recipe.periods * spec.period,
                    recipe.periods * recipe.nv + 1)
    traj = frame.integrate(spec, fam, v_nodes=v)
    f = fields_at(fam, spec, u, v, traj.phi)

    eh = f["expH"]
    fu, fv, nrm = f["fu"], f["fv"], f["n"]
    diagnostics = {
        "orthogonality": float(np.max(np.abs(_dot(fu, fv))) / np.max(eh ** 2)),
        "conformality_u": float(np.max(np.abs(_norm(fu) - eh) / eh)),
        "conformality_v": float(np.max(np.abs(_norm(fv) - eh) / eh)),
        "normal_unit": float(np.max(np.abs(_norm(nrm) - 1.0))),
        "normal_tangency": float(max(np.max(np.abs(_dot(fu, nrm))),
                                     np.max(np.abs(_dot(fv, nrm))))
                                 / np.max(eh)),
        "frame": traj.stats,
    }
    return SampledSurface(u=u, v=v, points=f["points"], fu=fu, fv=fv, n=nrm,
                          expH=eh, phi=traj.phi, recipe=recipe,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# the omega -> 0 limit surface (planes tangent to a cylinder)


def _limit_frame_arrays(fam: Family, spec: ReparamSpec, v):
    """E = e^{-2ia(v)} (the rotation) and T(v) = T_x + i T_y (the translation)
    of the limit immersion at the nodes v (to frame.STEP_TOL).

    a' = sqrt(1-w'^2) W_hat(w) and T' = sqrt(1-w'^2) r(w) e^{-2ia} make
    (E, T) the first column of the solution of the linear system
    Y' = [[-2i root W_hat, 0], [root r, 0]] Y, Y(0) = 1.
    """

    def a_of_v(vv):
        w, _, root = spec.planes(vv)
        y = np.zeros(np.shape(vv) + (2, 2), dtype=complex)
        y[..., 0, 0] = -2j * root * curvefamily.w_hat(w, fam)
        y[..., 1, 0] = root * curvefamily.limit_r(w, fam)
        return y

    (y, _), = frame._magnus_solve(lambda vv, _: a_of_v(vv), frame.Matrices2,
                                  [(v, spec.period / 128)], frame.STEP_TOL)
    return y[:, 0, 0], y[:, 1, 0]


def build_limit(recipe: SurfaceRecipe) -> SampledSurface:
    """The omega = 0 limit immersion at the degenerate lattice.

    f = Im(gamma_hat) k + Re(gamma_hat) j e^{2 a k} + T(v), with T' along
    i e^{2 a k}; the planes of the u-curves stay tangent to a cylinder.
    An inadmissible spec raises SpecInvalid.
    """
    fam, spec = recipe.fam, recipe.spec
    reparam.require_admissible(spec, fam.lattice)
    u = np.linspace(0.0, 2 * np.pi, recipe.nu, endpoint=False)
    v = np.linspace(0.0, recipe.periods * spec.period,
                    recipe.periods * recipe.nv + 1)
    E, T = _limit_frame_arrays(fam, spec, v)
    w_arr, wp, root = spec.planes(v)
    gh = curvefamily.gamma_hat(u[:, None], w_arr[None, :], fam)
    ghu = curvefamily.gamma_hat_u(u[:, None], w_arr[None, :], fam)
    gv = 1j * wp * ghu
    turn = root * (2 * curvefamily.w_hat(w_arr, fam) * gh.real
                   + curvefamily.limit_r(w_arr, fam))

    def vec(g, plane):
        """The xyz planes (3, nu, nv) of Im(g) k plus the (i, j)-plane
        vector x + i y = plane, in which j e^{2 a k} is i E and i e^{2 a k}
        is E."""
        return np.stack([plane.real, plane.imag, g.imag])

    points = vec(gh, 1j * E * gh.real + T)
    fu = vec(ghu, 1j * E * ghu.real)
    fv = vec(gv, 1j * E * gv.real + E * turn)
    # np.cross(fu, fv), plane by plane: the same products and differences
    cross = np.stack([fu[1] * fv[2] - fu[2] * fv[1],
                      fu[2] * fv[0] - fu[0] * fv[2],
                      fu[0] * fv[1] - fu[1] * fv[0]])
    nrm = cross / _norm(np.moveaxis(cross, 0, -1))
    points, fu, fv, nrm = (np.moveaxis(p, 0, -1) for p in (points, fu, fv, nrm))
    eh = _norm(fu)

    diagnostics = {
        "orthogonality": float(np.max(np.abs(_dot(fu, fv))) / np.max(eh ** 2)),
        "conformality": float(np.max(np.abs(_norm(fv) - eh) / eh)),
    }
    return SampledSurface(u=u, v=v, points=points, fu=fu, fv=fv, n=nrm,
                          expH=eh, phi=None, recipe=recipe,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# residual battery
#
# Besides the display grid, the battery reads the frame at v-nodes of its
# own: the PDE stencil (`gauss_codazzi_nodes`), the fv_vs_fd probes of the
# CLI and the dual loop's quadrature nodes (`dual_loop_nodes`).
# `battery_frame` integrates the frame once over the union of such node
# sets, at a step_tol ten times below the display grid's frame.STEP_TOL,
# since the stencils take differences over steps of 1e-4 to 8e-4, and each
# consumer looks its nodes up with `phi_at`.
_BATTERY_STEP_TOL = 1e-13
# u- and v-probes each of gauss_codazzi_nodes and gauss_codazzi_residuals
_N_PROBE = 6


def battery_frame(fam, spec, v_sets) -> frame.FrameTrajectory:
    """The frame from one integration over v = 0 and the union of the
    v-arrays of v_sets (any shapes)."""
    nodes = np.unique(np.concatenate([[0.0], *map(np.ravel, v_sets)]))
    return frame.integrate(spec, fam, v_nodes=nodes,
                           step_tol=_BATTERY_STEP_TOL)


def phi_at(traj: frame.FrameTrajectory, v):
    """The frame of traj at v, each entry of which must be one of its
    nodes (ValueError otherwise); shape v.shape + (4,)."""
    v = np.asarray(v, dtype=float)
    at = np.minimum(np.searchsorted(traj.v, v), len(traj.v) - 1)
    if not np.array_equal(traj.v[at], v):
        raise ValueError("v holds values that are not nodes of the trajectory")
    return traj.phi[at]


def _shifts(steps):
    """The stencil shifts 0, -h, +h of every probe step h, shape (S,)."""
    return np.concatenate([[0.0], *([-h, h] for h in steps)])


def pde_nodes(v_probes, steps=(4e-4,)):
    """The v-nodes of the PDE stencil: v_probes + every shift, (S, nv)."""
    return np.asarray(v_probes, dtype=float) + _shifts(steps)[:, None]


def pde_battery(fam, spec, u_probes, v_probes, traj, steps=(4e-4,)):
    """Max residuals of the local structure equations at probe points, one
    dict per probe step h of `steps` (du = dv = h), keyed by check name
    (pde_gauss, ..., pde_hw_quartic).

    Identities: Gauss  h_uu + h_vv + k1 k2 e^{2h} = 0,
    Codazzi  k1_v = h_v (k2 - k1)  and  k2_u = h_u (k1 - k2),
    harmonicity  h_uu + h_ww = 0,  Cauchy-Riemann  h_u = sigma_w,
    h_w = -sigma_u,  and the Riccati equation  h_u = U e^h + U1 e^{-h}.
    All derivatives are centered differences with step h of the
    closed-form fields, so the battery converges at second order in the
    probe step independently of any display grid.  The shifts 0, -h, +h of
    every step form one stencil: one `forms_at` call on its u-nodes x (its w(v)
    and its w-shifts), one `coeffs` sample and one `fields_at` on its
    u-nodes x v-nodes serve every step.  Grids below have the shifts along
    their leading axes.

    The frame at the stencil's v-nodes (`pde_nodes(v_probes, steps)`) comes
    from traj, one integration that holds them among its nodes
    (`battery_frame`).
    """
    u_probes = np.asarray(u_probes, dtype=float)
    nu, nv = len(u_probes), len(v_probes)
    off = _shifts(steps)                                       # (S,)
    ns = len(off)
    us = u_probes + off[:, None]                               # (S, nu)
    vs = pde_nodes(v_probes, steps)                            # (S, nv)

    # grid columns: w(v_probes + off[s]) for every s, then w(v_probes) + off[s]
    # for s > 0 (the w-shifts)
    wv, wpv, _ = spec.planes(vs.ravel())
    grid = curvefamily.forms_at(
        us.ravel(), np.concatenate([wv, (wv[:nv] + off[1:, None]).ravel()]),
        fam, ("exp_h", "dlog_gamma_u", "exp_isigma"))
    wcol = np.concatenate([[0], np.arange(ns, 2 * ns - 1)])

    def on_stencil(x):
        """x on (u-shift, u-probe, v-shift, v-probe), along w(v), and on
        (w-shift, u-probe, v-probe) at the unshifted u."""
        x = x.reshape(ns, nu, 2 * ns - 1, nv)
        return x[:, :, :ns], x[0, :, wcol]

    h_uv, h_wv = on_stencil(np.log(grid["exp_h"]))
    dl_uv, dl_wv = on_stencil(grid["dlog_gamma_u"])
    eis_uv, eis_wv = on_stencil(grid["exp_isigma"])
    # h_v = h_w(w(v)) w'(v) analytically, so h_vv is a single difference
    h_v_all = (-np.imag(np.moveaxis(dl_uv[0], 1, 0))
               * wpv.reshape(ns, 1, nv))                       # (S, nu, nv)
    h_c, h_v, s_c = h_uv[0, :, 0], h_v_all[0], eis_uv[0, :, 0]
    ehc = np.exp(h_c)

    cs = coeffs(u_probes, fam)
    U, U1, U2, Up, U1p = (getattr(cs, k)[:, None]
                          for k in ("U", "U1", "U2", "Uprime", "U1prime"))

    # second fundamental form: k1 = <f_uu, n> e^{-2h}, k2 = <f_vv, n> e^{-2h},
    # on the stencil grid us x vs: (u-shift, u-probe, v-shift, v-probe)
    f = fields_at(fam, spec, us.ravel(), vs.ravel(), phi_at(traj, vs.ravel()),
                  ("fu", "fv", "n", "expH"))
    fu, fv, nrm = (f[k].reshape(ns, nu, ns, nv, 3) for k in ("fu", "fv", "n"))
    e2h = f["expH"].reshape(ns, nu, ns, nv) ** 2

    def worst(x):
        return float(np.max(np.abs(x)))

    levels = []
    for lvl, h in enumerate(steps):
        m, p = 1 + 2 * lvl, 2 + 2 * lvl          # the shifts -h and +h
        sh = [m, 0, p]

        def d(x):
            """Centered difference along the leading (shift) axis."""
            return (x[p] - x[m]) / (2 * h)

        h_u, h_w = d(h_uv[:, :, 0]), d(h_wv)
        # second derivatives as single differences of the analytic first
        # derivatives (h + i sigma)_u = dlog gamma_u, so double-difference
        # roundoff never enters
        h_uu, h_ww = np.real(d(dl_uv[:, :, 0])), -np.imag(d(dl_wv))
        h_vv = d(h_v_all)
        # Cauchy-Riemann via branch-free log-derivatives of e^{i sigma}
        sig_u = np.imag(d(eis_uv[:, :, 0]) / s_c)
        sig_w = np.imag(d(eis_wv) / s_c)

        # k1 on (u-probe, v-shift [-h, 0, +h], v-probe), k2 on
        # (u-shift [-h, 0, +h], u-probe, v-probe)
        k1 = _dot(d(fu[:, :, sh]), nrm[0][:, sh]) / e2h[0][:, sh]
        k2 = (_dot(d(np.moveaxis(fv[sh], 2, 0)), nrm[sh][:, :, 0])
              / e2h[sh][:, :, 0])
        k1c, k2c = k1[:, 1], k2[1]
        k1_v = (k1[:, 2] - k1[:, 0]) / (2 * h)
        k2_u = (k2[2] - k2[0]) / (2 * h)

        levels.append({
            "pde_gauss": worst(h_uu + h_vv + k1c * k2c * np.exp(2 * h_c)),
            "pde_codazzi_u": worst(k2_u - h_u * (k1c - k2c)),
            "pde_codazzi_v": worst(k1_v - h_v * (k2c - k1c)),
            "pde_harmonic": worst(h_uu + h_ww),
            "pde_cauchy_riemann": max(worst(h_u - sig_w),
                                      worst(h_w + sig_u)),
            "pde_riccati": worst(h_u - U * ehc - U1 / ehc),
            "pde_hw_quartic": worst(h_w ** 2 + U1 ** 2 / ehc ** 2
                                    - 2 * U1p / ehc + U2 + 2 * Up * ehc
                                    + U ** 2 * ehc ** 2),
        })
    return levels


def planarity_certificate(s: SampledSurface) -> dict:
    """Best-fit planes of the u-curves, by check name: `planarity`, the
    largest distance of a curve from its plane relative to the curve's
    diameter; `joachimsthal`, the largest spread (std over u) of the cosine
    between n and the plane normal along one curve; and
    `normals_rank_defect`, the rank of the plane normals less the rank the
    surface expects: 3 in general, 2 on the limit surface (its planes are
    tangent to one cylinder) and on `is_flat` ones (congruent u-curves)."""
    pts = np.moveaxis(s.points, 1, 0)                  # (nv, nu, 3)
    q = pts - np.mean(pts, axis=1, keepdims=True)
    _, _, vt = np.linalg.svd(q, full_matrices=False)   # one SVD per column
    m = vt[:, -1]                                      # (nv, 3) plane normals
    diam = 2 * np.max(_norm(q), axis=1)
    dev = float(np.max(np.max(np.abs(_dot(q, m[:, None])), axis=1) / diam))
    cosang = _dot(s.n, m[None])                        # (nu, nv)
    ang = float(np.max(np.std(cosang, axis=0)))
    normals = np.where(m[:, 2:] >= 0, m, -m)
    sv = np.linalg.svd(normals, compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    expected = 2 if s.recipe.fam.mode == "limit" or is_flat(s) else 3
    return {"planarity": dev, "joachimsthal": ang,
            "normals_rank_defect": rank - expected}


def is_flat(s: SampledSurface) -> bool:
    """Whether w' = 0 at every v-sample of s (a constant w)."""
    return not np.any(s.recipe.spec.planes(s.v)[1])


def inversion_symmetry(s: SampledSurface, crit: Family) -> dict:
    """Thm-5.7 involution: -R(omega)^2 f^{-1}(u,v) = f(2 omega - u, v).

    For imaginary quaternions f^{-1} = -f/|f|^2, so the left side is
    R^2 f / |f|^2.  Also checks the u = omega sphere and tangency there.
    Returns the residuals `inversion_involution` (absolute and, as
    `inversion_involution_rel`, relative to |R|), `inversion_omega_sphere`
    and `inversion_omega_parallel`.
    """
    spec, fam = s.recipe.spec, crit
    R = fam.R
    f2 = fields_at(fam, spec, 2 * fam.omega - s.u, s.v, s.phi, ("points",))
    f = s.points
    inv = R ** 2 * f / _dot(f, f)[..., None]
    res_inv = float(np.max(_norm(inv - f2["points"])))

    row = fields_at(fam, spec, [fam.omega], s.v, s.phi, ("points", "fu"))
    fom = row["points"][0]
    sphere = float(np.max(np.abs(_norm(fom) - abs(R))))
    fuom = row["fu"][0]
    par = float(np.max(_norm(fom / R + fuom / _norm(fuom)[..., None])))
    return {"inversion_involution": res_inv,
            "inversion_involution_rel": res_inv / abs(R),
            "inversion_omega_sphere": sphere,
            "inversion_omega_parallel": par}


def dual_loop_nodes(s: SampledSurface):
    """The 16 Gauss-Legendre nodes on [v_1, v_2] of dual_symmetry's loop."""
    nodes, _ = gauss_legendre(16)
    va, vb = s.v[1], s.v[2]
    return 0.5 * (va + vb) + 0.5 * (vb - va) * nodes


def dual_symmetry(s: SampledSurface, traj: frame.FrameTrajectory) -> dict:
    """Christoffel duality as the u-shift: f^*(u,v) = -f(pi - u, v).

    The dual one-form is df^* = e^{-2h}(f_u du - f_v dv); the residuals
    compare the shifted closed-form fields against it, check closedness of
    the form around a grid cell, and apply the involution twice:
    `dual_dual_u`, `dual_dual_v`, `dual_double_dual` and
    `dual_loop_integral`.  The frame comes from s on the grid and from
    traj, an integration that holds `dual_loop_nodes(s)` among its nodes
    (`battery_frame`), inside the cell.
    """
    spec = s.recipe.spec
    fam = s.recipe.fam
    shifted = fields_at(fam, spec, np.pi - s.u, s.v, s.phi, ("fu", "fv"))
    e2h = s.expH[..., None] ** 2
    res_u = float(np.max(_norm(shifted["fu"] - s.fu / e2h)) / np.max(s.expH))
    res_v = float(np.max(_norm(shifted["fv"] - s.fv / e2h)) / np.max(s.expH))

    # double dual: the dual surface's dual one-form must equal df
    eh_star = 1.0 / s.expH
    fu_star = shifted["fu"]
    fv_star = -shifted["fv"]
    res_dd = float(max(
        np.max(_norm(fu_star / eh_star[..., None] ** 2 - s.fu)),
        np.max(_norm(-fv_star / eh_star[..., None] ** 2 - s.fv)),
    ) / np.max(s.expH))

    # closedness of the dual one-form around one grid cell (quadrature loop)
    nodes, weights = gauss_legendre(16)
    ua, ub = s.u[1], s.u[2]
    va, vb = s.v[1], s.v[2]
    um = 0.5 * (ua + ub) + 0.5 * (ub - ua) * nodes
    vm = dual_loop_nodes(s)
    # u-edges at v = va, vb (grid columns 1, 2); the v-edges need the frame
    # at interior quadrature nodes
    fl = fields_at(fam, spec, um, [va, vb], s.phi[1:3], ("fu", "expH"))
    om_u = fl["fu"] / fl["expH"][..., None] ** 2              # (16, 2, 3)
    fl = fields_at(fam, spec, [ua, ub], vm, phi_at(traj, vm), ("fv", "expH"))
    om_v = fl["fv"] / fl["expH"][..., None] ** 2              # (2, 16, 3)
    loop = (0.5 * (ub - ua) * weights @ (om_u[:, 0] - om_u[:, 1])
            + 0.5 * (vb - va) * weights @ (om_v[0] - om_v[1]))
    res_loop = float(np.linalg.norm(loop))

    return {"dual_dual_u": res_u, "dual_dual_v": res_v,
            "dual_double_dual": res_dd, "dual_loop_integral": res_loop}


def _gauss_codazzi_probes(s: SampledSurface):
    """u- and v-probes of the PDE battery, _N_PROBE of each from the grid.

    u-probes stay clear of u = pi/2 mod pi, where the Riccati coefficients
    U, U1 have poles (the identities hold only in the limit there).
    """
    dist = np.abs(np.mod(s.u + np.pi / 4, np.pi / 2) - np.pi / 4)
    ok = np.nonzero(dist > 0.08)[0][1:-1]
    iu = ok[np.unique(np.linspace(0, len(ok) - 1, _N_PROBE).astype(int))]
    jv = np.linspace(2, len(s.v) - 3, _N_PROBE).astype(int)
    return s.u[iu], s.v[jv]


def gauss_codazzi_nodes(s: SampledSurface, steps=(4e-4, 8e-4)):
    """The v-nodes at which gauss_codazzi_residuals reads the frame."""
    return pde_nodes(_gauss_codazzi_probes(s)[1], steps)


def gauss_codazzi_residuals(s: SampledSurface, traj: frame.FrameTrajectory,
                            steps=(4e-4, 8e-4)) -> list:
    """Convenience wrapper: run the PDE battery at _N_PROBE u- and
    v-probes from the grid, one dict of residuals per probe step.  traj
    must hold `gauss_codazzi_nodes(s, steps)` among its nodes."""
    u_probes, v_probes = _gauss_codazzi_probes(s)
    return pde_battery(s.recipe.fam, s.recipe.spec, u_probes, v_probes, traj,
                       steps)
