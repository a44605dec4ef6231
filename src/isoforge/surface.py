"""Immersion assembly f(u,v) = Phi^{-1} gamma j Phi and its verification battery.

All frame fields come from closed forms: with z j = a j + b k for z = a + ib,

    f   = Phi^{-1} ( gamma j ) Phi,
    f_u = e^h Phi^{-1} ( e^{i sigma} j ) Phi,
    f_v = e^h Phi^{-1} ( sqrt(1-w'^2) i + w' e^{i sigma} k ) Phi,
    n   =     Phi^{-1} ( w' i - sqrt(1-w'^2) e^{i sigma} k ) Phi,

where sqrt(1-w'^2) is the spec's signed root.  fields_at evaluates the
fields its caller names on a (u, v) grid in blocks of whole v columns: the
fewest blocks of at most _BLOCK_POINTS points, their widths differing by at
most one (np.array_split's rule), so a 128 x 129 display grid runs as one
block.  Each block is one `curvefamily.forms_at` call on u x w(block),
for the closed forms its fields read (points: gamma; fu, fv: e^h and
e^{i sigma}; n: e^{i sigma}; expH: e^h), whose theta arrays (A, G and D
for all five fields) come from one `theta.theta_tensor` call with the
truncation bound of the theta series.  The blocks keep the theta
temporaries bounded, and the frame acts through one 3x3 rotation matrix
per column (quat.qrotation(Phi), whose columns are Phi^{-1} i Phi,
Phi^{-1} j Phi and Phi^{-1} k Phi).  Each vector field is stored as
component planes: one C-contiguous (3, nu, nv) array of its x, y and z
grids, assembled plane by plane (`_assemble`, which the PDE stencil
shares) and exposed as the (nu, nv, 3) view np.moveaxis(planes, 0, -1);
elementwise results keep the layout, and reshape(-1, 3) of such a view
copies.  Every norm and dot product over xyz (`_norm`, `_dot`) adds the
three planes: bit for bit the values of numpy's 3-wide reduce, at a
fraction of its time on C-ordered grids (0.1 against 0.4 ms at 128 x 129)
and on the battery's fresh temporaries, where np.linalg.norm's own
(..., 3) temporaries cost most.  On a critical family `build` evaluates
u and the row u = omega in one call; its display grids are views of the
first nu rows of those planes (each x, y and z plane still contiguous),
and it keeps all five fields on the row, views of the same arrays, as
`omega_row`.

A recipe whose family has mode "limit" builds the omega -> 0 limit surface
(planes tangent to a cylinder) instead, assembled from the limit forms
gamma_hat and gamma_hat_u (one `forms_at` call) and the rotation data
W_hat and r of w (`curvefamily.limit_rotation`, three theta lines per
call: one call at the grid's v, one at the frame's quadrature nodes).
The frame's rotation e^{-2ia(v)} and translation T(v) are two quadratures
on Gauss-Legendre panels, not an ODE solve: a' reads w(v) alone, and T' a.

The residual battery (Gauss, Codazzi, harmonicity, Cauchy-Riemann, Riccati)
evaluates the closed-form fields on one small finite-difference stencil grid
around all probes and all probe steps at once, whose steps are independent
of the display grid, so truncation error is controlled by the probe step
alone; its fields are assembled from the w(v) columns of the stencil's
own `forms_at` call.  `build` solves the frame once and keeps the solve as
`traj`; `verify.small_grids` reads the frame at every v off the display
grid that the battery needs with one `traj.at`, and fv_vs_fd's probes and
the dual loop's edges as blocks of one `fields_at` tensor.  The double
dual's residuals are the dual's norms weighted by e^{2h}
(`dual_symmetry`).

Every certificate here (`build`'s diagnostics, each level of `pde_battery`,
`inversion_symmetry`, `dual_symmetry` and `planarity_certificate`) returns
its values as a plain dict keyed by `verify.CHECKS` names and passes no
verdict: `verify.CHECKS` alone holds the thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import curvefamily, frame, reparam
from .elliptic import Family, _even_indices, coeffs, gauss_legendre
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
    traj: frame.FrameTrajectory | None   # the frame's solve (None for limit)
    recipe: SurfaceRecipe
    # the FIELDS at u = omega x v: (nv_total, 3) each, expH (nv_total,)
    # (None off critical)
    omega_row: dict | None = None
    diagnostics: dict = field(default_factory=dict)


# grid points per block of whole v columns in fields_at (one column when
# nu is larger).  Each block pays a fixed cost for its forms_at call (the theta
# call and the forms, about half of a one-column call's 0.3 to 0.6 ms), so
# display-size grids want few blocks, while the temporaries of a block
# grow with its points (a traced peak of 2.9, 3.5 and 4.0 MB for all
# fields on 128 x 129 at 8192, 16384 and 32768).  Swept in one process at
# 8192, 16384 and 32768 (all fields, medians of 15 interleaved rounds on
# one CPU of a shared 2-vCPU host): 64 x 65 is one block at each (0.9 to
# 1.0 ms); 128 x 129 took 3.4, 3.4 and 2.7 ms (3, 2 and 1 blocks) and
# 256 x 257 15.0, 14.1 and 13.3 ms (9, 5 and 3 blocks).
_BLOCK_POINTS = 32768


def _norm(x, axis=-1):
    """|x| over the xyz axis of a (..., 3) grid (or of its (3, ...) planes,
    axis 0), from its x, y and z planes: bit for bit np.linalg.norm, whose
    3-wide reduce also adds the squares left to right.  The sums go in
    place, through one temporary."""
    x0, x1, x2 = x if axis == 0 else (x[..., 0], x[..., 1], x[..., 2])
    acc, tmp = x0 * x0, x1 * x1
    acc += tmp
    acc += np.multiply(x2, x2, out=tmp)
    return np.sqrt(acc, out=acc)


def _dot(x, y):
    """x . y over the last axis of (..., 3) grids, broadcasting, from
    their planes: bit for bit np.sum(x * y, axis=-1), whose reduce starts
    from +0.0 (so three products of -0.0 sum to +0.0 here too).  The sums
    go in place, through one temporary."""
    acc, tmp = x[..., 0] * y[..., 0], x[..., 1] * y[..., 1]
    acc += tmp
    acc += np.multiply(x[..., 2], y[..., 2], out=tmp)
    acc += 0.0
    return acc


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
    # the fewest blocks of at most _BLOCK_POINTS points, the first
    # nv % nblocks of them one column wider (np.array_split's widths)
    nblocks = -(-nv // max(1, _BLOCK_POINTS // max(nu, 1)))
    width, wider = divmod(nv, max(nblocks, 1))
    edges = np.cumsum([0] + [width + 1] * wider + [width] * (nblocks - wider))
    blocks = (slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]))
    return _assemble(names, nu, phi, wp, root, (
        (cols, curvefamily.forms_at(u, w_arr[cols], fam, forms))
        for cols in blocks))


def _assemble(names, nu, phi, wp, root, blocks):
    """The fields `names` of fields_at on nu u x the nodes of v, from the
    frame phi, w' and the signed root at v and `blocks`, an iterable of
    (cols, forms): a slice of v and forms_at's gamma, exp_h and
    exp_isigma (those the fields read) on u x w(v[cols])."""
    # rot[c, b, j]: component c of the image of basis vector b (i, j, k) at
    # v_j, contiguous in j like the planes
    rot = np.ascontiguousarray(np.moveaxis(qrotation(phi), 0, -1))
    nv = len(phi)
    planes = {name: np.empty((3, nu, nv)) for name in names
              if name != "expH"}
    eh = np.empty((nu, nv)) if "expH" in names else None
    for cols, f in blocks:
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
    """Sample the immersion on a (u, v) grid with its frame fields.

    On a critical family the one `fields_at` call also covers the row
    u = omega, whose fields the surface keeps as omega_row for
    `inversion_symmetry` and `spherical.axis`; the display grids are views
    of its first nu rows."""
    if recipe.fam.mode == "limit":
        return build_limit(recipe)
    spec, fam = recipe.spec, recipe.fam
    u = np.linspace(0.0, 2 * np.pi, recipe.nu, endpoint=False)
    v = np.linspace(0.0, recipe.periods * spec.period,
                    recipe.periods * recipe.nv + 1)
    traj = frame.integrate(spec, fam, v_nodes=v)
    critical = fam.mode == "critical"
    f = fields_at(fam, spec, np.append(u, fam.omega) if critical else u, v,
                  traj.phi)
    omega_row = {k: x[-1] for k, x in f.items()} if critical else None
    f = {k: x[:len(u)] for k, x in f.items()}

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
    }
    return SampledSurface(u=u, v=v, points=f["points"], fu=fu, fv=fv, n=nrm,
                          expH=eh, phi=traj.phi, traj=traj, recipe=recipe,
                          omega_row=omega_row, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# the omega -> 0 limit surface (planes tangent to a cylinder)


@cache
def _panel_rule(n):
    """The n-node Gauss-Legendre nodes x and weights on [-1, 1] and the
    integration matrix S: S[i, j] is the integral from -1 to x_i of the
    Lagrange polynomial of the nodes that is 1 at x_j.  That polynomial is
    sum_k (2k+1)/2 weights_j P_k(x_j) P_k (the rule is exact on P_k P_m),
    and (2k+1) int_{-1}^x P_k = P_{k+1} - P_{k-1}, with P_{-1} = -1."""
    x, weights = gauss_legendre(n)
    p = [-np.ones_like(x), np.ones_like(x), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[-1] - k * p[-2]) / (k + 1))
    p = np.stack(p, axis=1)                      # P_{-1} .. P_n at x
    s = 0.5 * (p[:, 2:] - p[:, :-2]) @ (p[:, 1:-1] * weights[:, None]).T
    return x, weights, s


def _limit_frame_arrays(fam: Family, spec: ReparamSpec, v):
    """E = e^{-2ia(v)} (the rotation) and T(v) = T_x + i T_y (the translation)
    of the limit immersion at the nodes v (increasing from 0).

    The system Y' = [[-2i root W_hat, 0], [root r, 0]] Y, Y(0) = 1 of
    (E, T), root = sqrt(1-w'^2), is lower triangular, so a = int root
    W_hat dv and T = int root r E dv.  Both are 10-node Gauss-Legendre
    sums on panels that split each interval of v into pieces of at most
    V/128; a at a panel's inner nodes comes from the integration matrix.
    """
    x, weights, s = _panel_rule(10)
    v = np.asarray(v, dtype=float)
    per = np.maximum(np.ceil(np.diff(v) / (spec.period / 128) - 1e-9),
                     1).astype(int)                  # panels per interval
    at = np.concatenate([[0], np.cumsum(per)])       # v's panel ends
    half = np.repeat(np.diff(v) / (2 * per), per)    # the panels' half widths
    j = np.arange(at[-1]) - np.repeat(at[:-1], per)  # place in its interval
    mid = np.repeat(v[:-1], per) + (2 * j + 1) * half
    w, _, root = spec.planes(mid[:, None] + half[:, None] * x)
    what, r = curvefamily.limit_rotation(w, fam)
    f = root * what
    a = np.cumsum(np.concatenate([[0.0], half * (f @ weights)]))
    e = np.exp(-2j * (a[:-1, None] + half[:, None] * (f @ s.T)))
    g = root * r * e
    t = np.cumsum(np.concatenate([[0.0], half * (g @ weights)]))
    return np.exp(-2j * a[at]), t[at]


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
    f = curvefamily.forms_at(u, w_arr, fam, ("gamma_hat", "gamma_hat_u"),
                             mirrored=True)
    gh, ghu = f["gamma_hat"], f["gamma_hat_u"]
    gv = 1j * wp * ghu
    what, r = curvefamily.limit_rotation(w_arr, fam)
    turn = root * (2 * what * gh.real + r)

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
                          expH=eh, phi=None, traj=None, recipe=recipe,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# residual battery

# u- and v-probes each of the battery's PDE stencil
_N_PROBE = 6


def _stencil(probes, steps):
    """probes shifted by 0 and by -h and +h for every probe step h: the
    nodes (S, n) of the PDE stencil along one axis, shifts leading."""
    off = np.concatenate([[0.0], *([-h, h] for h in steps)])
    return np.asarray(probes, dtype=float) + off[:, None]


def pde_battery(fam, spec, u_probes, v_probes, phi, steps):
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
    and its w-shifts) and one `coeffs` sample serve every step, and the
    fields on its u-nodes x v-nodes are assembled as fields_at assembles
    them from that call's columns at w(v).  Grids below have the shifts along
    their leading axes.  phi is the frame at the stencil's v-nodes,
    _stencil(v_probes, steps).ravel().
    """
    us, vs = _stencil(u_probes, steps), _stencil(v_probes, steps)
    (ns, nu), nv = us.shape, len(v_probes)

    # grid columns: w(vs), then the nonzero shifts of w(v_probes) (w-shifts)
    wv, wpv, rootv = spec.planes(vs.ravel())
    grid = curvefamily.forms_at(
        us.ravel(), np.concatenate([wv, _stencil(wv[:nv], steps)[1:].ravel()]),
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
    at_wv = {k: grid[k][:, :ns * nv] for k in ("exp_h", "exp_isigma")}
    f = _assemble(("fu", "fv", "n", "expH"), ns * nu, phi, wpv, rootv,
                  [(slice(None), at_wv)])
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
    tangent to one cylinder) and on `is_flat` ones (congruent u-curves).
    A curve's plane normal is the eigenvector of the least eigenvalue of
    q^T q, q its centered points (the last right singular vector of q)."""
    pts = np.moveaxis(s.points, 1, 0)                  # (nv, nu, 3)
    q = pts - np.mean(pts, axis=1, keepdims=True)
    m = np.linalg.eigh(np.swapaxes(q, 1, 2) @ q)[1][..., 0]  # (nv, 3) normals
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
    R^2 f / |f|^2.  Also checks the u = omega sphere and tangency there on
    s.omega_row, points and fu at u = omega x s.v from `build`.
    Returns the residuals `inversion_involution` (absolute and, as
    `inversion_involution_rel`, relative to |R|), `inversion_omega_sphere`
    and `inversion_omega_parallel`.
    """
    spec, fam, R = s.recipe.spec, crit, crit.R
    f2 = fields_at(fam, spec, 2 * fam.omega - s.u, s.v, s.phi, ("points",))
    # on the (3, nu, nv) planes that fields_at assembled
    f, f2 = np.moveaxis(s.points, -1, 0), np.moveaxis(f2["points"], -1, 0)
    inv = R ** 2 * f / (f[0] * f[0] + f[1] * f[1] + f[2] * f[2])
    res_inv = float(np.max(_norm(inv - f2, 0)))

    fom, fuom = s.omega_row["points"], s.omega_row["fu"]
    sphere = float(np.max(np.abs(_norm(fom) - abs(R))))
    par = float(np.max(_norm(fom / R + fuom / _norm(fuom)[..., None])))
    return {"inversion_involution": res_inv,
            "inversion_involution_rel": res_inv / abs(R),
            "inversion_omega_sphere": sphere,
            "inversion_omega_parallel": par}


def _dual_loop(s: SampledSurface):
    """The 16-point Gauss-Legendre loop around the cell [u_1, u_2] x
    [v_1, v_2]: its u- and v-edge nodes, then their scaled weights."""
    nodes, weights = gauss_legendre(16)
    (ua, ub), (va, vb) = s.u[1:3], s.v[1:3]
    return (0.5 * (ua + ub) + 0.5 * (ub - ua) * nodes,
            0.5 * (va + vb) + 0.5 * (vb - va) * nodes,
            0.5 * (ub - ua) * weights, 0.5 * (vb - va) * weights)


def dual_symmetry(s: SampledSurface, loop) -> dict:
    """Christoffel duality as the u-shift: f^*(u,v) = -f(pi - u, v).

    The dual one-form is df^* = e^{-2h}(f_u du - f_v dv); the residuals
    compare the shifted closed-form fields against it, check closedness of
    the form around a grid cell, and apply the involution twice:
    `dual_dual_u`, `dual_dual_v`, `dual_double_dual` and
    `dual_loop_integral`.  loop, from `verify.small_grids`, holds the
    `_dual_loop` weights of the u- and v-edges, then fu and expH at its
    u-nodes x (v_1, v_2) and fv and expH at (u_1, u_2) x its v-nodes.

    On an even nu, pi - u_i is the grid's u at row (nu/2 - i) mod nu up to
    2 pi, so fu and fv there are rows of s, and the check rests on the
    u-periodicity of the fields that `u_closure` certifies.  An odd nu
    evaluates the shifted grid afresh.
    """
    spec, fam, nu = s.recipe.spec, s.recipe.fam, len(s.u)
    # fu and fv and their values at (pi - u, v), as (3, nu, nv) planes
    fu, fv = np.moveaxis(s.fu, -1, 0), np.moveaxis(s.fv, -1, 0)
    if nu % 2 == 0:
        rows = (nu // 2 - np.arange(nu)) % nu
        fu_pi, fv_pi = fu[:, rows], fv[:, rows]
    else:
        shifted = fields_at(fam, spec, np.pi - s.u, s.v, s.phi, ("fu", "fv"))
        fu_pi, fv_pi = (np.moveaxis(shifted[k], -1, 0) for k in ("fu", "fv"))
    e2h = s.expH ** 2
    top = np.max(s.expH)
    dual_u = _norm(fu_pi - fu / e2h, 0)
    dual_v = _norm(fv_pi - fv / e2h, 0)
    res_u = float(np.max(dual_u) / top)
    res_v = float(np.max(dual_v) / top)
    # double dual: the dual surface's dual one-form (e^{h*} = e^{-h},
    # f*_u = fu_pi, f*_v = -fv_pi) must equal df, and |e^{2h} fu_pi - fu| =
    # e^{2h} |fu_pi - e^{-2h} fu|: the dual's norms weighted by e^{2h}
    res_dd = float(max(np.max(e2h * dual_u), np.max(e2h * dual_v)) / top)

    # closedness of the dual one-form around one grid cell (quadrature loop)
    wu, wv, ue, ve = loop
    om_u = ue["fu"] / ue["expH"][..., None] ** 2              # (16, 2, 3)
    om_v = ve["fv"] / ve["expH"][..., None] ** 2              # (2, 16, 3)
    res_loop = float(np.linalg.norm(wu @ (om_u[:, 0] - om_u[:, 1])
                                    + wv @ (om_v[0] - om_v[1])))

    return {"dual_dual_u": res_u, "dual_dual_v": res_v,
            "dual_double_dual": res_dd, "dual_loop_integral": res_loop}


def _gauss_codazzi_probes(s: SampledSurface):
    """u- and v-probes of the PDE battery, _N_PROBE of each from the grid.

    u-probes stay clear of u = pi/2 mod pi, where the Riccati coefficients
    U, U1 have poles (the identities hold only in the limit there).
    """
    dist = np.abs(np.mod(s.u + np.pi / 4, np.pi / 2) - np.pi / 4)
    ok = np.nonzero(dist > 0.08)[0][1:-1]
    iu = ok[_even_indices(0, len(ok) - 1, _N_PROBE)]
    jv = np.linspace(2, len(s.v) - 3, _N_PROBE).astype(int)
    return s.u[iu], s.v[jv]
