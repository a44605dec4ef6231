"""Immersion assembly f(u,v) = Phi^{-1} gamma j Phi and its verification battery.

All frame fields come from closed forms: with z j = a j + b k for z = a + ib,

    f   = Phi^{-1} ( gamma j ) Phi,
    f_u = e^h Phi^{-1} ( e^{i sigma} j ) Phi,
    f_v = e^h Phi^{-1} ( sqrt(1-w'^2) i + w' e^{i sigma} k ) Phi,
    n   =     Phi^{-1} ( w' i - sqrt(1-w'^2) e^{i sigma} k ) Phi,

where sqrt(1-w'^2) is the spec's signed root.  The omega -> 0 limit surface
(planes tangent to a cylinder) is assembled from the limit data gamma_hat,
W_hat, r with the rotation angle a(v) and the translation term integrated as
an auxiliary ODE.

The residual battery (Gauss, Codazzi, harmonicity, Cauchy-Riemann, Riccati)
evaluates the closed-form fields on small finite-difference crosses whose
step is independent of the display grid, so truncation error is controlled
by the probe step alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curvefamily, frame, reparam
from .elliptic import coeffs
from .quat import cj, qsandwich
from .reparam import ReparamSpec


@dataclass(frozen=True)
class SurfaceRecipe:
    fam: object              # CriticalParams / FamilyParams, or a Lattice (limit)
    spec: ReparamSpec
    nu: int = 128
    nv: int = 128            # v samples per period
    periods: int = 1
    limit: bool = False
    step_tol: float = 1e-12


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


def _zk(z):
    """z k = a k - b j as a vector array for complex z."""
    z = np.asarray(z, dtype=complex)
    return np.stack([np.zeros(z.shape), -z.imag, z.real], axis=-1)


_IVEC = np.array([1.0, 0.0, 0.0])


def _plane_vectors(spec: ReparamSpec, v):
    """(root i + w' e^{i sigma} k)-style building blocks along a v-array."""
    v = np.asarray(v, dtype=float)
    return (np.asarray(spec.w(v), dtype=float),
            np.asarray(spec.wprime(v), dtype=float),
            np.asarray(spec.signed_root(v), dtype=float))


def fields_at(fam, spec: ReparamSpec, u, v, phi):
    """Closed-form immersion fields on the tensor grid u x v.

    phi must hold the frame at the nodes of v, shape (len(v), 4).
    Returns a dict with points/fu/fv/n/expH plus the scalar grids.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = len(u), len(v)
    w_arr, wp, root = _plane_vectors(spec, v)

    gam = np.empty((nu, nv), dtype=complex)
    eis = np.empty((nu, nv), dtype=complex)
    eh = np.empty((nu, nv), dtype=float)
    for j in range(nv):
        wj = float(w_arr[j])
        gam[:, j] = curvefamily.gamma(u, wj, fam)
        eis[:, j] = curvefamily.exp_isigma(u, wj, fam)
        eh[:, j] = curvefamily.exp_h(u, wj, fam)

    points = qsandwich(phi, cj(gam))
    fu = eh[..., None] * qsandwich(phi, cj(eis))
    zk = _zk(eis)
    fv_vec = root[None, :, None] * _IVEC + wp[None, :, None] * zk
    n_vec = wp[None, :, None] * _IVEC - root[None, :, None] * zk
    fv = eh[..., None] * qsandwich(phi, fv_vec)
    nrm = qsandwich(phi, n_vec)
    return {
        "points": points, "fu": fu, "fv": fv, "n": nrm, "expH": eh,
        "gamma": gam, "expIsigma": eis, "w": w_arr, "wprime": wp, "root": root,
    }


def build(recipe: SurfaceRecipe) -> SampledSurface:
    """Sample the immersion on a (u, v) grid with its frame fields."""
    if recipe.limit:
        return build_limit(recipe)
    spec, fam = recipe.spec, recipe.fam
    u = np.linspace(0.0, 2 * np.pi, recipe.nu, endpoint=False)
    v = np.linspace(0.0, recipe.periods * spec.period,
                    recipe.periods * recipe.nv + 1)
    traj = frame.integrate(spec, fam, v_nodes=v, step_tol=recipe.step_tol)
    f = fields_at(fam, spec, u, v, traj.phi)

    eh = f["expH"]
    fu, fv, nrm = f["fu"], f["fv"], f["n"]
    dots = np.sum(fu * fv, axis=-1)
    diagnostics = {
        "orthogonality": float(np.max(np.abs(dots)) / np.max(eh ** 2)),
        "conformality_u": float(np.max(np.abs(np.linalg.norm(fu, axis=-1) - eh) / eh)),
        "conformality_v": float(np.max(np.abs(np.linalg.norm(fv, axis=-1) - eh) / eh)),
        "normal_unit": float(np.max(np.abs(np.linalg.norm(nrm, axis=-1) - 1.0))),
        "normal_tangency": float(max(np.max(np.abs(np.sum(fu * nrm, axis=-1))),
                                     np.max(np.abs(np.sum(fv * nrm, axis=-1))))
                                 / np.max(eh)),
        "frame": traj.stats,
    }
    return SampledSurface(u=u, v=v, points=f["points"], fu=fu, fv=fv, n=nrm,
                          expH=eh, phi=traj.phi, recipe=recipe,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# the omega -> 0 limit surface (planes tangent to a cylinder)


def _limit_frame_arrays(lat, spec: ReparamSpec, v, step_tol=1e-12):
    """a(v) (rotation angle) and T(v) (translation) for the limit immersion.

    a' = sqrt(1-w'^2) W_hat(w),  T' = sqrt(1-w'^2) r(w) * i e^{2 a k}.
    """
    vs = np.linspace(0.0, spec.period, 513)
    ws = np.asarray(spec.w(vs), dtype=float)
    w_lo, w_hi = float(np.min(ws)), float(np.max(ws))
    if w_hi - w_lo < 1e-12:
        what = lambda w: curvefamily.w_hat(w_lo, lat)
        rfun = lambda w: curvefamily.limit_r(w_lo, lat)
    else:
        what = frame.cheb_interpolant(lambda w: curvefamily.w_hat(w, lat), w_lo, w_hi)
        rfun = frame.cheb_interpolant(lambda w: curvefamily.limit_r(w, lat), w_lo, w_hi)

    def rhs(vv, y):
        w = spec.w(vv)
        root = spec.signed_root(vv)
        two_a = 2.0 * y[0]
        rr = root * rfun(w)
        return np.array([root * what(w), rr * np.cos(two_a), -rr * np.sin(two_a)])

    y = frame._adaptive_rk(rhs, v, np.zeros(3), step_tol)
    return y[:, 0], y[:, 1:]  # a(v), T(v) in the (i, j) plane


def build_limit(recipe: SurfaceRecipe) -> SampledSurface:
    """The omega = 0 limit immersion at the degenerate lattice.

    f = Im(gamma_hat) k + Re(gamma_hat) j e^{2 a k} + T(v), with T' along
    i e^{2 a k}; the planes of the u-curves stay tangent to a cylinder.
    An inadmissible spec raises SpecInvalid.
    """
    lat = getattr(recipe.fam, "lattice", recipe.fam)
    spec = recipe.spec
    reparam.require_admissible(spec, lat)
    u = np.linspace(0.0, 2 * np.pi, recipe.nu, endpoint=False)
    v = np.linspace(0.0, recipe.periods * spec.period,
                    recipe.periods * recipe.nv + 1)
    a, T = _limit_frame_arrays(lat, spec, v, recipe.step_tol)
    w_arr, wp, root = _plane_vectors(spec, v)

    nu, nv = len(u), len(v)
    cos2a, sin2a = np.cos(2 * a), np.sin(2 * a)
    bj = np.stack([sin2a, cos2a, np.zeros(nv)], axis=-1)   # j e^{2 a k}
    bi = np.stack([cos2a, -sin2a, np.zeros(nv)], axis=-1)  # i e^{2 a k}
    kvec = np.array([0.0, 0.0, 1.0])

    gh = np.empty((nu, nv), dtype=complex)
    ghu = np.empty((nu, nv), dtype=complex)
    for j in range(nv):
        wj = float(w_arr[j])
        gh[:, j] = curvefamily.gamma_hat(u, wj, lat)
        ghu[:, j] = curvefamily.gamma_hat_u(u, wj, lat)

    what = np.array([curvefamily.w_hat(float(w), lat) for w in w_arr])
    rv = np.array([curvefamily.limit_r(float(w), lat) for w in w_arr])
    aprime = root * what

    Tfull = np.concatenate([T, np.zeros((nv, 1))], axis=1)
    points = (gh.imag[..., None] * kvec + gh.real[..., None] * bj[None]
              + Tfull[None])
    fu = ghu.imag[..., None] * kvec + ghu.real[..., None] * bj[None]
    gv = 1j * wp[None, :] * ghu
    fv = (gv.imag[..., None] * kvec + gv.real[..., None] * bj[None]
          + (gh.real * (2 * aprime)[None, :] + (root * rv)[None, :])[..., None]
          * bi[None])
    cross = np.cross(fu, fv)
    nrm = cross / np.linalg.norm(cross, axis=-1, keepdims=True)
    eh = np.linalg.norm(fu, axis=-1)

    diagnostics = {
        "orthogonality": float(np.max(np.abs(np.sum(fu * fv, axis=-1))) / np.max(eh ** 2)),
        "conformality": float(np.max(np.abs(np.linalg.norm(fv, axis=-1) - eh) / eh)),
    }
    return SampledSurface(u=u, v=v, points=points, fu=fu, fv=fv, n=nrm,
                          expH=eh, phi=None, recipe=recipe,
                          diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# residual battery


def pde_battery(fam, spec, u_probes, v_probes, du=4e-4, dv=4e-4,
                step_tol=1e-13):
    """Max residuals of the local structure equations at probe points.

    Identities: Gauss  h_uu + h_vv + k1 k2 e^{2h} = 0,
    Codazzi  k1_v = h_v (k2 - k1)  and  k2_u = h_u (k1 - k2),
    harmonicity  h_uu + h_ww = 0,  Cauchy-Riemann  h_u = sigma_w,
    h_w = -sigma_u,  and the Riccati equation  h_u = U e^h + U1 e^{-h}.
    All derivatives are centered differences with steps (du, dv) of the
    closed-form fields, so the battery converges at second order in the
    probe step independently of any display grid.
    """
    u_probes = np.asarray(u_probes, dtype=float)
    v_probes = np.asarray(v_probes, dtype=float)

    # frame at all shifted v-nodes in one integration (the Codazzi stencil
    # differentiates k2(v0 +- dv), which itself uses v0 +- 2 dv)
    v_all = np.sort(np.unique(np.concatenate(
        [v_probes + m * dv for m in (-2, -1, 0, 1, 2)])))
    nodes = v_all if v_all[0] == 0.0 else np.concatenate([[0.0], v_all])
    traj = frame.integrate(spec, fam, v_nodes=nodes, step_tol=step_tol)

    def phi_of(vv):
        i = int(np.argmin(np.abs(nodes - vv)))
        if abs(nodes[i] - vv) > 1e-9:
            raise KeyError(f"no frame sample near v = {vv}")
        return traj.phi[i]

    res = {k: 0.0 for k in ("gauss", "codazzi_u", "codazzi_v", "harmonic",
                            "cauchy_riemann", "riccati", "hw_quartic")}

    def pack(vv):
        return np.array([phi_of(float(vv))])

    for v0 in v_probes:
        w0 = float(spec.w(v0))
        uu = u_probes

        def h_of(us, w):
            return np.log(curvefamily.exp_h(us, w, fam))

        def sig_of(us, w):
            return curvefamily.exp_isigma(us, w, fam)

        h_c = h_of(uu, w0)
        h_up, h_um = h_of(uu + du, w0), h_of(uu - du, w0)
        h_wp, h_wm = h_of(uu, w0 + du), h_of(uu, w0 - du)
        h_u = (h_up - h_um) / (2 * du)
        h_w = (h_wp - h_wm) / (2 * du)
        # second derivatives as single differences of the analytic first
        # derivatives (h + i sigma)_u = dlog gamma_u, so double-difference
        # roundoff never enters
        def dlog(us, w):
            return np.asarray(curvefamily.dlog_gamma_u(us, w, fam))

        h_uu = np.real(dlog(uu + du, w0) - dlog(uu - du, w0)) / (2 * du)
        h_ww = -np.imag(dlog(uu, w0 + du) - dlog(uu, w0 - du)) / (2 * du)
        res["harmonic"] = max(res["harmonic"], float(np.max(np.abs(h_uu + h_ww))))

        # Cauchy-Riemann via branch-free log-derivatives of e^{i sigma}
        s_c = sig_of(uu, w0)
        sig_u = np.imag((sig_of(uu + du, w0) - sig_of(uu - du, w0)) / (2 * du) / s_c)
        sig_w = np.imag((sig_of(uu, w0 + du) - sig_of(uu, w0 - du)) / (2 * du) / s_c)
        res["cauchy_riemann"] = max(res["cauchy_riemann"], float(np.max(np.abs(
            np.concatenate([h_u - sig_w, h_w + sig_u])))))

        cs = [coeffs(float(us), fam) for us in uu]
        Uv = np.array([c.U for c in cs])
        U1v = np.array([c.U1 for c in cs])
        U2v = np.array([c.U2 for c in cs])
        Upv = np.array([c.Uprime for c in cs])
        U1pv = np.array([c.U1prime for c in cs])
        ehc = np.exp(h_c)
        res["riccati"] = max(res["riccati"], float(np.max(np.abs(
            h_u - Uv * ehc - U1v / ehc))))
        res["hw_quartic"] = max(res["hw_quartic"], float(np.max(np.abs(
            h_w ** 2 + U1v ** 2 / ehc ** 2 - 2 * U1pv / ehc + U2v
            + 2 * Upv * ehc + Uv ** 2 * ehc ** 2))))

        # second fundamental form: k1 = <f_uu, n> e^{-2h}, k2 = <f_vv, n> e^{-2h}
        def k12(us, vv):
            ph = pack(vv)
            fc = fields_at(fam, spec, us, [vv], ph)
            fup = fields_at(fam, spec, us + du, [vv], ph)
            fum = fields_at(fam, spec, us - du, [vv], ph)
            ph_p, ph_m = pack(vv + dv), pack(vv - dv)
            fvp = fields_at(fam, spec, us, [vv + dv], ph_p)
            fvm = fields_at(fam, spec, us, [vv - dv], ph_m)
            fuu = (fup["fu"] - fum["fu"]) / (2 * du)
            fvv = (fvp["fv"] - fvm["fv"]) / (2 * dv)
            e2h = fc["expH"] ** 2
            k1 = np.sum(fuu * fc["n"], axis=-1) / e2h
            k2 = np.sum(fvv * fc["n"], axis=-1) / e2h
            return k1[:, 0], k2[:, 0], np.log(fc["expH"][:, 0])

        k1c, k2c, hcc = k12(uu, v0)
        k1up, k2up, _ = k12(uu + du, v0)
        k1um, k2um, _ = k12(uu - du, v0)
        k1vp, k2vp, _ = k12(uu, v0 + dv)
        k1vm, k2vm, _ = k12(uu, v0 - dv)

        # h_v = h_w(w(v)) w'(v) analytically, so h_vv is a single difference
        def h_v_of(vv):
            return (-np.imag(dlog(uu, float(spec.w(vv))))
                    * float(spec.wprime(vv)))

        h_v = h_v_of(v0)
        h_vv = (h_v_of(v0 + dv) - h_v_of(v0 - dv)) / (2 * dv)
        res["gauss"] = max(res["gauss"], float(np.max(np.abs(
            h_uu + h_vv + k1c * k2c * np.exp(2 * hcc)))))
        k2_u = (k2up - k2um) / (2 * du)
        k1_v = (k1vp - k1vm) / (2 * dv)
        res["codazzi_u"] = max(res["codazzi_u"], float(np.max(np.abs(
            k2_u - h_u * (k1c - k2c)))))
        res["codazzi_v"] = max(res["codazzi_v"], float(np.max(np.abs(
            k1_v - h_v * (k2c - k1c)))))
    return res


@dataclass(frozen=True)
class PlanarityReport:
    max_deviation_rel: float
    angle_std_max: float
    normal_rank: int
    normal_singvals: tuple
    ok: bool


def planarity_certificate(s: SampledSurface, tol: float = 1e-8) -> PlanarityReport:
    """Best-fit planes of the u-curves, Joachimsthal angle, normals rank."""
    normals = []
    dev = 0.0
    ang = 0.0
    for j in range(len(s.v)):
        pts = s.points[:, j, :]
        center = np.mean(pts, axis=0)
        q = pts - center
        _, sv, vt = np.linalg.svd(q, full_matrices=False)
        m = vt[-1]
        diam = 2 * np.max(np.linalg.norm(q, axis=1))
        dev = max(dev, float(np.max(np.abs(q @ m))) / diam)
        cosang = s.n[:, j, :] @ m
        ang = max(ang, float(np.std(cosang)))
        normals.append(m if m[2] >= 0 else -m)
    normals = np.array(normals)
    sv = np.linalg.svd(normals, compute_uv=False)
    rank = int(np.sum(sv > 1e-6 * sv[0]))
    return PlanarityReport(
        max_deviation_rel=dev, angle_std_max=ang, normal_rank=rank,
        normal_singvals=tuple(float(x) for x in sv),
        ok=dev < tol and ang < 1e-5,
    )


@dataclass(frozen=True)
class SymmetryReport:
    residuals: dict
    ok: bool


def inversion_symmetry(s: SampledSurface, crit) -> SymmetryReport:
    """Thm-5.7 involution: -R(omega)^2 f^{-1}(u,v) = f(2 omega - u, v).

    For imaginary quaternions f^{-1} = -f/|f|^2, so the left side is
    R^2 f / |f|^2.  Also checks the u = omega sphere and tangency there.
    """
    spec, fam = s.recipe.spec, crit
    R = curvefamily.radius(fam)
    shifted = fields_at(fam, spec, 2 * fam.omega - s.u, s.v, s.phi)
    f = s.points
    inv = R ** 2 * f / np.sum(f * f, axis=-1, keepdims=True)
    res_inv = float(np.max(np.linalg.norm(inv - shifted["points"], axis=-1)))

    at_om = fields_at(fam, spec, np.array([fam.omega]), s.v, s.phi)
    fom = at_om["points"][0]
    sphere = float(np.max(np.abs(np.linalg.norm(fom, axis=-1) - abs(R))))
    fuom = at_om["fu"][0]
    par = float(np.max(np.linalg.norm(
        fom / R + fuom / np.linalg.norm(fuom, axis=-1, keepdims=True), axis=-1)))
    residuals = {"involution": res_inv, "involution_rel": res_inv / abs(R),
                 "omega_sphere": sphere, "omega_parallel": par}
    ok = res_inv < 1e-8 * abs(R) and sphere < 1e-9 and par < 1e-9
    return SymmetryReport(residuals=residuals, ok=ok)


def dual_symmetry(s: SampledSurface) -> SymmetryReport:
    """Christoffel duality as the u-shift: f^*(u,v) = -f(pi - u, v).

    The dual one-form is df^* = e^{-2h}(f_u du - f_v dv); the residuals
    compare the shifted closed-form fields against it, check closedness of
    the form around a grid cell, and apply the involution twice.
    """
    spec = s.recipe.spec
    fam = s.recipe.fam
    shifted = fields_at(fam, spec, np.pi - s.u, s.v, s.phi)
    e2h = s.expH[..., None] ** 2
    res_u = float(np.max(np.linalg.norm(shifted["fu"] - s.fu / e2h, axis=-1))
                  / np.max(s.expH))
    res_v = float(np.max(np.linalg.norm(shifted["fv"] - s.fv / e2h, axis=-1))
                  / np.max(s.expH))

    # double dual: the dual surface's dual one-form must equal df
    eh_star = 1.0 / s.expH
    fu_star = shifted["fu"]
    fv_star = -shifted["fv"]
    res_dd = float(max(
        np.max(np.linalg.norm(fu_star / eh_star[..., None] ** 2 - s.fu, axis=-1)),
        np.max(np.linalg.norm(-fv_star / eh_star[..., None] ** 2 - s.fv, axis=-1)),
    ) / np.max(s.expH))

    # closedness of the dual one-form around one grid cell (quadrature loop)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    ua, ub = s.u[1], s.u[2]
    ja, jb = 1, 2
    va, vb = s.v[ja], s.v[jb]

    def om_u(us, vv, ph):
        fl = fields_at(fam, spec, us, [vv], ph)
        return fl["fu"][:, 0, :] / fl["expH"][:, 0, None] ** 2

    loop = np.zeros(3)
    um = 0.5 * (ua + ub) + 0.5 * (ub - ua) * nodes
    loop += 0.5 * (ub - ua) * weights @ om_u(um, va, s.phi[ja:ja + 1])
    loop -= 0.5 * (ub - ua) * weights @ om_u(um, vb, s.phi[jb:jb + 1])
    # v-edges need the frame at interior quadrature nodes
    vm = 0.5 * (va + vb) + 0.5 * (vb - va) * nodes
    order = np.argsort(vm)
    vnodes = np.concatenate([[0.0], vm[order]])
    traj = frame.integrate(spec, fam, v_nodes=vnodes, step_tol=1e-12)
    phis = traj.phi[1:][np.argsort(order)]

    def om_v(u0, vv, ph):
        fl = fields_at(fam, spec, np.array([u0]), [vv], ph)
        return fl["fv"][0, 0, :] / fl["expH"][0, 0] ** 2

    for i in range(16):
        wgt = 0.5 * (vb - va) * weights[i]
        loop -= wgt * om_v(ub, vm[i], phis[i:i + 1])
        loop += wgt * om_v(ua, vm[i], phis[i:i + 1])
    res_loop = float(np.linalg.norm(loop))

    residuals = {"dual_u": res_u, "dual_v": res_v,
                 "double_dual": res_dd, "loop_integral": res_loop}
    ok = res_u < 1e-8 and res_v < 1e-8 and res_dd < 1e-7 and res_loop < 1e-10
    return SymmetryReport(residuals=residuals, ok=ok)


def gauss_codazzi_residuals(s: SampledSurface, n_probe: int = 6,
                            du: float = 4e-4, dv: float = 4e-4) -> dict:
    """Convenience wrapper: run the PDE battery at probes from the grid.

    u-probes stay clear of u = pi/2 mod pi, where the Riccati coefficients
    U, U1 have poles (the identities hold only in the limit there).
    """
    dist = np.abs(np.mod(s.u + np.pi / 4, np.pi / 2) - np.pi / 4)
    ok = np.nonzero(dist > 0.08)[0][1:-1]
    iu = ok[np.unique(np.linspace(0, len(ok) - 1, n_probe).astype(int))]
    jv = np.linspace(2, len(s.v) - 3, n_probe).astype(int)
    return pde_battery(s.recipe.fam, s.recipe.spec,
                       s.u[iu], s.v[jv], du=du, dv=dv)
