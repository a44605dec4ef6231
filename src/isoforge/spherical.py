"""Analytics for the spherical second family of curvature lines.

When the reparametrization function comes from the quartic elliptic curve
Q(s) = -(s - s1)^2 (s - s2)^2 + delta^2 Q3(s), every v-curve of the surface
lies on a sphere.  This module integrates the linear phi-system that encodes
the sphere data along u, recovers the sphere centers Z(u) and radii, and
evaluates the closed-form axis direction Z'(omega) in the moving frame at
u = omega -- the local formula that must reproduce the global monodromy axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import curvefamily, elliptic, frame, surface as surface_mod
from .errors import PoleProximity, SpecInvalid
from .reparam import fit_sphere


@dataclass(frozen=True)
class SphereSample:
    """One spherical v-curve: center two ways and radius."""

    u: float
    center: np.ndarray        # from alpha/beta (v-averaged)
    radius: float             # sqrt(alpha^2 + beta^2)
    alpha: float
    center_spread: float      # max_v |Z_v - center| (should be ~0)
    fit_center: np.ndarray    # least-squares sphere through the v-curve
    fit_radius: float


@dataclass(frozen=True)
class AxisData:
    """The axis Z'(omega) expressed in the moving frame at u = omega."""

    Zprime_omega: np.ndarray  # (3,), v-averaged assembled vector
    norm_sq: float            # closed form |Z'(omega)|^2
    z1: np.ndarray            # coefficients on e^{-h} f_u, e^{-h} f_v, n
    z2: np.ndarray
    z3: np.ndarray
    v: np.ndarray
    unit_residual: float      # max |z1^2 + z2^2 + z3^2 - 1|
    norm_sq_assembled: float  # max_v of the componentwise |Z'(omega)|^2
    spread_angle: float       # max angle between per-v assembled directions


def _spec_of(spec):
    """The SphericalSpec (delta, s1, s2) of a ReparamSpec that
    `reparam.build_spherical` returned."""
    filled = spec.meta.get("spec")
    if filled is None:
        raise SpecInvalid("a spec built by reparam.build_spherical is required")
    return filled


def angle(a, b):
    """Angle between the vectors a and b (last axis) as atan2(|a x b|, a . b).

    Exact to roundoff at every angle; arccos of the dot product of unit
    vectors cannot resolve angles below about 2e-8.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.arctan2(np.linalg.norm(np.cross(a, b), axis=-1),
                      np.sum(a * b, axis=-1))


def _elementary(sph: SphericalSpec):
    s1, s2 = complex(sph.s1), complex(sph.s2)
    return float(sph.delta), float((s1 + s2).real), float((s1 * s2).real)


def sym2(m):
    """Symmetric square of 2x2 matrices (..., 2, 2) in the basis (x^2, 2xy, y^2).

    Sym2([[a, b], [c, d]]) = [[a^2, ab, b^2], [2ac, ad + bc, 2bd],
    [c^2, cd, d^2]]; it is multiplicative, and its derivative at the
    identity maps X = [[0, -U1], [U, 0]] to the phi-system's matrix.
    """
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    rows = ((a * a, a * b, b * b),
            (2 * a * c, a * d + b * c, 2 * b * d),
            (c * c, c * d, d * d))
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def integrate_phis(spec, crit, us):
    """Solve the 3x3 linear system for (phi2, phi1, phi0) along u: one row
    (phi2, phi1, phi0) per u of us, shape (len(us), 3).

    phi' = [[0, -U1, 0], [2U, 0, -2U1], [0, U, 0]] phi is the symmetric
    square of M' = X M, X = [[0, -U1], [U, 0]]: phi(u) = sym2(M(u))
    phi(omega) with M(omega) = 1, phi(omega) = delta^{-1} (1, -(s1 + s2),
    s1 s2).  M is integrated outward from omega in both directions, as two
    systems of one solve of the frame module's Magnus solver, to its step
    tolerance `frame.STEP_TOL`.  The
    coefficients have poles where the u-denominator theta2 vanishes
    (u = pi/2 mod pi), so a requested u outside (-pi/2, pi/2) raises
    PoleProximity before any integration.
    """
    sph = _spec_of(spec)
    delta, e1, e2 = _elementary(sph)
    if delta == 0.0:
        raise SpecInvalid("delta must be nonzero")
    us = np.atleast_1d(np.asarray(us, dtype=float))
    outside = us[~(np.abs(us) < np.pi / 2)]
    if len(outside):
        raise PoleProximity(f"u = {outside[0]} is outside (-pi/2, pi/2), the "
                            "pole-free interval of the phi-system around omega")
    om = crit.omega
    y0 = np.array([1.0, -e1, e2]) / delta

    def x_of_u(u):
        U, U1 = elliptic.riccati_u_u1(u, crit)
        x = np.zeros(np.shape(u) + (2, 2))
        x[..., 0, 1], x[..., 1, 0] = -U1, U
        return x

    # t = sign (u - omega) runs upward from 0: M' = sign X(omega + sign t) M
    sides = [(sign, sign * (us - om) > 1e-14) for sign in (1.0, -1.0)]
    sides = [(sign, side) for sign, side in sides if np.any(side)]
    signs = np.array([sign for sign, _ in sides])
    nodes = [np.unique(np.concatenate([[0.0], sign * (us[side] - om)]))
             for sign, side in sides]

    def x_of_t(t, s):
        sign = signs[s]
        return sign[..., None, None] * x_of_u(om + sign * t)

    m = np.broadcast_to(np.eye(2), us.shape + (2, 2)).copy()
    if sides:
        solved = frame._magnus_solve(x_of_t, frame.Matrices2,
                                     [(t, np.pi / 64) for t in nodes],
                                     frame.STEP_TOL)
        for (sign, side), t, (y, _) in zip(sides, nodes, solved):
            m[side] = y[np.searchsorted(t, sign * (us[side] - om))]
    return sym2(m) @ y0


def _sphere_data(phi2, phi0, U, U1):
    den = U1 * phi0 + U * phi2
    return U1 / den, -phi2 / den


def sphere_centers(surf, crit, u_indices=None):
    """Sphere center and radius for sampled v-curves.

    Z(u) is assembled from alpha, beta as Z = f + alpha n + beta fu/|fu|
    (v-independent up to integration error) and cross-checked against a
    least-squares sphere through the sampled v-curve.
    """
    if u_indices is None:
        # a pole-free window around omega, clear of u = pi/2
        sel = np.nonzero((surf.u > 0.03) & (surf.u < np.pi / 2 - 0.08))[0]
        u_indices = sel[np.unique(np.linspace(0, len(sel) - 1, 9).astype(int))]
    u_indices = np.asarray(u_indices, dtype=int)
    us = surf.u[u_indices]
    phis = integrate_phis(surf.recipe.spec, crit, us)
    c = elliptic.coeffs(us, crit)
    alphas, betas = _sphere_data(phis[:, 0], phis[:, 2], c.U, c.U1)

    samples = []
    for i, a, b in zip(u_indices, alphas, betas):
        pts = surf.points[i]
        fu = surf.fu[i]
        unit_u = fu / np.linalg.norm(fu, axis=-1, keepdims=True)
        # the sphere-data normal is opposite to the assembled Gauss map
        # n = fu x fv / |..| used by the surface module
        z_v = pts - a * surf.n[i] + b * unit_u
        center = np.mean(z_v, axis=0)
        spread = float(np.max(np.linalg.norm(z_v - center, axis=-1)))
        fit_center, fit_radius = fit_sphere(pts)
        samples.append(SphereSample(
            u=float(surf.u[i]), center=center,
            radius=float(np.hypot(a, b)), alpha=float(a), center_spread=spread,
            fit_center=fit_center, fit_radius=float(fit_radius),
        ))
    return samples


def collinearity(samples):
    """Fit Z(u) = alpha(u) A + B and report the center-line quality.

    Returns (sv_ratio, A, B): sv_ratio is the second-to-first singular value
    ratio of the centered Z cloud (0 for perfectly collinear centers), and
    A, B the regression line in the intersection-angle parametrization.
    """
    zs = np.array([s.center for s in samples])
    alphas = np.array([s.alpha for s in samples])
    centered = zs - np.mean(zs, axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    ratio = float(sv[1] / sv[0]) if sv[0] > 0 else 0.0
    design = np.stack([alphas, np.ones_like(alphas)], axis=1)
    sol, _, _, _ = np.linalg.lstsq(design, zs, rcond=None)
    return ratio, sol[0], sol[1]


def cone_point(surf, b_point):
    """The largest distance of the cone point from the u-curve planes.

    The planes of the u-curves all pass through the cone point B of the
    sphere-center line Z(u) = alpha(u) A + B; b_point is that B, as
    `collinearity` fits it.  Returns the max plane-to-B distance over the
    v-columns of surf.
    """
    cols = np.swapaxes(surf.points, 0, 1)  # (nv, nu, 3)
    # each column's mean sums its u-samples pairwise along a contiguous
    # axis, as np.mean of one column of the surface's (3, nu, nv) planes
    # does, and the batched SVD factors each column alone: every value is
    # that of the column taken by itself
    mean = np.mean(np.ascontiguousarray(np.moveaxis(cols, 1, -1)), axis=-1)
    _, _, vt = np.linalg.svd(cols - mean[:, None, :], full_matrices=False)
    # the distance of b_point to each plane, along its normal vt[2]; a
    # matmul of a row by a column is np.dot's inner product
    dist = np.matmul((b_point - mean)[:, None, :], vt[:, 2, :, None])
    return float(np.max(np.abs(dist), initial=0.0))


def axis(spec, crit, surf) -> AxisData:
    """Closed-form axis Z'(omega) in the moving frame at u = omega.

    The coefficients z1, z2, z3 on (e^{-h} f_u, e^{-h} f_v, n) are rational
    in s = e^{-h(omega, w)} with the signed sqrt(Q) carried by s'(v); the
    assembled vector, at 9 interior v-samples of the first period, must be
    v-independent and parallel to the monodromy axis of the frame.
    """
    sph = _spec_of(spec)
    delta, e1, e2 = _elementary(sph)
    rspec = surf.recipe.spec
    fam = surf.recipe.fam
    om, R = crit.omega, crit.R
    co = elliptic.coeffs_at_omega(crit)
    beta_prime = R ** 2 * (co.Uprime + e2 * co.U1prime)
    norm_sq = (R ** 2 * (2 * e1 * co.U1prime + delta ** 2 * co.U1prime ** 2
                         - co.U2)
               + R ** 4 * (co.Uprime + e2 * co.U1prime) ** 2)

    # interior v-samples of the first period (endpoints have w'(v) = 0,
    # which is fine, but spread detection benefits from generic points)
    j_sel = np.unique(np.linspace(1, np.searchsorted(surf.v, rspec.period) - 1,
                                  9).astype(int))
    v_sel = surf.v[j_sel]
    w_sel, wp_sel, _ = rspec.planes(v_sel)

    grid = curvefamily.CurveGrid(om, w_sel, fam,
                                 forms=("exp_h", "dlog_gamma_u"))
    s = 1.0 / grid.exp_h
    h_w = -np.imag(grid.dlog_gamma_u)
    sprime = -h_w * s * wp_sel  # carries the sign of sqrt(Q)/delta

    zeta1 = (1.0 + s * beta_prime) / s
    zeta2 = R * sprime / s
    zeta3 = (R / (delta * s)) * (-delta ** 2 * co.U1prime * s
                                 + (s - e1 / 2) ** 2 + e2 - e1 ** 2 / 4)

    f = surface_mod.fields_at(fam, rspec, np.array([om]), v_sel,
                              surf.phi[j_sel], names=("fu", "fv", "n", "expH"))
    eh_row = f["expH"][0][:, None]
    # minus on the normal term: the surface module's Gauss map fu x fv is
    # opposite to the normal the sphere data is written in (same flip as in
    # sphere_centers)
    assembled = (zeta1[:, None] * f["fu"][0] / eh_row
                 + zeta2[:, None] * f["fv"][0] / eh_row
                 - zeta3[:, None] * f["n"][0])
    norms = np.linalg.norm(assembled, axis=-1)
    spread = float(np.max(angle(assembled, assembled[0])))
    scale = np.sqrt(norm_sq)
    return AxisData(
        Zprime_omega=np.mean(assembled, axis=0),
        norm_sq=float(norm_sq),
        z1=zeta1 / scale, z2=zeta2 / scale, z3=zeta3 / scale, v=v_sel,
        unit_residual=float(np.max(np.abs(
            (zeta1 ** 2 + zeta2 ** 2 + zeta3 ** 2) / norm_sq - 1.0))),
        norm_sq_assembled=float(np.max(norms ** 2)),
        spread_angle=spread,
    )
