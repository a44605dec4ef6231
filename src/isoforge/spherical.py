"""Analytics for the spherical second family of curvature lines.

When the reparametrization function comes from the quartic elliptic curve
Q(s) = -(s - s1)^2 (s - s2)^2 + delta^2 Q3(s), every v-curve of the surface
lies on a sphere.  This module integrates the linear phi-system that encodes
the sphere data along u, recovers the sphere centers Z(u) and the line they
lie on, and evaluates the closed-form axis direction Z'(omega) in the moving
frame at u = omega -- the local formula that must reproduce the global
monodromy axis.  The certificates take the `reparam.SphericalSpec`
(delta, s1, s2) that the surface's spec was built from, and read the family
and the spec from the surface's recipe.  They return plain values, and pass
no verdict: `verify.spherical_battery` collects them under `verify.CHECKS`
names.
"""

from __future__ import annotations

import numpy as np

from . import curvefamily, elliptic, frame, surface as surface_mod
from .errors import PoleProximity, SpecInvalid


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


def integrate_phis(sph, crit, us):
    """Solve the 3x3 linear system of the SphericalSpec sph on the critical
    family crit for (phi2, phi1, phi0) along u: one row (phi2, phi1, phi0)
    per u of us, shape (len(us), 3).

    phi' = [[0, -U1, 0], [2U, 0, -2U1], [0, U, 0]] phi is the symmetric
    square of M' = X M, X = [[0, -U1], [U, 0]]: phi(u) = sym2(M(u))
    phi(omega) with M(omega) = 1, phi(omega) = delta^{-1} (1, -(s1 + s2),
    s1 s2).  M is integrated outward from omega in both directions, as two
    systems of one solve of the frame module's Magnus solver, to its step
    tolerance `frame.STEP_TOL`.  The coefficients have poles where the
    u-denominator theta2 vanishes (u = pi/2 mod pi), so a requested u
    outside (-pi/2, pi/2) raises PoleProximity before any integration.
    """
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


def sphere_centers(surf, sph):
    """alpha (9,) and the sphere centres (9, 3) of the v-curves at 9
    u-samples of a pole-free window around omega, for the surface built
    from the SphericalSpec sph.  Each centre Z(u) = f + alpha n + beta
    fu/|fu| is v-independent (up to integration error) and averaged over
    the curve's v-samples."""
    crit = surf.recipe.fam
    # a pole-free window around omega, clear of u = pi/2
    sel = np.nonzero((surf.u > 0.03) & (surf.u < np.pi / 2 - 0.08))[0]
    rows = sel[np.unique(np.linspace(0, len(sel) - 1, 9).astype(int))]
    us = surf.u[rows]
    phis = integrate_phis(sph, crit, us)
    U, U1 = elliptic.riccati_u_u1(us, crit)
    den = U1 * phis[:, 2] + U * phis[:, 0]
    alphas, betas = U1 / den, -phis[:, 0] / den
    fu = surf.fu[rows]
    unit_u = fu / np.linalg.norm(fu, axis=-1, keepdims=True)
    # the sphere-data normal is opposite to the assembled Gauss map
    # n = fu x fv / |..| used by the surface module
    z_v = (surf.points[rows] - alphas[:, None, None] * surf.n[rows]
           + betas[:, None, None] * unit_u)
    return alphas, np.mean(z_v, axis=1)


def collinearity(alphas, centers):
    """Fit Z(u) = alpha(u) A + B to the sphere centres of `sphere_centers`.

    Returns (sv_ratio, A, B): sv_ratio is the second-to-first singular value
    ratio of the centered Z cloud (0 for perfectly collinear centers), and
    A, B the regression line in the intersection-angle parametrization.
    """
    centered = centers - np.mean(centers, axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    ratio = float(sv[1] / sv[0]) if sv[0] > 0 else 0.0
    design = np.stack([alphas, np.ones_like(alphas)], axis=1)
    sol, _, _, _ = np.linalg.lstsq(design, centers, rcond=None)
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


def _axis_terms(sph, surf):
    """Closed-form axis Z'(omega) in the moving frame at u = omega, at 9
    interior v-samples of the first period of the surface built from the
    SphericalSpec sph: (v, (zeta1, zeta2, zeta3), |Z'(omega)|^2, the
    assembled vectors (9, 3)).

    The coefficients on (e^{-h} f_u, e^{-h} f_v, n) are rational in
    s = e^{-h(omega, w)} with the signed sqrt(Q) carried by s'(v); their
    squares sum to |Z'(omega)|^2, and the assembled vector is v-independent.
    """
    delta, e1, e2 = _elementary(sph)
    rspec, fam = surf.recipe.spec, surf.recipe.fam
    om, R, q3 = fam.omega, fam.R, fam.q3
    # U'(omega), U1'(omega) and U2(omega) from Q3's coefficients
    Up, U1p, U2 = -q3.c1 / 2, q3.c3 / 2, -q3.c2
    beta_prime = R ** 2 * (Up + e2 * U1p)
    norm_sq = (R ** 2 * (2 * e1 * U1p + delta ** 2 * U1p ** 2 - U2)
               + R ** 4 * (Up + e2 * U1p) ** 2)

    # interior v-samples of the first period (endpoints have w'(v) = 0,
    # which is fine, but generic points probe the v-independence better)
    j_sel = np.unique(np.linspace(1, np.searchsorted(surf.v, rspec.period) - 1,
                                  9).astype(int))
    v_sel = surf.v[j_sel]
    w_sel, wp_sel, _ = rspec.planes(v_sel)

    grid = curvefamily.forms_at(om, w_sel, fam, ("exp_h", "dlog_gamma_u"))
    s = 1.0 / grid["exp_h"]
    h_w = -np.imag(grid["dlog_gamma_u"])
    sprime = -h_w * s * wp_sel  # carries the sign of sqrt(Q)/delta

    zeta1 = (1.0 + s * beta_prime) / s
    zeta2 = R * sprime / s
    zeta3 = (R / (delta * s)) * (-delta ** 2 * U1p * s
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
    return v_sel, (zeta1, zeta2, zeta3), float(norm_sq), assembled


def axis(sph, surf, mono_axis) -> dict:
    """The axis of `_axis_terms` by check name: `axis_unit` and
    `axis_norm_sq`, the largest relative error of the coefficients' square
    sum and of the assembled |Z'(omega)|^2 against the closed form, and
    `axis_vs_monodromy`, the angle between the lines of the v-averaged
    assembled vector and of mono_axis, the frame's monodromy axis."""
    _, (zeta1, zeta2, zeta3), norm_sq, assembled = _axis_terms(sph, surf)
    norm_sq_assembled = float(np.max(np.linalg.norm(assembled, axis=-1) ** 2))
    mean = np.mean(assembled, axis=0)
    ang = float(angle(mean / np.linalg.norm(mean), mono_axis))
    return {
        "axis_unit": float(np.max(np.abs(
            (zeta1 ** 2 + zeta2 ** 2 + zeta3 ** 2) / norm_sq - 1.0))),
        "axis_norm_sq": abs(norm_sq_assembled - norm_sq) / norm_sq,
        # between lines: the axis sign is free
        "axis_vs_monodromy": min(ang, np.pi - ang),
    }
