"""The holomorphic family of planar curves gamma(u, w) and its diagnostics.

Every function takes an `elliptic.Family`: its lattice, omega and the
cached constants theta1'(0), td(omega) and c = td'(om)/td(om).  With
z = u + i*w, zb = u - i*w, omega in (0, pi/2) and td the lattice's companion
theta (theta2 on rhombic, theta4 on rectangular lattices), the family and
its derived forms are quotients of three theta arrays

    A = th1((z + om)/2),  G = th1((z - 3 om)/2),  D = td((z - om)/2),

and two derivative arrays A' = th1'((z + om)/2), D' = td'((z - om)/2).
The forms at zb need no arrays of their own: for real u, w and omega,
(zb +- om)/2 is the conjugate of (z +- om)/2, and th(conj x) =
lam conj(th(x)) with lam = e^{i pi/4} for theta1 and theta2 on rhombic
(conj(q) = -q there) and lam = 1 for theta1 and theta4 on rectangular
lattices (real q).  So Ab = th1((zb + om)/2) = lam conj(A) and Db =
td((zb - om)/2) = lam conj(D), and with r = D/A lam cancels from

    gamma           = -i 2 td(om)^2/(th1'(0) th1(2 om)) * G/A * e^{z c},
    gamma_u         = -i r^2 * e^{z c} = e^{h + i sigma},
    e^h             = D Db/(A Ab) * e^{u Re c} = |r|^2 e^{u Re c},
    e^{i sigma}     = -i D Ab/(A Db) * e^{i w c} = -i r^2/|r|^2 e^{i w c},
    (h + i sigma)_u = D'/D - A'/A + c.

`forms_at` evaluates the forms it is asked for on a tensor grid u x w.
There each argument is u/2 + b with b = (+-i w + const)/2, and every theta
series term e^{i m (u/2 + b)} splits as e^{i m u/2} e^{i m b}, so the
arrays are matrix products with one left factor per m0 of the series
(`theta.theta_tensor`).  It fetches only the arrays of the forms it is
asked for, all in one call: one product on a rhombic lattice, where
theta1 and td = theta2 both have m0 = 1, two on a rectangular one.  The
products sum the terms of `theta_grid`, so its truncation bound certifies
them.  The rotation coefficient of the curve at w is

    W1(w) = i th1'(0) td(om - i w) / (2 td(om) th1(i w)) * e^{i w c}.

At the critical omega of a rhombic lattice c = 0 and gamma becomes
2*pi-periodic in u (closed curves).  The curves live in the band w in
(0, 2*pi*lam); forms_at with mirrored=True also allows mirrored
negative w, so the conjugation symmetry conj(gamma(u, w)) = -gamma(u, -w)
can be checked.

In hyperbolic standardization the curves are area-constrained quasiperiodic
hyperbolic elastica: with hyperbolic speed a = 2|W1| (so arclength s = a*u),
the unit tangent Q = e^{i sigma~} satisfies the quartic Euler-Lagrange integral

    Q_s^2 + Q^4/4 + conj(L) Q^3 + mu Q^2 + L Q + 1/4 = 0,

with L = (d/dw log W1)/a and real mu, and the hyperbolic curvature is
kappa = sigma~_u / a + cos sigma~ (verified against the osculating-circle
construction).

The omega -> 0 limit (a Family of mode "limit") has c = 0 and the forms
gamma_hat and gamma_hat_u of forms_at, in A = th1(z/2), A' = th1'(z/2) and
A'' = th1''(z/2) (one array more for the same tensor call), with the slope
s = -i td''(0) td(0)/th1'(0)^2 (zero exactly when td''(0) = 0, on the
rhombic lattice at lambda0, making the curves 2*pi-periodic):

    gamma_hat       = s z + 2i td(0)^2/th1'(0)^2 * A'/A,
    gamma_hat_u     = s + i td(0)^2/th1'(0)^2 * (A'' A - A'^2)/A^2.

Its rotation data W_hat, limit_d and limit_r are functions of w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import Family, _real
from .errors import DomainW, PoleProximity
from .theta import Lattice, theta_grid, theta_tensor

_POLE_TOL = 1e-10


@dataclass(frozen=True)
class ElasticaConstants:
    a: float
    Lambda: complex
    mu: float
    mu_imag: float           # imaginary part of the fitted constant (~0)
    residual_max: float
    residual_mean: float
    mu_std: float


def _check_w(w, lat: Lattice, mirrored: bool = False):
    """Raise DomainW unless w (a number or an array) lies in the band."""
    top = 2 * np.pi * lat.lam
    w = np.asarray(w, dtype=float)
    a = np.abs(w) if mirrored else w
    bad = w[~((0 < a) & (a < top))]
    if len(bad):
        band = f"(-{top:.6g}, 0) u (0, {top:.6g})" if mirrored else f"(0, {top:.6g})"
        raise DomainW(f"w = {bad[0]} outside the admissible band {band}")


def _pole_checked(den, what):
    if np.min(np.abs(den)) < _POLE_TOL:
        raise PoleProximity(f"{what} too close to zero")
    return den


# the theta arrays of the module docstring that each form of forms_at reads
_READS = {
    "gamma": ("A", "G"),
    "gamma_u": ("A", "D"),
    "exp_h": ("A", "D"),
    "exp_isigma": ("A", "D"),
    "dlog_gamma_u": ("A", "A'", "D", "D'"),
    "kappa_hyp": ("A", "A'", "D", "D'"),
    "gamma_hat": ("A", "A'"),
    "gamma_hat_u": ("A", "A'", "A''"),
}
LIMIT_FORMS = ("gamma_hat", "gamma_hat_u")   # of a Family of mode "limit"
FORMS = tuple(x for x in _READS if x not in LIMIT_FORMS)   # of the others


def forms_at(u, w, fam: Family, names, mirrored: bool = False) -> dict:
    """The closed forms `names` (of FORMS, or of LIMIT_FORMS on a Family of
    mode "limit") of fam on the grid z = u + i w, as {name: form} for
    exactly names.

    u and w are each a number or a 1-D array; a form has shape
    (len(u), len(w)), and a number drops its axis (two numbers give a
    number).  The forms are those of the module docstring: gamma, gamma_u
    = d(gamma)/du = -i d(gamma)/dw, the positive real metric factor exp_h
    = e^h, the unitary exp_isigma = e^{i sigma}, dlog_gamma_u =
    (h + i sigma)_u = d/dz log gamma_u, and kappa_hyp, the hyperbolic
    curvature sigma~_u / a + cos(sigma~) of the standardized curve; on the
    limit, gamma_hat and its u-derivative gamma_hat_u.

    A name not of fam's forms raises ValueError, and a w outside the band
    (the mirrored band if `mirrored`) DomainW, before any theta array is
    fetched.  The arrays the forms read (`_READS`) come from one
    `theta_tensor` call, as the module docstring sets out; they keep the
    truncation certificate of `theta_grid`, since |Im b| = |w|/2 lies in
    the strip.  The zeros of A are guarded.
    """
    if np.ndim(u) > 1 or np.ndim(w) > 1:
        raise ValueError("u and w must be numbers or 1-D arrays")
    unknown = set(names) - set(LIMIT_FORMS if fam.mode == "limit" else FORMS)
    if unknown:
        raise ValueError(f"unknown forms {sorted(unknown)} of a {fam.mode} "
                         "family")
    _check_w(w, fam.lattice, mirrored)
    shape = np.shape(u) + np.shape(w)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    w = np.atleast_1d(np.asarray(w, dtype=float))
    iw, om, c = 1j * w, fam.omega, fam.c
    # theta index, derivative order and 2 b of every array, in the order
    # of the fetch: theta1 rows, then td rows
    arrays = {"A": (1, 0, iw + om), "G": (1, 0, iw - 3 * om),
              "A'": (1, 1, iw + om), "A''": (1, 2, iw + om),
              "D": (fam.den, 0, iw - om), "D'": (fam.den, 1, iw - om)}
    fetch = [x for x in arrays if any(x in _READS[form] for form in names)]
    b = np.stack([arrays[x][2] for x in fetch]) / 2
    t = dict(zip(fetch, theta_tensor([arrays[x][:2] for x in fetch], u / 2,
                                     b, fam.lattice)))
    _pole_checked(t["A"], "theta1((z + omega)/2)")

    out = {}
    if "gamma" in names or "gamma_u" in names:
        ezc = np.exp(u * c)[:, None] * np.exp(1j * w * c)
        if "gamma" in names:
            pref = -2j * fam.td ** 2 / (fam.t1p0 * theta_grid(1, 2 * om, fam.lattice))
            out["gamma"] = pref * t["G"] / t["A"] * ezc
        if "gamma_u" in names:
            out["gamma_u"] = -1j * (t["D"] / t["A"]) ** 2 * ezc
        del ezc
    if "exp_h" in names or "exp_isigma" in names or "kappa_hyp" in names:
        r = t["D"] / t["A"]
        r2 = r.real * r.real + r.imag * r.imag                 # |r|^2
    if "exp_h" in names:
        out["exp_h"] = r2 * np.exp(u * c.real)[:, None]
    if "exp_isigma" in names or "kappa_hyp" in names:
        out["exp_isigma"] = r * r / r2 * (-1j * np.exp(1j * w * c))
    if "dlog_gamma_u" in names or "kappa_hyp" in names:
        out["dlog_gamma_u"] = t["D'"] / t["D"] - t["A'"] / t["A"] + c
    if "gamma_hat" in names or "gamma_hat_u" in names:
        k = 1j * fam.td ** 2 / fam.t1p0 ** 2
        slope = -k * theta_grid(fam.den, 0.0, fam.lattice, 2) / fam.td
        a, a1 = t["A"], t["A'"]
        if "gamma_hat" in names:
            out["gamma_hat"] = slope * (u[:, None] + iw) + 2 * k * a1 / a
        if "gamma_hat_u" in names:
            out["gamma_hat_u"] = slope + k * (t["A''"] * a - a1 * a1) / (a * a)
    del t
    if "kappa_hyp" in names:
        W1 = w1(w, fam)
        q = _standardizing_rotation(W1) * out["exp_isigma"]
        out["kappa_hyp"] = np.imag(out["dlog_gamma_u"]) / (2 * abs(W1)) + np.real(q)
    return {name: out[name].reshape(shape) if shape else out[name][0, 0].item()
            for name in names}


def w1(w, fam: Family):
    """Infinitesimal rotation coefficient W1(w); W(w) = conj(W1(w)).

    w may be an array; a scalar w gives a complex.
    """
    lat, om, i = fam.lattice, fam.omega, fam.den
    _check_w(w, lat)
    warr = np.asarray(w, dtype=float)
    den = theta_grid(1, 1j * warr, lat)
    # theta1(i w) vanishes mid-band at w = pi*lam on rectangular lattices
    near = np.abs(den) < _POLE_TOL
    if np.any(near):
        raise PoleProximity(f"W1 pole: theta1(i w) ~ 0 at w = {warr[near].flat[0]}")
    val = (1j * fam.t1p0 * theta_grid(i, om - 1j * warr, lat)
           / (2 * fam.td * den))
    val = val * np.exp(1j * warr * fam.c)
    return complex(val) if val.ndim == 0 else val


def dlog_w1(w, fam: Family):
    """d/dw log W1(w), by theta log-derivatives.

    w may be an array; a scalar w gives a complex.
    """
    lat, om, i = fam.lattice, fam.omega, fam.den
    _check_w(w, lat)
    val = (-1j * theta_grid(i, om - 1j * w, lat, 1) / theta_grid(i, om - 1j * w, lat)
           - 1j * theta_grid(1, 1j * w, lat, 1) / theta_grid(1, 1j * w, lat)
           + 1j * fam.c)
    return complex(val) if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# hyperbolic elastica diagnostics


def _standardizing_rotation(W1) -> complex:
    """The rotation -|W1|/(i W1) that standardizes a curve with rotation
    coefficient W1."""
    return -abs(W1) / (1j * W1)


def hyperbolic_standardize(us, w: float, fam):
    """Rotate gamma(., w) so its rotation axis is the ideal boundary of H^2."""
    rot = _standardizing_rotation(w1(w, fam))
    return rot * forms_at(us, w, fam, ("gamma",))["gamma"]


def hyperbolic_speed(us, w: float, fam):
    """|gamma~_u|/Im(gamma~) on a u-grid; constant equal to a = 2|W1(w)|."""
    rot = _standardizing_rotation(w1(w, fam))
    f = forms_at(np.asarray(us, dtype=float), w, fam, ("gamma", "gamma_u"))
    return np.abs(rot * f["gamma_u"]) / np.imag(rot * f["gamma"])


def elastica_constants(w: float, fam) -> ElasticaConstants:
    """Fit the quartic tangent ODE of the standardized curve on a u-grid.

    Lambda comes from the closed form (d/dw log W1)/a; mu is fitted pointwise
    from the ODE with Q_s = (dQ/du)/a by central differences of step 1e-3,
    at 200 u in [0, 2 pi), then averaged.
    """
    W1 = w1(w, fam)
    a = 2 * abs(W1)
    lam = dlog_w1(w, fam) / a
    rot = _standardizing_rotation(W1)
    us = np.linspace(0, 2 * np.pi, 200, endpoint=False)

    def q_of(u):
        return rot * forms_at(u, w, fam, ("exp_isigma",))["exp_isigma"]

    q = q_of(us)
    # fourth-order central stencil: the quartic residual is quadratic in the
    # Q_s error, so a second-order stencil would dominate the ODE residual
    step = 1e-3
    qs = (-q_of(us + 2 * step) + 8 * q_of(us + step)
          - 8 * q_of(us - step) + q_of(us - 2 * step)) / (12 * step) / a
    mu_pts = -(qs ** 2 + 0.25 * q ** 4 + np.conj(lam) * q ** 3 + lam * q + 0.25) / q ** 2
    mu = complex(np.mean(mu_pts))
    res = np.abs(qs ** 2 + 0.25 * q ** 4 + np.conj(lam) * q ** 3
                 + mu.real * q ** 2 + lam * q + 0.25)
    return ElasticaConstants(
        a=a,
        Lambda=lam,
        mu=mu.real,
        mu_imag=mu.imag,
        residual_max=float(np.max(res)),
        residual_mean=float(np.mean(res)),
        mu_std=float(np.std(mu_pts)),
    )


# ---------------------------------------------------------------------------
# the omega -> 0 limit family (cylinder-tangent case)


def w_hat(w, fam: Family):
    """W^(w) = i th1'(0) td(iw) / (2 td(0) th1(iw)), real; w a number or array."""
    lat, i = fam.lattice, fam.den
    _check_w(w, lat)
    val = (1j * fam.t1p0 * theta_grid(i, 1j * w, lat)
           / (2 * fam.td * theta_grid(1, 1j * w, lat)))
    return _real(val, "W^(w)")


def limit_d(w, fam: Family):
    """d(w) = td'(iw)/td(iw) - i w td''(0)/td(0); purely imaginary on rhombic."""
    lat, i = fam.lattice, fam.den
    _check_w(w, lat)
    val = (theta_grid(i, 1j * w, lat, 1) / theta_grid(i, 1j * w, lat)
           - 1j * w * theta_grid(i, 0.0, lat, 2) / fam.td)
    return complex(val) if np.ndim(val) == 0 else val


def limit_r(w, fam: Family):
    """r(w) = td(0) td(iw) / (th1'(0) th1(iw)) * d(w), real; w a number or array."""
    lat, i = fam.lattice, fam.den
    _check_w(w, lat)
    val = (fam.td * theta_grid(i, 1j * w, lat)
           / (fam.t1p0 * theta_grid(1, 1j * w, lat))
           * limit_d(w, fam))
    return _real(val, "r(w)")
