"""The holomorphic family of planar curves gamma(u, w) and its diagnostics.

Every function takes an `elliptic.Family`: its lattice, omega and the
cached constants theta1'(0), td(omega) and c = td'(om)/td(om).  With
z = u + i*w, zb = u - i*w, omega in (0, pi/2) and td the lattice's companion
theta (theta2 on rhombic, theta4 on rectangular lattices), the family and
its derived forms are quotients of five theta arrays

    A = th1((z + om)/2),  Ab = th1((zb + om)/2),  G = th1((z - 3 om)/2),
    D = td((z - om)/2),   Db = td((zb - om)/2),

and two derivative arrays A' = th1'((z + om)/2), D' = td'((z - om)/2):

    gamma           = -i 2 td(om)^2/(th1'(0) th1(2 om)) * G/A * e^{z c},
    gamma_u         = -i (D/A)^2 * e^{z c} = e^{h + i sigma},
    e^h             = D Db/(A Ab) * e^{u Re c},
    e^{i sigma}     = -i D Ab/(A Db) * e^{i w c},
    (h + i sigma)_u = D'/D - A'/A + c.

A `CurveGrid` evaluates them on a tensor grid u x w.  There each argument
is u/2 + b with b = (+-i w + const)/2, and every theta series term
e^{i m (u/2 + b)} splits as e^{i m u/2} e^{i m b}, so the arrays are
matrix products with one left factor per m0 of the series
(`theta.theta_tensor`).  A grid fetches only the arrays of the forms it
is built for, all in one call: one product on a rhombic lattice, where
theta1 and td = theta2 both have m0 = 1, two on a rectangular one.  The
products sum the terms of `theta_grid`, so its truncation bound certifies
them.  The rotation coefficient of the curve at w is

    W1(w) = i th1'(0) td(om - i w) / (2 td(om) th1(i w)) * e^{i w c}.

At the critical omega of a rhombic lattice c = 0 and gamma becomes
2*pi-periodic in u (closed curves).  The curves live in the band w in
(0, 2*pi*lam); a grid built with mirrored=True also allows mirrored
negative w, so the conjugation symmetry conj(gamma(u, w)) = -gamma(u, -w)
can be checked.

In hyperbolic standardization the curves are area-constrained quasiperiodic
hyperbolic elastica: with hyperbolic speed a = 2|W1| (so arclength s = a*u),
the unit tangent Q = e^{i sigma~} satisfies the quartic Euler-Lagrange integral

    Q_s^2 + Q^4/4 + conj(L) Q^3 + mu Q^2 + L Q + 1/4 = 0,

with L = (d/dw log W1)/a and real mu, and the hyperbolic curvature is
kappa = sigma~_u / a + cos sigma~ (verified against the osculating-circle
construction).

The omega -> 0 limit (a Family of mode "limit") has its own functions:
gamma_hat, gamma_hat_u, w_hat, limit_d and limit_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


# the theta arrays of the module docstring that each form of a CurveGrid
# reads
_READS = {
    "gamma": ("A", "G"),
    "gamma_u": ("A", "D"),
    "exp_h": ("A", "Ab", "D", "Db"),
    "exp_isigma": ("A", "Ab", "D", "Db"),
    "dlog_gamma_u": ("A", "A'", "D", "D'"),
    "kappa_hyp": ("A", "Ab", "A'", "D", "Db", "D'"),
}
FORMS = tuple(_READS)


class CurveGrid:
    """The family's closed forms on the grid z = u + i w.

    u and w are each a number or a 1-D array; a form has shape
    (len(u), len(w)), and a number drops its axis (two numbers give a
    number).  The band of w is checked on construction (the mirrored band
    if `mirrored`).  A grid is built for the forms it names (all of
    FORMS by default), and reading any other raises ValueError.  On first
    use it fetches the theta arrays those forms read (`_READS`: gamma
    reads A and G, e^h and e^{i sigma} read A, Ab, D and Db, (h + i
    sigma)_u reads A, A', D and D') with one `theta_tensor` call, each on
    the u x w grid as the product of a = u/2 and b = (+-i w + const)/2:
    one product on a rhombic lattice, where theta1 and td = theta2 share
    the left factor, and two on a rectangular one.  The arrays keep the
    truncation certificate of `theta_grid`, since |Im b| = |w|/2 lies in
    the strip.  The zeros of A and Ab are guarded when a form reads them.
    """

    def __init__(self, u, w, fam: Family, mirrored: bool = False,
                 forms=FORMS):
        if np.ndim(u) > 1 or np.ndim(w) > 1:
            raise ValueError("u and w must be numbers or 1-D arrays")
        unknown = set(forms) - set(FORMS)
        if unknown:
            raise ValueError(f"unknown forms {sorted(unknown)}")
        _check_w(w, fam.lattice, mirrored)
        self.fam = fam
        self.forms = tuple(forms)
        self._shape = np.shape(u) + np.shape(w)
        self.u = np.atleast_1d(np.asarray(u, dtype=float))
        self.w = np.atleast_1d(np.asarray(w, dtype=float))

    def _out(self, val, kind=complex):
        return kind(val[0, 0]) if self._shape == () else val.reshape(self._shape)

    def _read(self, form):
        """The theta arrays, once the grid is known to be built for form."""
        if form not in self.forms:
            raise ValueError(f"this CurveGrid is built for {self.forms}, "
                             f"not {form}")
        return self._theta

    @cached_property
    def _theta(self):
        """The arrays the grid's forms read, by name."""
        fam, iw, om = self.fam, 1j * self.w, self.fam.omega
        # theta index, derivative order and 2 b of every array, in the
        # order of the fetch: theta1 rows, then td rows
        arrays = {"A": (1, 0, iw + om), "Ab": (1, 0, -iw + om),
                  "G": (1, 0, iw - 3 * om), "A'": (1, 1, iw + om),
                  "D": (fam.den, 0, iw - om), "Db": (fam.den, 0, -iw - om),
                  "D'": (fam.den, 1, iw - om)}
        names = [x for x in arrays
                 if any(x in _READS[form] for form in self.forms)]
        b = np.stack([arrays[x][2] for x in names]) / 2
        out = theta_tensor([arrays[x][:2] for x in names], self.u / 2, b,
                           fam.lattice)
        return dict(zip(names, out))

    @cached_property
    def _th1_p(self):
        return _pole_checked(self._theta["A"], "theta1((z + omega)/2)")

    @cached_property
    def _th1_pb(self):
        return _pole_checked(self._theta["Ab"], "theta1((zb + omega)/2)")

    @cached_property
    def _ezc(self):
        """e^{z c} on the grid, as e^{u c} e^{i w c}."""
        c = self.fam.c
        return np.exp(self.u * c)[:, None] * np.exp(1j * self.w * c)

    @cached_property
    def gamma(self):
        """The planar curve gamma(u, w)."""
        fam, t = self.fam, self._read("gamma")
        pref = -2j * fam.td ** 2 / (fam.t1p0 * theta_grid(1, 2 * fam.omega, fam.lattice))
        return self._out(pref * t["G"] / self._th1_p * self._ezc)

    @cached_property
    def gamma_u(self):
        """d(gamma)/du = -i d(gamma)/dw = e^{h + i sigma}."""
        t = self._read("gamma_u")
        return self._out(-1j * (t["D"] / self._th1_p) ** 2 * self._ezc)

    @cached_property
    def exp_h(self):
        """Metric factor e^{h(u,w)}, positive real.

        The realness check compares each w column with its own scale, over u.
        """
        t = self._read("exp_h")
        val = t["D"] * t["Db"] / (self._th1_p * self._th1_pb)
        val = val * np.exp(self.u * self.fam.c.real)[:, None]
        out = np.real(val).copy()  # a view would keep the complex val alive
        im = np.max(np.abs(np.imag(val)), axis=0)
        if np.any(im > 1e-9 * np.max(np.abs(out), axis=0)):
            raise ArithmeticError("e^h should be real")
        return self._out(out, float)

    # _eis and _dlog serve exp_isigma, dlog_gamma_u and kappa_hyp, which
    # check that the grid is built for them
    @cached_property
    def _eis(self):
        t = self._theta
        val = -1j * t["D"] * self._th1_pb / (self._th1_p * t["Db"])
        return val * np.exp(1j * self.w * self.fam.c)

    @cached_property
    def _dlog(self):
        t = self._theta
        return t["D'"] / t["D"] - t["A'"] / self._th1_p + self.fam.c

    @cached_property
    def exp_isigma(self):
        """Unitary factor e^{i sigma(u,w)} of gamma_u."""
        self._read("exp_isigma")
        return self._out(self._eis)

    @cached_property
    def dlog_gamma_u(self):
        """(h + i sigma)_u = d/dz log gamma_u, by theta log-derivatives."""
        self._read("dlog_gamma_u")
        return self._out(self._dlog)

    @cached_property
    def kappa_hyp(self):
        """Hyperbolic curvature sigma~_u / a + cos(sigma~) of the standardized
        curve."""
        self._read("kappa_hyp")
        W1 = w1(self.w, self.fam)
        q = _standardizing_rotation(W1) * self._eis
        return self._out(np.imag(self._dlog) / (2 * abs(W1)) + np.real(q), float)


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
    return rot * CurveGrid(us, w, fam, forms=("gamma",)).gamma


def hyperbolic_speed(us, w: float, fam):
    """|gamma~_u|/Im(gamma~) on a u-grid; constant equal to a = 2|W1(w)|."""
    rot = _standardizing_rotation(w1(w, fam))
    grid = CurveGrid(np.asarray(us, dtype=float), w, fam)
    return np.abs(rot * grid.gamma_u) / np.imag(rot * grid.gamma)


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
        return rot * CurveGrid(u, w, fam, forms=("exp_isigma",)).exp_isigma

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


def _limit_parts(u, w, fam: Family):
    """z = u + i w, the slope -i td''(0) td(0)/th1'(0)^2 of the linear term
    of gamma_hat and th1(z/2), guarded against its zeros."""
    lat = fam.lattice
    _check_w(w, lat, mirrored=True)
    z = np.asarray(u, dtype=complex) + 1j * w
    slope = -1j * theta_grid(fam.den, 0.0, lat, 2) * fam.td / fam.t1p0 ** 2
    th1h = theta_grid(1, z / 2, lat)
    if np.min(np.abs(th1h)) < _POLE_TOL:
        raise PoleProximity("theta1(z/2) too close to zero")
    return z, slope, th1h


def gamma_hat(u, w, fam: Family):
    """Limit curve: linear term + 2i td(0)^2 th1'(z/2) / (th1'(0)^2 th1(z/2)).

    u and w may be arrays that broadcast.
    The linear term vanishes exactly when td''(0) = 0, i.e. on the rhombic
    lattice at lambda0, making the curves 2*pi-periodic.
    """
    z, slope, th1h = _limit_parts(u, w, fam)
    val = slope * z + 2j * fam.td ** 2 * theta_grid(1, z / 2, fam.lattice, 1) / (
        fam.t1p0 ** 2 * th1h)
    return complex(val) if np.isscalar(u) else val


def gamma_hat_u(u, w, fam: Family):
    """d(gamma_hat)/du by theta log-derivatives (the linear slope plus the
    derivative of th1'(z/2)/th1(z/2)); u and w broadcast."""
    z, slope, th1h = _limit_parts(u, w, fam)
    lat = fam.lattice
    dd = (theta_grid(1, z / 2, lat, 2) * th1h - theta_grid(1, z / 2, lat, 1) ** 2) / th1h ** 2
    val = slope + 1j * fam.td ** 2 / fam.t1p0 ** 2 * dd
    return complex(val) if np.isscalar(u) else val


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
