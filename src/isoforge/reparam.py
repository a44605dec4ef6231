"""Reparametrization functions w(v) selecting the planar curve per v-slice.

An admissible reparametrization takes values in the open band (0, 2*pi*lam),
has |w'(v)| <= 1, and carries sqrt(1 - w'(v)^2) as a *signed* smooth function
(the sign may flip only where w' = +-1).  The signed root is recorded on the
spec; downstream frame integration never re-derives it from w'.  A spec
evaluates w, w' and the signed root together (`ReparamSpec.planes`), since
the frame, the field assembly and admissibility all read them at the same v.
A spec is validated once (`validate`, one sampling): the frame solve keeps
the report, whose coarse root_dd2 the battery's branch check reads too.

Two families are provided:

* analytic  -- w(v) = c0 + A sin(2 pi v / V), the tunable closed-form family;
* spherical -- w(v) constructed so the second family of curvature lines is
  spherical.  With s(w) = e^{-h(omega, w)} the construction is governed by two
  elliptic curves,

      w'(s) = 1/sqrt(Q3(s)),   v'(s) = delta/sqrt(Q(s)),
      Q(s)  = -(s - s1)^2 (s - s2)^2 + delta^2 Q3(s),

  for a nonzero real delta and s1, s2 either both real or complex conjugate.
  s oscillates between two adjacent simple roots of Q (polished, and Q
  divided by (s - s_a)(s_b - s), on Python floats in numpy's operation
  order); the square-root endpoint singularities are removed by the
  substitution s = s_a + (s_b - s_a) sin^2(theta), and both integrals are
  evaluated from one s(theta) by per-panel Gauss-Legendre quadrature.
  w(v) and s(v) between the panel edges are cubic Hermite interpolants
  (`cubic_hermite`, both on one knot search) of the exact edge values and
  slopes, and the edge values of w come from inverting s(w) with the
  package's Brent root finder, `elliptic.brentq`.  w' and the signed root
  are closed forms in s(v).

A spec is its kind, its period and its `planes` evaluator, nothing more:
the data a family was built from (an analytic mean and amplitude, a
spherical (delta, s1, s2)) stays with the caller that chose it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import (_REAL_TOL, Family, _even_indices, _real, brentq,
                       gauss_legendre)
from .errors import DegenerateFit, DomainW, NoOscillation, SingularRoot, SpecInvalid
from .theta import theta_grid


@dataclass(frozen=True)
class ReparamSpec:
    """A reparametrization function with its derivative and signed root:
    its kind, its period and its evaluator, nothing else.

    planes is the spec's one evaluator: a vectorized callable that maps v
    to the tuple (w(v), w'(v), root(v)), where root is the recorded branch
    of sqrt(1 - w'(v)^2).  Every consumer reads the three together at the
    same v, so one call folds, searches and evaluates a v-array once;
    `w` is its first projection, so no quantity can be replaced without
    the others seeing it.
    """

    kind: str
    period: float
    planes: Callable

    def w(self, v):
        return self.planes(v)[0]


@dataclass(frozen=True)
class SphericalSpec:
    """(delta, s1, s2) defining the second elliptic curve Q."""

    delta: float
    s1: complex
    s2: complex


@dataclass(frozen=True)
class ValidationReport:
    root_residual: float
    root_dd2: float
    root_dd2_coarse: float  # root_dd2 of every other sample
    flags: tuple
    ok: bool


# ---------------------------------------------------------------------------
# closed-form families


def analytic(mean: float, amplitude: float, period: float) -> ReparamSpec:
    """w(v) = mean + amplitude * sin(2 pi v / period), period finite > 0."""
    if not 0 < period < np.inf:  # NaN too
        raise SpecInvalid(f"spec period must be positive and finite, got {period}")
    freq = 2 * np.pi / period

    def planes(v):
        x = freq * np.asarray(v, dtype=float)
        wp = amplitude * freq * np.cos(x)
        return (mean + amplitude * np.sin(x), wp,
                np.sqrt(np.clip(1.0 - wp ** 2, 0.0, None)))

    return ReparamSpec(kind="analytic", period=float(period), planes=planes)


def constant(level: float, period: float = 2 * np.pi) -> ReparamSpec:
    """Constant w; admissible but corresponds to a surface of revolution."""
    return analytic(level, 0.0, period)


def validate(spec: ReparamSpec, lat, n: int = 4001) -> ValidationReport:
    """Dense-sampling admissibility report over one period, on n samples.

    root_dd2_coarse is root_dd2 on every other sample, from the same
    evaluation of the spec: for odd n bit for bit validate(spec, lat,
    n // 2 + 1).root_dd2.  A surface's frame solve validates once, and its
    battery reads that report (`frame.FrameTrajectory.admissibility`).
    """
    v = np.linspace(0.0, spec.period, n)
    w, wp, root = (np.asarray(x, dtype=float) for x in spec.planes(v))
    top = 2 * np.pi * lat.lam
    flags = []
    w_min, w_max = float(np.min(w)), float(np.max(w))
    if not (0.0 < w_min and w_max < top):
        flags.append(f"range [{w_min:.6g}, {w_max:.6g}] escapes the band (0, {top:.6g})")
    max_wp = float(np.max(np.abs(wp)))
    if not max_wp <= 1.0 + 1e-12:  # NaN is flagged too
        flags.append(f"|w'| reaches {max_wp:.6g} > 1")
    inside = np.abs(wp) <= 1.0
    root_residual = float(np.max(np.abs(1.0 - wp[inside] ** 2 - root[inside] ** 2))) \
        if np.any(inside) else np.inf
    if not root_residual <= 1e-8:
        flags.append("signed root inconsistent with 1 - w'^2")
    # smoothness proxy for the signed branch: bounded second divided
    # differences, on all samples and on every other one
    dd2 = [float(np.max(np.abs(np.diff(r, 2)))) / (x[1] - x[0]) ** 2
           if len(x) >= 3 else 0.0 for x, r in ((v, root), (v[::2], root[::2]))]
    return ValidationReport(root_residual, *dd2, tuple(flags), not flags)


def require_admissible(spec: ReparamSpec, lat) -> ValidationReport:
    """validate(spec, lat); raise SpecInvalid with its flags unless ok."""
    report = validate(spec, lat)
    if not report.ok:
        raise SpecInvalid("inadmissible reparametrization: "
                          + "; ".join(report.flags))
    return report


# ---------------------------------------------------------------------------
# the elliptic-curve coordinate s(w) = e^{-h(omega, w)}


def s_of_w(w, crit: Family):
    """s(w) = th2(om)^2/th2(0)^2 * (th1(om)^2/th2(om)^2 - th1(iw/2)^2/th2(iw/2)^2).

    Monotone increasing on (0, 2 pi lam), from the real root of Q3 at w -> 0
    to +infinity at the top of the band (theta2(i w / 2) -> 0 there).
    """
    warr = np.asarray(w, dtype=float)
    top = 2 * np.pi * crit.lattice.lam
    if np.any(warr <= 0) or np.any(warr >= top):
        raise DomainW(f"w must lie in the open band (0, {top:.6g})")
    return _s_function(crit)(warr)


def _s_function(crit: Family):
    """w -> s(w) of `s_of_w` without the band check, its constants
    th2(om)^2/th2(0)^2 and th1(om)^2/th2(om)^2 computed once."""
    lat, t2om = crit.lattice, crit.td
    scale = t2om ** 2 / theta_grid(2, 0.0, lat) ** 2
    base = theta_grid(1, crit.omega, lat) ** 2 / t2om ** 2

    def s(w):
        ratio = theta_grid(1, 0.5j * w, lat) / theta_grid(2, 0.5j * w, lat)
        return _real(scale * (base - ratio ** 2), "s(w)")

    return s


def _w_of_s(starget: float, crit: Family) -> float:
    """Invert the monotone map s(w) by bracketed root finding."""
    top = 2 * np.pi * crit.lattice.lam
    s = _s_function(crit)
    # stay away from the band ends: theta2(i w / 2) vanishes at the top, and
    # cancellation there spoils the realness of the s(w) evaluation
    lo, hi = 1e-6 * top, top * (1 - 1e-4)
    slo, shi = s(lo), s(hi)
    if not (slo < starget < shi):
        raise NoOscillation(
            f"s = {starget:.6g} outside the attainable range ({slo:.6g}, {shi:.6g})"
        )
    return brentq(lambda w: s(w) - starget, lo, hi, xtol=1e-14, rtol=8.9e-16)


# ---------------------------------------------------------------------------
# spherical construction


def cubic_hermite(x, y, dydx):
    """The piecewise cubic through (x, y) with slopes dydx, as a callable.

    x must increase strictly.  y and dydx may carry leading axes, one curve
    per row on the same knots: the callable then returns y.shape[:-1] +
    xq.shape, and every curve shares one knot search per call.  The
    coefficients and the evaluation are those of SciPy's
    CubicHermiteSpline (power basis about each left knot, summed in
    increasing powers), so the values agree bit for bit; points outside
    [x[0], x[-1]] extrapolate the end pieces.
    """
    x, y, dydx = (np.asarray(a, dtype=float) for a in (x, y, dydx))
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = dydx[..., :-1], dydx[..., 1:]
    t = (d0 + d1 - 2 * slope) / dx
    coeffs = np.stack([y[..., :-1], d0, (slope - d0) / dx - t, t / dx])
    curves = y.shape[:-1]

    def evaluate(xq):
        xq = np.asarray(xq, dtype=float)
        i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
        s = xq - x.take(i)
        out, z = np.zeros(curves + s.shape), np.ones_like(s)
        for c in coeffs.take(i, axis=-1):
            out += c * z
            z *= s
        return out

    return evaluate


def _polyval(p, x):
    """np.polyval(p, x), its operations in its order from y = 0.0, on a
    Python float as on an array, without its wrapper's calls."""
    y = 0.0
    for c in p:
        y = y * x + c
    return y


def _quotient(q, s_a, s_b):
    """np.polydiv(q, np.polymul([1, -s_a], [-1, s_b])) on Python floats,
    its operations in its order (to the sign of a zero coefficient): the
    quotient and the remainder's two coefficients, of which polydiv drops
    a leading one up to 1e-8 in magnitude."""
    div = (-1.0, s_b + s_a, -s_a * s_b)
    quot, r = [], list(q)
    for k in range(len(q) - 2):
        quot.append(-r[k])  # polydiv's d = (1 / -1) r[k]
        for j, c in enumerate(div):
            r[k + j] -= quot[k] * c
    return quot, r[-2:]


def build_spherical(spec: SphericalSpec, crit: Family) -> ReparamSpec:
    """Construct the periodic w(v) with spherical v-curvature lines.

    s oscillates on an interval [s_a, s_b] bounded by simple roots of Q with
    Q > 0 inside and Q3 > 0 throughout; v and w are elliptic integrals of s,
    regularized by s = s_a + (s_b - s_a) sin^2(theta) and accumulated by
    five-point Gauss-Legendre quadrature on 1600 equal theta-panels.  The
    half period is mirrored to a full period: w(V - v) = w(v).
    """
    delta = float(spec.delta)
    if delta == 0.0:
        raise SpecInvalid("delta must be nonzero")
    s1, s2 = complex(spec.s1), complex(spec.s2)
    e1 = _real(s1 + s2, "s1 + s2", SpecInvalid)
    e2 = _real(s1 * s2, "s1 * s2", SpecInvalid)
    if abs(s1.imag) > _REAL_TOL and abs(s2 - np.conj(s1)) > 1e-12 * max(1.0, abs(s1)):
        raise SpecInvalid("s1, s2 must be both real or a conjugate pair")

    cub = crit.q3
    q3_coeffs = np.array([cub.c3, cub.c2, cub.c1, cub.c0])
    pair = [1.0, -e1, e2]  # (s - s1)(s - s2)
    qcoef = delta ** 2 * np.concatenate([[0.0], q3_coeffs]) - np.polymul(pair, pair)

    # the single real root of Q3 bounds the attainable s-range from below
    s3_real = [r.real for r in cub.roots if abs(r.imag) < 1e-9 * max(1.0, abs(r))]
    if len(s3_real) != 1:
        raise NoOscillation("could not isolate the real root of Q3")
    s_floor = s3_real[0]

    q = qcoef.tolist()
    dq = [c * k for c, k in zip(q, range(len(q) - 1, 0, -1))]  # np.polyder
    # polish the real roots on Q itself
    rr = sorted(float(r.real) for r in np.roots(qcoef)
                if abs(r.imag) < 1e-7 * max(1.0, abs(r)))
    for _ in range(3):
        rr = [r - _polyval(q, r) / _polyval(dq, r) for r in rr]

    candidates = [(a, b) for a, b in zip(rr[:-1], rr[1:]) if not b - a < 1e-10
                  and _polyval(q, 0.5 * (a + b)) > 0 and a > s_floor + 1e-8]
    if not candidates:
        raise NoOscillation(
            f"Q has no oscillation interval above the real root {s_floor:.6g} of Q3"
        )
    s_a, s_b = candidates[0]
    scale = max(map(abs, q)) * max(1.0, abs(s_b)) ** 3
    for endpoint in (s_a, s_b):
        if abs(_polyval(dq, endpoint)) < 1e-8 * scale:
            raise SingularRoot(f"root of Q at s = {endpoint:.6g} is not simple")

    # Q(s) = (s - s_a)(s_b - s) * Ptil(s) with Ptil > 0 on [s_a, s_b]
    quot, rem = _quotient(q, s_a, s_b)
    if max(map(abs, rem)) > 1e-7 * scale:  # scale >= 1: past polydiv's trim
        raise SingularRoot("oscillation endpoints are not roots of Q to tolerance")

    def q_of(s):
        """Q(s) in factored form: exactly 0 at the turning points s_a, s_b."""
        return (np.maximum(s - s_a, 0.0) * np.maximum(s_b - s, 0.0)
                * _polyval(quot, s))

    # v and w by panel-wise Gauss-Legendre quadrature in theta, from one
    # s(theta) = s_a + (s_b - s_a) sin^2(theta) at the nodes
    span = s_b - s_a
    edges = np.linspace(0.0, np.pi / 2, 1601)
    nodes, weights = gauss_legendre(5)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    s_pts = s_a + span * np.sin(pts) ** 2

    def cumulative(g):
        """The antiderivative at the panel edges of g at the nodes."""
        return np.concatenate([[0.0], np.cumsum(half * (g @ weights))])

    v_edges = cumulative(2 * abs(delta) / np.sqrt(_polyval(quot, s_pts)))
    w_a = _w_of_s(s_a, crit)
    w_edges = w_a + cumulative(span * np.sin(2 * pts) / np.sqrt(cub(s_pts)))

    top = 2 * np.pi * crit.lattice.lam
    if not (0.0 < w_a and w_edges[-1] < top):
        raise NoOscillation("constructed w(v) escapes the admissible band")

    half_period = float(v_edges[-1])
    period = 2 * half_period
    # exact first derivatives at the edges: s'(v) = sqrt(Q)/|delta| and
    # w'(v) = sqrt(Q)/(|delta| sqrt(Q3)) -- Hermite data keeps the
    # interpolants consistent with the closed-form derivatives
    s_edges = s_a + span * np.sin(edges) ** 2
    ds_edges = np.sqrt(q_of(s_edges)) / abs(delta)
    spline = cubic_hermite(v_edges, [s_edges, w_edges],
                           [ds_edges, ds_edges / np.sqrt(cub(s_edges))])

    def planes(v):
        # s(v) and w(v) from one fold and one knot search
        vv = np.mod(np.asarray(v, dtype=float), period)
        mirrored = vv > half_period
        both = spline(np.where(mirrored, period - vv, vv))
        s, w = np.minimum(np.maximum(both[0, ...], s_a), s_b), both[1, ...]
        sqrt_q3 = np.sqrt(cub(s))
        mag = np.sqrt(q_of(s)) / (abs(delta) * sqrt_q3)
        out = (w, np.where(mirrored, -mag, mag),
               _polyval(pair, s) / (delta * sqrt_q3))
        return tuple(map(float, out)) if np.isscalar(v) else out

    return ReparamSpec(kind="spherical", period=period, planes=planes)


# ---------------------------------------------------------------------------
# sphericality certificate (geometric, surface-level)


def fit_sphere(points):
    """Least-squares sphere through an (m, 3) point cloud -> (center, radius)."""
    pts = np.asarray(points, dtype=float)
    a = np.hstack([2 * pts, np.ones((len(pts), 1))])
    b = np.sum(pts ** 2, axis=1)
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 4:
        raise DegenerateFit("v-curve is too flat for a sphere fit")
    center = sol[:3]
    radius = float(np.sqrt(sol[3] + center @ center))
    return center, radius


def _sphere_fits(surface):
    """Per v-curve at 5 u0 evenly spread over the grid: its row, the centre
    of its least-squares sphere, its points' distances from the centre and
    the largest distance residual relative to the radius."""
    pts = np.asarray(surface.points, dtype=float)
    for i in _even_indices(0, pts.shape[0] - 1, 5):
        center, radius = fit_sphere(pts[i])
        dist = np.linalg.norm(pts[i] - center, axis=1)
        yield i, center, dist, np.max(np.abs(dist - radius)) / radius


def sphere_fit(surface) -> float:
    """`sphericality_certificate`'s sphere_fit, without the angles."""
    return float(np.max([fit[-1] for fit in _sphere_fits(surface)]))


def sphericality_certificate(surface) -> dict:
    """Fit spheres to sampled v-curves and measure the Joachimsthal angle.

    For each of 5 u0 evenly spread over the grid the v-curve must lie on a
    sphere and the surface normal must make a constant angle with the
    sphere's radial direction.  Returns, by check name, `sphere_fit`: the
    largest distance residual relative to the fitted radius, and
    `sphere_angle`: the largest spread (std over v) of that angle's cosine.
    """
    pts, n = (np.asarray(x, dtype=float) for x in (surface.points, surface.n))
    fits = list(_sphere_fits(surface))
    ang = [np.std(np.sum(n[i] * ((pts[i] - center) / dist[:, None]), axis=1))
           for i, center, dist, _ in fits]
    return {"sphere_fit": float(np.max([fit[-1] for fit in fits])),
            "sphere_angle": float(np.max(ang))}
