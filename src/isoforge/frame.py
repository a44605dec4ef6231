"""Rotation frame Phi(v) on unit quaternions, monodromy, and torus closing.

The frame solves

    Phi'(v) = sqrt(1 - w'(v)^2) W1(w(v)) k  *  Phi(v),

where the coefficient is a quaternion in span{j, k}: with W1 = w_r + i w_i
the generator is sqrt(1 - w'^2) (w_r k - w_i j), and the signed root comes
from the reparametrization spec's recorded branch, never from |.|.

This is a linear ODE on the unit quaternions, integrated by the sixth-order
Magnus method on three Gauss-Legendre nodes (Iserles & Norsett 1999; Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Each step's propagator
exp(Omega) is a unit quaternion, so Phi stays on the sphere without
projection.  The propagators do not depend on Phi, so the steps are not
taken one after another: all steps of a round are formed from batched
evaluations of W1, each is checked against the product of its two half
steps, the rejected ones are halved for the next round, and an ordered
product of the accepted propagators gives Phi at the output nodes.

The embedded Dormand-Prince pair `_adaptive_rk` and `cheb_interpolant`
serve the limit-surface system and the spherical phi-system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from . import curvefamily, reparam
from .elliptic import brentq
from .errors import DegenerateRotation, NoBracket, SpecInvalid, StepFailure
from .quat import Quaternion, Vec3, qmul, qsandwich
from .reparam import ReparamSpec


@dataclass(frozen=True)
class FrameTrajectory:
    v: np.ndarray
    phi: np.ndarray  # (n, 4) unit quaternions
    stats: dict


@dataclass(frozen=True)
class Monodromy:
    M: Quaternion
    axis: Vec3
    theta: float


# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])


def _adaptive_rk(f, nodes, y0, step_tol):
    """Embedded-pair integration of y' = f(v, y) with output at the nodes."""
    nodes = np.asarray(nodes, dtype=float)
    span = nodes[-1] - nodes[0]
    y = np.array(y0, dtype=float)
    out = [y.copy()]
    h = span / 128
    for va, vb in zip(nodes[:-1], nodes[1:]):
        v = va
        while vb - v > 1e-14 * span:
            ht = min(h, vb - v)
            k = np.empty((7,) + y.shape)
            k[0] = f(v, y)
            for i in range(1, 7):
                yi = y + ht * sum(a * k[j] for j, a in enumerate(_A[i]))
                k[i] = f(v + _C[i] * ht, yi)
            y5 = y + ht * (_B5 @ k)
            y4 = y + ht * (_B4 @ k)
            err = np.max(np.abs(y5 - y4))
            if not np.isfinite(err):
                raise StepFailure(f"non-finite right-hand side near v = {v}")
            tol = step_tol * max(1.0, np.max(np.abs(y)))
            if err <= tol:
                v += ht
                y = y5
            h = ht * min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
            if h < 1e-13 * span:
                raise StepFailure(f"step size underflow at v = {v}")
        out.append(y.copy())
    return np.array(out)


def cheb_interpolant(func, lo: float, hi: float, deg: int = 96):
    """Chebyshev interpolant of a scalar real function on [lo, hi]."""
    return Chebyshev.interpolate(
        lambda xs: np.array([func(float(x)) for x in np.atleast_1d(xs)]),
        deg, domain=[lo, hi])


def generator(spec: ReparamSpec, fam):
    """The coefficient function v -> quaternion A(v) = root(v) W1(w(v)) k.

    v may be an array; the result has shape v.shape + (4,).
    """

    def a_of_v(v):
        v = np.asarray(v, dtype=float)
        W1 = curvefamily.w1(spec.w(v), fam)
        root = np.asarray(spec.signed_root(v), dtype=float)
        zero = np.zeros(np.shape(root))
        return np.stack([zero, zero, -root * np.imag(W1), root * np.real(W1)],
                        axis=-1)

    return a_of_v


# Gauss-Legendre nodes on [0, 1] of the full step, then of its two halves
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10
_NODES = np.concatenate([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS])
_BATCH = 64            # steps per generator call: bounds the theta temporaries
_MAX_GROWTH = 64       # pending steps per initial step: tol is unreachable


def _comm(x, y):
    """[x, y] = xy - yx = 2 x cross y on imaginary quaternions (..., 3)."""
    return 2.0 * np.cross(x, y)


def _magnus6(a, h):
    """exp(Omega^[6]) from A at the three Gauss nodes, a (n, 3, 3); h (n,)."""
    a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2]
    h = h[:, None]
    b1 = h * a2
    b2 = np.sqrt(15.0) / 3 * h * (a3 - a1)
    b3 = 10.0 / 3 * h * (a3 - 2 * a2 + a1)
    c1 = _comm(b1, b2)
    c2 = -_comm(b1, 2 * b3 + c1) / 60
    om = b1 + b3 / 12 + _comm(-20 * b1 - b3 + c1, b2 + c2) / 240
    ang = np.linalg.norm(om, axis=-1)
    return np.concatenate([np.cos(ang)[:, None],
                           np.sinc(ang / np.pi)[:, None] * om], axis=-1)


def _propagators(a_of_v, a, b):
    """Propagators of the steps [a, b] with their local error estimates.

    Returns (E, err): E is the product of the two half-step propagators,
    err = max |E_h - E_{h/2} E_{h/2}| over the components.
    """
    h = b - a
    gen = a_of_v(a[:, None] + h[:, None] * _NODES)[..., 1:]
    if not np.all(np.isfinite(gen)):
        bad = np.nonzero(~np.all(np.isfinite(gen), axis=(1, 2)))[0][0]
        raise StepFailure(f"non-finite generator on [{a[bad]}, {b[bad]}]")
    full = _magnus6(gen[:, 0:3], h)
    two = qmul(_magnus6(gen[:, 6:9], h / 2), _magnus6(gen[:, 3:6], h / 2))
    return two, np.max(np.abs(full - two), axis=-1)


def _ordered_product(e):
    """Running left products e[k] ... e[1] e[0] by a doubling scan."""
    p = np.array(e, dtype=float)
    shift = 1
    while shift < len(p):
        p[shift:] = qmul(p[shift:], p[:-shift])
        shift *= 2
    return p


def integrate(spec: ReparamSpec, fam, periods: int = 1,
              n_per_period: int = 256, step_tol: float = 1e-12,
              v_nodes=None) -> FrameTrajectory:
    """Integrate Phi' = A(v) Phi from Phi(0) = 1 over the given periods.

    If v_nodes is given (increasing, starting at 0) output is produced
    there instead of on the uniform grid.  Each node gap starts as
    ceil(gap / (V/128)) equal steps; a step is accepted when its local
    error estimate is at most step_tol, otherwise it is halved.  stats
    holds n_steps (accepted), n_rejected (split), err_est (largest accepted
    local error estimate) and prenorm_drift (max | |Phi| - 1 |).
    """
    if not (spec.period > 0):
        raise SpecInvalid("spec period must be positive")
    reparam.require_admissible(spec, fam.lattice)
    if v_nodes is not None:
        nodes = np.asarray(v_nodes, dtype=float)
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
            raise SpecInvalid("v_nodes must be strictly increasing from 0")
    else:
        nodes = np.linspace(0.0, periods * spec.period, periods * n_per_period + 1)
    a_of_v = generator(spec, fam)

    counts = np.ceil(np.diff(nodes) / (spec.period / 128) - 1e-9).astype(int)
    counts = np.maximum(counts, 1)
    gap = np.repeat(np.arange(len(counts)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    t = (np.arange(len(gap)) - first) / counts[gap]
    a = nodes[gap] * (1 - t) + nodes[gap + 1] * t
    b = np.concatenate([a[1:], nodes[-1:]])
    n_initial = len(a)
    floor = 1e-13 * (nodes[-1] - nodes[0])

    done_a, done_gap, done_e = [a[:0]], [gap[:0]], [np.empty((0, 4))]
    n_rejected, err_est = 0, 0.0
    while len(a):
        e, err = map(np.concatenate, zip(*(
            _propagators(a_of_v, a[s:s + _BATCH], b[s:s + _BATCH])
            for s in range(0, len(a), _BATCH))))
        ok = err <= step_tol
        done_a.append(a[ok])
        done_gap.append(gap[ok])
        done_e.append(e[ok])
        err_est = max(err_est, float(np.max(err[ok], initial=0.0)))
        a, b, gap = a[~ok], b[~ok], gap[~ok]
        n_rejected += len(a)
        if np.any(b - a < 2 * floor):
            raise StepFailure(f"step size underflow at v = {a[np.argmin(b - a)]}")
        if 2 * len(a) > _MAX_GROWTH * n_initial:
            raise StepFailure(f"step_tol = {step_tol:g} not met: "
                              f"{2 * len(a)} half steps pending")
        m = 0.5 * (a + b)
        a, b, gap = (np.concatenate([a, m]), np.concatenate([m, b]),
                     np.concatenate([gap, gap]))

    done_a = np.concatenate(done_a)
    prod = _ordered_product(np.concatenate(done_e)[np.argsort(done_a)])
    # the last step of gap g ends on node g + 1
    last = np.cumsum(np.bincount(np.concatenate(done_gap))) - 1
    phi = np.concatenate([[[1.0, 0.0, 0.0, 0.0]], prod[last]])
    drift = np.max(np.abs(np.linalg.norm(phi, axis=1) - 1.0))
    stats = {"n_steps": len(done_a), "n_rejected": n_rejected,
             "err_est": err_est, "prenorm_drift": float(drift)}
    return FrameTrajectory(v=nodes, phi=phi, stats=stats)


def monodromy(traj: FrameTrajectory) -> Monodromy:
    """M = Phi(0)^{-1} Phi(V) with angle folded into [0, pi]."""
    m = traj.phi[-1].copy()
    if m[0] < 0:  # quaternion double cover: canonicalize scalar part >= 0
        m = -m
    theta = 2.0 * np.arccos(np.clip(m[0], -1.0, 1.0))
    if theta < 1e-10:
        raise DegenerateRotation(
            "monodromy is the identity: the piece closes after one period")
    axis = m[1:] / np.linalg.norm(m[1:])
    return Monodromy(M=Quaternion.from_array(m), axis=Vec3.from_array(axis),
                     theta=float(theta))


def extend_by_rotation(piece, mono: Monodromy, k: int):
    """Extend a one-period piece to k periods: f(u, v + jV) = M^{-j} f M^{j}.

    The input surface must span exactly one period [0, V]; the result spans
    [0, kV] with the shared seam columns dropped.  k <= 1 returns the piece.
    """
    if k <= 1:
        return piece
    m = mono.M.array()
    v0 = np.asarray(piece.v, dtype=float)
    period = v0[-1] - v0[0]
    vs = [v0]
    fields = {name: [np.asarray(getattr(piece, name), dtype=float)]
              for name in ("points", "fu", "fv", "n")}
    eh = [np.asarray(piece.expH, dtype=float)]
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for j in range(1, k):
        q = qmul(q, m)
        vs.append(v0[1:] + j * period)
        for name in fields:
            fields[name].append(qsandwich(q, fields[name][0][:, 1:, :]))
        eh.append(eh[0][:, 1:])
    return dc_replace(
        piece,
        v=np.concatenate(vs),
        expH=np.concatenate(eh, axis=1),
        **{name: np.concatenate(parts, axis=1) for name, parts in fields.items()},
    )


def close_torus(template, fam, target_angle: float,
                bracket=(0.02, None), n_scan: int = 17,
                step_tol: float = 1e-12):
    """Tune the free amplitude A so the monodromy angle hits target_angle.

    template is a callable A -> ReparamSpec (an analytic sin family with
    everything but the amplitude fixed).  A coarse scan locates a sign change
    of theta(A) - target_angle, then Brent's method refines it.  Returns
    (tuned spec, achieved theta).
    """
    lo, hi = bracket
    if hi is None:
        # keep w inside the band and |w'| = 2 pi A / V <= 1
        spec = template(lo)
        mean = spec.meta["mean"]
        band = 2 * np.pi * fam.lattice.lam
        hi = min(0.9 * min(mean, band - mean), spec.period / (2 * np.pi))

    def theta_of(amp):
        spec = template(amp)
        traj = integrate(spec, fam, periods=1, n_per_period=8,
                         step_tol=step_tol)
        return monodromy(traj).theta

    amps = np.linspace(lo, hi, n_scan)
    vals = np.array([theta_of(a) - target_angle for a in amps])
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        raise NoBracket(
            f"theta(A) does not cross {target_angle:.6g} on [{lo}, {hi}]; "
            f"observed range [{np.min(vals) + target_angle:.6g}, "
            f"{np.max(vals) + target_angle:.6g}]"
        )
    i = idx[0]
    amp = brentq(lambda a: theta_of(a) - target_angle, amps[i], amps[i + 1],
                 xtol=1e-13, rtol=8.9e-16)
    achieved = theta_of(amp)
    return template(amp), achieved
