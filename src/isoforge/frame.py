"""Rotation frame Phi(v) on unit quaternions, monodromy, torus closing, and
the Magnus solver of every linear ODE of the package.

The frame solves

    Phi'(v) = sqrt(1 - w'(v)^2) W1(w(v)) k  *  Phi(v),

where the coefficient is a quaternion in span{j, k}: with W1 = w_r + i w_i
the generator is sqrt(1 - w'^2) (w_r k - w_i j), and the signed root comes
from the reparametrization spec's recorded branch, never from |.|.

Every linear ODE Y' = A(v) Y of the package -- this frame, the spherical
phi-system and the limit-surface frame -- is integrated by `_magnus_solve`,
the sixth-order Magnus method on three Gauss-Legendre nodes (Iserles &
Norsett 1999; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  The step
propagators exp(Omega) do not depend on Y, so the steps are not taken one
after another: all steps of a round are formed from batched evaluations of
A, each is checked against the product of its two half steps, the rejected
ones are halved for the next round, and an ordered product of the accepted
propagators gives Y at the output nodes.

Two algebras carry the method.  `UnitQuaternions`: A is an imaginary
quaternion, [x, y] = 2 x cross y, and exp(Omega) = cos|Omega| +
sin|Omega| Omega/|Omega| is a unit quaternion, so Phi stays on the sphere
without projection.  `Matrices2` (the phi-system through its symmetric
square, and the limit frame): A is a real or complex 2x2 matrix, and
exp(Omega) = e^t (cosh mu I + sinh(mu)/mu (Omega - t I)) with
t = tr(Omega)/2 and mu^2 = -det(Omega - t I).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import curvefamily, reparam
from .elliptic import brentq
from .errors import DegenerateRotation, NoBracket, SpecInvalid, StepFailure
from .quat import cross, qmul, qsandwich
from .reparam import ReparamSpec


@dataclass(frozen=True)
class FrameTrajectory:
    v: np.ndarray
    phi: np.ndarray  # (n, 4) unit quaternions
    stats: dict


@dataclass(frozen=True)
class Monodromy:
    M: np.ndarray      # (4,) unit quaternion, scalar part >= 0
    axis: np.ndarray   # (3,) unit vector
    theta: float


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


class UnitQuaternions:
    """Imaginary quaternions (..., 3) and the unit quaternions (..., 4)."""

    one = np.array([1.0, 0.0, 0.0, 0.0])

    @staticmethod
    def comm(x, y):
        return 2.0 * cross(x, y)

    @staticmethod
    def exp(om):
        ang = np.linalg.norm(om, axis=-1)
        return np.concatenate([np.cos(ang)[:, None],
                               np.sinc(ang / np.pi)[:, None] * om], axis=-1)

    @staticmethod
    def mul(a, b):
        return qmul(a, b)


class Matrices2:
    """Real or complex 2x2 matrices (..., 2, 2)."""

    one = np.eye(2)

    @staticmethod
    def comm(x, y):
        return x @ y - y @ x

    @staticmethod
    def exp(om):
        t = 0.5 * (om[:, 0, 0] + om[:, 1, 1])
        d = om - t[:, None, None] * np.eye(2)
        mu = np.sqrt((d[:, 0, 1] * d[:, 1, 0] - d[:, 0, 0] * d[:, 1, 1]) + 0j)
        # sinh(mu)/mu = sin(i mu)/(i mu), continuous through mu = 0
        e = np.exp(t)[:, None, None] * (
            np.cosh(mu)[:, None, None] * np.eye(2)
            + np.sinc(1j * mu / np.pi)[:, None, None] * d)
        return e if np.iscomplexobj(om) else e.real

    @staticmethod
    def mul(a, b):
        return a @ b


# Gauss-Legendre nodes on [0, 1] of the full step, then of its two halves
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10
_NODES = np.concatenate([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS])
_BATCH = 64            # steps per generator call: bounds the theta temporaries
_MAX_GROWTH = 64       # pending steps per initial step: tol is unreachable


def _magnus6(alg, a, h):
    """exp(Omega^[6]) from A at the three Gauss nodes, a (n, 3, ...); h (n,)."""
    a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2]
    h = h.reshape((-1,) + (1,) * (a1.ndim - 1))
    b1 = h * a2
    b2 = np.sqrt(15.0) / 3 * h * (a3 - a1)
    b3 = 10.0 / 3 * h * (a3 - 2 * a2 + a1)
    c1 = alg.comm(b1, b2)
    c2 = -alg.comm(b1, 2 * b3 + c1) / 60
    return alg.exp(b1 + b3 / 12 + alg.comm(-20 * b1 - b3 + c1, b2 + c2) / 240)


def _propagators(gen, alg, a, b):
    """Propagators of the steps [a, b] with their local error estimates.

    gen maps an array of v to A(v) in the algebra alg.  Returns (E, err): E
    is the product of the two half-step propagators, err = max |E_h -
    E_{h/2} E_{h/2}| over the components.
    """
    h = b - a
    g = gen(a[:, None] + h[:, None] * _NODES)
    finite = np.all(np.isfinite(g).reshape(len(a), -1), axis=1)
    if not np.all(finite):
        bad = np.nonzero(~finite)[0][0]
        raise StepFailure(f"non-finite generator on [{a[bad]}, {b[bad]}]")
    full = _magnus6(alg, g[:, 0:3], h)
    two = alg.mul(_magnus6(alg, g[:, 6:9], h / 2), _magnus6(alg, g[:, 3:6], h / 2))
    return two, np.max(np.abs(full - two).reshape(len(a), -1), axis=1)


def _ordered_product(alg, e):
    """Running left products e[k] ... e[1] e[0] by a doubling scan."""
    p = np.array(e)
    shift = 1
    while shift < len(p):
        p[shift:] = alg.mul(p[shift:], p[:-shift])
        shift *= 2
    return p


def _magnus_solve(gen, alg, nodes, h0, step_tol):
    """Solve Y' = A(v) Y, Y(nodes[0]) = 1, at the increasing nodes.

    gen maps an array of v to A(v) in the algebra alg.  Each node gap
    starts as ceil(gap / h0) equal steps; a step is accepted when its local
    error estimate is at most step_tol, otherwise it is halved.  Returns Y
    at the nodes and the stats n_steps (accepted), n_rejected (split) and
    err_est (largest accepted local error estimate).
    """
    counts = np.maximum(np.ceil(np.diff(nodes) / h0 - 1e-9).astype(int), 1)
    gap = np.repeat(np.arange(len(counts)), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    t = (np.arange(len(gap)) - first) / counts[gap]
    a = nodes[gap] * (1 - t) + nodes[gap + 1] * t
    b = np.concatenate([a[1:], nodes[-1:]])
    n_initial = len(a)
    floor = 1e-13 * (nodes[-1] - nodes[0])

    done_a, done_gap, done_e = [a[:0]], [gap[:0]], []
    n_rejected, err_est = 0, 0.0
    while len(a):
        e, err = map(np.concatenate, zip(*(
            _propagators(gen, alg, a[s:s + _BATCH], b[s:s + _BATCH])
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
    prod = _ordered_product(alg, np.concatenate(done_e)[np.argsort(done_a)])
    # the last step of gap g ends on node g + 1
    last = np.cumsum(np.bincount(np.concatenate(done_gap))) - 1
    y = np.concatenate([np.broadcast_to(alg.one, (1,) + prod.shape[1:]),
                        prod[last]])
    stats = {"n_steps": len(done_a), "n_rejected": n_rejected,
             "err_est": err_est}
    return y, stats


def integrate(spec: ReparamSpec, fam, periods: int = 1,
              n_per_period: int = 256, step_tol: float = 1e-12,
              v_nodes=None) -> FrameTrajectory:
    """Integrate Phi' = A(v) Phi from Phi(0) = 1 over the given periods.

    If v_nodes is given (increasing, starting at 0) output is produced
    there instead of on the uniform grid.  Steps start at V/128 and are
    halved until their local error estimate is at most step_tol.  stats
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
    phi, stats = _magnus_solve(lambda v: a_of_v(v)[..., 1:], UnitQuaternions,
                               nodes, spec.period / 128, step_tol)
    drift = np.max(np.abs(np.linalg.norm(phi, axis=1) - 1.0))
    stats["prenorm_drift"] = float(drift)
    return FrameTrajectory(v=nodes, phi=phi, stats=stats)


def monodromy(phi_end) -> Monodromy:
    """M = Phi(0)^{-1} Phi(V) from phi_end = Phi(V) (Phi(0) = 1), with the
    angle folded into [0, pi]."""
    m = np.array(phi_end, dtype=float)
    if m[0] < 0:  # quaternion double cover: canonicalize scalar part >= 0
        m = -m
    theta = 2.0 * np.arccos(np.clip(m[0], -1.0, 1.0))
    if theta < 1e-10:
        raise DegenerateRotation(
            "monodromy is the identity: the piece closes after one period")
    axis = m[1:] / np.linalg.norm(m[1:])
    return Monodromy(M=m, axis=axis, theta=float(theta))


def extend_by_rotation(piece, mono: Monodromy, k: int):
    """Extend a one-period piece to k periods: f(u, v + jV) = M^{-j} f M^{j}.

    The input surface must span exactly one period [0, V]; the result spans
    [0, kV] with the shared seam columns dropped.  k <= 1 returns the piece.
    """
    if k <= 1:
        return piece
    v0 = np.asarray(piece.v, dtype=float)
    period = v0[-1] - v0[0]
    vs = [v0]
    fields = {name: [np.asarray(getattr(piece, name), dtype=float)]
              for name in ("points", "fu", "fv", "n")}
    eh = [np.asarray(piece.expH, dtype=float)]
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for j in range(1, k):
        q = qmul(q, mono.M)
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
        return monodromy(traj.phi[-1]).theta

    amps = np.linspace(lo, hi, n_scan)
    vals = np.array([theta_of(a) - target_angle for a in amps])
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        raise NoBracket(
            f"no amplitude in [{lo:.6g}, {hi:.6g}] turns the monodromy by "
            f"{target_angle:.6g}: the scanned angles span "
            f"[{np.min(vals) + target_angle:.6g}, "
            f"{np.max(vals) + target_angle:.6g}]"
        )
    i = idx[0]
    amp = brentq(lambda a: theta_of(a) - target_angle, amps[i], amps[i + 1],
                 xtol=1e-13, rtol=8.9e-16)
    achieved = theta_of(amp)
    return template(amp), achieved
