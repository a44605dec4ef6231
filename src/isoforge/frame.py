"""Rotation frame Phi(v) on unit quaternions, its Magnus solver, monodromy
and torus closing.

The frame solves

    Phi'(v) = sqrt(1 - w'(v)^2) W1(w(v)) k  *  Phi(v),

where the coefficient is a quaternion in span{j, k}: with W1 = w_r + i w_i
the generator is sqrt(1 - w'^2) (w_r k - w_i j), and the signed root comes
from the reparametrization spec's recorded branch, never from |.|.

The frame is integrated by `_magnus_solve`, the sixth-order Magnus method
on three Gauss-Legendre nodes (Iserles & Norsett 1999; Blanes, Casas, Oteo
& Ros, Phys. Rep. 470, 2009), on unit quaternions: A is an imaginary
quaternion, [x, y] = 2 x cross y, and exp(Omega) = cos|Omega| +
sin|Omega| Omega/|Omega| is a unit quaternion, so Phi stays on the sphere
without projection.  The step propagators exp(Omega) do not depend on Phi,
so the steps are not taken one after another: all steps of a round, laid
out from h0 alone, are formed from one evaluation of A (one generator call
up to `_MAX_POINTS` points), each is checked against the product of its
two half steps (the full step and both halves are one `_magnus6` call),
each rejected one is split for the next round into 2^k equal steps, k
sized from its estimate (Hairer, Norsett & Wanner, Solving ODEs I, II.4),
and a doubling scan of the accepted propagators gives Phi at the step
ends; `_evaluate` reads Phi at any other v by one partial step.

`close_torus` solves the frame of each amplitude it tries once: the
angles of its scan are kept by amplitude, Brent's method starts from two
scanned amplitudes and returns one it has evaluated, so neither the
bracket's ends nor the returned amplitude are solved again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import curvefamily, reparam
from .elliptic import brentq
from .errors import (DegenerateRotation, InvalidLattice, NoBracket,
                     SpecInvalid, StepFailure)
from .quat import cross, qmul, qsandwich
from .reparam import ReparamSpec


@dataclass(frozen=True)
class FrameTrajectory:
    """The frame of one solve on [0, v[-1]]: Phi at the nodes v it was
    asked for, and, through `at`, at any v of that interval."""
    v: np.ndarray
    phi: np.ndarray  # (n, 4) unit quaternions
    stats: dict
    steps: tuple | None = None  # the solve's steps, which `at` reads
    admissibility: reparam.ValidationReport | None = None  # integrate's report

    def at(self, v):
        """Phi at v (any shape, in [0, self.v[-1]]), read as `_evaluate`
        reads it, with the partial steps' estimates folded into err_est."""
        phi, err = _evaluate(self.steps, v)
        self.stats["err_est"] = max(self.stats["err_est"],
                                    float(np.max(err, initial=0.0)))
        return phi


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
        w, _, root = spec.planes(np.asarray(v, dtype=float))
        W1 = curvefamily.w1(w, fam)
        a = np.zeros(np.shape(root) + (4,))
        a[..., 2], a[..., 3] = -root * np.imag(W1), root * np.real(W1)
        return a

    return a_of_v


# Gauss-Legendre nodes on [0, 1] of the full step, then of its two halves
_GAUSS = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10
_NODES = np.concatenate([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS])
# generator points per call: a round of each benchmarked frame solve is one
# call, of an eighth of the points of a full surface.fields_at block
# (_BLOCK_POINTS)
_MAX_POINTS = 4096
# local error per step of every frame solve: a surface's frame (which the
# battery reads off its steps too) and close_torus's scan
STEP_TOL = 1e-12
_MAX_GROWTH = 64  # pending steps per initial step: tol is unreachable
# the order in the step length that `_magnus_solve` takes a rejected step's
# error estimate to have when it sizes the split.  Halving a rejected step
# of a spherical spec (estimate above 10 step_tol) cut its estimate by
# 2^6.5 in the median and by 2^4.1 or less in a tenth (864 steps, 40 specs
# of the spherical benchmark's box, step_tol 1e-12); at 5 a 48 x 48 frame
# of those specs takes 2.6 rounds and 200 accepted steps on average, at 6
# 2.7 and 188, at 4 2.6 and 214, where halving took 3.9 and 181
_SPLIT_ORDER = 5
# at most 2^3 parts: a split sized from an estimate many orders above
# step_tol (on a step across a narrow bump of A) overshoots, past the
# growth guard at step_tol 1e-13 on the bump of the frame tests
_MAX_SPLIT = 3
# the round-off of a step's error estimate, a difference of unit
# quaternions, on any lattice (a few eps)
_EST_ROUNDOFF = 10 * np.finfo(float).eps


def _magnus6(a, h):
    """exp(Omega^[6]) from A at the three Gauss nodes, a (n, 3, 3); h (n,)."""
    a1, a2, a3 = a[:, 0], a[:, 1], a[:, 2]
    h = h[:, None]
    b1 = h * a2
    b2 = np.sqrt(15.0) / 3 * h * (a3 - a1)
    b3 = 10.0 / 3 * h * (a3 - 2 * a2 + a1)
    c1 = 2 * cross(b1, b2)
    c2 = -2 * cross(b1, 2 * b3 + c1) / 60
    om = b1 + b3 / 12 + 2 * cross(-20 * b1 - b3 + c1, b2 + c2) / 240
    x, y, z = om[:, 0], om[:, 1], om[:, 2]
    ang = np.sqrt(x * x + y * y + z * z)  # bit for bit np.linalg.norm
    return np.concatenate([np.cos(ang)[:, None],
                           np.sinc(ang / np.pi)[:, None] * om], axis=-1)


def _propagators(g, h):
    """Propagators of steps of length h from A at their nodes `_NODES`,
    g (n, 9, 3), with their local error estimates.

    Returns (E, err): E is the product of the two half-step propagators,
    err = max |E_h - E_{h/2} E_{h/2}| over the components.  The full step
    and both halves are one `_magnus6` call on a contiguous stack.
    """
    n = len(h)
    e = _magnus6(np.concatenate([g[:, 0:3], g[:, 3:6], g[:, 6:9]]),
                 np.concatenate([h, h / 2, h / 2]))
    two = qmul(e[2 * n:], e[n:2 * n])
    return two, np.max(np.abs(e[:n] - two), axis=1)


def _round(gen, a, b):
    """(E, err) of the steps [a, b] as `_propagators` gives them, from one
    generator call per `_MAX_POINTS` points.  Raises the StepFailure of the
    first step whose A is not finite at every node."""
    per_call = _MAX_POINTS // len(_NODES)
    parts = []
    for lo in range(0, len(a), per_call):
        s = slice(lo, lo + per_call)
        h = b[s] - a[s]
        g = gen(a[s, None] + h[:, None] * _NODES)
        bad = np.nonzero(~np.all(np.isfinite(g), axis=(1, 2)))[0]
        if len(bad):
            j = lo + bad[0]
            raise StepFailure(f"non-finite generator on [{a[j]}, {b[j]}]")
        parts.append(_propagators(g, h))
    return tuple(map(np.concatenate, zip(*parts)))


def _ordered_product(e):
    """Running left products e[k] ... e[1] e[0], in place, by a doubling
    scan."""
    shift = 1
    while shift < len(e):
        e[shift:] = qmul(e[shift:], e[:-shift])
        shift *= 2
    return e


def _magnus_solve(gen, v, h0, step_tol):
    """Solve Y' = A(v) Y, Y(0) = 1, on [0, max v], with Y at the points v.

    gen maps an array v to A(v), imaginary quaternions of shape v.shape +
    (3,).  The first steps are np.linspace's ceil(max v / h0) equal steps;
    a step is accepted when its local error estimate err is at most
    step_tol, otherwise it is split into 2^k equal steps, k = max(1,
    ceil(log2(err / step_tol) / `_SPLIT_ORDER`)) up to `_MAX_SPLIT`, so
    every step is a dyadic part of a first step.  The pending steps make
    one generator call per round (per `_MAX_POINTS` points).  Y at a v
    that no step ends at is `_evaluate`'s, its partial step formed after
    the solve.  Returns Y at v (unit quaternions), the stats n_steps
    (accepted), n_rejected (split) and err_est (the partial steps'
    included), and the steps (gen, the accepted steps' ends from 0, Y
    there).  A round raises StepFailure on a step with non-finite A, else
    on the rejected step with the shortest parts if those fall under the
    floor, else when its pending steps exceed `_MAX_GROWTH` per initial
    step.
    """
    span = np.max(v)
    n_initial = max(int(np.ceil(span / h0 - 1e-9)), 1)
    ends = np.linspace(0.0, span, n_initial + 1)
    a, b = ends[:-1], ends[1:]
    floor = 1e-13 * span

    done, n_rejected = [], 0
    while len(a):
        e, err = _round(gen, a, b)
        ok = err <= step_tol
        done.append((a[ok], b[ok], e[ok], err[ok]))
        a, b, err = a[~ok], b[~ok], err[~ok]
        k = np.clip(np.ceil(np.log2(err / step_tol) / _SPLIT_ORDER),
                    1, _MAX_SPLIT)
        parts = 2 ** k.astype(np.intp)
        piece = (b - a) / parts
        short = np.nonzero(piece < floor)[0]
        if len(short):
            raise StepFailure("step size underflow at "
                              f"v = {a[short[np.argmin(piece[short])]]}")
        pending = int(np.sum(parts))
        if pending > _MAX_GROWTH * n_initial:
            raise StepFailure(f"step_tol = {step_tol:g} not met: "
                              f"{pending} steps pending")
        n_rejected += len(a)
        a, b = _split(a, b, parts)

    a, b, e, err = map(np.concatenate, zip(*done))
    order = np.argsort(a)
    steps = (gen, np.concatenate([[0.0], b[order]]),
             np.concatenate([[[1.0, 0.0, 0.0, 0.0]],
                             _ordered_product(e[order])]))
    y, part = _evaluate(steps, v)
    stats = {"n_steps": len(a), "n_rejected": n_rejected,
             "err_est": float(max(np.max(err, initial=0.0),
                                  np.max(part, initial=0.0)))}
    return y, stats, steps


def _split(a, b, parts):
    """The steps [a, b], in order, each split into its `parts` equal
    steps; the parts of a step tile it exactly."""
    step = np.repeat(np.arange(len(a)), parts)
    last = np.cumsum(parts) - 1
    j = np.arange(len(step)) - np.repeat(last + 1 - parts, parts)
    lo = a[step] + (b - a)[step] * (j / parts[step])
    hi = np.empty_like(lo)
    hi[:-1] = lo[1:]
    hi[last] = b
    return lo, hi


def _evaluate(st, v):
    """Y at v (any shape) of a solve's steps st, and the estimates of its
    partial steps: the solve's product at an accepted step's end, else one
    partial step from the end below v, formed as the solve forms a step
    (two half steps checked against the full one) in one generator call per
    `_MAX_POINTS` points.  Where A is smooth such a step of length h' inside
    one of length h errs by about (h'/h)^7 of that step's estimate; on a
    spline-built w, more.
    """
    gen, ends, y_ends = st
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    if not np.all((flat >= 0.0) & (flat <= ends[-1])):
        raise ValueError(f"v outside the solved interval [0, {ends[-1]}]")
    i = ends.searchsorted(flat, "right") - 1
    p = np.nonzero(ends[i] != flat)[0]
    y, err = y_ends[i], flat[:0]
    if len(p):
        e, err = _round(gen, ends[i[p]], flat[p])
        y[p] = qmul(e, y[p])
    return y.reshape(v.shape + y.shape[1:]), err


def integrate(spec: ReparamSpec, fam, v_nodes,
              step_tol: float = STEP_TOL) -> FrameTrajectory:
    """Integrate Phi' = A(v) Phi from Phi(0) = 1 on [0, v_nodes[-1]], with
    output at v_nodes (strictly increasing, starting at 0).

    `_magnus_solve` lays the steps from h0 = V/128 alone, and splits a
    rejected one into dyadic parts sized by its own estimate, so Phi at a
    node depends on the spec, the family, v_nodes[-1], step_tol and the
    node alone, as at any v the trajectory's `at` reads.  stats holds
    n_steps, n_rejected, err_est and prenorm_drift (max | |Phi| - 1 | at
    the nodes); admissibility the spec's `reparam.validate` report.
    """
    report = _require_valid(spec, fam)
    nodes = np.asarray(v_nodes, dtype=float)
    if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
        raise SpecInvalid("v_nodes must be strictly increasing from 0")
    return dc_replace(_frame(spec, fam, nodes, step_tol), admissibility=report)


def _require_valid(spec: ReparamSpec, fam) -> reparam.ValidationReport:
    if not (spec.period > 0):
        raise SpecInvalid("spec period must be positive")
    return reparam.require_admissible(spec, fam.lattice)


def _frame(spec, fam, nodes, step_tol):
    """The FrameTrajectory of a valid spec at its nodes (see `integrate`);
    a failed solve raises InvalidLattice naming lambda where step_tol lies
    between `_EST_ROUNDOFF` and the lattice's round-off."""
    a_of_v = generator(spec, fam)
    try:
        phi, stats, steps = _magnus_solve(lambda v: a_of_v(v)[..., 1:], nodes,
                                          spec.period / 128, step_tol)
    except StepFailure as exc:
        lat = fam.lattice
        if lat.roundoff > step_tol >= _EST_ROUNDOFF:
            raise InvalidLattice(
                f"{lat.kind} lambda = {lat.lam}: its theta values carry a "
                f"relative round-off of {lat.roundoff:.2g} (at theta2(0)), "
                f"above step_tol = {step_tol:g}") from exc
        raise
    drift = np.max(np.abs(np.linalg.norm(phi, axis=1) - 1.0))
    stats["prenorm_drift"] = float(drift)
    return FrameTrajectory(nodes, phi, stats, steps)


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
        omega_row=None,  # the piece's row spans one period
        **{name: np.concatenate(parts, axis=1) for name, parts in fields.items()},
    )


def close_torus(mean: float, period: float, fam, target_angle: float):
    """Tune the amplitude A of the analytic spec `reparam.analytic(mean, A,
    period)` so the monodromy angle hits target_angle.

    A scan of 17 amplitudes from 0.02 locates a sign change of theta(A) -
    target_angle, then Brent's method refines it.  Returns (tuned
    amplitude, achieved theta).
    """
    # keep w inside the band and |w'| = 2 pi A / V <= 1
    band = 2 * np.pi * fam.lattice.lam
    hi = min(0.9 * min(mean, band - mean), period / (2 * np.pi))

    angles = {}

    def angle(a):
        # the monodromy angle of amplitude a after one period, read at
        # v = V alone, solved once per amplitude
        if a not in angles:
            spec = reparam.analytic(mean, a, period)
            traj = _frame(spec, fam, [spec.period], STEP_TOL)
            angles[a] = monodromy(traj.phi[-1]).theta
        return angles[a]

    amps = np.linspace(0.02, hi, 17)
    # analytic(mean, A, period) only loses admissibility as |A| grows (its
    # range widens, its |w'| rises), and the scan's ends hold the largest
    # |A| of the scan and of the Brent iterates between its amplitudes
    for a in (amps[0], amps[-1]):
        _require_valid(reparam.analytic(mean, a, period), fam)
    vals = np.array([angle(a) for a in amps]) - target_angle
    sign = np.sign(vals)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) == 0:
        raise NoBracket(
            f"no amplitude in [0.02, {hi:.6g}] turns the monodromy by "
            f"{target_angle:.6g}: the scanned angles span "
            f"[{np.min(vals) + target_angle:.6g}, "
            f"{np.max(vals) + target_angle:.6g}]"
        )
    i = idx[0]
    amp = brentq(lambda a: angle(a) - target_angle, amps[i], amps[i + 1],
                 xtol=1e-13, rtol=8.9e-16)
    return amp, float(angle(amp))
