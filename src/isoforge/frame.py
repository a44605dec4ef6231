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
the rejected ones are halved for the next round, and an ordered product of
the accepted propagators gives Phi at the step ends; `_evaluate` reads Phi
at any other v by one partial step.  One solve may hold several
independent systems, such as the amplitudes of the close-torus scan: they
share each round's calls, and a doubling scan segmented by system
multiplies each one's propagators, so every system's steps and Phi are bit
for bit those of solving it alone.
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
    """The frame of one solve on [0, v[-1]]: Phi at the nodes v it was
    asked for, and, through `at`, at any v of that interval."""
    v: np.ndarray
    phi: np.ndarray  # (n, 4) unit quaternions
    stats: dict
    steps: tuple | None = None  # the solve's steps, which `at` reads

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
        return _coefficient(w, root, fam)

    return a_of_v


def _coefficient(w, root, fam):
    """root W1(w) k as quaternions (..., 4), for arrays of w and root."""
    W1 = curvefamily.w1(w, fam)
    root = np.asarray(root, dtype=float)
    zero = np.zeros(np.shape(root))
    return np.stack([zero, zero, -root * np.imag(W1), root * np.real(W1)],
                    axis=-1)


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
_MAX_GROWTH = 64       # pending steps per initial step: tol is unreachable


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
    ang = np.linalg.norm(om, axis=-1)
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


def _round(gen, a, b, system):
    """(E, err, finite) of the steps [a, b] of the given systems, from one
    generator call per `_MAX_POINTS` points: E and err as `_propagators`
    gives them, and finite flags the steps whose A is finite at every node
    (the others are evaluated as if A were 0 there)."""
    per_call = _MAX_POINTS // len(_NODES)
    parts, finite = [], []
    for lo in range(0, len(a), per_call):
        s = slice(lo, lo + per_call)
        h = b[s] - a[s]
        g = gen(a[s, None] + h[:, None] * _NODES,
                np.repeat(system[s, None], len(_NODES), axis=1))
        finite.append(np.all(np.isfinite(g), axis=(1, 2)))
        if not np.all(finite[-1]):
            g = np.where(finite[-1][:, None, None], g, 0.0)
        parts.append(_propagators(g, h))
    e, err = map(np.concatenate, zip(*parts))
    return e, err, np.concatenate(finite)


def _step_failure(k, a, b, system, finite, short, pending, step_tol):
    """The StepFailure that a solve of system k alone raises in a round in
    which k fails: a step with non-finite A, else the shortest rejected
    step under twice the floor, else too many pending half steps."""
    mine = system == k
    _require_finite(finite | ~mine, a, b)
    if np.any(mine & short):
        i = np.nonzero(mine & short)[0]
        return StepFailure("step size underflow at "
                           f"v = {a[i[np.argmin(b[i] - a[i])]]}")
    return StepFailure(f"step_tol = {step_tol:g} not met: "
                       f"{pending} half steps pending")


def _ordered_product(e, pos):
    """Running left products e[k] ... e[j+1] e[j], in place, by a doubling
    scan over each run of e, where pos[k] = k - j is e[k]'s place in its
    run."""
    shift = 1
    while shift <= np.max(pos, initial=0):
        i = np.nonzero(pos >= shift)[0]
        e[i] = qmul(e[i], e[i - shift])
        shift *= 2
    return e


def _magnus_solve(gen, systems, step_tol):
    """Solve Y' = A(v) Y, Y(0) = 1, on [0, max v] for each independent
    system of the list `systems` of (v, h0), with Y at its points v.

    gen maps arrays v and s of one shape to A(v) of system s, imaginary
    quaternions of shape v.shape + (3,).  The first steps are np.linspace's
    ceil(max v / h0) equal steps; a step is accepted when its local error
    estimate is at most step_tol, otherwise it is halved.  The pending
    steps of all systems make one generator call per round (per
    `_MAX_POINTS` points), and each system's steps, decisions and Y are
    those of solving it alone.  Y at a v that no step ends at is
    `_evaluate`'s, its partial step formed after the solve.  Returns per
    system Y at v (unit quaternions), the stats n_steps (accepted),
    n_rejected (split) and err_est (the partial steps' included), and its
    steps (gen, system, its accepted steps' ends from 0, Y there).  The
    first round in which a system fails raises the StepFailure of the
    lowest such system.
    """
    span = np.array([np.max(v) for v, _ in systems])
    n_initial = np.array([max(int(np.ceil(s / h0 - 1e-9)), 1)
                          for s, (_, h0) in zip(span, systems)])
    ends = [np.linspace(0.0, s, n + 1) for s, n in zip(span, n_initial)]
    a = np.concatenate([e[:-1] for e in ends])
    b = np.concatenate([e[1:] for e in ends])
    n_sys = len(systems)
    system = np.repeat(np.arange(n_sys), n_initial)
    floor = 1e-13 * span

    done = []
    n_rejected = np.zeros(n_sys, dtype=int)
    while len(a):
        e, err, finite = _round(gen, a, b, system)
        ok = finite & (err <= step_tol)
        bad = ~ok
        done.append((a[ok], b[ok], system[ok], e[ok], err[ok]))
        rejected = np.bincount(system[bad], minlength=n_sys)
        short = bad & (b - a < 2 * floor[system])
        over = 2 * rejected > _MAX_GROWTH * n_initial
        failing = np.concatenate([system[~finite | short],
                                  np.nonzero(over)[0]])
        if len(failing):
            k = np.min(failing)
            raise _step_failure(k, a, b, system, finite, short,
                                2 * rejected[k], step_tol)
        a, b, system = a[bad], b[bad], system[bad]
        n_rejected += rejected
        m = 0.5 * (a + b)
        a, b, system = (np.concatenate([a, m]), np.concatenate([m, b]),
                        np.concatenate([system, system]))

    a, b, system, e, err = map(np.concatenate, zip(*done))
    runs = [np.nonzero(system == k)[0] for k in range(n_sys)]
    # each system's accepted steps in order of v, one system after another
    order = np.concatenate([i[np.argsort(a[i])] for i in runs])
    pos = np.concatenate([np.arange(len(i)) for i in runs])
    prod = _ordered_product(e[order], pos)
    cut = np.cumsum([0] + [len(i) for i in runs])
    steps = [(gen, k, np.concatenate([[0.0], b[order[lo:hi]]]),
              np.concatenate([[[1.0, 0.0, 0.0, 0.0]], prod[lo:hi]]))
             for k, (lo, hi) in enumerate(zip(cut[:-1], cut[1:]))]
    ys, errs = zip(*[_evaluate(st, v) for st, (v, _) in zip(steps, systems)])
    stats = [{"n_steps": len(i), "n_rejected": int(n_rejected[k]),
              "err_est": float(max(np.max(err[i], initial=0.0),
                                   np.max(part, initial=0.0)))}
             for k, (i, part) in enumerate(zip(runs, errs))]
    return list(zip(ys, stats, steps))


def _require_finite(finite, a, b):
    """Raise the StepFailure of the first step [a, b] with non-finite A."""
    if not np.all(finite):
        j = np.nonzero(~finite)[0][0]
        raise StepFailure(f"non-finite generator on [{a[j]}, {b[j]}]")


def _evaluate(st, v):
    """Y at v (any shape) of one system's steps st, and the estimates of
    its partial steps: the solve's product at an accepted step's end, else
    one partial step from the end below v, formed as the solve forms a step
    (two half steps checked against the full one) in one generator call per
    `_MAX_POINTS` points.  Where A is smooth such a step of length h' inside
    one of length h errs by about (h'/h)^7 of that step's estimate; on a
    spline-built w, more.
    """
    gen, system, ends, y_ends = st
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    if not np.all((flat >= 0.0) & (flat <= ends[-1])):
        raise ValueError(f"v outside the solved interval [0, {ends[-1]}]")
    i = ends.searchsorted(flat, "right") - 1
    p = np.nonzero(ends[i] != flat)[0]
    y, err = y_ends[i], flat[:0]
    if len(p):
        e, err, finite = _round(gen, ends[i[p]], flat[p],
                                np.full(len(p), system))
        _require_finite(finite, ends[i[p]], flat[p])
        y[p] = qmul(e, y[p])
    return y.reshape(v.shape + y.shape[1:]), err


def integrate(spec: ReparamSpec, fam, v_nodes,
              step_tol: float = STEP_TOL) -> FrameTrajectory:
    """Integrate Phi' = A(v) Phi from Phi(0) = 1 on [0, v_nodes[-1]], with
    output at v_nodes (strictly increasing, starting at 0).

    `_magnus_solve` lays the steps from h0 = V/128 alone, so Phi at a node
    depends on the spec, the family, v_nodes[-1], step_tol and the node
    alone, as at any v the trajectory's `at` reads.  stats holds n_steps,
    n_rejected, err_est and prenorm_drift (max | |Phi| - 1 | at the nodes).
    """
    _require_valid(spec, fam)
    nodes = np.asarray(v_nodes, dtype=float)
    if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0):
        raise SpecInvalid("v_nodes must be strictly increasing from 0")
    return _frames([spec], fam, [nodes], step_tol)[0]


def _require_valid(spec: ReparamSpec, fam):
    if not (spec.period > 0):
        raise SpecInvalid("spec period must be positive")
    reparam.require_admissible(spec, fam.lattice)


def _frames(specs, fam, nodes, step_tol):
    """The FrameTrajectory of each valid spec at its nodes, from one solve
    with one system per spec (see `integrate`)."""

    def a_of_v(v, s):
        w, root = np.empty(v.shape), np.empty(v.shape)
        for k, spec in enumerate(specs):
            on = s == k
            w[on], _, root[on] = spec.planes(v[on])
        return _coefficient(w, root, fam)[..., 1:]

    solved = _magnus_solve(a_of_v, [(v, spec.period / 128)
                                    for spec, v in zip(specs, nodes)],
                           step_tol)
    for phi, stats, _ in solved:
        drift = np.max(np.abs(np.linalg.norm(phi, axis=1) - 1.0))
        stats["prenorm_drift"] = float(drift)
    return [FrameTrajectory(v, *out) for v, out in zip(nodes, solved)]


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

    def thetas(amps):
        # the monodromy angle of each amplitude after one period, from one
        # solve with a system per amplitude, read at v = V alone
        specs = [reparam.analytic(mean, a, period) for a in amps]
        trajs = _frames(specs, fam, [[s.period] for s in specs], STEP_TOL)
        return np.array([monodromy(t.phi[-1]).theta for t in trajs])

    amps = np.linspace(0.02, hi, 17)
    # analytic(mean, A, period) only loses admissibility as |A| grows (its
    # range widens, its |w'| rises), and the scan's ends hold the largest
    # |A| of the scan and of the Brent iterates between its amplitudes
    for a in (amps[0], amps[-1]):
        _require_valid(reparam.analytic(mean, a, period), fam)
    vals = thetas(amps) - target_angle
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
    amp = brentq(lambda a: thetas([a])[0] - target_angle, amps[i], amps[i + 1],
                 xtol=1e-13, rtol=8.9e-16)
    return amp, float(thetas([amp])[0])
