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
after another: all steps of a round are formed from one evaluation of A
(one generator call up to `_MAX_POINTS` points), each is checked against
the product of its two half steps (the full step and both halves are one
`_magnus6` call), the rejected ones are halved for the next round, and an
ordered product of the accepted propagators gives Y at the output nodes.
One solve may hold several independent systems, such as the two
directions of the phi-system or the amplitudes of the close-torus scan:
they share each round's calls, and a doubling scan segmented by system
multiplies each one's propagators, so every system's steps and Y are bit
for bit those of solving it alone.

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
# generator points per call: a round of each benchmarked integration is one
# call, of half the points of a full surface.fields_at block (_BLOCK_POINTS)
_MAX_POINTS = 4096
# local error per step of the display grid's frame, phi-system and limit
# frame, and of close_torus (the battery's frame: surface._BATTERY_STEP_TOL)
STEP_TOL = 1e-12
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


def _propagators(alg, g, h):
    """Propagators of steps of length h from A at their nodes `_NODES`,
    g (n, 9, ...), with their local error estimates.

    Returns (E, err): E is the product of the two half-step propagators,
    err = max |E_h - E_{h/2} E_{h/2}| over the components.  The full step
    and both halves are one `_magnus6` call on a contiguous stack.
    """
    n = len(h)
    e = _magnus6(alg, np.concatenate([g[:, 0:3], g[:, 3:6], g[:, 6:9]]),
                 np.concatenate([h, h / 2, h / 2]))
    two = alg.mul(e[2 * n:], e[n:2 * n])
    return two, np.max(np.abs(e[:n] - two).reshape(n, -1), axis=1)


def _round(gen, alg, a, b, system):
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
        finite.append(np.all(np.isfinite(g).reshape(len(h), -1), axis=1))
        if not np.all(finite[-1]):
            g = np.where(finite[-1].reshape((-1,) + (1,) * (g.ndim - 1)),
                         g, 0.0)
        parts.append(_propagators(alg, g, h))
    e, err = map(np.concatenate, zip(*parts))
    return e, err, np.concatenate(finite)


def _step_failure(k, a, b, system, finite, short, pending, step_tol):
    """The StepFailure that a solve of system k alone raises in a round in
    which k fails: a step with non-finite A, else the shortest rejected
    step under twice the floor, else too many pending half steps."""
    mine = system == k
    if np.any(mine & ~finite):
        i = np.nonzero(mine & ~finite)[0][0]
        return StepFailure(f"non-finite generator on [{a[i]}, {b[i]}]")
    if np.any(mine & short):
        i = np.nonzero(mine & short)[0]
        return StepFailure("step size underflow at "
                           f"v = {a[i[np.argmin(b[i] - a[i])]]}")
    return StepFailure(f"step_tol = {step_tol:g} not met: "
                       f"{pending} half steps pending")


def _ordered_product(alg, e, pos):
    """Running left products e[k] ... e[j+1] e[j], in place, by a doubling
    scan over each run of e, where pos[k] = k - j is e[k]'s place in its
    run."""
    shift = 1
    while shift <= np.max(pos, initial=0):
        i = np.nonzero(pos >= shift)[0]
        e[i] = alg.mul(e[i], e[i - shift])
        shift *= 2
    return e


def _magnus_solve(gen, alg, systems, step_tol):
    """Solve Y' = A(v) Y, Y(nodes[0]) = 1, at the increasing nodes of each
    independent system of the list `systems` of (nodes, h0).

    gen maps arrays v and s of one shape to A(v) of system s in the algebra
    alg.  Each node gap starts as ceil(gap / h0) equal steps; a step is
    accepted when its local error estimate is at most step_tol, otherwise it
    is halved.  The pending steps of all systems make one generator call per
    round (per `_MAX_POINTS` points), and each system's steps, decisions and
    Y are those of solving it alone.  Returns, per system, Y at the nodes
    and the stats n_steps (accepted), n_rejected (split) and err_est
    (largest accepted local error estimate).  The first round in which a
    system fails raises the StepFailure of the lowest such system.
    """
    a, b, gap, gap_system, floor, n_initial = [], [], [], [], [], []
    n_gaps = 0
    for k, (nodes, h0) in enumerate(systems):
        counts = np.maximum(np.ceil(np.diff(nodes) / h0 - 1e-9).astype(int), 1)
        g = np.repeat(np.arange(len(counts)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        t = (np.arange(len(g)) - first) / counts[g]
        a.append(nodes[g] * (1 - t) + nodes[g + 1] * t)
        b.append(np.concatenate([a[-1][1:], nodes[-1:]]))
        gap.append(g + n_gaps)
        gap_system.append(np.full(len(counts), k))
        floor.append(1e-13 * (nodes[-1] - nodes[0]))
        n_initial.append(len(g))
        n_gaps += len(counts)
    # steps carry their gap, numbered across the systems in order
    a, b, gap, gap_system = map(np.concatenate, (a, b, gap, gap_system))
    floor, n_initial = np.array(floor), np.array(n_initial)
    n_sys = len(systems)

    done_a, done_gap, done_e, done_err = [], [], [], []
    n_rejected = np.zeros(n_sys, dtype=int)
    while len(a):
        sys = gap_system[gap]
        e, err, finite = _round(gen, alg, a, b, sys)
        ok = finite & (err <= step_tol)
        done_a.append(a[ok])
        done_gap.append(gap[ok])
        done_e.append(e[ok])
        done_err.append(err[ok])
        rejected = np.bincount(sys[~ok], minlength=n_sys)
        short = ~ok & (b - a < 2 * floor[sys])
        over = 2 * rejected > _MAX_GROWTH * n_initial
        failing = np.concatenate([sys[~finite | short], np.nonzero(over)[0]])
        if len(failing):
            k = np.min(failing)
            raise _step_failure(k, a, b, sys, finite, short, 2 * rejected[k],
                                step_tol)
        a, b, gap = a[~ok], b[~ok], gap[~ok]
        n_rejected += rejected
        m = 0.5 * (a + b)
        a, b, gap = (np.concatenate([a, m]), np.concatenate([m, b]),
                     np.concatenate([gap, gap]))

    done_a, done_gap, done_e, done_err = map(
        np.concatenate, (done_a, done_gap, done_e, done_err))
    runs = [np.nonzero(gap_system[done_gap] == k)[0] for k in range(n_sys)]
    # each system's accepted steps in order of v, one system after another
    order = np.concatenate([i[np.argsort(done_a[i])] for i in runs])
    pos = np.concatenate([np.arange(len(i)) for i in runs])
    prod = _ordered_product(alg, done_e[order], pos)
    # the last step of gap g ends on its system's node g + 1
    last = np.cumsum(np.bincount(done_gap, minlength=n_gaps)) - 1
    one = np.broadcast_to(alg.one, (1,) + prod.shape[1:])
    out, lo = [], 0
    for k, (nodes, _) in enumerate(systems):
        hi = lo + len(nodes) - 1
        stats = {"n_steps": len(runs[k]), "n_rejected": int(n_rejected[k]),
                 "err_est": float(np.max(done_err[runs[k]], initial=0.0))}
        out.append((np.concatenate([one, prod[last[lo:hi]]]), stats))
        lo = hi
    return out


def integrate(spec: ReparamSpec, fam, v_nodes,
              step_tol: float = STEP_TOL) -> FrameTrajectory:
    """Integrate Phi' = A(v) Phi from Phi(0) = 1, with output at v_nodes
    (strictly increasing, starting at 0).

    Steps start at V/128 and are halved until their local error estimate
    is at most step_tol.  stats holds n_steps (accepted), n_rejected
    (split), err_est (largest accepted local error estimate) and
    prenorm_drift (max | |Phi| - 1 |).
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

    solved = _magnus_solve(a_of_v, UnitQuaternions,
                           [(v, spec.period / 128)
                            for spec, v in zip(specs, nodes)], step_tol)
    out = []
    for v, (phi, stats) in zip(nodes, solved):
        drift = np.max(np.abs(np.linalg.norm(phi, axis=1) - 1.0))
        stats["prenorm_drift"] = float(drift)
        out.append(FrameTrajectory(v=v, phi=phi, stats=stats))
    return out


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
        # solve with a system per amplitude, output at 9 nodes of the period
        specs = [reparam.analytic(mean, a, period) for a in amps]
        nodes = [np.linspace(0.0, s.period, 9) for s in specs]
        trajs = _frames(specs, fam, nodes, STEP_TOL)
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
