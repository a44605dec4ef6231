"""Seeded configs for each benchmark workload, and the check of each op.

A workload draws its configs in cycles.  Each cycle is a Latin hypercube
sample of the workload's parameter box (for n configs, one draw in each of
n equal strata per parameter) with a fixed mix of kinds, so every cycle
spans the whole box and runs of different seeds do comparable work.  A draw that the
program's own admissibility checks reject (band, |w'| <= 1 through
`reparam.validate`, lambda < lambda0, `reparam.build_spherical`) is drawn
again; a config that passes the screen is never replaced, whatever the
pipeline does with it.
"""

from __future__ import annotations

import csv
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from isoforge import elliptic, reparam, theta
from isoforge.errors import IsoforgeError

TARGET = 2 * np.pi / 3  # monodromy angle of a torus closing after k = 3
K = 3
CLOSURE_TOL = 1e-9      # criteria 3 and 9: curve closure, |theta - 2pi/3|
SEAM_TOL = 1e-6         # criterion 9: extended mesh seam gap
MAX_DRAWS = 100


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a config plus the arguments after its path."""

    cfg: dict
    args: tuple = ()


def latin_hypercube(rng, n: int, box) -> np.ndarray:
    """n points in the box [(lo, hi), ...], one per stratum per axis."""
    cols = [lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
            for lo, hi in box]
    return np.column_stack(cols)


def _analytic_cfg(lam, omega, rho, period, grid):
    band = 2 * np.pi * lam
    return {
        "lattice": {"kind": "rhombic", "lambda": float(lam)},
        "omega": omega,
        "reparam": {"kind": "analytic", "mean": band / 2,
                    "amplitude": float(rho * band / 2),
                    "period": float(period)},
        "grid": {"nu": grid, "nv": grid},
    }


def _admissible(cfg, lam0) -> bool:
    """The program's own admissibility checks on an analytic config."""
    lam = cfg["lattice"]["lambda"]
    if cfg["omega"]["mode"] != "limit" and not lam < lam0:
        return False
    sec = cfg["reparam"]
    spec = reparam.analytic(sec["mean"], sec.get("amplitude", 0.0),
                            sec["period"])
    return reparam.validate(spec, theta.rhombic(lam)).ok


def _screened(ops, lam0):
    return ops if all(_admissible(op.cfg, lam0) for op in ops) else None


# ---------------------------------------------------------------------------
# generators: rng -> one cycle of ops


def verify_cycle(rng, lam0):
    """4 critical, 1 explicit-omega and 1 limit config at 128x128.

    lambda in [0.28, 0.345], mean at band centre, amplitude a share rho in
    [0.1, 0.3] of the half band, period in [3.5, 7] (so |w'| <= 0.59).  The
    critical and explicit configs share one Latin hypercube, so that every
    cycle's slow ops cover the whole lambda and period ranges, which set
    most of their cost; the quick limit config is drawn apart.  The
    explicit config carries the critical omega as a number, so it takes
    the FamilyParams branch and still closes.
    """
    kinds = ("critical",) * 4 + ("explicit", "limit")
    box = [(0.28, 0.345), (0.1, 0.3), (3.5, 7.0)]
    pts = np.vstack([latin_hypercube(rng, 5, box),
                     latin_hypercube(rng, 1, box)])
    ops = []
    for kind, (lam, rho, period) in zip(kinds, pts):
        if kind == "limit":
            lam, omega = lam0, {"mode": "limit"}
        elif kind == "explicit":
            crit = elliptic.solve_critical_omega(theta.rhombic(lam))
            omega = {"mode": "explicit", "value": crit.omega}
        else:
            omega = {"mode": "critical"}
        ops.append(Op(_analytic_cfg(lam, omega, rho, period, 128)))
    return _screened(ops, lam0)


def close_torus_cycle(rng, lam0):
    """2 analytic configs, lambda in [0.30, 0.34], period in [5, 8], 96x96.

    The amplitude is what the command tunes, so the config carries none.
    """
    ops = []
    for lam, period in latin_hypercube(rng, 2, [(0.30, 0.34), (5.0, 8.0)]):
        cfg = _analytic_cfg(lam, {"mode": "critical"}, 0.0, period, 96)
        del cfg["reparam"]["amplitude"]
        ops.append(Op(cfg, ("--k", str(K))))
    return _screened(ops, lam0)


def spherical_cycle(rng, lam0):
    """8 spherical configs at 48x48 on lambda = 0.32 around the reference
    spec: delta in [0.4, 0.6], s1 = conj(s2) = a + bi with a in [0.35, 0.55]
    and b in [0.15, 0.35]."""
    crit = elliptic.solve_critical_omega(theta.rhombic(0.32))
    ops = []
    for delta, a, b in latin_hypercube(rng, 8, [(0.4, 0.6), (0.35, 0.55),
                                                (0.15, 0.35)]):
        ops.append(Op({
            "lattice": {"kind": "rhombic", "lambda": 0.32},
            "omega": {"mode": "critical"},
            "reparam": {"kind": "spherical", "delta": float(delta),
                        "s1": [float(a), float(b)],
                        "s2": [float(a), -float(b)]},
            "grid": {"nu": 48, "nv": 48},
        }))
    for op in ops:
        sec = op.cfg["reparam"]
        sph = reparam.SphericalSpec(delta=sec["delta"],
                                    s1=complex(*sec["s1"]),
                                    s2=complex(*sec["s2"]))
        try:
            spec = reparam.build_spherical(sph, crit)
        except IsoforgeError:
            return None
        if not reparam.validate(spec, crit.lattice).ok:
            return None
    return ops


def curves_cycle(rng, lam0):
    """8 critical configs, lambda in [0.28, 0.345]; 16 curves each at n = 4096,
    one w in each sixteenth of the central 92 % of the band."""
    ops = []
    for (lam,) in latin_hypercube(rng, 8, [(0.28, 0.345)]):
        cfg = _analytic_cfg(lam, {"mode": "critical"}, 0.2, 6.0, 128)
        band = 2 * np.pi * lam
        ws = band * (0.04 + 0.92 * (np.arange(16) + rng.random(16)) / 16)
        args = ["--n", "4096", "--svg"]
        for w in ws:
            args += ["--w", repr(float(w))]
        ops.append(Op(cfg, tuple(args)))
    return _screened(ops, lam0)


# ---------------------------------------------------------------------------
# output checks: (op, out_dir, stdout) -> (named check values, passed)


def check_report(op, out_dir, stdout):
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    values = {c["name"]: c["value"] for c in report["checks"]}
    values["passed"] = bool(report["passed"])
    return values, values["passed"]


def check_close_torus(op, out_dir, stdout):
    amp = float(re.search(r"^amplitude = (\S+)", stdout, re.M).group(1))
    got = float(re.search(r"^theta = (\S+)", stdout, re.M).group(1))
    path = os.path.join(out_dir, "torus.obj")
    with open(path) as fh:
        header = fh.readline()
        rows = [line[2:] for line in fh if line.startswith("v ")]
    nu = int(re.search(r"mesh (\d+)x\d+", header).group(1))
    pts = np.array(" ".join(rows).split(), dtype=float).reshape(nu, -1, 3)
    nv = op.cfg["grid"]["nv"]
    if pts.shape[1] != K * nv + 1:  # the piece spans nv + 1 columns
        raise ValueError(f"extended mesh has {pts.shape[1]} columns")
    seam = float(np.max(np.linalg.norm(pts[:, -1] - pts[:, 0], axis=-1)))
    sec = op.cfg["reparam"]
    tuned = reparam.analytic(sec["mean"], amp, sec["period"])
    lat = theta.rhombic(op.cfg["lattice"]["lambda"])
    values = {"theta_error": abs(got - TARGET), "seam_gap": seam,
              "tuned_admissible": reparam.validate(tuned, lat).ok}
    ok = (values["theta_error"] < CLOSURE_TOL and seam < SEAM_TOL
          and values["tuned_admissible"])
    return values, ok


def check_curves(op, out_dir, stdout):
    ws = [float(a) for flag, a in zip(op.args, op.args[1:]) if flag == "--w"]
    n = int(op.args[op.args.index("--n") + 1])
    worst = 0.0
    for w in ws:
        with open(os.path.join(out_dir, f"curve_w{w:.4f}.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != n + 1:
            raise ValueError(f"curve w = {w} has {len(rows)} samples")
        first, last = rows[0], rows[-1]
        worst = max(worst, abs(complex(float(last[1]), float(last[2]))
                               - complex(float(first[1]), float(first[2]))))
    svg = os.path.getsize(os.path.join(out_dir, "curves.svg"))
    values = {"closure_defect": worst, "svg_bytes": svg}
    return values, worst < CLOSURE_TOL and svg > 0


@dataclass(frozen=True)
class Workload:
    """A CLI command (the workload's name), its configs and its check."""

    cycle: object      # (rng, lambda0) -> list[Op], or None to draw again
    out_args: tuple    # arguments naming the outputs; {out} is the out dir
    check: object      # (op, out_dir, stdout) -> (values, ok)


WORKLOADS = {
    "verify": Workload(verify_cycle, ("--out", "{out}/report.json"),
                       check_report),
    "close-torus": Workload(close_torus_cycle, ("--out-dir", "{out}"),
                            check_close_torus),
    "spherical": Workload(spherical_cycle, ("--out", "{out}/report.json"),
                          check_report),
    "curves": Workload(curves_cycle, ("--out-dir", "{out}"), check_curves),
}


def cycles(name: str, seed: int):
    """Endless stream of screened op cycles for a workload and seed."""
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    lam0 = elliptic.solve_lambda0()
    while True:
        for _ in range(MAX_DRAWS):
            ops = wl.cycle(rng, lam0)
            if ops is not None:
                break
        else:
            raise RuntimeError(f"no admissible {name} cycle in {MAX_DRAWS} draws")
        yield ops


def argv(name: str, op: Op, cfg_path: str, out_dir: str) -> list:
    return [name, cfg_path, *op.args,
            *(a.format(out=out_dir) for a in WORKLOADS[name].out_args)]
