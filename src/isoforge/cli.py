"""Command-line front end: config-driven pipelines and machine-readable reports.

Configs are JSON documents with sections lattice / omega / reparam / grid /
outputs / tolerances; unknown keys anywhere are rejected.  Meshes are written
as OBJ, curves as CSV (optionally SVG polylines), reports as JSON.  Exit
codes: 0 ok, 1 usage or config error, 2 mathematical precondition failure,
3 verification failure (outputs are still written).
"""

from __future__ import annotations

import json
import math
import os
import platform  # click loads it too (click.types -> uuid)
import sys

import click
import numpy as np

# every module but elliptic and theta is lazy (see isoforge/__init__.py):
# a command executes only the modules it uses
from . import __version__, curvefamily, elliptic, frame, reparam, spherical
from . import surface as surface_mod
from . import textfmt, theta
from .errors import IsoforgeError, NoBracket, NoCriticalOmega


# ---------------------------------------------------------------------------
# config handling


class ConfigError(click.ClickException):
    """Schema violation in a run config (exit code 1)."""


_NUM = (int, float)
_SCHEMA = {
    "lattice": {"kind": str, "lambda": _NUM},
    "omega": {"mode": str, "value": _NUM},
    "reparam": {"kind": str, "mean": _NUM, "amplitude": _NUM, "period": _NUM,
                "level": _NUM, "delta": _NUM, "s1": (list, *_NUM),
                "s2": (list, *_NUM)},
    "grid": {"nu": int, "nv": int, "periods": int},
    "outputs": {"mesh": str, "report": str},
    "tolerances": {},  # free-form name -> float
}
_REQUIRED = ("lattice", "omega", "reparam")
# the smallest grid every check runs on: with fewer u samples no PDE
# u-probe clears the Riccati poles, with fewer v samples a v-probe lies on
# v = 0 and its stencil reaches below it
_GRID_MIN = {"nu": 5, "nv": 3, "periods": 1}
_GRID_DEFAULT = {"nu": 128, "nv": 128, "periods": 1}
# nu * nv * periods, so that a grid's arrays fit in memory
_MAX_VERTICES = 2 ** 22


def _finite(val) -> bool:
    """Whether a JSON number is finite as a float (NaN and Infinity load)."""
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond the float range
        return False


def _is_number(val) -> bool:
    """A finite JSON number; true loads as an int, but is not one here."""
    return isinstance(val, _NUM) and not isinstance(val, bool) and _finite(val)


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for key in cfg:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config section {key!r}")
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing config section {key!r}")
    for section, fields in _SCHEMA.items():
        if section not in cfg:
            continue
        sub = cfg[section]
        if not isinstance(sub, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for k, val in sub.items():
            # JSON true loads as an int; the grid range check refuses it there
            if section == "tolerances":
                if not (_is_number(val) and val > 0):
                    raise ConfigError(f"tolerances.{k} must be a finite "
                                      f"number > 0, got {val!r}")
                continue
            if k not in fields:
                raise ConfigError(f"unknown key {section}.{k}")
            if not isinstance(val, fields[k]) or (isinstance(val, bool)
                                                  and fields[k] is not int):
                raise ConfigError(f"bad type for {section}.{k}")
            # s1 and s2: a number or an [re, im] pair
            if isinstance(val, list) and not (
                    len(val) == 2 and all(map(_is_number, val))):
                raise ConfigError(f"bad type for {section}.{k}")
            if isinstance(val, _NUM) and not _finite(val):
                raise ConfigError(f"{section}.{k} must be finite, got {val!r}")
    amplitude = cfg["reparam"].get("amplitude", 0)
    if amplitude < 0:
        raise ConfigError(f"reparam.amplitude must be >= 0, got {amplitude!r}")
    grid = {**_GRID_DEFAULT, **cfg.get("grid", {})}
    for k, val in grid.items():
        if isinstance(val, bool) or val < _GRID_MIN[k]:
            raise ConfigError(f"grid.{k} must be an integer >= {_GRID_MIN[k]},"
                              f" got {json.dumps(val)}")
    vertices = grid["nu"] * grid["nv"] * grid["periods"]
    if vertices > _MAX_VERTICES:
        raise ConfigError(f"grid.nu * grid.nv * grid.periods must be at most "
                          f"{_MAX_VERTICES}, got {vertices}")
    mode = cfg["omega"].get("mode")
    if mode not in ("critical", "explicit", "limit"):
        raise ConfigError("omega.mode must be critical, explicit or limit")
    if mode == "explicit" and "value" not in cfg["omega"]:
        raise ConfigError("omega.mode=explicit requires omega.value")
    kind = cfg["lattice"].get("kind")
    if kind not in ("rhombic", "rectangular"):
        raise ConfigError("lattice.kind must be rhombic or rectangular")
    if cfg["reparam"].get("kind") not in ("analytic", "constant", "spherical"):
        raise ConfigError("reparam.kind must be analytic, constant or spherical")
    for k, name in cfg.get("outputs", {}).items():
        # a path would make os.path.join drop --out-dir
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigError(f"outputs.{k} must be a file name, got {name!r}")
    return cfg


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return validate_config(cfg)


def config_hash(cfg: dict) -> str:
    import hashlib  # here, so that only the commands that report load it
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipeline pieces


def _family(cfg) -> elliptic.Family:
    """The family of the lattice and omega sections."""
    lam = float(cfg["lattice"]["lambda"])
    lat = (theta.rhombic(lam) if cfg["lattice"]["kind"] == "rhombic"
           else theta.rectangular(lam))
    mode = cfg["omega"]["mode"]
    if mode == "critical":
        return elliptic.solve_critical_omega(lat)
    omega = 0.0 if mode == "limit" else float(cfg["omega"]["value"])
    return elliptic.Family(lat, omega, mode)


def _complex_param(val):
    """A validated s1/s2: a number or an [re, im] pair."""
    if isinstance(val, list):
        return complex(float(val[0]), float(val[1]))
    return complex(float(val), 0.0)


def _reparam_spec(cfg, fam):
    sec = cfg["reparam"]
    kind = sec["kind"]
    if kind == "constant":
        return reparam.constant(float(sec.get("level", np.pi * fam.lattice.lam)),
                                float(sec.get("period", 2 * np.pi)))
    if kind == "analytic":
        for key in ("mean", "amplitude", "period"):
            if key not in sec:
                raise ConfigError(f"reparam.{key} required for analytic")
        return reparam.analytic(float(sec["mean"]), float(sec["amplitude"]),
                                float(sec["period"]))
    for key in ("delta", "s1", "s2"):
        if key not in sec:
            raise ConfigError(f"reparam.{key} required for spherical")
    if fam.mode != "critical":
        raise ConfigError("spherical reparam requires omega.mode=critical")
    sph = reparam.SphericalSpec(delta=float(sec["delta"]),
                                s1=_complex_param(sec["s1"]),
                                s2=_complex_param(sec["s2"]))
    return reparam.build_spherical(sph, fam)


def _recipe(cfg, fam, spec):
    grid = {**_GRID_DEFAULT, **cfg.get("grid", {})}
    return surface_mod.SurfaceRecipe(fam=fam, spec=spec, **grid)


# ---------------------------------------------------------------------------
# writers


def write_obj(path, surf):
    """Quad mesh over the (u, v) grid; u is cyclic, v is an open strip."""
    pts = np.asarray(surf.points)
    nu, nv = pts.shape[:2]
    i = np.arange(nu)[:, None]
    j = np.arange(nv - 1)[None, :]
    a = i * nv + j + 1                   # vertex (i, j), 1-based
    b = ((i + 1) % nu) * nv + j + 1      # vertex (i + 1, j)
    faces = np.stack([a, b, b + 1, a + 1]).reshape(4, -1)
    verts = np.moveaxis(pts, -1, 0).reshape(3, -1)  # no copy of xyz planes
    with open(path, "wb") as fh:
        fh.write(f"# isoforge {__version__} surface mesh {nu}x{nv}\n".encode())
        fh.writelines(textfmt.table(verts.shape[1], lambda rows: [
            b"v", textfmt.g12(verts[:, rows], b" "), b"\n"]))
        fh.writelines(textfmt.table(faces.shape[1], lambda rows: [
            b"f", textfmt.d(faces[:, rows], b" "), b"\n"]))
    return nu * nv, nu * (nv - 1)


def write_curve_csv(path, us, gam, eh, tangent, kappa, u_cells=None):
    """One row per u, every cell in %.12g, with CSV's \\r\\n line ends.
    u_cells is textfmt.g12(us), for callers that write several curves on
    the same us."""
    if u_cells is None:
        u_cells = textfmt.g12(us)
    cols = np.stack([gam.real, gam.imag, eh, tangent.real, tangent.imag,
                     kappa])
    with open(path, "wb") as fh:
        fh.write(b"u,re_gamma,im_gamma,exp_h,tangent_re,tangent_im,kappa_hyp"
                 b"\r\n")
        fh.writelines(textfmt.table(len(us), lambda rows: [
            u_cells[:, rows], textfmt.g12(cols[:, rows], b","), b"\r\n"]))


def write_svg(path, curves, size=640):
    """Polyline quick-look of complex curves (list of arrays)."""
    # the bounds of each curve: a concatenation would copy every curve
    parts = [c for c in curves if c.size]
    lo = complex(np.min([c.real.min() for c in parts]),
                 np.min([c.imag.min() for c in parts]))
    hi = complex(np.max([c.real.max() for c in parts]),
                 np.max([c.imag.max() for c in parts]))
    span = max(hi.real - lo.real, hi.imag - lo.imag, 1e-12)
    pad = 0.05 * span

    with open(path, "wb") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{size}" height="{size}">\n'.encode())
        for curve in curves:
            sx = (curve.real - lo.real + pad) / (span + 2 * pad) * size
            sy = size - (curve.imag - lo.imag + pad) / (span + 2 * pad) * size
            # every point after a space; the first one's is dropped
            pts = textfmt.join([textfmt.f2(sx, b" "), textfmt.f2(sy, b",")])
            fh.write(b'<polyline points="' + pts[1:] + b'" fill="none" '
                     b'stroke="black" stroke-width="1"/>\n')
        fh.write(b"</svg>\n")


def make_report(cfg, checks, extra=None):
    report = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "environment": {
            "isoforge": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }
    if extra:
        report.update(extra)
    return report


def emit_report(report, path=None):
    text = json.dumps(report, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def check(name, value, tol):
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "pass": bool(abs(value) < tol)}


# 0/1 and rank checks, whose bound no --tol moves
_STRUCTURAL = ("reparam_admissible", "normals_rank_defect")


def _positive_tol(ctx, param, value):
    """The --tol option: None or a finite number > 0, like tolerances.<k>."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a finite number > 0, got {value!r}")
    return value


def override_tol(checks, tol):
    """The checks with every residual tolerance replaced by tol."""
    if tol is None:
        return checks
    return [c if c["name"] in _STRUCTURAL else check(c["name"], c["value"], tol)
            for c in checks]


# ---------------------------------------------------------------------------
# verification battery


def run_battery(surf, fam, cfg):
    """All surface-level certificates as a flat check list."""
    tols = cfg.get("tolerances", {})

    def tol(name, default):
        return float(tols.get(name, default))

    checks = []
    d = surf.diagnostics
    spec = surf.recipe.spec
    is_limit = fam.mode == "limit"
    names = (("orthogonality", "conformality") if is_limit else
             ("orthogonality", "conformality_u", "conformality_v",
              "normal_unit", "normal_tangency"))
    for name in names:
        checks.append(check(name, d[name], tol(name, 1e-10)))

    # u-closure of gamma (closed only at critical omega on rhombic lattices)
    ws = np.asarray(spec.w(np.linspace(0.0, spec.period, 9)), dtype=float)
    ends = np.array([0.0, 2 * np.pi])
    g0 = (curvefamily.gamma_hat(ends[:, None], ws, fam) if is_limit
          else curvefamily.gamma(ends, ws, fam))
    closure = float(np.max(np.abs(g0[1] - g0[0])))
    checks.append(check("u_closure", closure, tol("u_closure", 1e-9)))

    if not is_limit:
        # metric identity e^h = 2 Re(W1 conj gamma)
        us = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        grid = curvefamily.CurveGrid(us, ws, fam, forms=("exp_h", "gamma"))
        eh, gam = grid.exp_h, grid.gamma
        w1 = curvefamily.w1(ws, fam)
        metric = float(np.max(np.abs(eh - 2 * np.real(w1 * np.conj(gam))) / eh))
        checks.append(check("metric_identity", metric,
                            tol("metric_identity", 1e-9)))

        # the frame at the v-nodes of the PDE stencil, the fv_vs_fd probes
        # and the dual loop, from one integration
        v_sets = [surface_mod.gauss_codazzi_nodes(surf), _fv_fd_nodes(spec)]
        if fam.mode == "critical":
            v_sets.append(surface_mod.dual_loop_nodes(surf))
        traj = surface_mod.battery_frame(fam, spec, v_sets)

        # PDE identities: require second-order convergence of the FD
        # residuals plus a residual cap.  Quadrature-built spherical w(v)
        # has much larger v-derivatives than the analytic profiles, so its
        # truncation constant (and hence the cap) is larger.
        res, coarse = surface_mod.gauss_codazzi_residuals(surf, traj)
        pde_cap = 1e-2 if spec.kind == "spherical" else 1e-5
        for name, val in res.items():
            checks.append(check(f"pde_{name}", val, tol(f"pde_{name}", pde_cap)))
        orders = [np.log2(coarse[k] / res[k]) for k in res
                  if res[k] > 1e-12]
        deficit = max(0.0, 1.9 - min(orders)) if orders else 0.0
        checks.append(check("pde_order_deficit", deficit,
                            tol("pde_order_deficit", 0.05)))

        # closed-form fv against a finite difference of the immersion
        checks.append(check("fv_vs_fd", _fv_fd_residual(surf, fam, traj),
                            tol("fv_vs_fd", 1e-6)))

        # admissibility + branch smoothness of the signed root: a wrong
        # branch (e.g. |.| of a sign-changing root) kinks, so its second
        # divided differences keep growing under mesh refinement
        rep_c = reparam.validate(spec, fam.lattice, n=2001)
        rep_f = reparam.validate(spec, fam.lattice, n=4001)
        checks.append(check("reparam_admissible", 0.0 if rep_f.ok else 1.0,
                            0.5))
        checks.append(check("root_consistency", rep_f.root_residual,
                            tol("root_consistency", 1e-8)))
        # floor the denominator so roundoff-level dd2 (constant w) passes
        growth = rep_f.root_dd2 / max(rep_c.root_dd2, 1.0)
        checks.append(check("root_branch_smoothness", growth,
                            tol("root_branch_smoothness", 1.5)))

        if fam.mode == "critical":  # symmetry involutions
            inv = surface_mod.inversion_symmetry(surf, fam)
            for name, val in inv.residuals.items():
                checks.append(check(f"inversion_{name}", val,
                                    tol(f"inversion_{name}", 1e-8)))
            dual = surface_mod.dual_symmetry(surf, traj)
            for name, val in dual.residuals.items():
                dtol = 1e-7 if name in ("double_dual", "loop_integral") else 1e-8
                checks.append(check(f"dual_{name}", val,
                                    tol(f"dual_{name}", dtol)))

    plan = surface_mod.planarity_certificate(surf)
    checks.append(check("planarity", plan.max_deviation_rel,
                        tol("planarity", 1e-8)))
    checks.append(check("joachimsthal", plan.angle_std_max,
                        tol("joachimsthal", 1e-8)))
    # generic surfaces have plane normals spanning 3-space; the limit
    # surface's planes are all tangent to one cylinder (rank 2)
    want_rank = 2 if is_limit else 3
    checks.append(check("normals_rank_defect", plan.normal_rank - want_rank,
                        0.5))

    if spec.kind == "spherical" and not is_limit:
        cert = reparam.sphericality_certificate(surf)
        checks.append(check("sphere_fit", cert.sphere_residual_rel,
                            tol("sphere_fit", 1e-6)))
        checks.append(check("sphere_angle", cert.angle_std_max,
                            tol("sphere_angle", 1e-6)))
    return checks


def _fv_fd_nodes(spec, dv=1e-4):
    """The (probe, shift) v-nodes of _fv_fd_residual: three probes, each
    at -dv, 0 and +dv."""
    v0 = np.linspace(0.31, 0.77, 3) * spec.period
    return v0[:, None] + [-dv, 0.0, dv]


def _fv_fd_residual(surf, fam, traj, dv=1e-4):
    """Max |fv - d(points)/dv| at a few probes (catches sign errors), from
    one field grid over the probes' stencils.  The frame there comes from
    traj, an integration that holds `_fv_fd_nodes(spec, dv)` among its
    nodes (run_battery's `surface.battery_frame`)."""
    spec = surf.recipe.spec
    nodes = _fv_fd_nodes(spec, dv).ravel()
    us = surf.u[:: max(1, len(surf.u) // 8)]
    f = surface_mod.fields_at(fam, spec, us, nodes,
                              surface_mod.phi_at(traj, nodes), ("points", "fv"))
    pts = f["points"].reshape(len(us), 3, 3, 3)   # (u, probe, shift, xyz)
    fd = (pts[:, :, 2] - pts[:, :, 0]) / (2 * dv)
    return float(np.max(np.abs(fd - f["fv"].reshape(pts.shape)[:, :, 1])))


# ---------------------------------------------------------------------------
# commands


@click.group()
def cli():
    """Isothermic surfaces with planar curvature lines: synthesis + checks."""


@cli.command()
@click.option("--lambda0", "want_lambda0", is_flag=True,
              help="print the threshold lattice parameter")
@click.option("--lambda", "lam", type=float, default=None,
              help="rhombic lattice parameter")
def solve(want_lambda0, lam):
    """Critical rotation parameter (or the lambda threshold)."""
    if want_lambda0:
        click.echo(f"lambda0 = {elliptic.solve_lambda0():.12f}")
        return
    if lam is None:
        raise click.UsageError("pass --lambda or --lambda0")
    try:
        crit = elliptic.solve_critical_omega(theta.rhombic(lam))
    except NoCriticalOmega:
        raise IsoforgeError(
            f"no critical omega: lambda = {lam} >= lambda0 "
            f"= {elliptic.solve_lambda0():.12f}")
    click.echo(f"omega = {crit.omega:.15f}")
    click.echo(f"residual = {crit.residual:.3e}")


# points (u samples x curves) of one CurveGrid block of the curves
# command: 4 curves at --n 4096, all 5 default curves at the default --n
_CURVE_POINTS = 20_000


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--w", "w_values", type=float, multiple=True,
              help="band coordinates of the curves (repeatable)")
@click.option("--n", "n_samples", type=click.IntRange(min=1), default=512,
              show_default=True,
              help="intervals in u over [0, 2 pi]: n + 1 rows per CSV")
@click.option("--out-dir", type=click.Path(file_okay=False), default=".")
@click.option("--svg", is_flag=True, help="also write an SVG quick-look")
def curves(config, w_values, n_samples, out_dir, svg):
    """Planar curvature-line curves with elastica data, one CSV per w."""
    cfg = load_config(config)
    fam = _family(cfg)
    if fam.mode == "limit":
        raise ConfigError("curves requires omega.mode critical or explicit")
    if not w_values:
        top = 2 * np.pi * fam.lattice.lam
        w_values = tuple(top * k / 6 for k in (1, 2, 3, 4, 5))
    names = [os.path.join(out_dir, f"curve_w{w:.4f}.csv") for w in w_values]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"--w {w_values[names.index(name)]!r} and "
                              f"--w {w_values[k]!r} would both write {name}")
    os.makedirs(out_dir, exist_ok=True)
    us = np.linspace(0.0, 2 * np.pi, n_samples + 1)

    # every block is computed before the first file is opened, so a w that
    # fails leaves no file behind
    width = max(1, _CURVE_POINTS // len(us))
    blocks = (curvefamily.CurveGrid(us, np.array(w_values[lo:lo + width]), fam)
              for lo in range(0, len(w_values), width))
    results = [curve for grid in blocks for curve in zip(
        grid.gamma.T, grid.exp_h.T, grid.exp_isigma.T, grid.kappa_hyp.T)]

    polylines = []
    u_cells = textfmt.g12(us)
    for w, name, (gam, eh, tangent, kappa) in zip(w_values, names, results):
        write_curve_csv(name, us, gam, eh, tangent, kappa, u_cells)
        defect = abs(gam[-1] - gam[0])
        click.echo(f"w = {w:.6f}: closure defect {defect:.3e} -> {name}")
        polylines.append(gam)
    if svg:
        svg_path = os.path.join(out_dir, "curves.svg")
        write_svg(svg_path, polylines)
        click.echo(f"svg -> {svg_path}")


@cli.command("surface")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=".")
@click.option("--tol", type=float, default=None, callback=_positive_tol,
              help="override every residual check tolerance")
def surface_cmd(config, out_dir, tol):
    """Build the immersion mesh (OBJ) and its verification report."""
    cfg = load_config(config)
    if tol is not None:
        cfg = {**cfg, "tolerances": {}}  # a flat override wins
    fam = _family(cfg)
    spec = _reparam_spec(cfg, fam)
    surf = surface_mod.build(_recipe(cfg, fam, spec))

    os.makedirs(out_dir, exist_ok=True)
    outputs = cfg.get("outputs", {})
    mesh_path = os.path.join(out_dir, outputs.get("mesh", "surface.obj"))
    nverts, nfaces = write_obj(mesh_path, surf)
    click.echo(f"mesh -> {mesh_path} ({nverts} vertices, {nfaces} quads)")

    checks = override_tol(run_battery(surf, fam, cfg), tol)
    if fam.mode != "limit" and spec.kind != "constant":
        try:
            mono = frame.monodromy(surf.phi[surf.recipe.nv])
            extra = {"axis": list(mono.axis), "theta": mono.theta}
        except IsoforgeError:
            extra = {"axis": None, "theta": 0.0}
    else:
        extra = None
    report = make_report(cfg, checks, extra)
    report_path = os.path.join(out_dir, outputs.get("report", "report.json"))
    emit_report(report, report_path)
    click.echo(f"report -> {report_path} "
               f"({'pass' if report['passed'] else 'FAIL'})")
    if not report["passed"]:
        sys.exit(3)


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the JSON report here instead of stdout")
@click.option("--tol", type=float, default=None, callback=_positive_tol,
              help="override every residual check tolerance")
def verify(config, out, tol):
    """Run the full invariant battery and emit a JSON report."""
    cfg = load_config(config)
    fam = _family(cfg)
    spec = _reparam_spec(cfg, fam)
    surf = surface_mod.build(_recipe(cfg, fam, spec))
    checks = override_tol(run_battery(surf, fam, cfg), tol)
    report = make_report(cfg, checks)
    emit_report(report, out)
    if not report["passed"]:
        sys.exit(3)


@cli.command("spherical")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def spherical_cmd(config, out):
    """Spherical-second-family certificates, axis and monodromy angle."""
    cfg = load_config(config)
    if cfg["reparam"].get("kind") != "spherical":
        raise ConfigError("spherical command requires reparam.kind=spherical")
    crit = _family(cfg)
    spec = _reparam_spec(cfg, crit)  # refuses a non-critical family
    surf = surface_mod.build(_recipe(cfg, crit, spec))

    tols = cfg.get("tolerances", {})
    cert = reparam.sphericality_certificate(surf)
    samples = spherical.sphere_centers(surf, crit)
    ratio, _, _ = spherical.collinearity(samples)
    _, plane_dist = spherical.cone_point(surf, samples)
    ax = spherical.axis(spec, crit, surf)
    mono = frame.monodromy(surf.phi[surf.recipe.nv])
    axdir = ax.Zprime_omega / np.linalg.norm(ax.Zprime_omega)
    angle = float(spherical.angle(axdir, mono.axis))
    angle = min(angle, np.pi - angle)  # between lines: the axis sign is free
    rel_norm = abs(ax.norm_sq_assembled - ax.norm_sq) / ax.norm_sq

    checks = [
        check("sphere_fit", cert.sphere_residual_rel,
              float(tols.get("sphere_fit", 1e-6))),
        check("collinearity", ratio, float(tols.get("collinearity", 1e-6))),
        check("cone_point_planes", plane_dist,
              float(tols.get("cone_point_planes", 1e-7))),
        check("axis_unit", ax.unit_residual,
              float(tols.get("axis_unit", 1e-9))),
        check("axis_norm_sq", rel_norm, float(tols.get("axis_norm_sq", 1e-8))),
        check("axis_vs_monodromy", angle,
              float(tols.get("axis_vs_monodromy", 1e-6))),
    ]
    report = make_report(cfg, checks, {
        "theta": mono.theta,
        "axis": list(mono.axis),
        "period_V": spec.period,
    })
    emit_report(report, out)
    click.echo(f"theta = {mono.theta:.12f}", err=True)
    if not report["passed"]:
        sys.exit(3)


@cli.command("close-torus")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--target", type=float, default=None, show_default="2 pi / k",
              help="target monodromy angle")
@click.option("--k", type=click.IntRange(min=1), default=3, show_default=True,
              help="periods of the closed torus")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="also write the closed-torus OBJ here")
def close_torus_cmd(config, target, k, out_dir):
    """Tune the analytic amplitude so the piece closes after k periods."""
    cfg = load_config(config)
    sec = cfg["reparam"]
    if sec.get("kind") != "analytic":
        raise ConfigError("close-torus requires reparam.kind=analytic")
    fam = _family(cfg)
    if fam.mode == "limit":
        raise ConfigError("close-torus requires a non-limit family")
    mean, period = float(sec["mean"]), float(sec["period"])
    if target is None:
        target = 2 * np.pi / k

    def template(amp):
        return reparam.analytic(mean, amp, period)

    try:
        spec, achieved = frame.close_torus(template, fam, target)
    except NoBracket as exc:
        raise NoBracket(f"{exc}, so no amplitude closes the piece after "
                        f"{k} period{'s' if k > 1 else ''}") from None
    amp = spec.meta["amplitude"]
    click.echo(f"amplitude = {amp:.15f}")
    click.echo(f"theta = {achieved:.15f} (|theta - target| "
               f"= {abs(achieved - target):.3e})")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        grid = cfg.get("grid", {})
        recipe = surface_mod.SurfaceRecipe(
            fam=fam, spec=spec, nu=int(grid.get("nu", 96)),
            nv=int(grid.get("nv", 96)), periods=1)
        piece = surface_mod.build(recipe)
        mono = frame.monodromy(piece.phi[-1])
        torus = frame.extend_by_rotation(piece, mono, k)
        path = os.path.join(out_dir, "torus.obj")
        write_obj(path, torus)
        click.echo(f"mesh -> {path}")


def main():
    try:
        cli.main(standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except IsoforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    main()
