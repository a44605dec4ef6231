"""Command-line front end: config-driven pipelines and machine-readable reports.

Configs are JSON documents with sections lattice / omega / reparam / grid /
outputs / tolerances; unknown keys anywhere are rejected.  Meshes are written
as OBJ, curves as CSV (optionally SVG polylines), reports as JSON.  Exit
codes: 0 ok, 1 usage or config error, 2 mathematical precondition failure,
3 verification failure (outputs are still written).
"""

from __future__ import annotations

import ctypes  # numpy loads it already
import json
import math
import os
import platform  # click loads it too (click.types -> uuid)
import re
import sys

import click
import numpy as np

# every module but elliptic and theta is lazy (see isoforge/__init__.py):
# a command executes only the modules it uses
from . import __version__, curvefamily, elliptic, frame, reparam
from . import surface as surface_mod
from . import textfmt, theta
from . import verify as verify_mod
from .errors import IsoforgeError, NoBracket


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
    grid = _grid(cfg)
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
    # each tolerances.<name> names a residual check, run on this config or
    # not, so that one tolerances block serves every command
    for name in cfg.get("tolerances", {}):
        check = verify_mod.CHECKS.get(name)
        if check is None:
            import difflib  # here, so that only a refused name loads it
            near, = difflib.get_close_matches(name, verify_mod.CHECKS, n=1,
                                              cutoff=0)
            raise ConfigError(f"tolerances.{name}: no check has that name "
                              f"(the closest is {near!r})")
        if check.kind == "structural":
            raise ConfigError(f"tolerances.{name}: the bound of {name} is "
                              f"fixed at {check.tol}")
    if "lambda" not in cfg["lattice"]:
        raise ConfigError("lattice.lambda required")
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


def _grid(cfg) -> dict:
    """The grid section with the defaults of the keys it leaves out."""
    return {**_GRID_DEFAULT, **cfg.get("grid", {})}


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


def _require_reparam(sec, keys):
    """Refuse a reparam section that lacks one of keys, naming its kind."""
    for key in keys:
        if key not in sec:
            raise ConfigError(f"reparam.{key} required for {sec['kind']}")


def _spherical_spec(sec):
    """The SphericalSpec (delta, s1, s2) of a spherical reparam section."""
    _require_reparam(sec, ("delta", "s1", "s2"))
    return reparam.SphericalSpec(delta=float(sec["delta"]),
                                 s1=_complex_param(sec["s1"]),
                                 s2=_complex_param(sec["s2"]))


def _reparam_spec(cfg, fam):
    sec = cfg["reparam"]
    kind = sec["kind"]
    if kind == "constant":
        return reparam.constant(float(sec.get("level", np.pi * fam.lattice.lam)),
                                float(sec.get("period", 2 * np.pi)))
    if kind == "analytic":
        _require_reparam(sec, ("mean", "amplitude", "period"))
        return reparam.analytic(float(sec["mean"]), float(sec["amplitude"]),
                                float(sec["period"]))
    sph = _spherical_spec(sec)
    if fam.mode != "critical":
        raise ConfigError("spherical reparam requires omega.mode=critical")
    return reparam.build_spherical(sph, fam)


def _recipe(cfg, fam, spec):
    return surface_mod.SurfaceRecipe(fam=fam, spec=spec, **_grid(cfg))


def _build(config, kind=None):
    """Load a config and build its surface: (cfg, family, surface).
    `kind` is the reparam.kind the command requires, if any."""
    cfg = load_config(config)
    if kind is not None and cfg["reparam"]["kind"] != kind:
        raise ConfigError(f"{kind} command requires reparam.kind={kind}")
    fam = _family(cfg)
    spec = _reparam_spec(cfg, fam)
    return cfg, fam, surface_mod.build(_recipe(cfg, fam, spec))


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


def write_curve_csv(path, us, gam, eh, tangent, kappa, u_cells):
    """One row per u, every cell in %.12g, with CSV's \\r\\n line ends.
    u_cells is textfmt.g12(us), shared by the curves written on the same
    us."""
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


def _platform_name() -> str:
    """platform.platform() without the processor, which it learns by
    running `uname -p` in a subprocess and leaves out wherever that is
    empty or the machine name.  So the two strings are one on Linux hosts
    whose `uname -p` prints nothing or the machine name, and only there."""
    u = platform.uname()
    name = "-".join(x.strip() for x in (u.system, u.release, u.machine, "with",
                                        "".join(platform.libc_ver())) if x)
    # platform.platform()'s own replacements
    name = name.translate(str.maketrans(' /\\:;"()', "_-------"))
    name = name.replace("unknown", "")
    return re.sub("-+", "-", name).rstrip("-")


def emit_report(cfg, values, path, tol=None, extra=None, announce=False):
    """Write the report of a battery's check values to path (stdout if
    None), echo `report -> path (pass|FAIL)` if announce, and exit 3 if a
    check failed.  tol is --tol."""
    checks = verify_mod.entries(values, cfg, tol)
    report = {
        "config": cfg,
        "config_hash": config_hash(cfg),
        "environment": {
            "isoforge": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": _platform_name(),
        },
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
        **(extra or {}),
    }
    text = json.dumps(report, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)
    if announce:
        click.echo(f"report -> {path} "
                   f"({'pass' if report['passed'] else 'FAIL'})")
    if not report["passed"]:
        sys.exit(3)


def run_battery(surf, fam) -> dict:
    """verify.battery(surf, fam), called here so that perfbench's span of
    `cli.run_battery` (its per-layer metric `cli.run_battery.self_s`)
    still times the battery."""
    return verify_mod.battery(surf, fam)


def _positive_tol(ctx, param, value):
    """The --tol option: None or a finite number > 0, like tolerances.<k>."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a finite number > 0, got {value!r}")
    return value


# glibc hands a freed block above its mmap threshold back to the kernel,
# and trims the heap top once more than its trim threshold is free; by
# default the first grows only to the largest block freed so far and the
# second is twice that.  A verify frees grid arrays of 0.1-0.8 MB, so each
# op faulted them in again: about 1,500 minor faults and 16 % of a
# 128 x 128 verify.  At 32 MiB, the ceiling of glibc's own dynamic mmap
# threshold on 64 bits, freed arrays stay in the heap for the next op.
# Both are set: the mmap threshold alone leaves the 128 KB default trim
# threshold (about 2,200 faults per op), and setting the trim threshold
# freezes the mmap threshold wherever earlier frees had left it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's <malloc.h>
_KEEP_FREED_BYTES = 32 << 20


def _keep_freed_memory():
    """Set glibc's mmap and trim thresholds to _KEEP_FREED_BYTES; on any
    other C library do nothing."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(param, _KEEP_FREED_BYTES)


# ---------------------------------------------------------------------------
# commands


@click.group()
def cli():
    """Isothermic surfaces with planar curvature lines: synthesis + checks."""
    # here, not at import: a command owns its process, a library import
    # does not
    _keep_freed_memory()


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
    crit = elliptic.solve_critical_omega(theta.rhombic(lam))
    click.echo(f"omega = {crit.omega:.15f}")
    click.echo(f"residual = {crit.residual:.3e}")


# points (u samples x curves) of one forms_at block of the curves
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
    points = (n_samples + 1) * (len(w_values) or 5)  # five default curves
    if points > _MAX_VERTICES:
        raise ConfigError(f"--n: (n + 1) * (number of curves) must be at "
                          f"most {_MAX_VERTICES}, got {points}")
    fam = _family(cfg)
    if fam.mode == "limit":
        raise ConfigError("curves requires omega.mode critical or explicit")
    if not w_values:
        top = 2 * np.pi * fam.lattice.lam
        # theta1(i w) vanishes mid-band on a rectangular lattice: 7/12 there
        mid = 3 if fam.lattice.kind == "rhombic" else 3.5
        w_values = tuple(top * k / 6 for k in (1, 2, mid, 4, 5))
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
    forms = ("gamma", "exp_h", "exp_isigma", "kappa_hyp")
    blocks = (curvefamily.forms_at(us, np.array(w_values[lo:lo + width]), fam,
                                   forms)
              for lo in range(0, len(w_values), width))
    results = [curve for block in blocks
               for curve in zip(*(block[name].T for name in forms))]

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
    cfg, fam, surf = _build(config)

    os.makedirs(out_dir, exist_ok=True)
    outputs = cfg.get("outputs", {})
    mesh_path = os.path.join(out_dir, outputs.get("mesh", "surface.obj"))
    nverts, nfaces = write_obj(mesh_path, surf)
    click.echo(f"mesh -> {mesh_path} ({nverts} vertices, {nfaces} quads)")

    values, extra = run_battery(surf, fam), None
    if fam.mode != "limit":
        try:
            mono = frame.monodromy(surf.phi[surf.recipe.nv])
            extra = {"axis": list(mono.axis), "theta": mono.theta}
        except IsoforgeError:
            extra = {"axis": None, "theta": 0.0}
    report_path = os.path.join(out_dir, outputs.get("report", "report.json"))
    emit_report(cfg, values, report_path, tol, extra, announce=True)


@cli.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write the JSON report here instead of stdout")
@click.option("--tol", type=float, default=None, callback=_positive_tol,
              help="override every residual check tolerance")
def verify(config, out, tol):
    """Run the full invariant battery and emit a JSON report."""
    cfg, fam, surf = _build(config)
    emit_report(cfg, run_battery(surf, fam), out, tol)


@cli.command("spherical")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def spherical_cmd(config, out):
    """Spherical-second-family certificates, axis and monodromy angle."""
    # _reparam_spec refuses a non-critical family
    cfg, _, surf = _build(config, kind="spherical")
    mono = frame.monodromy(surf.phi[surf.recipe.nv])
    values = verify_mod.spherical_battery(surf, mono,
                                          _spherical_spec(cfg["reparam"]))
    click.echo(f"theta = {mono.theta:.12f}", err=True)
    emit_report(cfg, values, out, extra={
        "theta": mono.theta,
        "axis": list(mono.axis),
        "period_V": surf.recipe.spec.period,
    })


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
    grid = _grid(cfg)
    if grid["periods"] != 1:  # the k periods come from rotating one
        raise ConfigError(f"grid.periods must be 1 for close-torus, got "
                          f"{grid['periods']}")
    vertices = grid["nu"] * (k * grid["nv"] + 1)
    if out_dir and vertices > _MAX_VERTICES:
        raise ConfigError(f"--k: the torus mesh's grid.nu * (k * grid.nv + 1)"
                          f" vertices must be at most {_MAX_VERTICES}, got "
                          f"{vertices}")
    fam = _family(cfg)
    if fam.mode == "limit":
        raise ConfigError("close-torus requires a non-limit family")
    _require_reparam(sec, ("mean", "period"))  # the amplitude is tuned
    mean, period = float(sec["mean"]), float(sec["period"])
    if target is None:
        target = 2 * np.pi / k
    try:
        amp, achieved = frame.close_torus(mean, period, fam, target)
    except NoBracket as exc:
        raise NoBracket(f"{exc}, so no amplitude closes the piece after "
                        f"{k} period{'s' if k > 1 else ''}") from None
    click.echo(f"amplitude = {amp:.15f}")
    click.echo(f"theta = {achieved:.15f} (|theta - target| "
               f"= {abs(achieved - target):.3e})")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        spec = reparam.analytic(mean, amp, period)
        piece = surface_mod.build(_recipe(cfg, fam, spec))
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
