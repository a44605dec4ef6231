"""Golden outputs of a fixed list of CLI runs, against tests/golden.json.

Each run goes through `cli.main` in process with its own config file and
output directory.  Its record holds the exit code, stdout and stderr (the
output directory written as <out>), every value of its JSON report but the
`environment` key (floats as repr) and a SHA-256 of each OBJ, CSV and SVG
file it writes.

Bit-level values hold for one numpy on one kind of machine, recorded in
the data file as `machine`.  There the test compares every record exactly.
Elsewhere it compares the exit codes and the report values, each to 1e-9
relative or a thousandth of its check's tolerance (1e-12 outside the
checks), and skips stdout, stderr and the file hashes.

After an intended change, regenerate the file with

    PYTHONPATH=src python tests/regen_golden.py

and list the values that moved (the test prints them) in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from isoforge import cli as cli_mod

GOLDEN = Path(__file__).resolve().parent / "golden.json"

README = {
    "lattice": {"kind": "rhombic", "lambda": 0.32},
    "omega": {"mode": "critical"},
    "reparam": {"kind": "analytic", "mean": 1.0053, "amplitude": 0.35,
                "period": 6.0},
    "grid": {"nu": 128, "nv": 128},
}
GRID64 = {"nu": 64, "nv": 64}
RECT = {
    "lattice": {"kind": "rectangular", "lambda": 0.9},
    "omega": {"mode": "explicit", "value": 0.3},
    "reparam": {"kind": "analytic", "mean": 1.4137, "amplitude": 0.5655,
                "period": 6.0},
    "grid": GRID64,
}
SPHERICAL = {
    "lattice": {"kind": "rhombic", "lambda": 0.32},
    "omega": {"mode": "critical"},
    "reparam": {"kind": "spherical", "delta": 0.5, "s1": [0.45, 0.25],
                "s2": [0.45, -0.25]},
    "grid": {"nu": 48, "nv": 48},
}
LIMIT = {
    "lattice": {"kind": "rhombic", "lambda": 0.354729892522},
    "omega": {"mode": "limit"},
    "reparam": {"kind": "analytic", "mean": 1.1144, "amplitude": 0.3,
                "period": 5.0},
    "grid": GRID64,
}


def _with(cfg, **sections):
    return {**cfg, **sections}


# name -> (command and options, config); "{cfg}" and "{out}" are filled in
RUNS = {
    "readme-verify": (["verify", "{cfg}", "--out", "{out}/report.json"],
                      README),
    "readme-surface": (["surface", "{cfg}", "--out-dir", "{out}"], README),
    "readme-close-torus": (["close-torus", "{cfg}", "--k", "3",
                            "--out-dir", "{out}"], README),
    "readme-curves": (["curves", "{cfg}", "--w", "0.5", "--w", "1.0",
                       "--w", "1.5", "--w", "0.8", "--svg",
                       "--out-dir", "{out}"], README),
    "rect-explicit-verify": (["verify", "{cfg}", "--out", "{out}/report.json"],
                             RECT),
    "rect-explicit-curves": (["curves", "{cfg}", "--n", "64",
                              "--out-dir", "{out}"], RECT),
    "rhombic-explicit-verify": (
        ["verify", "{cfg}", "--out", "{out}/report.json"],
        _with(README, omega={"mode": "explicit", "value": 1.0}, grid=GRID64)),
    "spherical-spherical": (["spherical", "{cfg}", "--out",
                             "{out}/report.json"], SPHERICAL),
    "spherical-verify": (["verify", "{cfg}", "--out", "{out}/report.json"],
                         SPHERICAL),
    "limit-verify": (["verify", "{cfg}", "--out", "{out}/report.json"],
                     LIMIT),
    "constant-verify": (["verify", "{cfg}", "--out", "{out}/report.json"],
                        _with(README, reparam={"kind": "constant"},
                              grid=GRID64)),
    "refuse-close-torus-target": (["close-torus", "{cfg}", "--target", "6"],
                                  README),
    "refuse-limit-off-lambda0": (
        ["verify", "{cfg}", "--out", "{out}/report.json"],
        _with(LIMIT, lattice={"kind": "rhombic", "lambda": 0.32})),
    "refuse-omega-out-of-range": (
        ["verify", "{cfg}", "--out", "{out}/report.json"],
        _with(README, omega={"mode": "explicit", "value": 2.0})),
}


def machine() -> dict:
    """What the bit-level records depend on: numpy, the CPU architecture
    and the SIMD extensions numpy dispatches to."""
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
        simd = sorted(k for k in __cpu_dispatch__ if __cpu_features__.get(k))
    except ImportError:
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(),
            "simd": simd}


def _flat(x, key, out):
    """The leaves of a report as key -> value, floats as repr, each check
    keyed by its name."""
    if isinstance(x, dict):
        for k, v in x.items():
            _flat(v, f"{key}.{k}" if key else k, out)
    elif isinstance(x, list) and x and isinstance(x[0], dict) and "name" in x[0]:
        for entry in x:
            _flat({k: v for k, v in entry.items() if k != "name"},
                  f"{key}.{entry['name']}", out)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            _flat(v, f"{key}.{i}", out)
    else:
        out[key] = repr(x) if isinstance(x, float) else x
    return out


def run(name, work: Path) -> dict:
    """The record of the run `name`, made in the empty directory work."""
    command, cfg = RUNS[name]
    out = work / "out"
    out.mkdir()
    cfg_path = work / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = [a.format(cfg=cfg_path, out=out) for a in command]
    stdout, stderr = io.StringIO(), io.StringIO()
    code = 0
    saved = sys.argv
    sys.argv = ["isoforge", *argv]
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            cli_mod.main()
    except SystemExit as exc:
        code = exc.code or 0
    finally:
        sys.argv = saved
    report, files = {}, {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            data = json.loads(path.read_text())
            data.pop("environment")
            data.pop("config")
            report = _flat(data, "", {})
        else:
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"exit": code,
            "stdout": stdout.getvalue().replace(str(out), "<out>"),
            "stderr": stderr.getvalue().replace(str(out), "<out>"),
            "report": report, "files": files}


def collect(work: Path) -> dict:
    records = {}
    for name in RUNS:
        (work / name).mkdir()
        records[name] = run(name, work / name)
    return {"machine": machine(), "runs": records}


def _close(old, new, tolerance) -> bool:
    if isinstance(old, str) and isinstance(new, str):
        try:
            a, b = float(old), float(new)
        except ValueError:
            return old == new
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-3 * tolerance)
    return old == new


def moved(golden: dict, got: dict, exact: bool) -> list:
    """Every (run, key, old, new) that differs; without exact, report
    values compare to 1e-9 relative or a thousandth of their check's
    tolerance, and stdout, stderr and file hashes are skipped."""
    out = []
    for name in sorted(set(golden) | set(got)):
        old, new = golden.get(name, {}), got.get(name, {})
        if old.get("exit") != new.get("exit"):
            out.append((name, "exit", old.get("exit"), new.get("exit")))
        rep_old, rep_new = old.get("report", {}), new.get("report", {})
        for key in sorted(set(rep_old) | set(rep_new)):
            a, b = rep_old.get(key), rep_new.get(key)
            if exact:
                same = a == b
            else:
                # a value outside the checks (an axis component, theta)
                # gets an absolute floor of 1e-12
                check = key.rsplit(".", 1)[0]
                tol = float(rep_old.get(f"{check}.tolerance", "1e-9"))
                same = _close(a, b, tol)
            if not same:
                out.append((name, f"report.{key}", a, b))
        if not exact:
            continue
        for key in ("stdout", "stderr"):
            if old.get(key) != new.get(key):
                out.append((name, key, old.get(key), new.get(key)))
        f_old, f_new = old.get("files", {}), new.get("files", {})
        for key in sorted(set(f_old) | set(f_new)):
            if f_old.get(key) != f_new.get(key):
                out.append((name, f"files.{key}", f_old.get(key),
                            f_new.get(key)))
    return out


def test_golden_outputs(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = collect(tmp_path)
    exact = got["machine"] == golden["machine"]
    if not exact:
        print(f"machine {got['machine']} is not the golden file's "
              f"{golden['machine']}: report values compared to 1e-9 "
              "relative, stdout, stderr and file hashes skipped")
    diff = moved(golden["runs"], got["runs"], exact)
    for name, key, old, new in diff:
        print(f"{name} {key}: {old!r} -> {new!r}")
    assert not diff, f"{len(diff)} golden values moved (printed above)"


@pytest.mark.parametrize("name", ["readme-verify", "spherical-spherical"])
def test_moved_lists_a_changed_value(name):
    """A report value that moves is listed, old and new, in both modes."""
    golden = json.loads(GOLDEN.read_text())["runs"]
    changed = json.loads(json.dumps(golden))
    report = changed[name]["report"]
    key = next(k for k in report if k.endswith(".value"))
    report[key] = repr(float(report[key]) * 2 + 1.0)
    for exact in (True, False):
        assert moved(golden, changed, exact) == [
            (name, f"report.{key}", golden[name]["report"][key], report[key])]
