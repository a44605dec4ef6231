"""Config validation, the command-line pipelines and their exit codes."""

import collections
import csv
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import isoforge
from isoforge import cli as cli_mod
from isoforge import elliptic, frame, surface
from isoforge.cli import ConfigError, cli, load_config, validate_config

from conftest import period_nodes


def _write(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _base_cfg(**updates):
    cfg = {
        "lattice": {"kind": "rhombic", "lambda": 0.32},
        "omega": {"mode": "critical"},
        "reparam": {"kind": "analytic", "mean": 1.0053096491487339,
                    "amplitude": 0.35, "period": 6.0},
        "grid": {"nu": 24, "nv": 24},
    }
    cfg.update(updates)
    return cfg


# ---------------------------------------------------------------------------
# config schema


def test_config_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown config section"):
        validate_config(_base_cfg(extra={}))


def test_config_rejects_unknown_key():
    cfg = _base_cfg()
    cfg["lattice"]["spin"] = 1
    with pytest.raises(ConfigError, match="unknown key lattice.spin"):
        validate_config(cfg)


def test_config_rejects_missing_section():
    cfg = _base_cfg()
    del cfg["omega"]
    with pytest.raises(ConfigError, match="missing config section"):
        validate_config(cfg)


def test_config_rejects_bad_types_and_enums():
    cfg = _base_cfg()
    cfg["lattice"]["lambda"] = "0.32"
    with pytest.raises(ConfigError, match="bad type"):
        validate_config(cfg)
    cfg = _base_cfg()
    cfg["omega"]["mode"] = "auto"
    with pytest.raises(ConfigError, match="omega.mode"):
        validate_config(cfg)
    cfg = _base_cfg()
    cfg["reparam"]["kind"] = "spline"
    with pytest.raises(ConfigError, match="reparam.kind"):
        validate_config(cfg)


_WORDS = sorted({k for fields in cli_mod._SCHEMA.values() for k in fields}
                | {"critical", "explicit", "limit", "rhombic", "rectangular",
                   "analytic", "constant", "spherical"})
_scalar = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(_WORDS) | st.text(max_size=6))
_value = st.recursive(_scalar, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=6),
                                        inner, max_size=4),
                      max_leaves=10)


def _section(fields):
    good = st.dictionaries(st.sampled_from(sorted(fields)),
                           _scalar | st.lists(_scalar, max_size=2),
                           max_size=len(fields))
    return good | good | st.dictionaries(st.text(max_size=4), _value,
                                         max_size=2) | _value


_config = st.fixed_dictionaries(
    {name: _section(cli_mod._SCHEMA[name]) for name in ("lattice", "omega", "reparam")},
    optional={name: _section(cli_mod._SCHEMA[name] or {"atol": None})
              for name in ("grid", "outputs", "tolerances")})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=_config | _config | _value)
def test_validate_config_raises_only_config_error(cfg):
    """Arbitrary nested dict/list/scalar input is accepted or refused with
    ConfigError, never another exception."""
    try:
        assert validate_config(cfg) is cfg
    except ConfigError:
        pass


def _main_exit(tmp_path, monkeypatch, cfg, command="verify"):
    """Exit code of `command` on cfg (verify with its report in
    tmp_path) through the console script's main() (which returns on
    success)."""
    out = ["--out", str(tmp_path / "report.json")] * (command == "verify")
    monkeypatch.setattr(sys, "argv", [
        "isoforge", command, _write(tmp_path, cfg), *out])
    try:
        cli_mod.main()
    except SystemExit as exc:
        return exc.code
    return 0


# the fields of the README config, each with the end of its range, and
# its sections (whose end is null)
_EDGES = {
    ("lattice", "lambda"): 0.354729892522,       # lambda0
    ("lattice", "kind"): "rectangular",
    ("omega", "mode"): "limit",
    ("reparam", "kind"): "spherical",
    ("reparam", "mean"): 2 * np.pi * 0.32,       # the top of the band
    ("reparam", "amplitude"): 1.0053,            # w reaches 0
    ("reparam", "period"): 2 * np.pi * 0.35,     # |w'| reaches 1
    ("grid", "nu"): 5,
    ("grid", "nv"): 3,
    ("lattice",): None, ("omega",): None, ("reparam",): None, ("grid",): None,
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["verify", "close-torus"]),
       path=st.sampled_from(sorted(_EDGES)),
       edit=st.sampled_from(["drop", 0, -1, True, "end"]))
def test_no_config_ends_in_a_traceback(tmp_path, monkeypatch, capsys,
                                       command, path, edit):
    """A lattice without lambda ended every command in KeyError: 'lambda',
    and close-torus on an analytic reparam without mean or period in
    KeyError: 'mean' or 'period'.  Every config one edit away from the
    README's exits with a documented code and no traceback."""
    cfg = json.loads(json.dumps(dict(_README_CFG, grid={"nu": 8, "nv": 8})))
    parent = cfg if len(path) == 1 else cfg[path[0]]
    if edit == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = _EDGES[path] if edit == "end" else edit
    assert _main_exit(tmp_path, monkeypatch, cfg, command) in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "close-torus"])
@pytest.mark.parametrize("section, key, message", [
    ("lattice", "lambda", "lattice.lambda required"),
    ("reparam", "mean", "reparam.mean required for analytic"),
    ("reparam", "period", "reparam.period required for analytic")],
    ids=["lambda", "mean", "period"])
def test_missing_required_key_exits_1(tmp_path, monkeypatch, capsys, command,
                                      section, key, message):
    """verify and close-torus exit 1 naming the missing key, as verify did
    for reparam.mean and reparam.period; a lattice without lambda, and
    close-torus without either, ended in a KeyError."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    del cfg[section][key]
    assert _main_exit(tmp_path, monkeypatch, cfg, command) == 1
    assert f"Error: {message}\n" in capsys.readouterr().err


def test_close_torus_needs_no_amplitude(tmp_path, monkeypatch):
    """close-torus tunes the amplitude, so its config may leave it out."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    del cfg["reparam"]["amplitude"]
    assert _main_exit(tmp_path, monkeypatch, cfg, "close-torus") == 0


@pytest.mark.parametrize("field, value", [
    ("nu", 4), ("nu", True), ("nv", 1), ("nv", 2), ("nv", -3),
    ("periods", 0), ("periods", True)])
def test_grid_below_minimum_exits_1(tmp_path, monkeypatch, capsys, field,
                                    value):
    """nu 4 and true and nv 1 ended in an IndexError, nv 2 in exit 2
    ("v_nodes must be strictly increasing from 0"), nv -3 and periods 0 in
    a ValueError, and periods true ran as 1; each now exits 1 naming the
    field."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8, field: value})
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert f"grid.{field} must be an integer >= " in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("lattice", "lambda"), ("reparam", "mean"), ("reparam", "period")])
def test_bool_for_a_number_exits_1(tmp_path, monkeypatch, capsys, section,
                                   key):
    """JSON true was taken as the number 1: lambda true ran as lambda = 1,
    and mean and period true ran as 1.0; each now exits 1 naming the
    field."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    cfg[section][key] = True
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert f"bad type for {section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("period", [0, -6.0])
def test_nonpositive_period_exits_2(tmp_path, monkeypatch, capsys, period):
    """reparam.period 0 ended in a ZeroDivisionError traceback; like a
    negative period it now exits 2 before anything is built."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    cfg["reparam"]["period"] = period
    assert _main_exit(tmp_path, monkeypatch, cfg) == 2
    assert "spec period must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", [["a", 0.25], [True, 0.25], [0.45],
                                   [0.45, 0.25, 0.0], [float("nan"), 0.25]],
                         ids=["text", "bool", "one", "three", "nan"])
def test_bad_complex_param_exits_1(tmp_path, monkeypatch, capsys, value):
    """reparam.s1 is a number or a list of two finite numbers: ["a", 0.25]
    ended in a ValueError traceback and [true, 0.25] ran as 1 + 0.25i."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8},
                    reparam={"kind": "spherical", "delta": 0.5, "s1": value,
                             "s2": [0.45, -0.25]})
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert "bad type for reparam.s1" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("tolerances", "pde_gauss", float("nan"), "must be a finite number > 0"),
    ("tolerances", "pde_gauss", -1, "must be a finite number > 0"),
    ("tolerances", "pde_gauss", 0.0, "must be a finite number > 0"),
    ("lattice", "lambda", float("nan"), "must be finite, got nan"),
    ("omega", "value", float("nan"), "must be finite, got nan"),
    ("reparam", "amplitude", float("inf"), "must be finite, got inf"),
    ("reparam", "mean", 10 ** 400, "must be finite, got 1000"),
], ids=["tolerance-nan", "tolerance-negative", "tolerance-zero",
        "lambda-nan", "omega-value-nan", "amplitude-infinity",
        "mean-beyond-float"])
def test_nonfinite_or_nonpositive_number_exits_1(tmp_path, monkeypatch, capsys,
                                                 section, key, value, message):
    """JSON's NaN and Infinity load as floats: a tolerance of NaN or -1 ran
    the whole pipeline and exited 3, lambda NaN exited 2 ("lambda must be
    positive, got nan"), an explicit omega NaN exited 2 ("explicit omega
    must lie in (0, pi/2)") and amplitude Infinity exited 2 with a nan
    range; each now exits 1 naming the field."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    if section == "omega":
        cfg["omega"]["mode"] = "explicit"
    cfg.setdefault(section, {})[key] = value
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert f"{section}.{key} {message}" in capsys.readouterr().err


def test_negative_amplitude_exits_1(tmp_path, monkeypatch, capsys):
    """A negative reparam.amplitude is sin shifted by half a period, not a
    new profile: it exits 1 naming the field; 0 (a constant w) still runs."""
    cfg = _base_cfg(grid={"nu": 8, "nv": 8})
    cfg["reparam"]["amplitude"] = -0.1
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert "reparam.amplitude must be >= 0, got -0.1" in capsys.readouterr().err
    cfg["reparam"]["amplitude"] = 0
    validate_config(cfg)


@pytest.mark.parametrize("command", ["verify", "surface"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(tmp_path, monkeypatch, capsys,
                                         command, tol):
    """--tol nan ran the whole battery and exited 3 with every residual
    check failing; a --tol that is not a finite number > 0 now exits 1
    before anything is built, like a tolerances.<k> of that value."""
    monkeypatch.setattr(cli_mod.surface_mod, "build", None)  # never reached
    code = _exit_code(monkeypatch, command, _write(tmp_path, _base_cfg()),
                      "--tol", tol, "--out" if command == "verify"
                      else "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert ("'--tol': must be a finite number > 0, got"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, vertices", [
    ({"nu": 2048, "nv": 2048, "periods": 2}, 2 ** 23),
    ({"nu": 2 ** 16}, 2 ** 23),             # nv defaults to 128
    ({"nu": 10 ** 9, "nv": 10 ** 9}, 10 ** 18)])
def test_grid_vertex_cap(grid, vertices):
    """nu * nv * periods is capped at 2**22, so no grid asks numpy for more
    memory than the machine has (nu = nv = 100000 asked for 224 GiB)."""
    with pytest.raises(ConfigError, match=f"at most 4194304, got {vertices}$"):
        validate_config(_base_cfg(grid=grid))
    validate_config(_base_cfg(grid={"nu": 2048, "nv": 2048}))


@pytest.mark.parametrize("grid", [{"nu": 5, "nv": 3},
                                  {"nu": 5, "nv": 3, "periods": 2},
                                  {"nu": 8, "nv": 8}])
def test_smallest_grids_still_verify(tmp_path, monkeypatch, grid):
    """The minimum grid sizes (and the 8 x 8 grid of the tests and the
    benchmark) run every check and pass."""
    assert _main_exit(tmp_path, monkeypatch, _base_cfg(grid=grid)) == 0
    assert json.loads((tmp_path / "report.json").read_text())["passed"]


@pytest.mark.parametrize("key", ["curves", "svg"])
def test_dead_output_keys_exit_1(tmp_path, monkeypatch, capsys, key):
    """outputs.curves and outputs.svg were accepted, but nothing read them;
    they are now unknown keys."""
    cfg = _base_cfg(outputs={key: "out.txt"}, grid={"nu": 8, "nv": 8})
    assert _main_exit(tmp_path, monkeypatch, cfg) == 1
    assert f"unknown key outputs.{key}" in capsys.readouterr().err


def test_config_rejects_null_section():
    for section in ("omega", "grid"):
        cfg = _base_cfg(**{section: None})
        with pytest.raises(ConfigError, match=f"section '{section}' must be"):
            validate_config(cfg)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# solve


def test_solve_lambda0():
    result = CliRunner().invoke(cli, ["solve", "--lambda0"])
    assert result.exit_code == 0
    assert "0.354729892522" in result.output


def test_solve_critical_omega():
    result = CliRunner().invoke(cli, ["solve", "--lambda", "0.32"])
    assert result.exit_code == 0
    assert "omega = 0.391729121567" in result.output


def _child_env():
    """Environment for a child Python that imports the package under test:
    its source root goes first on PYTHONPATH."""
    src_root = str(Path(isoforge.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src_root, os.environ.get("PYTHONPATH")]))}


def _assert_solve_exit_codes(launcher):
    """Run ``solve`` through ``launcher`` in a child process and check the
    exit codes that ``isoforge.cli:main`` maps errors to."""
    env = _child_env()

    def run(*args):
        return subprocess.run([*launcher, "solve", *args], env=env,
                              capture_output=True, text=True)

    # above the threshold: mathematical precondition failure -> 2
    proc = run("--lambda", "0.45")
    assert proc.returncode == 2
    assert "no critical omega" in proc.stderr
    # no arguments at all: usage error -> 1
    proc = run()
    assert proc.returncode == 1


def test_solve_exit_codes_via_entry_point():
    # the same main() the console script calls (cli.py ends in a
    # ``__name__ == "__main__"`` guard), without needing an install
    _assert_solve_exit_codes([sys.executable, "-m", "isoforge.cli"])


@pytest.mark.skipif(shutil.which("isoforge") is None,
                    reason="isoforge console script not on PATH "
                           "(package not installed)")
def test_solve_exit_codes_via_console_script():
    _assert_solve_exit_codes(["isoforge"])


def test_solve_below_lambda0_without_a_bracket_exits_2(monkeypatch, capsys):
    """At lambda 0.015 < lambda0 the zero of theta2' lies within round-off
    of pi/4, so the solve fails with exit 2, and its message does not
    claim lambda >= lambda0."""
    monkeypatch.setattr(sys, "argv", ["isoforge", "solve", "--lambda", "0.015"])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no critical omega" in err and ">= lambda0" not in err


def test_solve_nonconvergence_exits_2(monkeypatch, capsys):
    """A root find that does not converge is a typed error: exit 2, no
    traceback.  (theta2''(0) replaced by a triple root Brent's method does
    not resolve in 100 steps on the lambda0 bracket.)"""
    monkeypatch.setattr(elliptic, "theta2_logdd0", lambda lam: (lam - 0.3) ** 3)
    monkeypatch.setattr(sys, "argv", ["isoforge", "solve", "--lambda0"])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    assert "did not converge" in capsys.readouterr().err


def test_runtime_imports_no_scipy():
    """Importing the CLI and solving for the critical omega loads no SciPy
    module (SciPy is a test-only oracle)."""
    code = ("import sys\n"
            "import isoforge.cli\n"
            "from isoforge import elliptic, theta\n"
            "elliptic.solve_critical_omega(theta.rhombic(0.32))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runtime_imports_stay_lean(tmp_path, sph_cfg_grid32):
    """A spherical spec and its frame load neither numpy.polynomial nor
    concurrent.futures (which loads logging) and leave the writers' textfmt
    unexecuted, a curves run loads no concurrent module either, and a
    verify and a spherical run load neither numpy.ma (which np.unique
    imports) nor subprocess (which platform.platform() imports to run
    `uname -p`)."""
    code = ("import sys, types\n"
            "from isoforge import cli, elliptic, frame, reparam, theta\n"
            "crit = elliptic.solve_critical_omega(theta.rhombic(0.32))\n"
            "spec = reparam.build_spherical(reparam.SphericalSpec(\n"
            "    delta=0.5, s1=0.45 + 0.25j, s2=0.45 - 0.25j), crit)\n"
            "frame.integrate(spec, crit, [0.0, spec.period])\n"
            "print(sorted(m for m, mod in sys.modules.items() if m.startswith(\n"
            "    ('numpy.polynomial', 'concurrent')) or m == 'isoforge.textfmt'\n"
            "    and type(mod) is types.ModuleType))\n"
            "cli.cli.main(['curves', sys.argv[1], '--n', '8', '--out-dir',\n"
            "              sys.argv[2]], standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))\n"
            "for command, cfg in (('verify', 1), ('spherical', 3)):\n"
            "    cli.cli.main([command, sys.argv[cfg], '--out',\n"
            "                  sys.argv[2] + '/report.json'],\n"
            "                 standalone_mode=False)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('numpy.ma', 'subprocess')))\n")
    proc = subprocess.run([sys.executable, "-c", code,
                           _write(tmp_path, _base_cfg()), str(tmp_path),
                           _write(tmp_path, sph_cfg_grid32, "sph.json")],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8  # and five curves in between
    assert lines[0] == lines[-2] == lines[-1] == "[]"


@pytest.mark.parametrize("release, processor", [
    (None, None), ("6.1.0-13-amd64", ""), ("6.1.0-13-amd64", "x86_64"),
    ("5.15.0 (custom) #1/a:b;c", ""), ("unknown", ""),
    ("6.1.0-13-amd64", "Xeon")],
    ids=["host", "no-processor", "machine", "replaced-chars", "unknown",
         "other-processor"])
def test_report_platform_is_platform_platform(monkeypatch, release,
                                              processor):
    """The report's platform string is platform.platform() wherever
    platform.uname().processor is '' or the machine name, on this host
    (when it is one of those) and on Linux unames given to both; with
    another processor name the two differ."""
    if release is not None:
        uname = collections.namedtuple(
            "uname", "system node release version machine processor")
        monkeypatch.setattr(platform, "uname", lambda: uname(
            "Linux", "node", release, "#1 SMP", "x86_64", processor))
    monkeypatch.setattr(platform, "_platform_cache", {})
    host = platform.uname()
    same = host.system == "Linux" and host.processor in ("", host.machine)
    assert (cli_mod._platform_name() == platform.platform()) == same


# what `import isoforge.cli` executes; every other submodule is registered
# in sys.modules and executes on first attribute access
_STARTUP_MODULES = ["isoforge", "isoforge.cli", "isoforge.elliptic",
                    "isoforge.errors", "isoforge.theta"]


@pytest.mark.parametrize("command, executed", [
    (["solve", "--lambda", "0.32"], []),
    (["curves", "{cfg}", "--n", "8", "--out-dir", "{out}"],
     ["isoforge.curvefamily", "isoforge.textfmt"])], ids=["solve", "curves"])
def test_commands_execute_only_the_modules_they_use(tmp_path, command,
                                                    executed):
    """`import isoforge.cli` executes five modules and registers every layer
    the bench tracer wraps; solve executes no other, and curves adds only
    curvefamily and textfmt (no frame, quat, surface or spherical).  A
    pending lazy module is a subclass of ModuleType, and any attribute
    access would execute it, so the child only looks at type(module)."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys, types\n"
            "import isoforge.cli\n"
            "def executed():\n"
            "    return sorted(m for m, mod in sys.modules.items()\n"
            "                  if m.split('.')[0] == 'isoforge'\n"
            "                  and type(mod) is types.ModuleType)\n"
            "print(executed())\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from tracer import LAYERS\n"
            "print(sorted(l for l in LAYERS if 'isoforge.' + l not in sys.modules))\n"
            "isoforge.cli.cli.main(sys.argv[2:], standalone_mode=False)\n"
            "print(executed())\n")
    args = [a.format(cfg=_write(tmp_path, _base_cfg()), out=tmp_path)
            for a in command]
    proc = subprocess.run([sys.executable, "-c", code, str(perfbench), *args],
                          env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == str(_STARTUP_MODULES)
    assert lines[1] == "[]"
    assert lines[-1] == str(sorted(_STARTUP_MODULES + executed))


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["isoforge"] == "isoforge.cli:main"


# ---------------------------------------------------------------------------
# curves


def test_curves_writes_csv(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    result = CliRunner().invoke(cli, [
        "curves", cfg_path, "--w", "1.0", "--n", "64",
        "--out-dir", str(tmp_path), "--svg"])
    assert result.exit_code == 0, result.output
    csv_path = tmp_path / "curve_w1.0000.csv"
    assert csv_path.exists()
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "re_gamma", "im_gamma", "exp_h",
                       "tangent_re", "tangent_im", "kappa_hyp"]
    assert len(rows) == 66  # header + 65 samples (closed: endpoint repeated)
    first = np.array(rows[1][1:3], dtype=float)
    last = np.array(rows[-1][1:3], dtype=float)
    assert np.max(np.abs(first - last)) < 1e-9
    assert (tmp_path / "curves.svg").exists()


def test_curves_evaluates_five_theta_arrays_per_w(tmp_path, theta_arrays):
    """gamma, e^h, e^{i sigma} and the hyperbolic curvature of one curve
    share three theta arrays and two derivative arrays.  The curves of a
    block of w share one theta_tensor call, one matrix product on the
    rhombic lattice, whose arrays hold one column per w; only W1 evaluates
    theta at a point array, the block's w."""
    result = CliRunner().invoke(cli, [
        "curves", _write(tmp_path, _base_cfg()), "--w", "0.7", "--w", "1.3",
        "--n", "64", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert theta_arrays.calls == [((1, 1, 1, 2, 2), 65, (5, 2))]
    assert theta_arrays.products == [1]
    assert len(set(theta_arrays.arrays)) == len(theta_arrays.arrays) == 5
    assert len(set(theta_arrays.columns)) == len(theta_arrays.columns) == 10
    assert theta_arrays.grid == [(2,)] * 2
    # at --n 4096 a block holds four curves: five w make two blocks
    theta_arrays.calls.clear()
    result = CliRunner().invoke(cli, [
        "curves", _write(tmp_path, _base_cfg()), "--n", "4096",
        "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert theta_arrays.calls == [((1, 1, 1, 2, 2), 4097, (5, 4)),
                                  ((1, 1, 1, 2, 2), 4097, (5, 1))]


def test_curves_writes_no_file_when_a_later_w_fails(tmp_path, monkeypatch,
                                                    capsys):
    """Every block is computed before the first file is written: four good
    w and then W1's pole pi*lam on a rectangular lattice, in the second
    block at --n 4096, exit 2 and leave no CSV."""
    cfg = _base_cfg(lattice={"kind": "rectangular", "lambda": 0.5},
                    omega={"mode": "explicit", "value": 0.7})
    ws = ["0.6", "1.0", "2.0", "2.5", repr(np.pi / 2)]
    code = _exit_code(monkeypatch, "curves", _write(tmp_path, cfg),
                      *(a for w in ws for a in ("--w", w)), "--n", "4096",
                      "--out-dir", str(tmp_path))
    assert code == 2
    assert "W1 pole" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve_w*.csv"))


@pytest.mark.parametrize("kind, thirds", [("rhombic", 3), ("rectangular", 3.5)])
def test_curves_default_w_stay_off_the_w1_pole(tmp_path, kind, thirds):
    """Without --w, curves writes five curves at k/6 of the band; on a
    rectangular lattice, where theta1(i w) vanishes at the band's middle
    pi*lam, the third moves to 7/12."""
    cfg = _base_cfg(lattice={"kind": kind, "lambda": 0.9},
                    omega={"mode": "explicit", "value": 0.3})
    result = CliRunner().invoke(cli, [
        "curves", _write(tmp_path, cfg), "--n", "16",
        "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    top = 2 * np.pi * 0.9
    names = sorted(p.name for p in tmp_path.glob("curve_w*.csv"))
    assert names == sorted(f"curve_w{top * k / 6:.4f}.csv"
                           for k in (1, 2, thirds, 4, 5))


def test_verify_on_a_tall_strip_runs_without_warnings(tmp_path):
    """At lambda 20 the theta truncation bound overflowed in linear scale
    (a RuntimeWarning, an error under this suite) and verify refused the
    lattice; now it builds the surface and reports its checks.  |points|
    reaches 5.5e13 there, and fv_vs_fd, relative to the largest e^h, passes
    (4.9e-9; it read 2.5e5 in absolute terms).  The surface still fails
    u_closure (a rectangular lattice does not close in u) and
    normals_rank_defect (its plane normals have rank 2, not 3)."""
    cfg = _base_cfg(lattice={"kind": "rectangular", "lambda": 20.0},
                    omega={"mode": "explicit", "value": 0.3},
                    grid={"nu": 16, "nv": 16})
    cfg["reparam"].update(mean=1.4137, amplitude=0.5655)
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, ["verify", _write(tmp_path, cfg),
                                      "--out", str(out)])
    assert result.exit_code == 3, result.output
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["fv_vs_fd"]["pass"]
    assert {n for n, c in checks.items() if not c["pass"]} == {
        "u_closure", "normals_rank_defect"}


def _exit_code(monkeypatch, *argv):
    """The exit code of the isoforge entry point on argv."""
    monkeypatch.setattr(sys, "argv", ["isoforge", *argv])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    return exc.value.code


@pytest.mark.parametrize("n", ["0", "-1"])
def test_curves_rejects_fewer_than_one_sample(tmp_path, monkeypatch, capsys,
                                              n):
    """--n 0 wrote a one-sample curve with a closure defect of 0 that
    proves nothing; --n -1 raised a ValueError traceback."""
    code = _exit_code(monkeypatch, "curves", _write(tmp_path, _base_cfg()),
                      "--w", "1.0", "--n", n, "--out-dir", str(tmp_path))
    assert code == 1
    assert "--n" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve_*.csv"))


def test_curves_refuses_two_w_with_one_file_name(tmp_path, monkeypatch,
                                                 capsys):
    """1.00001 and 1.00002 both write curve_w1.0000.csv: the command exits
    1 before it computes any curve, instead of overwriting the first."""
    from isoforge import curvefamily
    monkeypatch.setattr(curvefamily, "forms_at", None)  # never reached
    code = _exit_code(monkeypatch, "curves", _write(tmp_path, _base_cfg()),
                      "--w", "0.7", "--w", "1.00001", "--w", "1.00002",
                      "--out-dir", str(tmp_path))
    assert code == 1
    assert "curve_w1.0000.csv" in capsys.readouterr().err
    assert not list(tmp_path.glob("curve_*.csv"))


def _family_reached(cfg):
    raise ConfigError("family reached")


@pytest.mark.parametrize("argv, refused", [
    (["--n", str(2 ** 22), "--w", "1.0"], True),
    (["--n", str(2 ** 22 - 1), "--w", "1.0"], False),  # 2^22 points
    (["--n", "838861"], True)], ids=["above", "at", "five-default-w"])
def test_curves_bounds_points_by_max_vertices(tmp_path, monkeypatch, capsys,
                                              argv, refused):
    """(n + 1) * (number of curves) above 2^22 exits 1 naming --n before
    the family is solved; at 2^22 the command goes on to solve it."""
    monkeypatch.setattr(cli_mod, "_family", _family_reached)
    code = _exit_code(monkeypatch, "curves", _write(tmp_path, _base_cfg()),
                      *argv, "--out-dir", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert ("--n: (n + 1) * (number of curves) must be at most 4194304"
            in err) == refused
    assert ("family reached" in err) != refused


def test_close_torus_default_target_is_two_pi_over_k(tmp_path):
    """With k = 4 the default target is pi/2, and the written torus closes:
    its last column of vertices meets its first (a target of 2 pi/3 left
    the seam open by about the mesh radius)."""
    result = CliRunner().invoke(cli, [
        "close-torus", _write(tmp_path, _base_cfg(grid={"nu": 16, "nv": 16})),
        "--k", "4", "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    theta = float(result.output.split("theta = ")[1].split()[0])
    assert abs(theta - np.pi / 2) < 1e-9
    pts = np.array([line.split()[1:] for line in
                    (tmp_path / "torus.obj").read_text().splitlines()
                    if line.startswith("v ")], dtype=float).reshape(16, -1, 3)
    assert pts.shape[1] == 4 * 16 + 1
    assert np.max(np.abs(pts[:, -1] - pts[:, 0])) < 1e-6


@pytest.mark.parametrize("k, out_dir, refused", [
    ("256", True, True), ("255", True, False), ("256", False, False)])
def test_close_torus_bounds_mesh_by_max_vertices(tmp_path, monkeypatch,
                                                 capsys, k, out_dir, refused):
    """On the default 128 x 128 grid the k-period mesh has 128 * (128 k + 1)
    vertices: above 2^22 (k = 256) --out-dir exits 1 naming --k before the
    family is solved; without --out-dir no mesh is made."""
    monkeypatch.setattr(cli_mod, "_family", _family_reached)
    cfg = _base_cfg()
    del cfg["grid"]
    code = _exit_code(monkeypatch, "close-torus", _write(tmp_path, cfg),
                      "--k", k, *(["--out-dir", str(tmp_path)] * out_dir))
    assert code == 1
    err = capsys.readouterr().err
    assert ("--k: the torus mesh's grid.nu * (k * grid.nv + 1) vertices must "
            "be at most 4194304" in err) == refused
    assert ("family reached" in err) != refused


def test_close_torus_refuses_grid_periods(tmp_path, monkeypatch, capsys):
    """The k periods come from rotating one period: grid.periods 2 was
    ignored, and now exits 1 naming it."""
    monkeypatch.setattr(cli_mod, "_family", None)  # never reached
    cfg = _base_cfg(grid={"nu": 8, "nv": 8, "periods": 2})
    assert _exit_code(monkeypatch, "close-torus", _write(tmp_path, cfg)) == 1
    assert "grid.periods must be 1 for close-torus" in capsys.readouterr().err


def test_close_torus_default_grid(tmp_path):
    """Without a grid section the piece is meshed on the default 128 x 128
    grid of the other commands (96 x 96 before)."""
    cfg = _base_cfg()
    del cfg["grid"]
    result = CliRunner().invoke(cli, [
        "close-torus", _write(tmp_path, cfg), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "torus.obj") as fh:
        assert fh.readline().endswith(" surface mesh 128x385\n")


@pytest.mark.parametrize("k", ["0", "-2"])
def test_close_torus_rejects_k_below_one(tmp_path, monkeypatch, capsys, k):
    """k <= 0 wrote the one-period piece and exited 0."""
    code = _exit_code(monkeypatch, "close-torus",
                      _write(tmp_path, _base_cfg(grid={"nu": 8, "nv": 8})),
                      "--k", k, "--out-dir", str(tmp_path))
    assert code == 1
    assert "--k" in capsys.readouterr().err
    assert not (tmp_path / "torus.obj").exists()


@pytest.mark.parametrize("k", ["1", "2"])
def test_close_torus_says_no_amplitude_closes(tmp_path, monkeypatch, capsys,
                                              k):
    """The default target 2 pi / k of k = 1, 2 lies beyond the angles the
    amplitude scan reaches: exit 2, saying no amplitude closes the piece
    (the root finder's 'does not cross' before)."""
    code = _exit_code(monkeypatch, "close-torus",
                      _write(tmp_path, _base_cfg(grid={"nu": 8, "nv": 8})),
                      "--k", k, "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: no amplitude in [0.02, " in err
    assert f"no amplitude closes the piece after {k} period" in err
    assert not (tmp_path / "torus.obj").exists()


def test_close_torus_integrates_the_frame_once_after_tuning(tmp_path,
                                                            monkeypatch,
                                                            frame_calls):
    """The monodromy of the tuned piece comes from the piece's own frame
    at v = V: one frame integration after the tuning, for the piece."""
    calls, at_tuned = frame_calls, []
    close_torus = frame.close_torus
    monkeypatch.setattr(frame, "close_torus", lambda *a, **k: (
        close_torus(*a, **k), at_tuned.append(len(calls)))[0])
    cfg = _base_cfg(grid={"nu": 16, "nv": 16})
    result = CliRunner().invoke(cli, [
        "close-torus", _write(tmp_path, cfg), "--k", "3",
        "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "torus.obj").exists()
    assert len(calls) - at_tuned[0] == 1


def test_curve_csv_matches_csv_writer(tmp_path):
    """Byte for byte what csv.writer writes from per-cell f-strings,
    \\r\\n line ends included, also for signed zeros, tiny, huge and
    non-finite values."""
    us = np.linspace(0.0, 2 * np.pi, 7)
    gam = np.array([1 + 2j, -0.0 - 0.0j, 1e-300j, 3.3e7 - 1e-5j,
                    complex(np.nan, np.inf), -np.inf + 0.1j, 2 / 3])
    eh = np.abs(gam) * 0.5
    tangent = np.exp(1j * us)
    kappa = np.array([0.1, -7.25e-17, np.nan, 1e20, -1.0, 0.0, 5.5])
    cli_mod.write_curve_csv(tmp_path / "got.csv", us, gam, eh, tangent, kappa,
                            cli_mod.textfmt.g12(us))
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["u", "re_gamma", "im_gamma", "exp_h",
                     "tangent_re", "tangent_im", "kappa_hyp"])
        for k in range(len(us)):
            wr.writerow([f"{x:.12g}" for x in (
                us[k], gam[k].real, gam[k].imag, eh[k],
                tangent[k].real, tangent[k].imag, kappa[k])])
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def _svg_point_loop(path, curves, size=640):
    """Reference SVG writer: one f-string per point, through scalar closures."""
    allpts = np.concatenate(curves)
    lo = complex(np.min(allpts.real), np.min(allpts.imag))
    hi = complex(np.max(allpts.real), np.max(allpts.imag))
    span = max(hi.real - lo.real, hi.imag - lo.imag, 1e-12)
    pad = 0.05 * span

    def sx(z):
        return (z.real - lo.real + pad) / (span + 2 * pad) * size

    def sy(z):
        return size - (z.imag - lo.imag + pad) / (span + 2 * pad) * size

    with open(path, "w") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                 f'width="{size}" height="{size}">\n')
        for curve in curves:
            pts = " ".join(f"{sx(z):.2f},{sy(z):.2f}" for z in curve)
            fh.write(f'<polyline points="{pts}" fill="none" '
                     f'stroke="black" stroke-width="1"/>\n')
        fh.write("</svg>\n")


def test_write_svg_matches_point_loop(tmp_path):
    """Byte for byte the per-point writer, across the 256-point chunks and
    on an empty curve and a single point."""
    us = np.linspace(0.0, 2 * np.pi, 4097)
    curves = [np.exp(1j * us) * (1 + 0.3 * np.cos(3 * us)),
              0.5 * np.exp(-1j * us[:257]) + 0.25j,
              np.array([], dtype=complex),
              np.array([-1.1 - 1.1j])]
    for size in (640, 97):
        cli_mod.write_svg(tmp_path / "got.svg", curves, size)
        _svg_point_loop(tmp_path / "want.svg", curves, size)
        assert ((tmp_path / "got.svg").read_bytes()
                == (tmp_path / "want.svg").read_bytes())


def test_write_svg_copies_no_curve():
    """write_svg takes the bounds of each curve: on 16 curves of 4097
    points it peaked at 1.83 MB when it took them on a concatenation of
    all the curves (a 1.05 MB copy)."""
    us = np.linspace(0.0, 2 * np.pi, 4097)
    curves = [np.exp(1j * us) * (1 + 0.02 * k) for k in range(16)]
    cli_mod.write_svg(os.devnull, curves[:1])  # executes the lazy textfmt
    tracemalloc.start()
    try:
        cli_mod.write_svg(os.devnull, curves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def _obj_loop(path, surf):
    """Reference OBJ writer: one f-string per vertex and per face."""
    pts = np.asarray(surf.points)
    nu, nv = pts.shape[:2]
    with open(path, "w") as fh:
        fh.write(f"# isoforge {isoforge.__version__} surface mesh {nu}x{nv}\n")
        for i in range(nu):
            for j in range(nv):
                x, y, z = pts[i, j]
                fh.write(f"v {x:.12g} {y:.12g} {z:.12g}\n")

        def vid(i, j):
            return (i % nu) * nv + j + 1

        for i in range(nu):
            for j in range(nv - 1):
                fh.write(f"f {vid(i, j)} {vid(i + 1, j)} "
                         f"{vid(i + 1, j + 1)} {vid(i, j + 1)}\n")
    return nu * nv, nu * (nv - 1)


def test_write_obj_matches_loop(tmp_path, torus_surf, crit032, torus_spec):
    """Byte for byte the loop writer on a surface mesh and on the k = 3
    rotational extension close-torus writes."""
    mono = frame.monodromy(frame.integrate(
        torus_spec, crit032, period_nodes(torus_spec)).phi[-1])
    torus = frame.extend_by_rotation(torus_surf, mono, 3)
    for surf in (torus_surf, torus):
        got = cli_mod.write_obj(tmp_path / "got.obj", surf)
        assert got == _obj_loop(tmp_path / "want.obj", surf)
        assert ((tmp_path / "got.obj").read_bytes()
                == (tmp_path / "want.obj").read_bytes())


# ---------------------------------------------------------------------------
# surface + verify


def test_surface_writes_obj_and_report(tmp_path):
    cfg_path = _write(tmp_path, _base_cfg())
    result = CliRunner().invoke(cli, [
        "surface", cfg_path, "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output

    verts = []
    faces = []
    for line in (tmp_path / "surface.obj").read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:]])
    # the v-strip keeps its endpoint: nu x (nv + 1) vertices
    assert len(verts) == 24 * 25
    assert len(faces) == 24 * 24
    idx = np.array(faces)
    assert idx.min() >= 1 and idx.max() <= len(verts)

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} >= {
        "u_closure", "metric_identity", "fv_vs_fd", "planarity"}
    assert all(set(c) == {"name", "value", "tolerance", "pass"}
               for c in report["checks"])
    assert report["theta"] > 0


def test_verify_check_names_in_order(tmp_path):
    """The README example's report lists its checks in this order; the
    pde_* names follow the order of the dict pde_battery returns."""
    cfg = {
        "lattice": {"kind": "rhombic", "lambda": 0.32},
        "omega": {"mode": "critical"},
        "reparam": {"kind": "analytic", "mean": 1.0053, "amplitude": 0.35,
                    "period": 6.0},
        "grid": {"nu": 128, "nv": 128},
    }
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == [
        "orthogonality", "conformality_u", "conformality_v", "normal_unit",
        "normal_tangency", "u_closure", "metric_identity", "pde_gauss",
        "pde_codazzi_u", "pde_codazzi_v", "pde_harmonic",
        "pde_cauchy_riemann", "pde_riccati", "pde_hw_quartic",
        "pde_order_deficit", "fv_vs_fd", "reparam_admissible",
        "root_consistency", "root_branch_smoothness", "inversion_involution",
        "inversion_involution_rel", "inversion_omega_sphere",
        "inversion_omega_parallel", "dual_dual_u", "dual_dual_v",
        "dual_double_dual", "dual_loop_integral", "planarity",
        "joachimsthal", "normals_rank_defect"]


def test_verify_rectangular_fails_closure(tmp_path):
    cfg = _base_cfg()
    cfg["lattice"] = {"kind": "rectangular", "lambda": 0.9}
    cfg["omega"] = {"mode": "explicit", "value": 0.3}
    # keep the w-range clear of the rectangular W1 pole at w = pi * lambda
    cfg["reparam"] = {"kind": "analytic", "mean": 1.4,
                      "amplitude": 0.3, "period": 6.0}
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 3
    report = json.loads(out.read_text())
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert "u_closure" in failed


def test_verify_explicit_omega_has_second_order_pde_residuals(tmp_path):
    """The README config at 64 x 64 with omega explicit at 1.0: the curves
    do not close, but the closed-form Lame constant puts no floor under
    pde_hw_quartic, so its residuals converge at second order and
    pde_order_deficit passes."""
    cfg = {
        "lattice": {"kind": "rhombic", "lambda": 0.32},
        "omega": {"mode": "explicit", "value": 1.0},
        "reparam": {"kind": "analytic", "mean": 1.0053, "amplitude": 0.35,
                    "period": 6.0},
        "grid": {"nu": 64, "nv": 64},
    }
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 3
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["u_closure"]["pass"]
    assert checks["pde_order_deficit"]["pass"], checks["pde_order_deficit"]


def test_verify_limit_surface(tmp_path):
    cfg = {
        "lattice": {"kind": "rhombic", "lambda": 0.354729892522},
        "omega": {"mode": "limit"},
        "reparam": {"kind": "analytic", "mean": 1.114548653,
                    "amplitude": 0.3, "period": 5.0},
        "grid": {"nu": 24, "nv": 24},
    }
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    names = {c["name"] for c in report["checks"]}
    assert "conformality" in names
    defect = next(c for c in report["checks"]
                  if c["name"] == "normals_rank_defect")
    assert defect["value"] == 0.0  # rank-2 plane-normal family


@pytest.mark.parametrize("command", ["verify", "surface"])
def test_limit_mode_off_lambda0_exits_2(tmp_path, monkeypatch, capsys,
                                        command):
    """The README config with omega.mode limit (lambda 0.32): off lambda0
    the limit curves do not close (u_closure read 0.744), so the family is
    refused with exit 2, naming lambda0, before any file is written."""
    cfg = dict(_README_CFG, omega={"mode": "limit"})
    out = tmp_path / "out"
    code = _exit_code(monkeypatch, command, _write(tmp_path, cfg),
                      *(["--out", str(out / "report.json")]
                        if command == "verify" else ["--out-dir", str(out)]))
    assert code == 2
    assert "lambda0 = 0.354729892522" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reparam", [
    {"kind": "constant", "mean": 1.0053, "amplitude": 0.35, "period": 6.0},
    {"kind": "analytic", "mean": 1.0053, "amplitude": 0, "period": 6.0}],
    ids=["constant", "amplitude-0"])
def test_verify_constant_w_passes(tmp_path, reparam):
    """w' = 0 makes congruent u-curves: their plane normals have rank 2,
    and pde_codazzi_v vanishes identically, so it counts towards no order.
    Both configs verified with exit 3 (rank defect -1, order deficit 2.08
    and 1.69)."""
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, dict(_README_CFG, reparam=reparam)),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c["value"]
              for c in json.loads(out.read_text())["checks"]}
    assert checks["normals_rank_defect"] == 0
    assert checks["pde_order_deficit"] == 0


def test_verify_inadmissible_spec_exits_2(tmp_path, monkeypatch, capsys):
    """|w'| = 0.8 * 2 pi / 3 > 1: the frame integration refuses the spec
    (instead of clipping 1 - w'^2 at 0) and the command exits 2."""
    cfg = _base_cfg()
    cfg["reparam"] = {"kind": "analytic", "mean": 1.0053096491487339,
                      "amplitude": 0.8, "period": 3.0}
    monkeypatch.setattr(sys, "argv", ["isoforge", "verify",
                                      _write(tmp_path, cfg)])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    assert "|w'| reaches" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.0, -0.3, 2.0])
def test_verify_explicit_omega_outside_range_exits_2(tmp_path, monkeypatch,
                                                    capsys, value):
    """An explicit omega must lie in (0, pi/2): outside it the command exits
    2 before building anything (a NaN is a config error, exit 1)."""
    cfg = _base_cfg(omega={"mode": "explicit", "value": value})
    monkeypatch.setattr(sys, "argv", ["isoforge", "verify",
                                      _write(tmp_path, cfg)])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    assert "explicit omega must lie in (0, pi/2)" in capsys.readouterr().err


def test_verify_inadmissible_limit_spec_exits_2(tmp_path, monkeypatch, capsys):
    """The limit surface validates its spec too: |w'| > 1 exits 2."""
    cfg = {
        "lattice": {"kind": "rhombic", "lambda": 0.354729892522},
        "omega": {"mode": "limit"},
        "reparam": {"kind": "analytic", "mean": 1.114548653,
                    "amplitude": 0.8, "period": 3.0},
        "grid": {"nu": 8, "nv": 8},
    }
    monkeypatch.setattr(sys, "argv", ["isoforge", "verify",
                                      _write(tmp_path, cfg)])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    assert "|w'| reaches" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "surface"])
def test_tol_override_keeps_structural_bounds(tmp_path, monkeypatch, command):
    """--tol replaces the residual tolerances only: a rank-2 set of plane
    normals (rank 3 expected) still fails normals_rank_defect under
    --tol 2, which let it pass by |-1| < 2."""
    planarity = cli_mod.surface_mod.planarity_certificate
    monkeypatch.setattr(cli_mod.surface_mod, "planarity_certificate",
                        lambda s: {**planarity(s), "normals_rank_defect": -1})
    out = tmp_path / "report.json"
    argv = ([command, _write(tmp_path, _base_cfg()), "--tol", "2"]
            + (["--out", str(out)] if command == "verify"
               else ["--out-dir", str(tmp_path)]))
    result = CliRunner().invoke(cli, argv)
    assert result.exit_code == 3, result.output
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["normals_rank_defect"]["tolerance"] == 0.5
    assert not checks["normals_rank_defect"]["pass"]
    assert checks["reparam_admissible"]["tolerance"] == 0.5
    assert checks["planarity"]["tolerance"] == 2.0
    assert [c["name"] for c in checks.values() if not c["pass"]] == [
        "normals_rank_defect"]


@pytest.mark.parametrize("command", ["verify", "surface", "spherical",
                                     "curves", "close-torus"])
@pytest.mark.parametrize("name, message", [
    ("pde_guass", "tolerances.pde_guass: no check has that name (the "
                  "closest is 'pde_gauss')"),
    ("xyz", "tolerances.xyz: no check has that name (the closest is "),
    ("normals_rank_defect", "tolerances.normals_rank_defect: the bound of "
                            "normals_rank_defect is fixed at 0.5")],
    ids=["typo", "unlike-any", "structural"])
def test_tolerance_names_must_be_residual_checks(tmp_path, monkeypatch,
                                                 capsys, sph_cfg_grid32,
                                                 command, name, message):
    """tolerances.pde_guass: 1e-30 was ignored and verify exited 0, and a
    structural check's tolerance was ignored too; each reporting command
    now exits 1 on them before building anything.  curves and close-torus,
    which report no checks, accepted them; they exit 1 too, so one
    tolerances block is valid or not for every command."""
    monkeypatch.setattr(cli_mod, "_family", None)  # never reached
    cfg = dict(sph_cfg_grid32, tolerances={"planarity": 1e-3, name: 1e-30})
    code = _exit_code(monkeypatch, command, _write(tmp_path, cfg),
                      *(["--out-dir", str(tmp_path)] * (command == "surface")))
    assert code == 1
    assert message in capsys.readouterr().err


def test_readme_check_table_matches_verify():
    """README's table of checks lists verify's table: every name in order,
    its default tolerances and whether tolerances.<name> and --tol move
    them."""
    import re
    from isoforge import verify
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [line.split(" | ") for line in readme.read_text().splitlines()
            if line.startswith("| `")]
    assert [row[0][3:-1] for row in rows] == list(verify.CHECKS)
    for name, tol, _, _, by_config, by_tol in rows:
        check = verify.CHECKS[name[3:-1]]
        assert [float(x) for x in re.findall(r"\d[\d.e-]*", tol)] == [
            t for t in (check.tol, check.spherical_tol) if t is not None]
        assert by_config == ("no" if check.kind == "structural" else "yes")
        assert by_tol == ("yes |" if check.kind == "residual" else "no |")


def test_tol_leaves_convergence_checks(tmp_path):
    """--tol 1e-3 on the README config: root_branch_smoothness (0.158, a
    ratio with bound 1.5) failed against 1e-3 and verify exited 3; the two
    convergence checks now keep their default bounds and every residual
    passes at 1e-3."""
    cfg = _base_cfg(grid={"nu": 128, "nv": 128})
    cfg["reparam"]["mean"] = 1.0053
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, ["verify", _write(tmp_path, cfg),
                                      "--out", str(out), "--tol", "1e-3"])
    assert result.exit_code == 0, result.output
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["root_branch_smoothness"]["tolerance"] == 1.5
    assert checks["pde_order_deficit"]["tolerance"] == 0.05
    assert checks["root_branch_smoothness"]["value"] > 1e-3
    assert checks["planarity"]["tolerance"] == 1e-3


def test_tolerance_of_a_check_that_does_not_run_is_accepted(tmp_path):
    """One tolerances block serves every command: a spherical check's
    tolerance on an analytic config is accepted and changes nothing."""
    plain, extra = tmp_path / "plain.json", tmp_path / "extra.json"
    for cfg, out in ((_base_cfg(), plain), (_base_cfg(tolerances={
            "sphere_fit": 1e-3, "axis_unit": 1e-3}), extra)):
        result = CliRunner().invoke(cli, ["verify", _write(tmp_path, cfg),
                                          "--out", str(out)])
        assert result.exit_code == 0, result.output
    assert (json.loads(plain.read_text())["checks"]
            == json.loads(extra.read_text())["checks"])


def test_surface_and_verify_tol_report_the_same_config(tmp_path):
    """surface --tol reported "tolerances": {} and the hash of that config;
    it now reports the config as loaded, like verify --tol."""
    cfg = _base_cfg(tolerances={"planarity": 1e-12, "pde_gauss": 1e-3})
    path = _write(tmp_path, cfg)
    for argv in (["verify", path, "--out", str(tmp_path / "verify.json")],
                 ["surface", path, "--out-dir", str(tmp_path)]):
        # every residual passes at 1e-3, and --tol leaves the convergence
        # checks (root_branch_smoothness 0.158 against 1.5) as they are
        result = CliRunner().invoke(cli, argv + ["--tol", "1e-3"])
        assert result.exit_code == 0, result.output
    got = json.loads((tmp_path / "verify.json").read_text())
    want = json.loads((tmp_path / "report.json").read_text())
    assert got["config"] == want["config"] == cfg
    assert got["config_hash"] == want["config_hash"]
    assert got["checks"] == want["checks"]


@pytest.mark.parametrize("key", ["mesh", "report"])
@pytest.mark.parametrize("name", ["ABS", "sub/out.txt", "..", ""])
def test_outputs_must_be_file_names(tmp_path, key, name):
    """An output name that is a path made os.path.join drop --out-dir, so
    the file was written outside it; such names now exit 1."""
    outside = tmp_path / "outside.txt"
    if name == "ABS":
        name = str(outside)
    cfg = _base_cfg(outputs={key: name}, grid={"nu": 8, "nv": 8})
    out_dir = tmp_path / "out"
    (out_dir / "sub").mkdir(parents=True)
    result = CliRunner().invoke(cli, [
        "surface", _write(tmp_path, cfg), "--out-dir", str(out_dir)])
    assert result.exit_code == 1, result.output
    assert f"outputs.{key} must be a file name" in result.output
    assert not outside.exists()
    assert not list(out_dir.rglob("*.*"))


@pytest.mark.parametrize("mode", ["critical", "explicit"])
def test_verify_integrates_the_frame_once(tmp_path, frame_calls, crit032,
                                          mode):
    """A verify integrates the frame once, for the surface, at step_tol
    1e-12 on the display grid: the battery reads the PDE stencil, the
    fv_vs_fd probes and, at the critical omega, the dual loop's quadrature
    nodes from that solve."""
    omega = ({"mode": "critical"} if mode == "critical" else
             {"mode": "explicit", "value": crit032.omega})
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, _base_cfg(omega=omega)), "--out",
        str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert [c["step_tol"] for c in frame_calls] == [1e-12]
    assert len(frame_calls[0]["v_nodes"]) == 24 + 1


def test_verify_runs_each_display_size_grid_as_one_block(tmp_path,
                                                         theta_arrays):
    """A README verify at 128 x 128 makes one theta_tensor call per block
    of fields_at, and each display-size grid is one block: the display
    grid with its u = omega row (129 x 129) fetches A, G and D (rows
    theta1, theta1, theta2) for all five fields, and the involution's
    2 omega - u grid A and G for its points."""
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, _README_CFG), "--out",
        str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    wide = [call for call in theta_arrays.calls if call[1] >= 128]
    assert wide == [((1, 1, 2), 129, (3, 129)), ((1, 1), 128, (2, 129))]


def test_limit_verify_solves_no_ode_and_reads_one_tensor(tmp_path,
                                                         theta_arrays,
                                                         monkeypatch):
    """A limit verify at the README's size (lambda0, 128 x 128) makes no
    Magnus solve (its frame is two quadratures), and its display grid's
    gamma_hat and gamma_hat_u come from one theta_tensor call on A, A' and
    A'' (three theta1 rows)."""
    solves = []
    monkeypatch.setattr(frame, "_magnus_solve", lambda *a: solves.append(a))
    cfg = {**_README_CFG, "omega": {"mode": "limit"},
           "lattice": {"kind": "rhombic", "lambda": 0.354729892522}}
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, cfg), "--out",
        str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert solves == []
    wide = [call for call in theta_arrays.calls if call[1] == 128]
    assert wide == [((1, 1, 1), 128, (3, 129))]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the command sets glibc's malloc thresholds; "
                           "other C libraries keep their own policy")
def test_second_verify_reuses_freed_memory(tmp_path):
    """A command keeps freed grid arrays in glibc's heap: a second README
    verify in one process faults in fewer than 100 pages.  With glibc's
    default thresholds it faulted about 1,500 (6 MB of arrays mapped or
    trimmed away and faulted in again every op)."""
    import resource
    argv = ["verify", _write(tmp_path, _README_CFG), "--out",
            str(tmp_path / "report.json")]
    faults = []
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        cli.main(argv, standalone_mode=False)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert faults[1] < 100, faults


# ---------------------------------------------------------------------------
# spherical command and the wrong-branch negative control


def test_spherical_sample_past_the_pole_exits_2(tmp_path, monkeypatch, capsys,
                                               sph_cfg_grid32):
    """Sphere samples shifted by pi/2 lie past the theta2 pole at pi/2: the
    phi-system refuses them with PoleProximity and the command exits 2."""
    from isoforge import spherical
    phis = spherical.integrate_phis
    monkeypatch.setattr(spherical, "integrate_phis", lambda sph, crit, us: (
        phis(sph, crit, np.asarray(us) + np.pi / 2)))
    monkeypatch.setattr(sys, "argv", ["isoforge", "spherical",
                                      _write(tmp_path, sph_cfg_grid32)])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    assert exc.value.code == 2
    assert "pole-free interval" in capsys.readouterr().err


def test_spherical_command(tmp_path, sph_cfg_grid32):
    out = tmp_path / "report.json"
    result = CliRunner().invoke(cli, [
        "spherical", _write(tmp_path, sph_cfg_grid32), "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["passed"]
    assert {c["name"] for c in report["checks"]} == {
        "sphere_fit", "collinearity", "cone_point_planes",
        "axis_unit", "axis_norm_sq", "axis_vs_monodromy"}
    assert abs(report["period_V"]) > 0


def test_spherical_and_verify_report_the_same_sphere_fit(tmp_path,
                                                       sph_cfg_grid32):
    """Both commands take sphere_fit's value and tolerance from verify."""
    path = _write(tmp_path, dict(sph_cfg_grid32,
                                 tolerances={"sphere_fit": 2e-6}))
    fits = []
    for command in ("spherical", "verify"):
        out = tmp_path / f"{command}.json"
        result = CliRunner().invoke(cli, [command, path, "--out", str(out)])
        assert result.exit_code in (0, 3), result.output
        fits += [c for c in json.loads(out.read_text())["checks"]
                 if c["name"] == "sphere_fit"]
    assert len(fits) == 2 and fits[0] == fits[1]
    assert fits[0]["tolerance"] == 2e-6


def test_spherical_command_integrates_the_frame_once(tmp_path, frame_calls,
                                                     sph_cfg_grid32,
                                                     monkeypatch):
    """The monodromy comes from the surface's frame at v = V, and the phi
    rows are closed forms: a spherical command makes one frame
    integration, at step_tol 1e-12, and no other Magnus solve."""
    solves = []
    solve = frame._magnus_solve
    monkeypatch.setattr(frame, "_magnus_solve",
                        lambda *a: solves.append(a) or solve(*a))
    result = CliRunner().invoke(cli, [
        "spherical", _write(tmp_path, sph_cfg_grid32),
        "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert [c["step_tol"] for c in frame_calls] == [1e-12]
    assert len(solves) == 1


def test_spherical_command_evaluates_the_fields_once(tmp_path, sph_cfg_grid32,
                                                    monkeypatch):
    """The axis reads the u = omega row that the surface's one fields_at
    call evaluates with the display grid: a spherical command makes
    exactly one fields_at call."""
    calls = []
    fields_at = surface.fields_at
    monkeypatch.setattr(surface, "fields_at",
                        lambda *a, **k: calls.append(1) or fields_at(*a, **k))
    result = CliRunner().invoke(cli, [
        "spherical", _write(tmp_path, sph_cfg_grid32),
        "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


@pytest.fixture(scope="session")
def sph_cfg_grid32():
    return {
        "lattice": {"kind": "rhombic", "lambda": 0.32},
        "omega": {"mode": "critical"},
        "reparam": {"kind": "spherical", "delta": 0.5,
                    "s1": [0.45, 0.25], "s2": [0.45, -0.25]},
        "grid": {"nu": 32, "nv": 32},
    }


def _battery(surf, fam):
    """verify's checks of surf by name, at the default tolerances."""
    from isoforge import verify
    cfg = {"reparam": {"kind": surf.recipe.spec.kind}}
    return {c["name"]: c for c in verify.entries(verify.battery(surf, fam),
                                                  cfg)}


def test_battery_catches_wrong_root_branch(crit032):
    """Taking |.| of a sign-changing square root leaves every local identity
    intact but kinks the branch; the smoothness check must catch it.  (Only
    real-pair specs have a sign-changing root: for a conjugate pair
    (s-s1)(s-s2) = |s-s1|^2 never crosses zero.)"""
    from isoforge import reparam, surface

    spec = reparam.build_spherical(
        reparam.SphericalSpec(delta=0.4, s1=0.5, s2=0.9), crit032)
    recipe = surface.SurfaceRecipe(fam=crit032, spec=spec, nu=32, nv=32)
    good = _battery(surface.build(recipe), crit032)
    assert good["root_branch_smoothness"]["pass"]
    assert good["root_consistency"]["pass"]

    def kinked(v):
        w, wp, root = spec.planes(v)
        return w, wp, np.abs(np.asarray(root))

    bad_spec = dataclasses.replace(spec, planes=kinked)
    bad = _battery(surface.build(dataclasses.replace(recipe, spec=bad_spec)),
                   crit032)
    assert not bad["root_branch_smoothness"]["pass"]
    # fv against finite differences alone does NOT discriminate: the
    # immersion is consistent with either branch pointwise
    assert bad["fv_vs_fd"]["pass"]


def test_battery_catches_wprime_sign_error(crit032):
    """A spec whose w' has the wrong sign builds a surface whose closed-form
    fv disagrees with the points' finite differences: the battery fails."""
    from isoforge import reparam, surface

    spec = reparam.analytic(1.0053, 0.35, 6.0)

    def flipped(v):
        w, wp, root = spec.planes(v)
        return w, -wp, root

    bad = _battery(surface.build(surface.SurfaceRecipe(
        fam=crit032, spec=dataclasses.replace(spec, planes=flipped),
        nu=32, nv=32)), crit032)
    assert not bad["fv_vs_fd"]["pass"]
    assert not bad["pde_codazzi_v"]["pass"]


def test_battery_passes_on_conjugate_pair_spherical(sph_surf, crit032):
    checks = _battery(sph_surf, crit032)
    assert all(c["pass"] for c in checks.values()), [
        n for n, c in checks.items() if not c["pass"]]
    assert "sphere_fit" in checks and "sphere_angle" in checks


# the README example's config
_README_CFG = {
    "lattice": {"kind": "rhombic", "lambda": 0.32},
    "omega": {"mode": "critical"},
    "reparam": {"kind": "analytic", "mean": 1.0053, "amplitude": 0.35,
                "period": 6.0},
    "grid": {"nu": 128, "nv": 128},
}


@pytest.mark.parametrize("config", ["readme", "spherical"])
def test_battery_is_the_union_of_the_certificates(tmp_path, monkeypatch,
                                                  config, sph_cfg_grid32):
    """Every certificate returns its values under CHECKS names, and
    verify.battery is, value for value, the union of their dicts (build's
    diagnostics, the finest PDE level) with the seven
    values the battery computes itself."""
    from isoforge import reparam, surface, verify
    cfg = _README_CFG if config == "readme" else sph_cfg_grid32
    _, fam, surf = cli_mod._build(_write(tmp_path, cfg))
    returned = {}
    for mod, name in ((surface, "pde_battery"),
                      (surface, "inversion_symmetry"),
                      (surface, "dual_symmetry"),
                      (surface, "planarity_certificate"),
                      (reparam, "sphericality_certificate")):
        def recorded(*args, _f=getattr(mod, name), _n=name, **kwargs):
            returned[_n] = _f(*args, **kwargs)
            return returned[_n]
        monkeypatch.setattr(mod, name, recorded)
    values = verify.battery(surf, fam)

    diagnostics = surf.diagnostics
    levels = returned.pop("pde_battery")
    assert len(levels) == 2
    assert sorted(returned) == sorted(
        ["inversion_symmetry", "dual_symmetry", "planarity_certificate"]
        + (["sphericality_certificate"] if config == "spherical" else []))
    for cert in (diagnostics, *levels, *returned.values()):
        assert set(cert) <= set(verify.CHECKS), cert
    union = {}
    for cert in (diagnostics, levels[0], *returned.values()):
        union.update(cert)
    assert {name: values[name] for name in union} == union
    assert set(values) - set(union) == {
        "u_closure", "metric_identity", "pde_order_deficit", "fv_vs_fd",
        "reparam_admissible", "root_consistency", "root_branch_smoothness"}


@pytest.mark.parametrize("mode", ["critical", "explicit"])
def test_verify_samples_the_spec_for_admissibility_once(tmp_path,
                                                        monkeypatch, mode):
    """The frame solve's admissibility check and the battery's
    reparam.validate(..., n=4001, coarse=True) read one sampling of the
    spec: a README verify makes one 4,001-point spec.planes call."""
    from isoforge import reparam
    sizes, analytic = [], reparam.analytic

    def spied(*args):
        spec = analytic(*args)

        def planes(v, _planes=spec.planes):
            sizes.append(np.size(v))
            return _planes(v)
        return dataclasses.replace(spec, planes=planes)
    monkeypatch.setattr(reparam, "analytic", spied)
    omega = {"mode": "critical"} if mode == "critical" else {
        "mode": "explicit", "value": 0.3917291215675814}
    result = CliRunner().invoke(cli, [
        "verify", _write(tmp_path, {**_README_CFG, "omega": omega}),
        "--out", str(tmp_path / "report.json")])
    assert result.exit_code == 0, result.output
    assert sizes.count(4001) == 1


@pytest.mark.parametrize("command", ["verify", "curves"])
def test_rhombic_lambda_lost_in_round_off_exits_2(tmp_path, monkeypatch,
                                                  capsys, command):
    """verify and curves on rhombic lambda 0.005 (explicit omega 0.3) exit
    2 with an error that names lambda, where they claimed a W1 pole and a
    zero of theta1((z + omega)/2)."""
    cfg = {**_README_CFG, "omega": {"mode": "explicit", "value": 0.3},
           "lattice": {"kind": "rhombic", "lambda": 0.005},
           "reparam": {"kind": "analytic", "mean": 0.0157,
                       "amplitude": 0.005, "period": 6.0}}
    out = ["--out", str(tmp_path / "r.json")] if command == "verify" else [
        "--out-dir", str(tmp_path)]
    assert _exit_code(monkeypatch, command, _write(tmp_path, cfg), *out) == 2
    err = capsys.readouterr().err
    assert "rhombic lambda = 0.005:" in err and "pole" not in err
    assert "zero" not in err


def test_frame_lost_in_round_off_exits_2(tmp_path, monkeypatch, capsys):
    """On rhombic lambda 0.01 (explicit omega 0.3) the theta values carry a
    relative round-off of 5.3e-8, far above the frame's step_tol: verify
    exits 2 naming lambda, the round-off and step_tol, where it reported
    16366 half steps pending, and curves, which solves no frame, still
    exits 0."""
    path = _write(tmp_path, {
        "lattice": {"kind": "rhombic", "lambda": 0.01},
        "omega": {"mode": "explicit", "value": 0.3},
        "reparam": {"kind": "analytic", "mean": 0.0314, "amplitude": 0.01,
                    "period": 5.0},
        "grid": {"nu": 32, "nv": 32}})
    assert _exit_code(monkeypatch, "verify", path,
                      "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == (
        "error: rhombic lambda = 0.01: its theta values carry a relative "
        "round-off of 5.3e-08 (at theta2(0)), above step_tol = 1e-12\n")
    result = CliRunner().invoke(cli, ["curves", path, "--out-dir",
                                      str(tmp_path)])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("mode", ["critical", "explicit"])
def test_battery_reads_the_frame_once_and_small_grids_in_one_block(
        tmp_path, monkeypatch, crit032, mode):
    """A README battery reads the frame off the surface's solve in one
    FrameTrajectory.at call, and evaluates fields in two fields_at calls
    on a critical family (the 2 omega - u grid and the union of the small
    grids) and one on an explicit one (fv_vs_fd's grid); the PDE stencil
    assembles its fields from its own forms_at call.  The critical union
    is 26 x 27 points: fv_vs_fd's 8 u (every 16th of 128), the loop's
    16 u, u_1 and u_2 by fv_vs_fd's 9 v, v_1, v_2 and the loop's 16 v.
    The u = omega row comes with the display grid."""
    from isoforge import surface, verify
    omega = ({"mode": "critical"} if mode == "critical" else
             {"mode": "explicit", "value": crit032.omega})
    _, fam, surf = cli_mod._build(_write(tmp_path, {**_README_CFG,
                                                    "omega": omega}))
    calls = {"at": [], "fields_at": []}
    for owner, name in ((frame.FrameTrajectory, "at"),
                        (surface, "fields_at")):
        def counted(*a, _f=getattr(owner, name), _n=name, **k):
            calls[_n].append(a)
            return _f(*a, **k)
        monkeypatch.setattr(owner, name, counted)
    values = verify.battery(surf, fam)
    assert len(calls["at"]) == 1
    shapes = [(len(a[2]), len(a[3])) for a in calls["fields_at"]]
    if mode == "critical":
        assert sorted(shapes) == sorted([(128, 129), (26, 27)])
    else:
        assert shapes == [(8, 9)]
    assert values["fv_vs_fd"] < verify.CHECKS["fv_vs_fd"].tol
