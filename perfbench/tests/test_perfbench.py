"""Tests of the benchmark itself: generators, op parity and span arithmetic."""

import dataclasses
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from isoforge import cli  # noqa: E402


def _draw(name, seed, n_cycles=2):
    return list(itertools.islice(workloads.cycles(name, seed), n_cycles))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    a, b = _draw(name, 11), _draw(name, 11)
    assert a == b
    assert a != _draw(name, 12)
    assert a[0] != a[1]  # successive cycles draw fresh configs
    for op in itertools.chain.from_iterable(a):
        cli.validate_config(json.loads(json.dumps(op.cfg)))


def test_in_process_op_matches_subprocess_cli(tmp_path):
    op = _draw("verify", 5, 1)[0][0]
    op = dataclasses.replace(op, cfg={**op.cfg, "grid": {"nu": 24, "nv": 24}})
    runner = run.Runner("verify", cli, workloads, out_root=tmp_path / "a")
    cfg_path = runner.write_config(op)
    _, ok, _ = runner.run(op, cfg_path)
    check = workloads.WORKLOADS["verify"].check
    in_process, _ = check(op, runner.out_dir, "")

    out_dir = tmp_path / "b"
    out_dir.mkdir()
    argv = workloads.argv("verify", op, cfg_path, str(out_dir))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "isoforge.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == (0 if ok else 3), proc.stderr
    in_subprocess, _ = check(op, str(out_dir), proc.stdout)
    assert in_process == in_subprocess


def test_close_torus_op_passes_its_check(tmp_path):
    # the workload runs by hand only, so its check is exercised here
    op = _draw("close-torus", 5, 1)[0][0]
    op = dataclasses.replace(op, cfg={**op.cfg, "grid": {"nu": 16, "nv": 16}})
    runner = run.Runner("close-torus", cli, workloads, out_root=tmp_path)
    _, ok, _ = runner.run(op, runner.write_config(op))
    assert ok, runner.failures


def _span(sid, parent, name, t0, t1):
    return (sid, parent, name, t0, t1, 0, None)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span(1, None, tracer.ROOT, 0, 100),
        _span(2, 1, "surface.build", 10, 40),
        _span(3, 2, "theta.theta_grid", 20, 30),
        _span(4, 1, "theta.theta_grid", 35, 60),   # overlaps 2 (a thread)
        _span(5, 1, "cli.write_obj", 90, 120),     # clipped to the parent
        _span(6, 5, "cli.write_obj", 95, 99),      # nested same name
    ]
    own = tracer.self_times(spans)
    assert own == {1: 100 - 60, 2: 30 - 10, 3: 10, 4: 25, 5: 30 - 4, 6: 4}

    m = tracer.layer_metrics(spans, {"theta.theta_grid", "cli.write_obj"})
    assert m["theta.theta_grid.calls"] == 2
    assert m["theta.theta_grid.s"] == pytest.approx(35e-9)
    assert m["theta.theta_grid.self_s"] == pytest.approx(35e-9)
    assert m["cli.write_obj.s"] == pytest.approx(30e-9)  # union, not 34
    assert m["surface.self_s"] == pytest.approx(20e-9)
    assert m["bench.unattributed_frac"] == pytest.approx(0.4)
    assert m["bench.layer_self_frac"] == pytest.approx(
        (20 + 10 + 25 + 26 + 4) / 100)


def test_tracer_patches_every_binding_and_restores_it():
    from isoforge import elliptic, reparam, surface, theta

    original = theta.theta_grid
    tr = tracer.Tracer()
    tr.install()
    try:
        for mod in (theta, elliptic, reparam):
            assert mod.theta_grid.__wrapped__ is original
        assert surface.coeffs.__wrapped__ is elliptic.coeffs.__wrapped__
        with tr.op_span(0):
            theta.theta_grid(1, [0.1, 0.2, 0.3], theta.rhombic(0.32))
    finally:
        tr.uninstall()
    assert theta.theta_grid is original and reparam.theta_grid is original
    m = tracer.layer_metrics(tr.spans, tr.names)
    assert m["theta.theta_grid.calls"] == 1
    assert m["theta.theta_grid.points"] == 3
