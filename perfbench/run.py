"""Benchmark of the isoforge CLI pipelines, run in process.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Each op is one full CLI command on a seeded config, called through
`isoforge.cli.cli.main`; it starts at the config file and ends with its
outputs written, and is then checked.  One untimed warm-up op precedes the
timed ops, which run in whole cycles (see workloads.py) until another cycle
would end past --seconds.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 the timed ops are run untraced for half
of --seconds and then again under the span tracer, which gives the
per-layer metrics (per op).

The host's speed swings by tens of percent within seconds, so the run is
pinned to one CPU and every time is scaled to a reference speed: while an
op (or a set-up) runs, a timer interrupts it every PROBE_PERIOD_S to time a
short fixed kernel, and the op's time, less the kernel's, is multiplied by
KERNEL_REF_S / (mean kernel time during the op).  The raw times and the
factors are written next to the result.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
SETUP_REPEATS = 5
NPROC = len(os.sched_getaffinity(0))
# one CPU for everything: the probe kernel must run where the ops do
CPU = min(os.sched_getaffinity(0))
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "ISOFORGE_THREADS": "1"}
PROBE_PERIOD_S = 0.03
KERNEL_REF_S = 0.0008  # kernel time that defines the reference speed

# a fresh interpreter: import the CLI and solve the first config's family
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import isoforge.cli
from isoforge import elliptic, theta
cfg = json.load(open(sys.argv[2]))
lat = theta.rhombic(cfg["lattice"]["lambda"])
if cfg["omega"]["mode"] == "limit":
    print(repr(elliptic.solve_lambda0()))
else:
    print(repr(elliptic.solve_critical_omega(lat).omega))
"""


def kernel():
    """A fixed mix of pure-Python arithmetic and small-array numpy calls.

    A host slowdown stretches the ops of all three workloads about as much
    as it stretches this mix, more closely than either half alone.
    """
    import numpy as np  # main() imports it first, after the thread pins

    s = 0
    for i in range(5000):
        s += i * i
    z = np.linspace(0.0, 1.0, 18) * (1 + 0.5j)
    for _ in range(30):
        (np.exp(1j * z) * np.cos(z) + z * z).sum()


class SpeedProbe:
    """Times `kernel` every PROBE_PERIOD_S while the block runs.

    `seconds` is the block's wall time less the kernel's, `factor` scales
    it to the reference speed.  The kernel is timed in thread CPU time:
    the block's other threads, or a child process, share the CPU with it.
    """

    def _sample(self, *_):
        t0 = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()  # at least one sample, however short the block
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        self.seconds = wall - sum(self.samples[1:])
        self.factor = KERNEL_REF_S / statistics.mean(self.samples)


def measure_setup(cfg_path, expected):
    """Fresh set-ups: their raw seconds, speed factors and check."""
    times, factors, ok = [], [], True
    for _ in range(SETUP_REPEATS):
        # the probe runs in this process while the child runs on the CPU
        with SpeedProbe() as probe:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC), cfg_path],
                capture_output=True, text=True, timeout=120)
        times.append(probe.seconds)
        factors.append(probe.factor)
        ok &= proc.returncode == 0 and proc.stdout.strip() == expected
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
    return times, factors, ok


def digest(out_dir, stdout, stderr):
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        h.update(Path(out_dir, name).read_bytes())
    h.update(stdout.encode())
    h.update(stderr.encode())
    return h.hexdigest()


class Runner:
    """Runs ops of one workload in process and checks their outputs."""

    def __init__(self, workload, cli, workloads, out_root=OUT):
        self.workload = workload
        self.cli = cli
        self.wl = workloads
        self.out_dir = str(Path(out_root, "op"))
        self.cfg_dir = Path(out_root, "configs")
        self.cfg_dir.mkdir(parents=True, exist_ok=True)
        self.n_cfg = 0
        self.failures = []
        self.timings = []  # (raw seconds, speed factor) of every op

    def write_config(self, op):
        path = self.cfg_dir / f"{self.workload}-{self.n_cfg}.json"
        self.n_cfg += 1
        path.write_text(json.dumps(op.cfg))
        return str(path)

    def run(self, op, cfg_path, span=None):
        """One op: (seconds at the reference speed, passed, output digest).

        `span` is a context manager entered around the command alone.  The
        raw seconds and speed factor are appended to `self.timings`.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)
        argv = self.wl.argv(self.workload, op, cfg_path, self.out_dir)
        out, err = io.StringIO(), io.StringIO()
        code, error = 0, None
        try:
            with SpeedProbe() as probe, span or contextlib.nullcontext(), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                self.cli.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that raises is a failed op
            code, error = 1, traceback.format_exc()
        self.timings.append((probe.seconds, probe.factor))
        values, ok = {}, False
        try:  # a report written before a non-zero exit still has values
            values, ok = self.wl.WORKLOADS[self.workload].check(
                op, self.out_dir, out.getvalue())
        except (OSError, ValueError, KeyError, AttributeError):
            error = error or traceback.format_exc()
        ok = ok and code == 0
        if not ok:
            self.failures.append({"config": op.cfg, "argv": argv,
                                  "exit_code": code, "checks": values,
                                  "error": error,
                                  "stderr": err.getvalue()[-2000:]})
        return (probe.seconds * probe.factor, ok,
                digest(self.out_dir, out.getvalue(), err.getvalue()))

    def run_ops(self, pairs, span_of=None):
        """Run (op, config path) pairs; `span_of(i)` wraps the i-th."""
        return [self.run(op, cfg_path, span_of and span_of(i))
                for i, (op, cfg_path) in enumerate(pairs)]

    def timed_pass(self, source, budget):
        """Whole cycles until another would end past `budget` seconds."""
        results, ran = [], []
        t0 = time.perf_counter()
        for cycle in source:
            t_cycle = time.perf_counter()
            results += self.run_ops(cycle)
            ran += cycle
            now = time.perf_counter()
            if now + (now - t_cycle) > t0 + budget:
                break
        return results, ran


def environment(np, scipy):
    return {"nproc": NPROC, "cpu": CPU, "pins": PINS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "isoforge" / "cli.py").is_file():
        print(f"isoforge sources not found under {SRC}", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {CPU})
    os.environ.update(PINS)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import isoforge.cli as cli
    from isoforge import elliptic, theta
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(OUT, ignore_errors=True)
    runner = Runner(args.workload, cli, workloads)

    def with_paths(stream):
        for cycle in stream:
            yield [(op, runner.write_config(op)) for op in cycle]

    source = with_paths(workloads.cycles(args.workload, args.seed))
    warm_op, warm_cfg = next(source)[0]
    correct = True
    raw = {}

    if args.trace == 0:
        cfg = warm_op.cfg
        if cfg["omega"]["mode"] == "limit":
            expected = repr(elliptic.solve_lambda0())
        else:
            expected = repr(elliptic.solve_critical_omega(
                theta.rhombic(cfg["lattice"]["lambda"])).omega)
        setup_raw, setup_factors, correct = measure_setup(warm_cfg, expected)
        raw.update(setup_seconds=setup_raw, setup_speed_factors=setup_factors)

    _, warm_ok, _ = runner.run(warm_op, warm_cfg)
    budget = args.seconds if args.trace == 0 else args.seconds / 2
    runner.timings.clear()
    results, ran = runner.timed_pass(source, budget)
    times = [dt for dt, _, _ in results]
    n_ok = sum(ok for _, ok, _ in results)
    attempted = 1 + len(results)
    failed = (not warm_ok) + len(results) - n_ok
    raw.update(op_seconds=[t for t, _ in runner.timings],
               speed_factors=[f for _, f in runner.timings])

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(
                t * f for t, f in zip(setup_raw, setup_factors)),
            "op_p50_s": statistics.median(times),
            "ops_per_s": n_ok / sum(times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tr = tracer.Tracer()
        tr.install()
        runner.timings.clear()
        try:
            traced = runner.run_ops(ran, tr.op_span)
        finally:
            tr.uninstall()
        same = [a[2] == b[2] for a, b in zip(results, traced)]
        if not all(same):
            print(f"traced outputs differ from untraced ones in ops "
                  f"{[i for i, s in enumerate(same) if not s]}",
                  file=sys.stderr)
            correct = False
        attempted += len(traced)
        failed += sum(not ok for _, ok, _ in traced)
        traced_time = sum(dt for dt, _, _ in traced)
        # span times are raw: scale them by the pass's mean speed factor
        scale = traced_time / sum(t for t, _ in runner.timings)
        values = tracer.layer_metrics(tr.spans, tr.names,
                                      seconds_scale=scale)
        values["bench.trace_overhead_frac"] = traced_time / sum(times)
        raw.update(traced_op_seconds=[t for t, _ in runner.timings],
                   traced_speed_factors=[f for _, f in runner.timings])
        tr.dump(str(OUT / f"spans-{args.workload}.jsonl"))

    metrics = {}
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if m["name"] not in values:
            raise KeyError(f"benchmark computes no metric {m['name']!r}")
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}

    correct = correct and failed == 0
    env = environment(np, scipy)
    (OUT / f"result-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": env, "raw": raw, "metrics": values,
         "failures": runner.failures}, indent=1, default=str))
    for f in runner.failures:
        print("failed op: " + json.dumps(f, default=str), file=sys.stderr)
    print(json.dumps({"environment": env, "raw": raw}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
