"""Benchmark of the mplindex CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload wide_n --seed 1 --seconds 38 --trace 0

Run from anywhere; the package is taken from ``src/`` beside this
directory, and generated inputs and outputs go to ``.perfbench_work/``.

``--trace 0`` times the workload's CLI commands as child processes, one at
a time (a closed loop with one client), repeating the command list until
``--seconds`` is used up, and prints the end-to-end metrics.  ``--trace 1``
runs the same commands in this process, alternating an untraced pass with a
traced one, and prints the per-layer metrics.  Every command's output is
checked (see checks.py).  Human-readable lines come first; the last line
of stdout is the JSON result.  See README.md for the workloads and for which
metric each layer should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: on a few shared vCPUs a second thread adds barrier waits
# that move wall and CPU time from run to run, while the commands here are
# interpreter-bound and gain nothing from it.  Set before numpy loads so
# the traced in-process run obeys it too.
BLAS_THREADS = 1
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from gen import Shape, generate, warm  # noqa: E402

# the package has no __main__.py, so the CLI is entered through run_cli
CLI_ENTRY = "import sys; from mplindex.cli import run_cli; sys.exit(run_cli(sys.argv[1:]))"
SIM_REPS = 40
SIM_ESTIMATORS = 2
LAYER_REPS = 10          # replications per single-estimator simulate call
SETUP_REPEATS = 3
SETUP_MIN_S = 3.0        # small set-ups repeat until this much time is spent
SETUP_MAX_REPEATS = 60
STARTUP_REPEATS = 3
CHILD_LIMIT_S = 170.0    # everything ends within this since start


@dataclass(frozen=True)
class Command:
    name: str            # reported as <name>_s, e.g. mpl_s
    role: str            # the end-to-end metric it feeds: estimate or multi_fit
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    shape: Shape
    commands: tuple[Command, ...]


WORKLOADS = {
    "wide_n": Workload(Shape("time", 10000, 60, 0.3, True), (
        Command("mpl", "estimate", ("mpl",)),
        Command("update_period", "multi_fit", ("update-period", "--new", "{new}")),
    )),
    "many_units": Workload(Shape("space", 150, 1200, 0.3, True), (
        Command("mpl", "estimate", ("mpl", "--mode", "space", "--variance", "corollary3")),
        Command("update_unit", "multi_fit", ("update-unit", "--mode", "space", "--new", "{new}")),
    )),
    "replicate": Workload(Shape("time", 300, 36, 0.3, False), (
        Command("simulate", "multi_fit", (
            "simulate", "--scheme", "additive_on_base", "--estimators", "mpl,tpd",
            "--noise-sd-max", "0.05", "--reps", str(SIM_REPS), "--seed", "{seed}")),
        Command("tpd", "estimate", ("tpd", "--weighted")),
    )),
}


class Run:
    """One benchmark run: its inputs, deadlines and operation tally."""

    def __init__(self, name, seed, seconds):
        self.name = name
        self.seed = seed % 2**32  # numpy seeds must be non-negative
        self.seconds = seconds
        self.workload = WORKLOADS[name]
        self.dir = os.path.join(WORK, name)
        self.started = time.perf_counter()
        self.inputs = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_simulate = None

    def argv(self, cmd, out):
        subst = {"{new}": self.inputs.new_path, "{seed}": str(self.seed)}
        return ([subst.get(a, a) for a in cmd.args]
                + ["--input", self.inputs.panel_path, "--output", out])

    def out_path(self, cmd):
        return os.path.join(self.dir, f"out_{cmd.name}.json")

    def record(self, cmd, code, text, mpl_text):
        """Check one command's output and add it to the operation tally."""
        ops = SIM_REPS * SIM_ESTIMATORS if cmd.name == "simulate" else 1
        if code != 0:
            failed, reason = ops, f"exit code {code}"
        elif cmd.name == "simulate":
            failed, reason = checks.check_simulate(text, self.first_simulate, ops)
            if self.first_simulate is None and reason is None:
                self.first_simulate = text
        else:
            reason = CHECKS[cmd.name](self.inputs, text, mpl_text)
            failed = ops if reason else 0
        self.attempted += ops
        self.failed += failed
        if reason:
            self.problems.append(f"{cmd.name}: {reason}")

    def time_left(self):
        return CHILD_LIMIT_S - (time.perf_counter() - self.started)


CHECKS = {
    "mpl": lambda inputs, text, mpl_text: checks.check_mpl(inputs, text),
    "update_unit": lambda inputs, text, mpl_text: checks.check_mpl(inputs, text, extended=True),
    "update_period": checks.check_update_period,
    "tpd": lambda inputs, text, mpl_text: checks.check_tpd_weighted(inputs, text),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def spawn(argv, stdout_path, stderr_path, timeout):
    """Run one child to completion; (wall s, user+sys CPU s, max RSS MB, exit code).

    Wall time runs from spawn to exit.  Resource use comes from wait4 on this
    child alone, since RUSAGE_CHILDREN keeps a running maximum of RSS.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], child_env(),
                         file_actions=actions)
    killer = threading.Timer(max(timeout, 1.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            os.waitstatus_to_exitcode(status))


def setup(run):
    """Generate, write and warm the inputs several times; median seconds."""
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        inputs = generate(run.workload.shape, run.seed, run.dir)
        warm([p for p in (inputs.panel_path, inputs.new_path) if p])
        times.append(time.perf_counter() - start)
    run.inputs = inputs
    return statistics.median(times)


def startup_time(run):
    """Wall time of a child that only imports the CLI module."""
    log = os.path.join(run.dir, "startup.log")
    wall, _, _, code = spawn(["-c", "import mplindex.cli"], log, log, run.time_left())
    if code != 0:
        raise RuntimeError(f"importing mplindex.cli failed with exit code {code}")
    return wall


def measure_end_to_end(run):
    """Run the command list over and over for ``--seconds``.

    A command's gated time is its CPU time (user + sys from wait4), averaged
    over the run.  The commands are single-threaded and read their input
    from the page cache, so CPU time is the wall time less what the shared
    host takes: steal of 5-30 % of a vCPU in phases of tens of seconds, and
    stalls of several seconds, which CPU time does not see.  A mean over
    the whole run window blends the host's speed phases where a median
    would snap to one.  Wall times are kept in the record and printed.
    A command starts only if its mean wall time says it ends in the window.
    """
    wall = {c.name: [] for c in run.workload.commands}
    cpu = {c.name: [] for c in run.workload.commands}
    rss = []
    start = time.perf_counter()
    while True:
        mpl_text = None
        for cmd in run.workload.commands:
            # every command runs at least once, then only if it should end in time
            if wall[cmd.name] and (time.perf_counter() - start + statistics.fmean(wall[cmd.name])
                                   > run.seconds):
                break
            out = run.out_path(cmd)
            if os.path.exists(out):
                os.remove(out)
            wall_s, cpu_s, rss_mb, code = spawn(
                ["-c", CLI_ENTRY, *run.argv(cmd, out)], os.devnull,
                os.path.join(run.dir, f"err_{cmd.name}.log"), run.time_left())
            text = read_text(out) if code == 0 else None
            run.record(cmd, code, text, mpl_text)
            mpl_text = text if cmd.name == "mpl" else mpl_text
            wall[cmd.name].append(wall_s)
            cpu[cmd.name].append(cpu_s)
            rss.append(rss_mb)
        else:
            continue
        break
    metrics = {f"{c.role}_cpu_s": statistics.fmean(cpu[c.name]) for c in run.workload.commands}
    metrics["peak_rss_mb"] = max(rss)
    per_command = {}
    for name in wall:
        per_command[f"{name}_s"] = statistics.median(wall[name])
        per_command[f"{name}_cpu_s"] = statistics.fmean(cpu[name])
    return metrics, {"wall_samples": wall, "cpu_samples": cpu, "per_command": per_command}


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def in_process_pass(run, cli):
    """The workload's commands through run_cli in this process; wall seconds."""
    mpl_text = None
    start = time.perf_counter()
    for cmd in run.workload.commands:
        out = run.out_path(cmd)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run_cli(run.argv(cmd, out))
        text = read_text(out) if code == 0 else None
        run.record(cmd, code, text, mpl_text)
        mpl_text = text if cmd.name == "mpl" else mpl_text
    return time.perf_counter() - start


def per_rep_time(panel, estimator, seed):
    """Seconds per replication of simulate with one estimator."""
    from mplindex.simulate import SimulationConfig, simulate

    config = SimulationConfig(scheme="additive_on_base", replications=LAYER_REPS,
                              noise_sd_max=0.05, seed=seed, estimators=(estimator,))
    start = time.perf_counter()
    simulate(panel, config)
    return (time.perf_counter() - start) / LAYER_REPS


def measure_layers(run):
    sys.path.insert(0, SRC)
    import mplindex.cli as cli
    from mplindex.panel import build_reference_basket, load_panel

    import spans

    tracer = spans.Tracer()
    start = time.perf_counter()
    # the first in-process pass pays one-off costs that would read as
    # tracing overhead; it is checked but not timed
    in_process_pass(run, cli)
    simulates = any(c.name == "simulate" for c in run.workload.commands)
    if simulates:
        panel, _ = build_reference_basket(load_panel(run.inputs.panel_path))
    rows, lengths = [], []
    while True:
        iteration_start = time.perf_counter()
        untraced = in_process_pass(run, cli)
        tracer.trace_id = f"{run.name}-{run.seed}-{len(rows)}"
        first_span = len(tracer.spans)
        tracer.install()
        try:
            traced = in_process_pass(run, cli)
        finally:
            tracer.remove()
        total, self_time = spans.totals(tracer.spans[first_span:])
        row = {f"{name}_s": total.get(name, 0.0) for name in (
            "panel.load", "panel.basket", "algebra.gram", "estimator.fit",
            "estimator.series", "updating.unit", "updating.period", "dummy.fit",
            "dummy.fit_weighted", "dummy.components", "cli.emit")}
        row.update({f"{layer}.self_s": t for layer, t in self_time.items()})
        row["trace.overhead_s"] = traced - untraced
        row["trace.spans"] = len(tracer.spans) - first_span
        if simulates:
            row["simulate.mpl_rep_s"] = per_rep_time(panel, "mpl", run.seed)
            row["simulate.tpd_rep_s"] = per_rep_time(panel, "tpd", run.seed)
        else:
            row["simulate.mpl_rep_s"] = row["simulate.tpd_rep_s"] = 0.0
        row["cli.startup_s"] = statistics.median(
            startup_time(run) for _ in range(STARTUP_REPEATS))
        rows.append(row)
        lengths.append(time.perf_counter() - iteration_start)
        if time.perf_counter() - start + statistics.median(lengths) > run.seconds:
            break

    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics.update(computed_counts(run.inputs))
    metrics["panel.basket_pairs"] = tracer.counts.get("panel.basket_pairs", 0)
    metrics["simulate.failed_reps"] = tracer.counts.get("simulate.failed_reps", 0)
    with open(os.path.join(run.dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return metrics, {"iterations": len(rows), "spans_file": "spans.json"}


def computed_counts(inputs):
    """Counts derived from the panel's shape, labelled as computed."""
    n, t = len(inputs.items), len(inputs.units)
    n_obs = int((inputs.values > 0).sum())
    return {
        "panel.rows": inputs.rows,
        "algebra.schur_dim": t - 1,
        "algebra.schur_flops": n * (t - 1) ** 2 + (t - 1) ** 3 / 3,
        "estimator.lam11_bytes": (t - 1) ** 2 * 8,
        "dummy.design_bytes": n_obs * (n + t - 1) * 8,
    }


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": NPROC,
    }


def metric_units(kind):
    """Name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mplindex", "cli.py")):
        sys.stderr.write(f"no package to measure: {SRC}/mplindex/cli.py is missing\n")
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    setup_s = setup(run)
    startup_time(run)  # compiles the package's bytecode before anything is timed
    if args.trace:
        metrics, detail = measure_layers(run)
    else:
        metrics, detail = measure_end_to_end(run)
        metrics["setup_s"] = setup_s
        detail["counts"] = computed_counts(run.inputs)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    env = environment()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    with open(os.path.join(run.dir, f"result_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": run.name, "seed": run.seed, "environment": env,
                   "problems": run.problems, "detail": detail, **result}, fh, indent=1)

    print(f"workload {run.name}  seed {run.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in env.items()))
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, samples in detail.get("wall_samples", {}).items():
        per_command = detail["per_command"]
        print(f"{name + '_s':24s} {per_command[name + '_s']:.6g} s wall (median of {len(samples)})")
        print(f"{name + '_cpu_s':24s} {per_command[name + '_cpu_s']:.6g} s CPU (mean of {len(samples)})")
    for key, value in detail.get("counts", {}).items():
        print(f"{key:24s} {value:.6g} (count)")
    for key, unit in units.items():
        print(f"{key:24s} {metrics[key]:.6g} {unit}")
    print(f"{'fail_ratio':24s} {run.failed}/{run.attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
