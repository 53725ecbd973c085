"""Self-test of the benchmark's output checks on small panels.

    python3 perfbench/selftest.py

For a small panel of each workload's kind, every command must pass its
check on the package as it is; the check must reject the output once one
index is perturbed by one part in a million (for simulate: output that
differs from the first repeat, or a reported failed replication); and a
command that exits non-zero must count as failed.  Exits 0 when all of
this holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import checks
import run as bench
from gen import Shape

SMALL = {
    "wide_n": Shape("time", 400, 8, 0.3, True),
    "many_units": Shape("space", 30, 60, 0.3, True),
    "replicate": Shape("time", 40, 6, 0.3, False),
}


def perturbed(text, position):
    """The report with one index (or, for None, every non-base index) off by 1e-6."""
    doc = json.loads(text)
    rows = doc["series"][1:] if position is None else [doc["series"][position]]
    for row in rows:
        row["index"] *= 1.0 + 1e-6
    return json.dumps(doc)


def spawn_cli(run, argv, name):
    code = bench.spawn(["-c", bench.CLI_ENTRY, *argv], os.devnull,
                       os.path.join(run.dir, f"err_{name}.log"), 60.0)[3]
    return code


def selftest(name):
    """Yield (description, held) for each expectation on one workload."""
    run = bench.Run(name, seed=7, seconds=1)
    run.workload = dataclasses.replace(run.workload, shape=SMALL[name])
    run.dir = os.path.join(bench.WORK, "selftest", name)
    bench.setup(run)

    texts = {}
    for cmd in run.workload.commands:
        out = run.out_path(cmd)
        code = spawn_cli(run, run.argv(cmd, out), cmd.name)
        texts[cmd.name] = bench.read_text(out) if code == 0 else None
        before = run.failed
        run.record(cmd, code, texts[cmd.name], texts.get("mpl"))
        yield f"{cmd.name} passes on the package as it is", run.failed == before

    for cmd in run.workload.commands:
        text = texts[cmd.name]
        if text is None:
            continue
        if cmd.name == "simulate":
            ops = bench.SIM_REPS * bench.SIM_ESTIMATORS
            changed = text.replace('"replications": ', '"replications": 1', 1)
            yield ("simulate rejects output that differs between repeats",
                   checks.check_simulate(changed, text, ops)[0] == ops)
            doc = json.loads(text)
            doc["meta"]["failures"]["mpl"] = 2
            yield ("simulate counts reported failed replications",
                   checks.check_simulate(json.dumps(doc), None, ops)[0] == 2)
            continue
        for position in (1, -1, None):
            before = run.failed
            run.record(cmd, 0, perturbed(text, position), texts.get("mpl"))
            which = "every non-base index" if position is None else f"index[{position}]"
            yield f"{cmd.name} rejects {which} off by 1e-6 relative", run.failed == before + 1

    cmd = run.workload.commands[0]
    argv = run.argv(cmd, run.out_path(cmd))
    argv[argv.index("--input") + 1] = os.path.join(run.dir, "missing.csv")
    code = spawn_cli(run, argv, "missing")
    before = run.failed
    run.record(cmd, code, None, None)
    yield f"{cmd.name} exiting with code {code} counts as failed", code != 0 and run.failed > before


def main():
    if not os.path.isfile(os.path.join(bench.SRC, "mplindex", "cli.py")):
        sys.stderr.write(f"no package to test: {bench.SRC}/mplindex/cli.py is missing\n")
        return 2
    ok = True
    for name in SMALL:
        for description, held in selftest(name):
            print(f"{'ok  ' if held else 'FAIL'} {name}: {description}")
            ok = ok and held
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
