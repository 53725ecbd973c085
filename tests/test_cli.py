import csv
import io
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import mplindex
from mplindex import Panel, estimate_deflators, to_index_series
from mplindex.cli import COROLLARY3_NOTE, build_parser, emit_report, run_cli
from mplindex.simulate import _ESTIMATOR_FUNCS
from helpers import emit_panel, one_unit, random_panel

HEADER = "item_id,unit_id,value,quantity\n"
F1_CSV = HEADER + "a,t1,1,1\nb,t1,2,1\na,t2,2,1\nb,t2,4,1\n"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = run_cli(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_mpl_json_output(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    code, out, err = run("mpl", "--input", src)
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"mode": "time", "base": "t1", "variance_method": "full_partition"}
    assert [row["unit"] for row in doc["series"]] == ["t1", "t2"]
    assert doc["series"][1]["index"] == 2.0
    assert doc["series"][0]["index"] == 1.0
    assert "pct_change" not in doc["series"][0]
    assert doc["series"][1]["pct_change"] == 100.0
    assert doc["series"][1]["se"] == 0.0
    assert doc["series"][1]["lo"] == 2.0 and doc["series"][1]["hi"] == 2.0


def test_mpl_csv_output_matches_json(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    code, csv_out, _ = run("mpl", "--input", src, "--format", "csv")
    assert code == 0
    lines = csv_out.strip().split("\n")
    assert lines[0] == "unit,index,se,lo,hi,pct_change"
    first = lines[1].split(",")
    assert first[0] == "t1" and first[1] == "1" and first[5] == ""
    second = lines[2].split(",")
    assert second[0] == "t2" and float(second[1]) == 2.0 and float(second[5]) == 100.0


@pytest.mark.parametrize("command", [["mpl"], ["tpd"], ["update-unit"], ["update-period"],
                                     ["simulate", "--reps", "3"]])
def test_csv_reports_quote_a_label_with_a_comma(run, tmp_path, command):
    src = write(tmp_path, "panel.csv", HEADER + 'a,"t,1",1,1\nb,"t,1",2,1\n'
                "a,t2,2,1\nb,t2,4.5,1\na,t3,3,1\nb,t3,5,2\n")
    if command[0].startswith("update"):
        command = [*command, "--new", write(tmp_path, "new.csv", HEADER + "a,t4,2,1\nb,t4,3,1\n")]
    code, out, _ = run(*command, "--input", src, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert {len(row) for row in rows} == {len(rows[0])}
    assert "t,1" in [row[rows[0].index("unit")] for row in rows]


def test_undefined_se_serialized_as_null_and_blank(run, tmp_path):
    src = write(tmp_path, "one.csv", HEADER + "a,t1,2,1\na,t2,3,1\n")
    code, out, _ = run("mpl", "--input", src)
    assert code == 0
    doc = json.loads(out)
    assert doc["series"][1]["se"] is None
    assert doc["series"][1]["lo"] is None
    code, out, _ = run("mpl", "--input", src, "--format", "csv")
    row = out.strip().split("\n")[2].split(",")
    assert row[2] == "" and row[3] == "" and row[4] == ""


def test_space_mode_omits_pct_change(run, tmp_path):
    csv_text = HEADER + "a,rome,1,1\nb,rome,2,1\na,milan,2,1\nb,milan,3,1\n"
    src = write(tmp_path, "areas.csv", csv_text)
    code, out, _ = run("mpl", "--input", src, "--mode", "space")
    doc = json.loads(out)
    assert doc["meta"]["mode"] == "space"
    assert all("pct_change" not in row for row in doc["series"])
    code, out, _ = run("mpl", "--input", src, "--mode", "space", "--format", "csv")
    for line in out.strip().split("\n")[1:]:
        assert line.endswith(",")


def test_base_flag_by_label(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    code, out, _ = run("mpl", "--input", src, "--base", "t2")
    doc = json.loads(out)
    assert doc["meta"]["base"] == "t2"
    assert doc["series"][1]["index"] == 1.0
    assert doc["series"][0]["index"] == pytest.approx(0.5, abs=1e-13)


def test_variance_flag_switches_reported_method(run, tmp_path):
    csv_text = HEADER + "a,t1,1,1\nb,t1,2,1\na,t2,3,1\nb,t2,4,1\n"
    src = write(tmp_path, "f3.csv", csv_text)
    code, full, _ = run("mpl", "--input", src)
    code, cor3, _ = run("mpl", "--input", src, "--variance", "corollary3")
    a = json.loads(full)
    b = json.loads(cor3)
    assert a["meta"]["variance_method"] == "full_partition"
    assert b["meta"]["variance_method"] == "corollary3"
    # same point estimate, different spread: 0.0064 vs 0.0032 on the deflator
    assert a["series"][1]["index"] == b["series"][1]["index"]
    assert a["series"][1]["se"] > b["series"][1]["se"]


def test_validate_reports_basket_decisions(run, tmp_path):
    csv_text = (HEADER + "a,t1,1,1\na,t2,1,1\nb,t1,1,1\nb,t2,2,1\n"
                + "c,t2,1,1\nc,t3,1,1\nd,t3,5,1\na,t3,1,1\n")
    src = write(tmp_path, "panel.csv", csv_text)
    code, out, _ = run("validate", "--input", src)
    assert code == 0
    assert out.startswith("ok: 3 items, 3 units")
    assert "dropped (fewer than two presences): d" in out
    assert "absent in base: c" in out
    assert "smallest pairwise overlap" in out


def test_validate_reports_brute_force_smallest_overlap(run, tmp_path):
    rng = np.random.default_rng(12)
    mask = rng.random((10, 8)) < 0.6
    mask[:, 0] = True
    mask[np.arange(8), np.arange(8)] = True
    lone = np.zeros((1, 8), dtype=bool)
    lone[0, 5] = True
    mask = np.vstack([mask, lone])
    values = np.where(mask, rng.uniform(0.5, 8.0, mask.shape), 0.0)
    items = tuple(f"i{k}" for k in range(mask.shape[0]))
    units = tuple(f"u{k}" for k in range(mask.shape[1]))
    panel = Panel(items, units, values, mask.astype(float))
    src = write(tmp_path, "panel.csv", emit_panel(panel))
    kept = mask[:-1]
    least = min(int((kept[:, a] & kept[:, b]).sum())
                for a in range(8) for b in range(a + 1, 8))
    code, out, _ = run("validate", "--input", src)
    assert code == 0
    assert "dropped (fewer than two presences): i10" in out
    assert f"smallest pairwise overlap between units: {least} items\n" in out


def test_duplicate_row_exits_1(run, tmp_path):
    src = write(tmp_path, "dup.csv", HEADER + "a,t1,1,1\na,t1,2,1\n")
    code, out, err = run("validate", "--input", src)
    assert code == 1
    assert err.startswith("validation error:")
    assert out == ""


def test_missing_input_file_exits_1(run, tmp_path):
    code, _, err = run("mpl", "--input", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "validation error" in err


def test_exactly_fitting_split_panel_exits_1(run, tmp_path):
    # each component fits exactly; mpl and tpd fail alike before any solve
    csv_text = HEADER + "a,u0,1,1\na,u1,1,1\nb,u2,1,1\nb,u3,1,1\n"
    src = write(tmp_path, "split.csv", csv_text)
    code, out, err = run("mpl", "--input", src)
    assert code == 1
    assert out == ""
    assert err.startswith("validation error: presence graph splits into 2 components")
    assert run("tpd", "--input", src) == (code, out, err)


def test_disconnected_tpd_exits_1(run, tmp_path):
    csv_text = HEADER + "a,u0,1,1\na,u1,1,1\nb,u2,1,1\nb,u3,1,1\n"
    src = write(tmp_path, "split.csv", csv_text)
    code, _, err = run("tpd", "--input", src)
    assert code == 1
    assert "components" in err


def test_disconnected_mpl_exits_1(run, tmp_path):
    csv_text = HEADER + ("a,u0,1,1\na,u1,2,1\nb,u2,1,1\nb,u3,2,1\n"
                         "c,u2,3,1\nc,u3,1,1\n")
    src = write(tmp_path, "split.csv", csv_text)
    code, out, err = run("mpl", "--input", src)
    assert code == 1
    assert out == ""
    assert "components" in err


def test_update_unit_on_split_panel_exits_1(run, tmp_path):
    csv_text = HEADER + ("a,t0,1,1\nb,t0,3,1\na,t1,2,1\nb,t1,5,1\n"
                         "c,t2,1,1\nd,t2,3,1\nc,t3,2,1\nd,t3,1,1\n")
    src = write(tmp_path, "split.csv", csv_text)
    new = write(tmp_path, "t4.csv", HEADER + "a,t4,2,1\nb,t4,4,1\n")
    code, out, err = run("update-unit", "--input", src, "--new", new)
    assert code == 1
    assert out == ""
    assert "components" in err


def run_python(*argv):
    """Run ``python *argv`` in a child process with the package importable.

    The child turns the same warnings into errors as the in-process tests.
    """
    package_root = os.path.dirname(os.path.dirname(mplindex.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def run_module(*argv):
    """Run ``python -m mplindex`` in a child process."""
    return run_python("-m", "mplindex", *argv)


# runs each (argv, expected exit code) pair in one fresh interpreter and
# fails on the first run after which a scipy module is loaded
NO_SCIPY_CHILD = """
import json, sys
from mplindex.cli import run_cli
for argv, expected in json.loads(sys.argv[1]):
    code = run_cli(argv)
    loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
    print(argv[0], code, loaded, file=sys.stderr)
    assert code == expected and not loaded, (argv, code, loaded)
"""


def test_cli_never_imports_scipy(tmp_path):
    ok = write(tmp_path, "ok.csv", F1_CSV + "a,t3,3,1\nb,t3,5,2\n")
    split = write(tmp_path, "split.csv", HEADER + (
        "a,u0,1,1\na,u1,2,1\nb,u2,1,1\nb,u3,2,1\nc,u2,3,1\nc,u3,1,1\n"))
    exact_split = write(tmp_path, "exact.csv",
                        HEADER + "a,u0,1,1\na,u1,1,1\nb,u2,1,1\nb,u3,1,1\n")
    # t2 and t3 reach the rest only through item a's 1e-17 share: the Schur
    # factorization itself fails and the failed column is searched for
    tiny_link = write(tmp_path, "tiny.csv", HEADER + (
        "a,t0,2,1\na,t1,3,1\na,t2,1e-17,1\nb,t0,1,1\nb,t1,4,1\n"
        "c,t2,1,1\nc,t3,2,1\nd,t2,3,1\nd,t3,5,1\n"))
    runs = [(["mpl", "--input", ok], 0),
            (["tpd", "--weighted", "--input", ok], 0),
            (["mpl", "--input", split], 1),
            (["tpd", "--input", split], 1),
            (["mpl", "--input", exact_split], 1),
            (["tpd", "--weighted", "--input", tiny_link], 2)]
    proc = run_python("-c", NO_SCIPY_CHILD, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr


def test_tiny_link_refused_through_the_item_side(run, tmp_path, solve_side):
    # the tiny_link panel above: the unit side's factorization fails and
    # names the failed column; tried first, the item side leaves it there
    tiny_link = write(tmp_path, "tiny.csv", HEADER + (
        "a,t0,2,1\na,t1,3,1\na,t2,1e-17,1\nb,t0,1,1\nb,t1,4,1\n"
        "c,t2,1,1\nc,t3,2,1\nd,t2,3,1\nd,t3,5,1\n"))
    expected = run("tpd", "--weighted", "--input", tiny_link)
    assert expected == (2, "", "estimation error: Schur complement is not positive "
                               "definite (dependent column: unit[t3])\n")
    verdicts = solve_side("items")
    assert run("tpd", "--weighted", "--input", tiny_link) == expected
    assert verdicts == [False]


def series_rows(text):
    return json.loads(text)["series"]


def assert_same_figures(rows, expected, scale=1.0):
    """Same units; index and se equal to scale times expected's, to 1e-12."""
    assert [row["unit"] for row in rows] == [row["unit"] for row in expected]
    for row, want in zip(rows, expected):
        for key in ("index", "se"):
            assert math.isfinite(row[key]), row
            assert row[key] == pytest.approx(scale * want[key], rel=1e-12, abs=0)


def test_huge_values_fit_as_unscaled(run, tmp_path):
    # values x 1e160: v * v used to overflow and exit 2; the index is
    # invariant to a global value scale
    def panel(scale):
        return write(tmp_path, f"panel{scale}.csv", HEADER + "".join(
            f"{item},t{t},{v}{scale},1\n"
            for item, row in (("a", (1, 2, 3)), ("b", (2, 3, 5))) for t, v in enumerate(row)))

    code, out, err = run("mpl", "--input", panel(""))
    assert (code, err) == (0, "")
    huge = panel("e160")
    proc = run_module("mpl", "--input", huge)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run("mpl", "--input", huge) == (0, proc.stdout, "")
    assert_same_figures(series_rows(proc.stdout), series_rows(out))


def test_new_period_at_1e160_scales_the_plain_figures(run, tmp_path):
    # its deflator variance would overflow; its log standard error does not
    # depend on the scale, so the new period's index and se are 1e160 times
    # those of the same period at x1, and the history is as it was
    src = write(tmp_path, "panel.csv", HEADER + "".join(
        f"{item},t{t},{v},1\n"
        for item, row in (("a", (1, 2, 3)), ("b", (2, 3, 5)), ("c", (3, 4, 2)))
        for t, v in enumerate(row)))

    def new(scale):
        return write(tmp_path, f"new{scale}.csv", HEADER + "".join(
            f"{item},t3,{v}{scale},{q}\n" for item, v, q in (("a", 2, 1), ("b", 3, 2), ("c", 5, 1))))

    code, out, err = run("update-period", "--input", src, "--new", new(""))
    assert (code, err) == (0, "")
    proc = run_module("update-period", "--input", src, "--new", new("e160"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert run("update-period", "--input", src, "--new", new("e160")) == (0, proc.stdout, "")
    plain, rows = series_rows(out), series_rows(proc.stdout)
    assert_same_figures(rows[:-1], plain[:-1])
    assert_same_figures(rows[-1:], plain[-1:], 1e160)


def test_python_dash_m_runs_the_cli(tmp_path):
    src = write(tmp_path, "f1.csv", F1_CSV)
    proc = run_module("mpl", "--input", src)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [r["unit"] for r in doc["series"]] == ["t1", "t2"]
    assert doc["series"][1]["index"] == pytest.approx(2.0, rel=1e-12)
    assert run_module("mpl").returncode == 3


def test_usage_errors_exit_3(run, tmp_path):
    assert run("mpl")[0] == 3
    assert run("frobnicate", "--input", "x.csv")[0] == 3
    src = write(tmp_path, "panel.csv", F1_CSV)
    assert run("mpl", "--input", src, "--variance", "bootstrap")[0] == 3
    code, _, err = run()
    assert code == 3
    assert "usage error" in err


F3_CSV = HEADER + "a,t1,1,1\nb,t1,2,1\na,t2,3,1\nb,t2,4,1\na,t3,2,1\nb,t3,5,1\n"

# (command, flags) pairs that must be refused with one line on stderr; add
# a case here for every flag that takes a number
BAD_FLAGS = [
    *((command, ["--k", k])
      for command in ("mpl", "tpd", "update-unit", "update-period", "simulate")
      for k in ("-3", "0", "nan", "inf")),
    ("simulate", ["--noise-sd-max", "nan"]),
    ("simulate", ["--noise-sd-max", "inf"]),
    ("simulate", ["--noise-mean", "inf"]),
    ("simulate", ["--noise-mean", "nan"]),
    ("simulate", ["--seed", "-1"]),
    ("mpl", ["--k", "three"]),
    # commands that print no bounds take no --k
    ("validate", ["--k", "3"]),
    ("bilateral", ["--k", "3"]),
    # validate writes plain text only
    ("validate", ["--format", "json"]),
]


def bad_flag_argv(tmp_path, command, flags):
    argv = [command, "--input", write(tmp_path, "f3.csv", F3_CSV)]
    if command.startswith("update-"):
        argv += ["--new", write(tmp_path, "new.csv", HEADER + "a,t4,3,1\nb,t4,3,2\n")]
    if command == "simulate":
        argv += ["--reps", "2", "--noise-sd-max", "0.1"]
    return argv + flags  # the last occurrence of a flag wins


@pytest.mark.parametrize("command, flags", BAD_FLAGS,
                         ids=[" ".join([c, *f]) for c, f in BAD_FLAGS])
def test_bad_flag_is_refused(run, tmp_path, command, flags):
    code, out, err = run(*bad_flag_argv(tmp_path, command, flags))
    assert out == ""
    if flags[1] == "three" or command in ("validate", "bilateral"):
        assert code == 3 and err.startswith("usage error:")
    else:
        assert code == 1
        assert err.startswith(f"validation error: {flags[0][2:].replace('-', '_')} must")


def test_bad_flags_never_print_a_traceback(tmp_path):
    argvs = [bad_flag_argv(tmp_path, command, flags) for command, flags in BAD_FLAGS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        procs = list(pool.map(lambda argv: run_module(*argv), argvs))
    for argv, proc in zip(argvs, procs):
        assert proc.returncode in (1, 3), (argv, proc.stderr)
        assert proc.stdout == "", argv
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n"), \
            (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, argv


def test_bilateral_command(run, tmp_path):
    csv_text = HEADER + ("a,t1,1,1\nb,t1,2,1\n"
                         "a,t2,4,2\nb,t2,3,1\n")
    src = write(tmp_path, "two.csv", csv_text)
    code, out, _ = run("bilateral", "--input", src)
    assert code == 0
    doc = json.loads(out)
    idx = doc["indexes"]
    assert set(idx) == {"laspeyres", "paasche", "marshall_edgeworth", "walsh", "mpl"}
    assert idx["laspeyres"] == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert idx["paasche"] == pytest.approx(7.0 / 4.0, rel=1e-15)
    code, out, _ = run("bilateral", "--input", src, "--format", "csv")
    assert out.splitlines()[0] == "kind,value"


def test_tpd_command_balanced_panel(run, tmp_path):
    csv_text = HEADER + "a,t1,1,1\nb,t1,3,1\na,t2,2,1\nb,t2,4,1\n"
    src = write(tmp_path, "panel.csv", csv_text)
    code, out, _ = run("tpd", "--input", src)
    assert code == 0
    doc = json.loads(out)
    rel = doc["series"][1]["index"]
    assert rel == pytest.approx(math.sqrt(2.0 * 4.0 / 3.0), rel=1e-12)
    code, out, _ = run("tpd", "--input", src, "--weighted")
    assert code == 0


def test_update_period_keeps_prior_rows_bit_identical(run, tmp_path):
    panel_csv = HEADER + "a,t1,10,1\n"
    panel_csv += "a,t2,20,1\n"
    src = write(tmp_path, "panel.csv", panel_csv)
    new = write(tmp_path, "new.csv", HEADER + "a,t3,20,1\n")
    code, before, _ = run("mpl", "--input", src)
    code, after, _ = run("update-period", "--input", src, "--new", new)
    assert code == 0
    a = json.loads(before)["series"]
    b = json.loads(after)["series"]
    assert [r["unit"] for r in b] == ["t1", "t2", "t3"]
    for old_row, new_row in zip(a, b):
        assert new_row["index"] == old_row["index"]  # bit-identical via 17g text
    assert b[2]["index"] == 2.0


def test_update_period_keeps_prior_standard_errors(run, tmp_path):
    panel = random_panel(np.random.default_rng(3), 6, 4)
    src = write(tmp_path, "panel.csv", emit_panel(panel))
    new = write(tmp_path, "new.csv", HEADER + "".join(
        f"{item},t9,{2.0 + k},{1.5 + k}\n" for k, item in enumerate(panel.items)))
    for variance in ("full", "corollary3"):
        _, before, _ = run("mpl", "--input", src, "--variance", variance)
        code, after, _ = run("update-period", "--input", src, "--new", new,
                             "--variance", variance)
        assert code == 0
        a = json.loads(before)["series"]
        b = json.loads(after)["series"]
        assert b[:-1] == a
        assert b[-1]["se"] > 0


def test_corollary3_bands_carry_a_note(run, tmp_path):
    # every command that publishes corollary3 bands notes once on stderr that
    # they are too narrow; the exit code and the report stay as they were
    panel = random_panel(np.random.default_rng(5), 6, 4)
    src = write(tmp_path, "panel.csv", emit_panel(panel))
    new = write(tmp_path, "new.csv", HEADER + "".join(
        f"{item},t9,{2.0 + k},{1.5 + k}\n" for k, item in enumerate(panel.items)))
    note = COROLLARY3_NOTE + "\n"
    for argv, noted in ((["mpl"], True), (["update-unit", "--new", new], True),
                        (["update-period", "--new", new], True),
                        (["simulate", "--estimators", "mpl,tpd", "--reps", "3"], True),
                        (["simulate", "--estimators", "tpd", "--reps", "3"], False)):
        full = run(*argv, "--input", src)
        cor3 = run(*argv, "--input", src, "--variance", "corollary3")
        assert (full[0], cor3[0]) == (0, 0), argv
        assert note not in full[2]
        assert cor3[2] == (note if noted else "") + full[2], argv
        if argv[0] == "simulate":  # the meta names the MPL fits' method, if any
            methods = [json.loads(out)["meta"]["variance_method"] for out in (full[1], cor3[1])]
            assert methods == (["full_partition", "corollary3"] if noted else [None, None])
        if argv == ["mpl"]:
            assert cor3[1] == emit_report(to_index_series(
                estimate_deflators(panel, "corollary3")), "json")
    assert "README" in note and "Variance conventions" in note


def test_update_unit_matches_fresh_run(run, tmp_path):
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 5, 3, missing=0.1)

    src = write(tmp_path, "panel.csv", emit_panel(panel))
    v = rng.uniform(0.5, 8.0, 5)
    q = rng.uniform(0.5, 8.0, 5)
    rows = "".join(f"i{k},new,{float(v[k])!r},{float(q[k])!r}\n" for k in range(5))
    new = write(tmp_path, "new.csv", HEADER + rows)
    code, updated, err = run("update-unit", "--input", src, "--new", new)
    assert code == 0
    assert "revised units:" in err
    combined = write(tmp_path, "combined.csv",
                     emit_panel(panel.with_unit(one_unit(panel, "new", v, q))))
    # pin the unit order: a long CSV is ordered by first appearance, which
    # differs between the two files when the base row of an item is absent
    code, fresh, _ = run("mpl", "--input", combined,
                         "--base", json.loads(updated)["meta"]["base"])
    a = {r["unit"]: r for r in json.loads(updated)["series"]}
    b = {r["unit"]: r for r in json.loads(fresh)["series"]}
    assert set(a) == set(b)
    for unit in a:
        assert a[unit]["index"] == pytest.approx(b[unit]["index"], rel=1e-9)
        assert a[unit]["se"] == pytest.approx(b[unit]["se"], rel=1e-7)


def test_new_unit_file_is_aligned_to_panel_items(run, tmp_path):
    panel = random_panel(np.random.default_rng(4), 6, 3)
    # a subset of the items, written in reverse panel order
    rows = "".join(f"i{k},new,{k + 1},{10 * (k + 1)}\n" for k in (5, 3, 0))
    new = write(tmp_path, "new.csv", HEADER + rows)
    extended = panel.with_unit(mplindex.load_panel(new))
    assert extended.items == panel.items
    assert extended.values[:, -1].tolist() == [1, 0, 0, 4, 0, 6]
    assert extended.quantities[:, -1].tolist() == [10, 0, 0, 40, 0, 60]

    src = write(tmp_path, "panel.csv", emit_panel(panel))
    bad = write(tmp_path, "bad.csv", HEADER + "i0,new,1,1\nzz,new,1,1\n")
    code, _, err = run("update-period", "--input", src, "--new", bad)
    assert code == 1
    assert err.endswith("validation error: new period contains items outside the "
                        "reference basket: zz\n")


@pytest.mark.parametrize("command", ["update-unit", "update-period"])
def test_new_unit_item_the_basket_dropped_is_named_as_such(run, tmp_path, command):
    # x is present in t1 only, so the input's basket drops it; zz is a label
    # the input never had
    src = write(tmp_path, "panel.csv", F1_CSV + "x,t1,1,1\n")
    with_x = write(tmp_path, "with_x.csv", HEADER + "a,t3,3,1\nx,t3,2,1\n")
    with_zz = write(tmp_path, "with_zz.csv", HEADER + "a,t3,3,1\nb,t3,5,1\nzz,t3,1,1\n")
    if command == "update-period":
        # the frozen history has no reference price for either
        for new, outside in ((with_x, "x"), (with_zz, "zz")):
            assert run(command, "--input", src, "--new", new) == (1, "", (
                "note: dropped items outside the reference basket: x\n"
                "validation error: new period contains items outside the reference "
                f"basket: {outside}\n"))
        return
    # the new unit is x's second presence, so the extended basket keeps x,
    # as mpl on the two files concatenated does
    both = write(tmp_path, "both.csv", F1_CSV + "x,t1,1,1\na,t3,3,1\nx,t3,2,1\n")
    code, out, err = run(command, "--input", src, "--new", with_x)
    assert (code, out, err) == (0, run("mpl", "--input", both)[1], "revised units: t2, t3\n")
    # zz is present once, in the new unit, so it is dropped with x
    code, out, err = run(command, "--input", src, "--new", with_zz)
    assert code == 0
    assert err.startswith("note: dropped items outside the reference basket: x, zz\n")


def update_unit_and_mpl(run, tmp_path, input_rows, new_rows, *flags):
    """(update-unit, mpl) results, each (exit code, report, stderr), for the
    input plus a new unit and for mpl on the two files concatenated."""
    src = write(tmp_path, "input.csv", HEADER + input_rows)
    new = write(tmp_path, "new.csv", HEADER + new_rows)
    both = write(tmp_path, "both.csv", HEADER + input_rows + new_rows)
    return (run("update-unit", "--input", src, "--new", new, *flags),
            run("mpl", "--input", both, *flags))


def assert_update_unit_is_mpl(update, mpl):
    """Same exit code, byte-identical report, and the same stderr apart from
    update-unit's one revised-units line."""
    assert update[:2] == mpl[:2]
    lines = update[2].splitlines(keepends=True)
    revised = [line for line in lines if line.startswith("revised units: ")]
    assert len(revised) == (update[0] == 0)
    assert [line for line in lines if line not in revised] == mpl[2].splitlines(keepends=True)


def test_update_unit_is_mpl_on_the_concatenated_input(run, tmp_path):
    rng = np.random.default_rng(24)

    def cell():
        return f"{float(rng.uniform(0.5, 8.0))!r},{float(rng.uniform(0.5, 8.0))!r}"

    for case in range(40):
        n, t = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0.0, 0.3)) if t > 1 else 0.0)
        input_rows = emit_panel(panel).split("\n", 1)[1]
        # a new unit with a fresh label holds some or all of the input's items
        held = [item for item in panel.items if rng.random() < 0.7] or [panel.items[0]]
        if case % 2:  # an item in one input unit only, which the input's basket drops
            input_rows += f"thin,{panel.units[int(rng.integers(t))]},{cell()}\n"
            if rng.random() < 0.5:
                held.append("thin")
        if case % 3 == 0:  # an item only the new unit holds
            held.insert(int(rng.integers(len(held) + 1)), f"only{case}")
        if case % 8 == 7:  # nothing but that: the basket leaves the new unit empty
            held = [f"only{case}"]
        new_rows = "".join(f"{item},new{case},{cell()}\n" for item in rng.permutation(held))
        flags = ("--base", panel.units[int(rng.integers(t))],
                 "--mode", ("time", "space")[case % 2],
                 "--variance", ("full", "corollary3")[case % 5 == 0])
        assert_update_unit_is_mpl(*update_unit_and_mpl(run, tmp_path, input_rows, new_rows, *flags))

    # a block of two items in two units of their own, which the new unit
    # does not reach, leaves the extended panel split: the fit fails after
    # the basket dropped the thin item, and both commands note it first
    for case in range(40, 48):
        n, t = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0.0, 0.3)) if t > 1 else 0.0)
        input_rows = emit_panel(panel).split("\n", 1)[1]
        input_rows += f"thin,{panel.units[int(rng.integers(t))]},{cell()}\n"
        input_rows += "".join(f"far{i},far{u},{cell()}\n" for i in range(2) for u in range(2))
        held = [item for item in panel.items if rng.random() < 0.7] or [panel.items[0]]
        if case % 2:  # an item only the new unit holds is dropped too
            held.insert(int(rng.integers(len(held) + 1)), f"only{case}")
        new_rows = "".join(f"{item},new{case},{cell()}\n" for item in rng.permutation(held))
        flags = ("--base", panel.units[int(rng.integers(t))],
                 "--mode", ("time", "space")[case % 2],
                 "--variance", ("full", "corollary3")[case % 3 == 0])
        update, mpl = update_unit_and_mpl(run, tmp_path, input_rows, new_rows, *flags)
        note, error = mpl[2].splitlines()
        prefix = "note: dropped items outside the reference basket: "
        assert note.startswith(prefix) and "thin" in note[len(prefix):].split(", ")
        assert (mpl[0], mpl[1]) == (1, "")
        assert error.startswith("validation error: presence graph splits")
        assert_update_unit_is_mpl(update, mpl)


def test_update_unit_notes_the_dropped_item_before_a_failed_fit(run, tmp_path):
    # x is in t0 only, so the extended basket drops it; t4 does not join
    # the block of c and d, so the fit then fails, as mpl's does
    update, mpl = update_unit_and_mpl(
        run, tmp_path,
        "a,t0,1,1\nb,t0,3,1\nx,t0,2,1\na,t1,2,1\nb,t1,5,1\n"
        "c,t2,1,1\nd,t2,3,1\nc,t3,2,1\nd,t3,1,1\n",
        "a,t4,2,1\nb,t4,4,1\n")
    assert update == mpl
    assert update[:2] == (1, "")
    assert update[2].startswith("note: dropped items outside the reference basket: x\n"
                                "validation error: presence graph splits into 2 components")


def test_update_unit_keeps_an_item_only_the_input_basket_dropped(run, tmp_path):
    # x is in t1 only, so mpl on the input alone drops it; the new unit t4
    # holds it too, so mpl on both files keeps it, and so does update-unit
    update, mpl = update_unit_and_mpl(
        run, tmp_path, "a,t1,1,1\nb,t1,2,1\nx,t1,3,1\na,t2,2,1\nb,t2,3,1\na,t3,3,1\nb,t3,5,2\n",
        "a,t4,4,1\nb,t4,5,1\nx,t4,6,2\n")
    assert update == (0, mpl[1], "revised units: t2, t3, t4\n")
    assert mpl[2] == ""


def test_update_unit_extends_a_one_unit_input(run, tmp_path):
    # the one-unit input cannot be fitted alone, so every unit is revised
    update, mpl = update_unit_and_mpl(run, tmp_path, "a,t1,1,1\nb,t1,2,1\n",
                                      "a,t2,2,1\nb,t2,4,1\n")
    assert update == (0, mpl[1], "revised units: t1, t2\n")
    assert json.loads(mpl[1])["series"][1]["index"] == 2.0


def test_simulate_deterministic_output_files(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    args = ("simulate", "--input", src, "--reps", "6", "--seed", "11",
            "--noise-mean", "0.05", "--noise-sd-max", "0.1",
            "--estimators", "mpl,tpd")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(*args, "--output", str(out1))[0] == 0
    assert run(*args, "--output", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["meta"]["replications"] == 6
    assert doc["meta"]["failures"] == {"mpl": 0, "tpd": 0}
    rows = doc["series"]
    assert {r["estimator"] for r in rows} == {"mpl", "tpd"}
    for r in rows:
        assert r["lo_model"] <= r["index"] <= r["hi_model"]


def test_simulate_csv_format(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    code, out, _ = run("simulate", "--input", src, "--reps", "3", "--seed", "1",
                       "--noise-sd-max", "0.05", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "estimator,unit,index,se,emp_sd,lo_emp,hi_emp,lo_model,hi_model"
    assert len(lines) == 1 + 2 * 2  # two estimators x two units


def test_output_write_failure_exits_2(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV)
    dest = tmp_path / "missing-dir" / "out.json"
    code, _, err = run("mpl", "--input", src, "--output", str(dest))
    assert code == 2
    assert "io error" in err


def test_seventeen_digit_round_trip():
    panel = random_panel(np.random.default_rng(31), 3, 3)
    series = to_index_series(estimate_deflators(panel))
    text = emit_report(series, "json", {"variance_method": "full_partition"})
    doc = json.loads(text)
    for t, row in enumerate(doc["series"]):
        assert row["index"] == float(series.index[t])
        if row["se"] is not None:
            assert row["se"] == float(series.se[t])


def test_dropped_item_note_goes_to_stderr(run, tmp_path):
    csv_text = F1_CSV + "c,t2,5,1\n"
    src = write(tmp_path, "panel.csv", csv_text)
    code, out, err = run("mpl", "--input", src)
    assert code == 0
    assert "dropped items outside the reference basket: c" in err
    doc = json.loads(out)
    assert [r["unit"] for r in doc["series"]] == ["t1", "t2"]


@pytest.mark.parametrize("scale", ["e-160", "e155"])
def test_extreme_scales_print_one_line(run, tmp_path, scale):
    # values and quantities at one extreme scale: one JSON line with the
    # unscaled figures, nothing on stderr
    def panel(scale):
        return write(tmp_path, f"extreme{scale}.csv", HEADER + "".join(
            f"{item},t{t},{v}{scale},{q}{scale}\n"
            for item, vs, qs in (("a", (1, 2, 3), (1, 2, 1)), ("b", (2, 3, 5), (1, 1, 2)))
            for t, (v, q) in enumerate(zip(vs, qs))))

    code, out, err = run("mpl", "--input", panel(""))
    assert (code, err) == (0, "")
    proc = run_module("mpl", "--input", panel(scale))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("\n") == 1
    assert_same_figures(series_rows(proc.stdout), series_rows(out))


def test_tiny_values_publish_the_unscaled_index(run, tmp_path):
    rng = np.random.default_rng(0)
    values, quantities = rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6))

    def panel(factor):
        return write(tmp_path, f"panel{factor}.csv", HEADER + "".join(
            f"i{i},t{t},{values[i, t] * factor:.17g},{quantities[i, t]:.17g}\n"
            for t in range(6) for i in range(30)))

    code, out, err = run("mpl", "--input", panel(1.0))
    assert (code, err) == (0, "")
    proc = run_module("mpl", "--input", panel(1e-160))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_same_figures(series_rows(proc.stdout), series_rows(out))


@pytest.mark.parametrize("weighted", [(), ("--weighted",)])
@pytest.mark.parametrize("value_scale, quantity_scale", [(1e300, 1e-300), (1e-300, 1e300)])
def test_tpd_at_opposite_extremes_publishes_the_unscaled_index(run, tmp_path, weighted,
                                                               value_scale, quantity_scale):
    # v / q leaves the float range (1e600 or 1e-600), but log v - log q
    # does not
    rng = np.random.default_rng(0)
    values, quantities = rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6))

    def panel(v_scale, q_scale):
        return write(tmp_path, f"panel{v_scale}_{q_scale}.csv", HEADER + "".join(
            f"i{i},t{t},{values[i, t] * v_scale:.17g},{quantities[i, t] * q_scale:.17g}\n"
            for t in range(6) for i in range(30)))

    code, out, err = run("tpd", *weighted, "--input", panel(1.0, 1.0))
    assert (code, err) == (0, "")
    code, extreme, err = run("tpd", *weighted, "--input", panel(value_scale, quantity_scale))
    assert (code, err) == (0, "")
    assert_same_figures(series_rows(extreme), series_rows(out))


# t2's prices are 1e310 and 3e310: its log effect is about 714, past the
# range of exp, and its deflator about 1e-310, below the normal floats
HUGE_T2 = "a,t1,1,1\nb,t1,2,1\na,t2,1e300,1e-10\nb,t2,3e300,1e-10\n"
# t2's deflator is about 7e307, a normal float, and its index a subnormal
SUBNORMAL_T2 = "a,t1,1e8,1\nb,t1,2e8,1\na,t2,1e-300,1\nb,t2,3e-300,1\na,t3,2e8,1\nb,t3,3e8,1\n"
T2_REFUSED = "estimation error: index of unit t2 is not a positive normal float: "


@pytest.mark.parametrize("rows, command, message", [
    (HUGE_T2, ["tpd"], T2_REFUSED + "inf\n"),
    (HUGE_T2, ["tpd", "--weighted"], T2_REFUSED + "inf\n"),
    (HUGE_T2, ["mpl"], None),
    (HUGE_T2, ["simulate", "--estimators", "tpd", "--reps", "2", "--noise-sd-max", "0.01"], None),
    (SUBNORMAL_T2, ["mpl"], T2_REFUSED + "1.477777777777778e-308\n"),
], ids=["tpd", "tpd_weighted", "mpl", "simulate_tpd", "mpl_subnormal"])
def test_index_outside_the_float_range_is_refused(run, tmp_path, rows, command, message):
    # a warning would raise here, as pytest turns it into an error
    src = write(tmp_path, "panel.csv", HEADER + rows)
    report = tmp_path / "report.csv"
    code, out, err = run(*command, "--input", src, "--format", "csv", "--output", str(report))
    assert (code, out) == (2, "")
    assert err.startswith("estimation error: ") and err.count("\n") == 1
    assert "Warning" not in err
    assert not report.exists()
    if message is not None:
        assert err == message


@pytest.mark.parametrize("command", ["update-unit", "update-period"])
def test_new_file_with_two_units_exits_1(run, tmp_path, command):
    src = write(tmp_path, "panel.csv", F1_CSV)
    new = write(tmp_path, "new.csv", HEADER + "a,t3,3,1\nb,t3,5,1\na,t4,4,1\nb,t4,6,1\n")
    report = tmp_path / "report.json"
    assert run(command, "--input", src, "--new", new, "--output", str(report)) == (
        1, "", f"validation error: expected exactly one unit in {new}, found 2\n")
    assert not report.exists()


def test_degenerate_new_period_exits_2(run, tmp_path):
    # each item's quantities are scaled by their largest, 1 in the new period,
    # so the history's 1e-200 square to 0 and the Schur complement with them:
    # an underflow, refused as every magnitude is
    src = write(tmp_path, "panel.csv", HEADER + "a,t1,1e-200,1e-200\nb,t1,2e-200,1e-200\n"
                "a,t2,2e-200,1e-200\nb,t2,3e-200,1e-200\n")
    new = write(tmp_path, "new.csv", HEADER + "a,t3,1,1\nb,t3,1,1\n")
    assert run("update-period", "--input", src, "--new", new) == (
        2, "", "estimation error: Gram blocks overflow: values or quantities are too large "
               "or too small in magnitude\n")


@pytest.mark.parametrize("encoding, line, reason", [
    ("utf-16", 1, "invalid start byte"),
    ("latin-1", 6, "invalid continuation byte"),
])
def test_undecodable_input_exits_1(tmp_path, encoding, line, reason):
    path = tmp_path / "panel.csv"
    path.write_bytes((F1_CSV + "café,t2,1,1\n").encode(encoding))
    proc = run_module("validate", "--input", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"validation error: line {line}: input is not utf-8 text ({reason})\n"


def test_oversized_field_exits_1(run, tmp_path):
    src = write(tmp_path, "panel.csv", F1_CSV + "c" * 200_000 + ",t2,1,1\n")
    code, out, err = run("mpl", "--input", src)
    assert code == 1
    assert out == ""
    assert err == "validation error: line 6: field larger than field limit (131072)\n"


def mutations(text, seed, count):
    """Seeded damaged copies of a CSV file, as bytes."""
    rng = np.random.default_rng(seed)
    data = text.encode()
    out = [text.encode("utf-16"), data[: len(data) // 2], data[:-1] + b"\0"]
    for k in range(count):
        pos = int(rng.integers(0, len(data)))
        kind = k % 4
        if kind == 0:  # flip one bit of one byte
            flipped = data[pos] ^ (1 << int(rng.integers(0, 8)))
            out.append(data[:pos] + bytes([flipped]) + data[pos + 1:])
        elif kind == 1:  # truncate
            out.append(data[:pos])
        else:  # insert a quote, NUL or CR
            out.append(data[:pos] + (b'"', b"\0", b"\r")[int(rng.integers(0, 3))]
                       + data[pos:])
    return out


def test_damaged_input_gets_a_documented_exit_code(run, tmp_path):
    panel = random_panel(np.random.default_rng(8), 5, 4, missing=0.2)
    path = tmp_path / "damaged.csv"
    seen = set()
    for data in mutations(emit_panel(panel), seed=19, count=33):
        path.write_bytes(data)
        for command in ("validate", "mpl"):
            code, _, err = run(command, "--input", str(path))
            assert code in (0, 1, 2, 3), (data, err)
            assert "Traceback" not in err
            seen.add(code)
    assert {0, 1} <= seen


def readme_text():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def readme_block(heading, fence):
    """The first fenced block opening with ``fence`` after ``heading`` in README.md."""
    text = readme_text()
    at = text.find(heading)
    assert at >= 0, f"README.md has no heading {heading!r}"
    opening = text.find(fence + "\n", at)
    assert opening >= 0, f"README.md has no {fence!r} block after {heading!r}"
    start = opening + len(fence) + 1
    end = text.find("```", start)
    assert end >= 0, f"README.md: the block after {heading!r} is not closed"
    return text[start:end]


def test_readme_input_and_json_examples_are_real(run, tmp_path):
    csv_text = readme_block("## Input format", "```")
    panel = mplindex.load_panel(io.StringIO(csv_text))
    assert panel.items == ("apples", "pears")
    assert panel.units == ("t1", "t2")
    src = write(tmp_path, "panel.csv", csv_text)
    code, out, _ = run("mpl", "--input", src)
    assert code == 0
    assert out == readme_block("JSON output for an index series", "```json")


def test_paper_header_and_update_flags_are_accepted(run, tmp_path):
    # the README's example, with the header in the other spelling its prose names
    readme_csv = readme_block("## Input format", "```")
    header, rows = readme_csv.split("\n", 1)
    assert header == "item_id,unit_id,value,quantity"
    spelling = re.search(r"The header may also be spelled\s+`([^`]+)`", readme_text())
    assert spelling, "README.md no longer names the other header spelling"
    csv_text = spelling.group(1) + "\n" + rows
    assert csv_text.startswith("item,unit,value,quantity\n")
    panel = mplindex.load_panel(io.StringIO(csv_text))
    assert panel.items == ("apples", "pears")
    assert panel.units == ("t1", "t2")
    src = write(tmp_path, "panel.csv", csv_text)
    new = write(tmp_path, "t3.csv", "item,unit,value,quantity\napples,t3,3.0,1.0\n"
                                    "pears,t3,5.0,1.0\n")
    for command, flag in (("update-unit", "--new-unit"), ("update-period", "--new-period")):
        code, out, err = run(command, "--input", src, flag, new)
        assert code == 0, err
        assert (code, out, err) == run(command, "--input", src, "--new", new)
        assert [row["unit"] for row in json.loads(out)["series"]] == ["t1", "t2", "t3"]


def test_readme_cli_examples_parse():
    # a flag removed or renamed in the CLI can no longer survive in the docs
    block = readme_block("## CLI", "```").replace("\\\n", " ")
    examples = [shlex.split(line)[3:] for line in block.splitlines()
                if line.startswith("python -m mplindex ")]
    assert {argv[0] for argv in examples} == {
        "validate", "mpl", "bilateral", "tpd", "update-unit", "update-period", "simulate"}
    parser = build_parser()
    for argv in examples:
        parser.parse_args(argv)  # raises on an unknown flag or a bad choice


# a spanning tree of cells: N + T - 1 = 4 present cells, no residual dof
TREE_CSV = HEADER + "a,t1,1,1\na,t2,2,1\nb,t2,3,1\nb,t3,4,1\n"


def test_mpl_without_residual_dof_prints_null_se(run, tmp_path):
    # the absent cells carry no residual information, so there is no band
    src = write(tmp_path, "tree.csv", TREE_CSV)
    code, out, err = run("mpl", "--input", src)
    assert (code, err) == (0, "")
    series = json.loads(out)["series"]
    assert [row["se"] for row in series] == [0.0, None, None]
    assert all(row["lo"] is None and row["hi"] is None for row in series[1:])


def test_simulate_mpl_without_residual_dof_prints_null_se(run, tmp_path):
    src = write(tmp_path, "tree.csv", TREE_CSV)
    code, out, err = run("simulate", "--input", src, "--estimators", "mpl",
                         "--reps", "5", "--noise-sd-max", "0.1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["meta"]["failures"] == {"mpl": 0}
    assert [row["se"] for row in doc["series"]] == [0.0, None, None]
    assert all(math.isfinite(row["index"]) for row in doc["series"])


def test_update_period_se_at_large_magnitudes(tmp_path):
    rows = (("a", (1, 2, 3)), ("b", (2, 3, 5)), ("c", (3, 4, 2)))
    text = HEADER + "".join(f"{item},t{t},{v},1\n" for item, row in rows
                            for t, v in enumerate(row))
    src = write(tmp_path, "panel.csv", text)
    new = write(tmp_path, "new.csv", HEADER + "a,t3,2e150,1\nb,t3,3e150,2\nc,t3,5e150,1\n")
    proc = run_module("update-period", "--input", src, "--new", new)
    assert (proc.returncode, proc.stderr) == (0, "")
    se = json.loads(proc.stdout)["series"][-1]["se"]
    # the new deflator is about 6e-151, so d**4 is below the float range
    panel = mplindex.load_panel(src)
    new_period = one_unit(panel, "t3", [2e150, 3e150, 5e150], [1.0, 2.0, 1.0])
    est = mplindex.update_multiperiod(estimate_deflators(panel), panel, new_period)
    reference = np.longdouble(est.se[-1]) / np.longdouble(est.deflators[-1])
    assert math.isfinite(se)
    assert abs(np.longdouble(se) - reference) <= 1e-15 * reference


@pytest.mark.parametrize("variance", ["full", "corollary3"])
def test_update_period_far_from_the_prior_scales_the_plain_figures(run, tmp_path, variance):
    rng = np.random.default_rng(3)
    panel = Panel([f"i{k}" for k in range(30)], [f"t{k}" for k in range(6)],
                  rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6)))
    new_values, new_quantities = rng.uniform(1, 10, 30), rng.uniform(1, 10, 30)
    src = write(tmp_path, "panel.csv", emit_panel(panel))
    report = tmp_path / "report.json"

    def update(scale):
        new = write(tmp_path, "new.csv", HEADER + "".join(
            f"{item},t9,{float(v * scale)!r},{float(q)!r}\n"
            for item, v, q in zip(panel.items, new_values, new_quantities)))
        report.unlink(missing_ok=True)
        code, out, err = run("update-period", "--input", src, "--new", new,
                             "--variance", variance, "--output", str(report))
        assert out == ""
        return code, err

    notes = COROLLARY3_NOTE + "\n" if variance == "corollary3" else ""
    assert update(1.0) == (0, notes)
    exact = json.loads(report.read_text())["series"][-1]
    # unscaled, v_new'v_new is subnormal at x1e-160, and the new deflator's
    # variance leaves the float range at x1e+-160
    for scale in (1e-150, 1e-160, 1e160, 1e-300, 1e300):
        assert update(scale) == (0, notes)
        row = json.loads(report.read_text())["series"][-1]
        assert row["index"] == pytest.approx(exact["index"] * scale, rel=1e-12)
        assert row["se"] == pytest.approx(exact["se"] * scale, rel=1e-12)


def test_notes_go_through_the_package_logger(run, tmp_path, monkeypatch):
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("mplindex")
    logger.addHandler(handler)
    try:
        # item c is present in one unit only, so the basket drops it
        src = write(tmp_path, "panel.csv", F1_CSV + "c,t1,1,1\n")
        new = write(tmp_path, "new.csv", HEADER + "a,t3,3,1\nb,t3,5,2\n")
        assert run("update-unit", "--input", src, "--new", new)[2] == (
            "note: dropped items outside the reference basket: c\nrevised units: t2, t3\n")
        calls = iter(range(10))
        real = _ESTIMATOR_FUNCS["mpl"]

        def flaky(panel, config):
            fit = real(panel, config)

            def fitter(values):
                if next(calls) == 1:
                    raise mplindex.EstimationError("synthetic failure")
                return fit(values)

            return fitter

        monkeypatch.setitem(_ESTIMATOR_FUNCS, "mpl", flaky)
        code, _, err = run("simulate", "--input", src, "--estimators", "mpl",
                           "--reps", "3", "--noise-sd-max", "0.1")
    finally:
        logger.removeHandler(handler)
    assert (code, err) == (0, "note: dropped items outside the reference basket: c\n"
                              "note: 1 failed replications excluded\n")
    assert [record.getMessage() for record in records] == [
        "note: dropped items outside the reference basket: c", "revised units: t2, t3",
        "note: dropped items outside the reference basket: c",
        "note: 1 failed replications excluded"]
    # run_cli took its stderr handler away again
    assert logger.handlers == []


def thirty_by_six(scale=1.0, unit=3):
    """The 30 x 6 panel of default_rng(0).uniform(1, 10) with one unit's values
    times scale."""
    rng = np.random.default_rng(0)
    values, quantities = rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6))
    values[:, unit] *= scale
    return Panel([f"i{k}" for k in range(30)], [f"t{k}" for k in range(6)],
                 values, quantities)


def scaled_unit_runs(run, tmp_path, scale):
    """(exit code, stderr, series rows, scaled unit) of mpl under both
    variance methods and of update-unit admitting t5, on the 30 x 6 panel
    with unit t3 (for update-unit, t5) times scale."""
    whole, newcomer = thirty_by_six(scale, unit=3), thirty_by_six(scale, unit=5)
    src = write(tmp_path, f"panel{scale}.csv", emit_panel(whole))
    prior = write(tmp_path, f"prior{scale}.csv", emit_panel(Panel(
        newcomer.items, newcomer.units[:5], newcomer.values[:, :5], newcomer.quantities[:, :5])))
    new = write(tmp_path, f"new{scale}.csv", HEADER + "".join(
        f"{item},t5,{v:.17g},{q:.17g}\n" for item, v, q in
        zip(newcomer.items, newcomer.values[:, 5], newcomer.quantities[:, 5])))
    report = tmp_path / "report.json"
    runs = []
    for argv, unit in ((["mpl", "--input", src, "--variance", "full"], 3),
                       (["mpl", "--input", src, "--variance", "corollary3"], 3),
                       (["update-unit", "--input", prior, "--new", new], 5)):
        report.unlink(missing_ok=True)
        code, out, err = run(*argv, "--output", str(report))
        assert out == ""
        rows = json.loads(report.read_text())["series"] if report.exists() else None
        runs.append((code, err, rows, unit))
    return runs


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e170, 1e-170, 1e300, 1e-300])
def test_one_unit_at_its_own_scale_fits(run, tmp_path, scale):
    # a unit's own scale is absorbed by its deflator: it moves that unit's
    # index and se by the same factor and sways no decision of the fit, also
    # where the unit's deflator variance would leave the float range
    plain = scaled_unit_runs(run, tmp_path, 1.0)
    assert [err for _, err, _, _ in plain] == ["", COROLLARY3_NOTE + "\n",
                                              "revised units: t1, t2, t3, t4, t5\n"]
    for (_, plain_err, before, unit), (code, err, rows, _) in zip(
            plain, scaled_unit_runs(run, tmp_path, scale)):
        assert (code, err) == (0, plain_err)
        for t, (a, b) in enumerate(zip(before, rows)):
            factor = scale if t == unit else 1.0
            assert b["index"] == pytest.approx(a["index"] * factor, rel=1e-12)
            assert b["se"] == pytest.approx(a["se"] * factor, rel=1e-12)
