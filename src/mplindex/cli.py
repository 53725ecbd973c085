"""Command-line harness: validate, estimate, update, compare, simulate.

Exit codes: 0 success, 1 validation error, 2 estimation or I/O error,
3 usage error.  Reports go to --output or stdout; all numbers carry 17
significant digits so a round-trip through text is lossless.  Notes go
through the "mplindex" logger, which run_cli points at stderr as bare
lines; error lines are written to stderr directly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import math
import sys

import numpy as np

from .bilateral import CLASSICAL_KINDS, bilateral_from_panel, classical_index, mpl_two_period
from .dummy import fit_dummy_index
from .errors import EstimationError, ValidationError
from .estimator import IndexFit, IndexSeries, estimate_deflators, to_index_series
from .panel import Panel, build_reference_basket, load_panel, note_dropped
from .simulate import ESTIMATORS, SCHEMES, SimulationConfig, SimulationReport, simulate
from .updating import update_multilateral, update_multiperiod

_VARIANCE_FLAG = {"corollary3": "corollary3", "full": "full_partition"}
COROLLARY3_NOTE = ("note: corollary3 standard errors understate the spread by about a "
                   "third under the paper's model; see README \"Variance conventions\"")
_log = logging.getLogger("mplindex")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _number(x) -> str | None:
    """17-significant-digit text for a float; None for NaN or an infinity,
    a figure the data cannot give, which CSV writes blank and JSON null."""
    x = float(x)
    return format(x, ".17g") if math.isfinite(x) else None


def _json_scalar(x) -> str:
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    text = None if x is None else _number(x)
    return "null" if text is None else text


def _json_value(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    return _json_scalar(obj)


def _csv(columns, rows) -> str:
    """CSV text under csv quoting: a field holding a comma or a quote is
    quoted, None is blank, every other field is written as it is; lines end
    in "\n"."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def _table(result, meta: dict):
    """(meta, column names, rows) of an index series or a simulation report.

    Each row holds its labels as text and its figures as floats; the CSV
    and the JSON forms of a report render these same rows.
    """
    if isinstance(result, IndexSeries):
        return ({"mode": result.mode, "base": result.units[result.base_unit],
                 "variance_method": result.variance_method},
                ("unit", "index", "se", "lo", "hi", "pct_change"),
                list(zip(result.units, result.index, result.se, result.lower,
                         result.upper, result.pct_change)))
    cfg, summaries = result.config, result.summaries
    return ({"mode": meta.get("mode"), "base": meta.get("base"), "scheme": cfg.scheme,
             "replications": cfg.replications, "seed": cfg.seed, "k": cfg.k,
             "noise_mean": cfg.noise_mean, "noise_sd_max": cfg.noise_sd_max,
             "estimators": list(cfg.estimators),
             "variance_method": cfg.variance_method if "mpl" in cfg.estimators else None,
             "failures": {name: s.failures for name, s in summaries.items()}},
            ("estimator", "unit", "index", "se", "emp_sd", "lo_emp", "hi_emp",
             "lo_model", "hi_model"),
            [(name, *row) for name, s in summaries.items()
             for row in zip(result.units, s.mean_index, s.mean_se, s.emp_sd, s.lo_emp,
                            s.hi_emp, s.lo_model, s.hi_model)])


def emit_report(result, fmt: str, meta: dict | None = None) -> str:
    """Serialize an index series, a simulation report or a bilateral table.

    An index series carries its own JSON meta; the other reports take mode
    and base from ``meta``.  A JSON row holds the CSV line's columns.
    """
    meta = meta or {}
    if isinstance(result, dict):  # bilateral kind -> value table
        if fmt == "csv":
            return _csv(("kind", "value"),
                        ([kind, _number(value)] for kind, value in result.items()))
        return _json_value({"meta": meta, "indexes": result}) + "\n"

    doc_meta, columns, rows = _table(result, meta)
    if fmt == "csv":
        return _csv(columns, ([x if isinstance(x, str) else _number(x) for x in row]
                              for row in rows))
    doc = {"meta": doc_meta, "series": [dict(zip(columns, row)) for row in rows]}
    if isinstance(result, SimulationReport) and result.config.dump_draws:
        doc["draws"] = {name: s.draws for name, s in result.summaries.items()}
    return _json_value(doc) + "\n"


def _write(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _read_panel(path, **kwargs) -> Panel:
    try:
        return load_panel(path, **kwargs)
    except FileNotFoundError:
        raise ValidationError(f"cannot read {path}") from None


def _load(args) -> Panel:
    return _read_panel(args.input, mode=args.mode, base_unit=args.base)


def _prepare(args) -> Panel:
    """The input's reference basket."""
    panel, report = build_reference_basket(_load(args))
    note_dropped(report)
    return panel


def _read_unit(path: str) -> Panel:
    """A one-unit long CSV, as the panel Panel.with_unit appends."""
    unit = _read_panel(path)
    if unit.n_units != 1:
        raise ValidationError(f"expected exactly one unit in {path}, found {unit.n_units}")
    return unit


def _write_series(args, fit: IndexFit) -> int:
    """Publish a fit's index series with --k bounds to --output or stdout."""
    _write(emit_report(to_index_series(fit, k=args.k), args.format), args.output)
    if fit.variance_method == "corollary3":
        _log.info(COROLLARY3_NOTE)
    return 0


def _cmd_validate(args) -> int:
    panel = _load(args)
    restricted, report = build_reference_basket(panel)
    out = [
        f"ok: {restricted.n_items} items, {restricted.n_units} units, "
        f"base {restricted.units[restricted.base_unit]!r}, mode {restricted.mode}"
    ]
    if report.dropped_items:
        out.append("dropped (fewer than two presences): " + ", ".join(report.dropped_items))
    if report.base_absent_items:
        out.append("present elsewhere but absent in base: " + ", ".join(report.base_absent_items))
    out.append(f"smallest pairwise overlap between units: {report.min_pair_overlap()} items")
    _write("\n".join(out) + "\n", args.output)
    return 0


def _cmd_mpl(args) -> int:
    panel = _prepare(args)
    est = estimate_deflators(panel, variance_method=_VARIANCE_FLAG[args.variance])
    return _write_series(args, est)


def _cmd_bilateral(args) -> int:
    panel = _prepare(args)
    inp = bilateral_from_panel(panel)
    table = {kind: classical_index(inp, kind) for kind in CLASSICAL_KINDS}
    table["mpl"] = mpl_two_period(inp)
    text = emit_report(table, args.format, {
        "mode": panel.mode, "base": panel.units[panel.base_unit],
    })
    _write(text, args.output)
    return 0


def _cmd_tpd(args) -> int:
    return _write_series(args, fit_dummy_index(_prepare(args), weighted=args.weighted))


def _cmd_update_unit(args) -> int:
    return _write_series(args, update_multilateral(
        _load(args), _read_unit(args.new), variance_method=_VARIANCE_FLAG[args.variance]))


def _cmd_update_period(args) -> int:
    panel = _prepare(args)
    prior = estimate_deflators(panel, variance_method=_VARIANCE_FLAG[args.variance])
    new_period = _read_unit(args.new)
    return _write_series(args, update_multiperiod(prior, panel, new_period))


def _cmd_simulate(args) -> int:
    panel = _prepare(args)
    config = SimulationConfig(
        scheme=args.scheme, replications=args.reps, noise_mean=args.noise_mean,
        noise_sd_max=args.noise_sd_max, seed=args.seed, k=args.k,
        estimators=tuple(args.estimators.split(",")),
        variance_method=_VARIANCE_FLAG[args.variance], dump_draws=args.dump_draws,
    )
    report = simulate(panel, config)
    text = emit_report(report, args.format, {
        "mode": panel.mode, "base": panel.units[panel.base_unit],
    })
    _write(text, args.output)
    if "mpl" in config.estimators and config.variance_method == "corollary3":
        _log.info(COROLLARY3_NOTE)
    total_failures = sum(s.failures for s in report.summaries.values())
    if total_failures:
        _log.info("note: %d failed replications excluded", total_failures)
    return 0


def _add_io_flags(p, variance=True, bounds=True, formats=True):
    p.add_argument("--input", required=True, help="long CSV panel (item_id,unit_id,value,quantity)")
    p.add_argument("--mode", choices=["time", "space"], default="time")
    p.add_argument("--base", default=None, help="base unit label or index (default: first)")
    if formats:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None, help="write report here instead of stdout")
    if bounds:
        p.add_argument("--k", type=float, default=3.0,
                       help="half-width of bands in standard errors")
    if variance:
        p.add_argument("--variance", choices=["corollary3", "full"], default="full")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mplindex",
                     description="Deflator-based price indexes from value/quantity panels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a panel and report basket decisions")
    _add_io_flags(p, variance=False, bounds=False, formats=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mpl", help="estimate the multi-period/multilateral index")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_mpl)

    p = sub.add_parser("bilateral", help="classical two-unit indexes plus the two-period closed form")
    _add_io_flags(p, variance=False, bounds=False)
    p.set_defaults(func=_cmd_bilateral)

    p = sub.add_parser("tpd", help="time/country-product dummy baseline")
    _add_io_flags(p, variance=False)
    p.add_argument("--weighted", action="store_true", help="weight cells by within-unit value shares")
    p.set_defaults(func=_cmd_tpd)

    p = sub.add_parser("update-unit", help="admit one new unit (area), re-estimating jointly")
    _add_io_flags(p)
    p.add_argument("--new", "--new-unit", required=True,
                   help="long CSV with the new unit's rows")
    p.set_defaults(func=_cmd_update_unit)

    p = sub.add_parser("update-period", help="admit one new period, freezing published deflators")
    _add_io_flags(p)
    p.add_argument("--new", "--new-period", required=True,
                   help="long CSV with the new period's rows")
    p.set_defaults(func=_cmd_update_period)

    p = sub.add_parser("simulate", help="noise-replication comparison of estimators")
    _add_io_flags(p)
    p.add_argument("--scheme", choices=list(SCHEMES), default="additive_on_base")
    p.add_argument("--reps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-mean", type=float, default=0.0)
    p.add_argument("--noise-sd-max", type=float, default=0.0)
    p.add_argument("--estimators", default="mpl,tpd",
                   help=f"comma-separated subset of {','.join(ESTIMATORS)}")
    p.add_argument("--dump-draws", action="store_true")
    p.set_defaults(func=_cmd_simulate)
    return parser


@contextlib.contextmanager
def _notes_to_stderr():
    """Write the package's notes to the current stderr, one bare line each."""
    handler = logging.StreamHandler(sys.stderr)
    level = _log.level
    _log.addHandler(handler)
    _log.setLevel(logging.INFO)
    try:
        yield
    finally:
        _log.removeHandler(handler)
        _log.setLevel(level)


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "dump_draws", False) and args.format == "csv":
            parser.error("--dump-draws writes JSON only; drop --format csv")
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    try:
        with _notes_to_stderr():
            return args.func(args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except EstimationError as exc:
        sys.stderr.write(f"estimation error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))
