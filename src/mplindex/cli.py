"""Command-line harness: validate, estimate, update, compare, simulate.

Exit codes: 0 success, 1 validation error, 2 estimation or I/O error,
3 usage error.  Reports go to --output or stdout; all numbers carry 17
significant digits so a round-trip through text is lossless.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .bilateral import CLASSICAL_KINDS, bilateral_from_panel, classical_index, mpl_two_period
from .dummy import fit_dummy_index
from .errors import EstimationError, MplIndexError, ValidationError
from .estimator import IndexSeries, estimate_deflators, to_index_series
from .panel import Panel, build_reference_basket, load_panel
from .simulate import ESTIMATORS, SCHEMES, SimulationConfig, SimulationReport, simulate
from .updating import update_multilateral, update_multiperiod

_VARIANCE_FLAG = {"corollary3": "corollary3", "full": "full_partition"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    """17-significant-digit text for a float; empty for undefined."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return format(x, ".17g")


def _json_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def _json_value(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    return _json_scalar(obj)


def _series_rows(series: IndexSeries):
    for t, unit in enumerate(series.units):
        pct = None
        if series.pct_change is not None and not math.isnan(series.pct_change[t]):
            pct = float(series.pct_change[t])
        se = None if math.isnan(series.se[t]) else float(series.se[t])
        lo = None if math.isnan(series.lower[t]) else float(series.lower[t])
        hi = None if math.isnan(series.upper[t]) else float(series.upper[t])
        yield unit, float(series.index[t]), se, lo, hi, pct


def emit_report(result, fmt: str, meta: dict | None = None) -> str:
    """Serialize an index series or a simulation report to csv or json text."""
    meta = meta or {}
    if isinstance(result, IndexSeries):
        if fmt == "csv":
            lines = ["unit,index,se,lo,hi,pct_change"]
            for unit, index, se, lo, hi, pct in _series_rows(result):
                lines.append(",".join([
                    unit, _fmt(index), _fmt(se), _fmt(lo), _fmt(hi), _fmt(pct),
                ]))
            return "\n".join(lines) + "\n"
        doc_meta = {
            "mode": result.mode,
            "base": result.units[result.base_unit],
            "variance_method": meta.get("variance_method"),
            "dof_rule": meta.get("dof_rule"),
        }
        rows = []
        for unit, index, se, lo, hi, pct in _series_rows(result):
            row = {"unit": unit, "index": index, "se": se, "lo": lo, "hi": hi}
            if pct is not None:
                row["pct_change"] = pct
            rows.append(row)
        return _json_value({"meta": doc_meta, "series": rows}) + "\n"

    if isinstance(result, SimulationReport):
        if fmt == "csv":
            lines = ["estimator,unit,index,se,emp_sd,lo_emp,hi_emp,lo_model,hi_model"]
            for name, s in result.summaries.items():
                for t, unit in enumerate(result.units):
                    lines.append(",".join([
                        name, unit, _fmt(s.mean_index[t]), _fmt(s.mean_se[t]),
                        _fmt(s.emp_sd[t]), _fmt(s.lo_emp[t]), _fmt(s.hi_emp[t]),
                        _fmt(s.lo_model[t]), _fmt(s.hi_model[t]),
                    ]))
            return "\n".join(lines) + "\n"
        cfg = result.config
        doc = {
            "meta": {
                "mode": meta.get("mode"),
                "base": meta.get("base"),
                "scheme": cfg.scheme,
                "replications": cfg.replications,
                "seed": cfg.seed,
                "k": cfg.k,
                "noise_mean": cfg.noise_mean,
                "noise_sd_max": cfg.noise_sd_max,
                "estimators": list(cfg.estimators),
                "failures": {name: s.failures for name, s in result.summaries.items()},
            },
            "series": [
                {
                    "estimator": name, "unit": unit,
                    "index": s.mean_index[t], "se": s.mean_se[t],
                    "emp_sd": s.emp_sd[t],
                    "lo_emp": s.lo_emp[t], "hi_emp": s.hi_emp[t],
                    "lo_model": s.lo_model[t], "hi_model": s.hi_model[t],
                }
                for name, s in result.summaries.items()
                for t, unit in enumerate(result.units)
            ],
        }
        if cfg.dump_draws:
            doc["draws"] = {name: s.draws for name, s in result.summaries.items()}
        return _json_value(doc) + "\n"

    if isinstance(result, dict):  # bilateral kind -> value table
        if fmt == "csv":
            lines = ["kind,value"]
            lines.extend(f"{kind},{_fmt(value)}" for kind, value in result.items())
            return "\n".join(lines) + "\n"
        return _json_value({"meta": meta, "indexes": result}) + "\n"

    raise TypeError(f"cannot serialize {type(result).__name__}")


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
    panel = _load(args)
    panel, report = build_reference_basket(panel)
    if report.dropped_items:
        sys.stderr.write(
            "note: dropped items outside the reference basket: "
            + ", ".join(report.dropped_items) + "\n"
        )
    return panel


def _new_unit_from_file(path: str, panel: Panel):
    """Read a one-unit long CSV and align it to the panel's item list."""
    addition = _read_panel(path)
    if addition.n_units != 1:
        raise ValidationError(
            f"expected exactly one unit in {path}, found {addition.n_units}"
        )
    row_of = {item: i for i, item in enumerate(panel.items)}
    unknown = [i for i in addition.items if i not in row_of]
    if unknown:
        raise ValidationError(
            f"new unit contains items outside the panel: {', '.join(unknown[:5])}"
        )
    rows = [row_of[item] for item in addition.items]
    values = np.zeros(panel.n_items)
    quantities = np.zeros(panel.n_items)
    values[rows] = addition.values[:, 0]
    quantities[rows] = addition.quantities[:, 0]
    return addition.units[0], values, quantities


def _write_series(args, series: IndexSeries, variance_method: str, dof_rule: str) -> int:
    """Write an index series and its meta to --output or stdout."""
    meta = {"variance_method": variance_method, "dof_rule": dof_rule}
    _write(emit_report(series, args.format, meta), args.output)
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
    est = estimate_deflators(panel, variance_method=_VARIANCE_FLAG[args.variance],
                             dof_rule=args.dof)
    return _write_series(args, to_index_series(est, k=args.k),
                         est.variance_method, est.dof_rule)


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
    fit = fit_dummy_index(_prepare(args), weighted=args.weighted)
    series = IndexSeries.from_index(fit.units, fit.base_unit, args.mode,
                                    fit.indexes, fit.index_se, args.k)
    return _write_series(args, series, "dummy_wls" if args.weighted else "dummy_ols",
                         "observed")


def _cmd_update_unit(args) -> int:
    panel = _prepare(args)
    new_unit = _new_unit_from_file(args.new, panel)
    result = update_multilateral(panel, new_unit,
                                 variance_method=_VARIANCE_FLAG[args.variance],
                                 dof_rule=args.dof)
    est = result.estimate
    _write_series(args, to_index_series(est, k=args.k), est.variance_method, est.dof_rule)
    changed = [u for u, c in zip(est.units, result.changed_mask) if c]
    sys.stderr.write("revised units: " + (", ".join(changed) or "none") + "\n")
    return 0


def _cmd_update_period(args) -> int:
    panel = _prepare(args)
    prior = estimate_deflators(panel, variance_method=_VARIANCE_FLAG[args.variance],
                               dof_rule=args.dof)
    new_period = _new_unit_from_file(args.new, panel)
    est = update_multiperiod(prior, panel, new_period).estimate
    return _write_series(args, to_index_series(est, k=args.k),
                         est.variance_method, est.dof_rule)


def _cmd_simulate(args) -> int:
    panel = _prepare(args)
    config = SimulationConfig(
        scheme=args.scheme, replications=args.reps, noise_mean=args.noise_mean,
        noise_sd_max=args.noise_sd_max, seed=args.seed, k=args.k,
        estimators=tuple(args.estimators.split(",")),
        variance_method=_VARIANCE_FLAG[args.variance], dof_rule=args.dof,
        dump_draws=args.dump_draws,
    )
    report = simulate(panel, config)
    text = emit_report(report, args.format, {
        "mode": panel.mode, "base": panel.units[panel.base_unit],
    })
    _write(text, args.output)
    total_failures = sum(s.failures for s in report.summaries.values())
    if total_failures:
        sys.stderr.write(f"note: {total_failures} failed replications excluded\n")
    return 0


def _add_io_flags(p, variance=True):
    p.add_argument("--input", required=True, help="long CSV panel (item_id,unit_id,value,quantity)")
    p.add_argument("--mode", choices=["time", "space"], default="time")
    p.add_argument("--base", default=None, help="base unit label or index (default: first)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None, help="write report here instead of stdout")
    p.add_argument("--k", type=float, default=3.0, help="half-width of bands in standard errors")
    if variance:
        p.add_argument("--variance", choices=["corollary3", "full"], default="full")
        p.add_argument("--dof", choices=["paper", "observed"], default="paper")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mplindex",
                     description="Deflator-based price indexes from value/quantity panels")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a panel and report basket decisions")
    _add_io_flags(p, variance=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("mpl", help="estimate the multi-period/multilateral index")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_mpl)

    p = sub.add_parser("bilateral", help="classical two-unit indexes plus the two-period closed form")
    _add_io_flags(p, variance=False)
    p.set_defaults(func=_cmd_bilateral)

    p = sub.add_parser("tpd", help="time/country-product dummy baseline")
    _add_io_flags(p, variance=False)
    p.add_argument("--weighted", action="store_true", help="weight cells by within-unit value shares")
    p.set_defaults(func=_cmd_tpd)

    p = sub.add_parser("update-unit", help="admit one new unit (area), re-estimating jointly")
    _add_io_flags(p)
    p.add_argument("--new", required=True, help="long CSV with the new unit's rows")
    p.set_defaults(func=_cmd_update_unit)

    p = sub.add_parser("update-period", help="admit one new period, freezing published deflators")
    _add_io_flags(p)
    p.add_argument("--new", required=True, help="long CSV with the new period's rows")
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


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 3
    try:
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
    except MplIndexError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main():
    sys.exit(run_cli(sys.argv[1:]))
