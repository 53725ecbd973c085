"""Acceptance gate: one test per contract criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import json
import math
import os
import time

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

import axiom_checks
from mplindex import (
    BilateralInput,
    Panel,
    SimulationConfig,
    estimate_deflators,
    fit_dummy_index,
    mpl_two_period,
    simulate,
    to_index_series,
    update_multilateral,
    update_multiperiod,
)
from helpers import one_unit, panel_from_bilateral, random_bilateral, random_panel
from oracles import (
    build_design_system,
    classical_form_matrix,
    ols_fit,
    quadratic_form_index,
)

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _report(num, desc):
    """Decorator printing one PASS/FAIL line per criterion."""
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num:02d}: PASS - {desc}")
        run.__name__ = fn.__name__
        return run
    return wrap


def _rel_err(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = np.maximum(np.abs(expected), 1e-30)
    return float(np.max(np.abs(actual - expected) / scale))


@_report(1, "closed-form estimator equals dense OLS on 100 random panels")
def test_c01_closed_form_matches_dense_ols():
    rng = np.random.default_rng(11001)
    start = time.monotonic()
    for _ in range(100):
        n = int(rng.integers(2, 21))
        t = int(rng.integers(2, 11))
        base = int(rng.integers(0, t))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0.0, 0.3)),
                             base=base)
        est = estimate_deflators(panel)
        fit = ols_fit(build_design_system(panel))
        nb = panel.nonbase_units
        assert _rel_err(est.deflators[nb], fit.beta[: t - 1]) <= 1e-9
        assert _rel_err(est.ref_prices, fit.beta[t - 1:]) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


@_report(2, "two-period closed form consistent with the panel estimator "
            "and across its three algebraic routes")
def test_c02_two_period_consistency():
    rng = np.random.default_rng(11002)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        inp = random_bilateral(rng, n)
        p1, p2, q1, q2 = inp.p1, inp.p2, inp.q1, inp.q2
        v1, v2 = p1 * q1, p2 * q2

        d = q1 * q1 + q2 * q2
        pi = 2.0 * p2 * ((q1 * q1) * (q2 * q2)) / d
        as_ratio = math.fsum(p2 * pi) / math.fsum(p1 * pi)
        w = (v1 * v2) * (q1 * q2) / d
        w = w / math.fsum(w)
        as_mean = math.fsum((p2 / p1) * w)
        qt1, qt2 = q1 / np.sqrt(d), q2 / np.sqrt(d)
        as_compact = math.fsum((qt1 * v2) ** 2) / math.fsum((qt2 * v2) * (qt1 * v1))

        assert _rel_err(as_mean, as_ratio) <= 1e-12
        assert _rel_err(as_compact, as_ratio) <= 1e-12
        value = mpl_two_period(inp)
        assert _rel_err(value, as_ratio) <= 1e-12

        lam2 = float(estimate_deflators(panel_from_bilateral(inp)).indexes[1])
        assert _rel_err(value, lam2) <= 1e-10


@_report(3, "single-pass unit update equals full re-estimation, "
            "missing cells included")
def test_c03_unit_update_equals_reestimation():
    rng = np.random.default_rng(11003)
    for k in range(50):
        n = int(rng.integers(2, 13))
        t = int(rng.integers(2, 8))
        missing = float(rng.uniform(0.0, 0.3)) if k % 2 else 0.0
        panel = random_panel(rng, n, t, missing=missing)
        values = rng.uniform(0.5, 8.0, n)
        quantities = rng.uniform(0.5, 8.0, n)
        if n > 3 and k % 3 == 0:  # newcomer with a hole of its own
            values[0] = quantities[0] = 0.0
        new = one_unit(panel, "new", values, quantities)
        result = update_multilateral(panel, new)
        fresh = estimate_deflators(panel.with_unit(new))
        assert _rel_err(result.deflators, fresh.deflators) <= 1e-9
        assert _rel_err(result.ref_prices, fresh.ref_prices) <= 1e-9
        assert _rel_err(result.ssr, fresh.ssr) <= 1e-9 or fresh.ssr < 1e-20
        if fresh.sigma2 is not None:
            assert _rel_err(result.sigma2, fresh.sigma2) <= 1e-9 \
                or fresh.sigma2 < 1e-20


@_report(4, "period update equals the constrained joint fit; history is "
            "frozen bit for bit; scalar fixture lands on 2 exactly")
def test_c04_period_update_constrained_oracle():
    rng = np.random.default_rng(11004)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        t = int(rng.integers(2, 7))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0.0, 0.25)))
        prior = estimate_deflators(panel)
        values = rng.uniform(0.5, 8.0, n)
        quantities = rng.uniform(0.5, 8.0, n)

        rows = n * (t + 1)
        X = np.zeros((rows, 1 + n))
        y = np.zeros(rows)
        r = np.arange(n)
        for s in range(t):
            y[n * s + r] = prior.deflators[s] * panel.values[:, s]
            X[n * s + r, 1 + r] = panel.quantities[:, s]
        X[n * t + r, 0] = -values
        X[n * t + r, 1 + r] = quantities
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)

        est = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
        assert _rel_err(est.deflators[-1], beta[0]) <= 1e-9
        assert _rel_err(est.ref_prices, beta[1:]) <= 1e-9
        assert_array_equal(est.deflators[:-1], prior.deflators)
        assert_array_equal(est.indexes[:-1], prior.indexes)

    scalar = Panel(("a",), ("t1", "t2"),
                   np.array([[10.0, 20.0]]), np.ones((1, 2)))
    prior = estimate_deflators(scalar)
    final = update_multiperiod(prior, scalar, one_unit(scalar, "t3", [20.0], np.ones(1)))
    assert final.indexes[2] == 2.0


@_report(5, "rank-one quadratic forms reproduce the four textbook "
            "bilateral indexes")
def test_c05_quadratic_forms_vs_textbook():
    rng = np.random.default_rng(11005)
    for _ in range(100):
        inp = random_bilateral(rng, int(rng.integers(1, 12)))
        p1, p2, q1, q2 = inp.p1, inp.p2, inp.q1, inp.q2
        textbook = {
            "laspeyres": float(p2 @ q1 / (p1 @ q1)),
            "paasche": float(p2 @ q2 / (p1 @ q2)),
            "marshall_edgeworth": float(p2 @ (q1 + q2) / (p1 @ (q1 + q2))),
            "walsh": float(p2 @ np.sqrt(q1 * q2) / (p1 @ np.sqrt(q1 * q2))),
        }
        for kind, expected in textbook.items():
            got = quadratic_form_index(p1, p2, classical_form_matrix(inp, kind))
            assert _rel_err(got, expected) <= 1e-12, kind


@_report(6, "two-unit regression fixture: point estimate, noise scale and "
            "both variance conventions")
def test_c06_regression_fixture():
    panel = Panel(("a", "b"), ("t1", "t2"),
                  np.array([[1.0, 3.0], [2.0, 4.0]]),
                  np.ones((2, 2)))
    est = estimate_deflators(panel)
    assert abs(est.deflators[1] - 0.44) <= 1e-12
    assert abs(est.sigma2 - 0.08) <= 1e-12
    cor3_est = estimate_deflators(panel, variance_method="corollary3")
    assert abs((cor3_est.se[1] * cor3_est.deflators[1])**2 - 0.0032) <= 1e-12
    assert abs((est.se[1] * est.deflators[1])**2 - 0.0064) <= 1e-12
    var = cor3_est.index_se**2
    assert abs(var[1] - 0.0032 / 0.44**4) <= 1e-9


@_report(7, "axiomatic suite holds on 200 randomized two-period draws")
def test_c07_axioms():
    ran = axiom_checks.run_suite(seed=20240817, n_panels=200)
    assert ran == 200 * len(axiom_checks.ALL_CHECKS)


@_report(8, "dummy baseline equals the geometric mean on balanced panels; "
            "weighting is inert under constant shares")
def test_c08_dummy_baseline_sanity():
    rng = np.random.default_rng(11008)
    for _ in range(30):
        n = int(rng.integers(2, 10))
        t = int(rng.integers(2, 7))
        panel = random_panel(rng, n, t)
        fit = fit_dummy_index(panel)
        prices = panel.values / panel.quantities
        rel = prices / prices[:, [panel.base_unit]]
        geo = np.exp(np.log(rel).mean(axis=0))
        assert _rel_err(fit.indexes, geo) <= 1e-12

        flat = Panel(panel.items, panel.units,
                     np.ones((n, t)), panel.quantities)
        plain = fit_dummy_index(flat, weighted=False)
        weighted = fit_dummy_index(flat, weighted=True)
        assert np.max(np.abs(weighted.log_unit_effects
                             - plain.log_unit_effects)) <= 1e-12
    two = Panel(("a", "b"), ("t1", "t2"),
                np.array([[1.0, 3.0], [2.0, 4.0]]), np.ones((2, 2)))
    assert abs(fit_dummy_index(two).indexes[1] - math.sqrt(6.0)) <= 1e-12


@_report(9, "replication study: deflator-based bands at least as tight as "
            "the dummy baseline, point estimates inside its bounds")
def test_c09_simulation_accuracy_comparison():
    start = time.monotonic()
    rng = np.random.default_rng(2718)
    n, t = 10, 8
    prices = rng.uniform(5.0, 50.0, n)
    levels = 1.0 + 0.4 * np.arange(t) / (t - 1)
    quantities = rng.uniform(50.0, 150.0, (n, t))
    values = quantities * prices[:, None] * levels[None, :]
    panel = Panel([f"i{k}" for k in range(n)],
                  [f"t{k}" for k in range(t)], values, quantities)
    mean_v = float(values.mean())
    config = SimulationConfig(scheme="additive_on_base", replications=200,
                              noise_mean=0.05 * mean_v,
                              noise_sd_max=0.02 * mean_v,
                              seed=97, estimators=("mpl", "tpd"))
    report = simulate(panel, config)
    mpl = report.summaries["mpl"]
    tpd = report.summaries["tpd"]
    width_mpl = mpl.hi_model - mpl.lo_model
    width_tpd = tpd.hi_model - tpd.lo_model
    nonbase = [s for s in range(t) if s != panel.base_unit]
    narrower = sum(width_mpl[s] <= width_tpd[s] for s in nonbase)
    assert narrower / len(nonbase) >= 0.8, f"narrower in {narrower}/{len(nonbase)}"
    inside = sum(
        tpd.lo_model[s] <= mpl.mean_index[s] <= tpd.hi_model[s] for s in range(t)
    )
    assert inside / t >= 0.95, f"inside in {inside}/{t}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"simulation study took {elapsed:.1f}s"


@_report(10, "published-table workflow reproduced in format on synthetic "
             "area data; data-availability note present")
def test_c10_format_reproduction_and_note():
    rng = np.random.default_rng(11010)
    n = 6
    areas = ("north", "center", "south")
    prices = rng.uniform(2.0, 20.0, n)
    area_level = np.array([1.0, 1.18, 0.93])
    quantities = rng.uniform(10.0, 40.0, (n, 3))
    values = quantities * prices[:, None] * area_level[None, :]
    values *= rng.uniform(0.95, 1.05, values.shape)  # idiosyncratic spread
    panel = Panel([f"g{k}" for k in range(n)], areas,
                  values, quantities, mode="space")

    q4 = rng.uniform(10.0, 40.0, n)
    v4 = q4 * prices * 1.07 * rng.uniform(0.95, 1.05, n)
    islands = one_unit(panel, "islands", v4, q4)
    result = update_multilateral(panel, islands)
    series = to_index_series(result, k=3.0)
    dummy = fit_dummy_index(panel.with_unit(islands))

    # per-area row: index, standard error and 3-sigma bounds, all finite
    assert np.isnan(series.pct_change).all()
    for t in range(4):
        row = (series.index[t], series.se[t], series.lower[t], series.upper[t])
        assert all(math.isfinite(x) for x in row), row
        assert series.lower[t] <= series.index[t] <= series.upper[t]
        assert math.isfinite(dummy.indexes[t]) and math.isfinite(dummy.index_se[t])
    assert series.index[series.base_unit] == 1.0

    from mplindex.cli import emit_report
    doc = json.loads(emit_report(series, "json", {"variance_method": "full_partition"}))
    assert [r["unit"] for r in doc["series"]] == list(areas) + ["islands"]
    for r in doc["series"]:
        assert {"unit", "index", "se", "lo", "hi"} <= set(r)

    with open(README, encoding="utf-8") as fh:
        readme = " ".join(fh.read().split())
    assert "not distributed" in readme
