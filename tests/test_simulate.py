import importlib
import statistics
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    EstimationError,
    Panel,
    RedrawExhausted,
    SimulationConfig,
    ValidationError,
    algebra,
    dummy,
    estimate_deflators,
    estimator,
    simulate,
)
from mplindex.errors import OVERFLOW_MESSAGE
from mplindex.simulate import _ESTIMATOR_FUNCS, SCHEMES, _value_draws
from helpers import random_panel
from oracles import per_unit_values, simulate_reference

# the package exports the function simulate under the module's name
simulate_module = importlib.import_module("mplindex.simulate")


def test_config_validation():
    with pytest.raises(ValidationError):
        SimulationConfig(scheme="multiplicative")
    with pytest.raises(ValidationError):
        SimulationConfig(replications=0)
    with pytest.raises(ValidationError):
        SimulationConfig(noise_sd_max=-1.0)
    with pytest.raises(ValidationError):
        SimulationConfig(estimators=())
    with pytest.raises(ValidationError):
        SimulationConfig(estimators=("mpl", "geks"))
    with pytest.raises(ValidationError, match="listed twice"):
        SimulationConfig(estimators=("mpl", "mpl"))
    with pytest.raises(ValidationError):
        SimulationConfig(k=0.0)
    # counts that are not integers, a bool among them
    for field, value in (("replications", 2.5), ("replications", "3"),
                         ("replications", True), ("seed", 1.5)):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            SimulationConfig(noise_sd_max=0.01, **{field: value})
    # settings that are not real numbers, a bool among them
    for field, value in (("noise_mean", "0.1"), ("noise_sd_max", None),
                         ("noise_sd_max", True), ("k", "3"), ("k", True)):
        with pytest.raises(ValidationError, match=f"^{field} must be a real number"):
            SimulationConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("k", float("nan")), ("k", float("inf")),
    ("noise_sd_max", float("nan")), ("noise_sd_max", float("inf")),
    ("noise_mean", float("inf")), ("noise_mean", float("nan")),
    ("seed", -1),
])
def test_config_rejects_values_numpy_would_choke_on(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must"):
        SimulationConfig(**{field: value})


def test_zero_noise_centers_on_point_estimate():
    panel = random_panel(np.random.default_rng(1), 5, 4, missing=0.1)
    config = SimulationConfig(replications=8, noise_mean=0.0, noise_sd_max=0.0,
                              seed=3, estimators=("mpl",), dump_draws=True)
    report = simulate(panel, config)
    point = estimate_deflators(panel).indexes
    summary = report.summaries["mpl"]
    # every replication reproduces the point estimate bit for bit
    for row in summary.draws:
        assert_array_equal(row, point)
    assert_allclose(summary.mean_index, point, rtol=1e-15)
    # the empirical band collapses to machine precision around the point
    assert (summary.emp_sd <= 2e-15 * point).all()
    assert_allclose(summary.lo_emp, summary.hi_emp, rtol=0, atol=2e-14)
    assert summary.failures == 0


def test_same_seed_reproduces_bitwise():
    panel = random_panel(np.random.default_rng(2), 4, 3)
    config = SimulationConfig(replications=12, noise_mean=0.1, noise_sd_max=0.4,
                              seed=99, estimators=("mpl", "tpd"), dump_draws=True)
    a = simulate(panel, config)
    b = simulate(panel, config)
    for name in ("mpl", "tpd"):
        assert_array_equal(a.summaries[name].draws, b.summaries[name].draws)
        assert_array_equal(a.summaries[name].mean_se, b.summaries[name].mean_se)
    c = simulate(panel, SimulationConfig(replications=12, noise_mean=0.1,
                                         noise_sd_max=0.4, seed=100,
                                         estimators=("mpl",), dump_draws=True))
    assert not np.array_equal(a.summaries["mpl"].draws, c.summaries["mpl"].draws)


def test_replication_draws_do_not_depend_on_total_count():
    """Replication r sees the same noise whether 5 or 10 replications run."""
    panel = random_panel(np.random.default_rng(8), 4, 3)
    base = dict(noise_mean=0.05, noise_sd_max=0.3, seed=42,
                estimators=("mpl",), dump_draws=True)
    short = simulate(panel, SimulationConfig(replications=5, **base))
    long = simulate(panel, SimulationConfig(replications=10, **base))
    assert_array_equal(short.summaries["mpl"].draws,
                       long.summaries["mpl"].draws[:5])


def test_additive_scheme_leaves_base_and_absences_alone():
    panel = random_panel(np.random.default_rng(4), 6, 4, missing=0.2)
    config = SimulationConfig(noise_mean=0.2, noise_sd_max=0.5, seed=7)
    values = _value_draws(panel, config)(11)
    b = panel.base_unit
    assert_array_equal(values[:, b], panel.values[:, b])
    assert_array_equal(values[~panel.present], 0.0)
    assert (values[panel.present] > 0).all()
    changed = values != panel.values
    assert changed.any()


def test_random_walk_scheme():
    panel = random_panel(np.random.default_rng(5), 5, 4, missing=0.15)
    config = SimulationConfig(scheme="random_walk", noise_mean=0.0,
                              noise_sd_max=0.4, seed=13)
    values = _value_draws(panel, config)(17)
    assert_array_equal(values[:, 0], panel.values[:, 0])
    assert_array_equal(values[~panel.present], 0.0)
    assert (values[panel.present] > 0).all()


def test_random_walk_requires_leading_base():
    panel = random_panel(np.random.default_rng(6), 4, 3, base=1)
    config = SimulationConfig(scheme="random_walk", noise_sd_max=0.1)
    with pytest.raises(ValidationError):
        simulate(panel, config)


def test_hopeless_noise_aborts():
    panel = random_panel(np.random.default_rng(7), 3, 3)
    config = SimulationConfig(replications=3, noise_mean=-1e9, noise_sd_max=1e-6,
                              seed=1)
    with pytest.raises(RedrawExhausted):
        simulate(panel, config)


def test_estimator_failures_are_counted_and_excluded(monkeypatch):
    panel = random_panel(np.random.default_rng(9), 4, 3)
    calls = {"n": 0}
    real = _ESTIMATOR_FUNCS["mpl"]

    def flaky(panel, config):
        fit = real(panel, config)

        def fitter(values):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise EstimationError("synthetic failure")
            return fit(values)

        return fitter

    monkeypatch.setitem(_ESTIMATOR_FUNCS, "mpl", flaky)
    config = SimulationConfig(replications=9, noise_mean=0.0, noise_sd_max=0.2,
                              seed=5, estimators=("mpl", "tpd"), dump_draws=True)
    report = simulate(panel, config)
    mpl = report.summaries["mpl"]
    assert mpl.failures == 3
    assert mpl.failed_replications == (2, 5, 8)
    assert mpl.draws.shape == (6, 3)
    assert report.summaries["tpd"].failures == 0
    assert report.summaries["tpd"].draws.shape == (9, 3)


def test_all_replications_failing_is_an_error(monkeypatch):
    panel = random_panel(np.random.default_rng(10), 4, 3)

    def broken(sim_panel, config):
        raise EstimationError("always down")

    monkeypatch.setitem(_ESTIMATOR_FUNCS, "tpd", broken)
    config = SimulationConfig(replications=4, noise_sd_max=0.1, seed=2,
                              estimators=("mpl", "tpd"))
    with pytest.raises(EstimationError):
        simulate(panel, config)


def test_refused_preparation_stops_the_run_before_any_draw(monkeypatch):
    # presence and quantities never change, so a refused preparation is
    # refused in every replication: it is tried once and its own error stands
    panel = random_panel(np.random.default_rng(10), 4, 3)
    calls = Counter()

    def refusing(sim_panel, config):
        calls["prepare"] += 1
        raise EstimationError("refused")

    real_draws = simulate_module._value_draws

    def counted_draws(panel, config):
        draw = real_draws(panel, config)

        def counted(seed):
            calls["draw"] += 1
            return draw(seed)

        return counted

    monkeypatch.setitem(_ESTIMATOR_FUNCS, "tpd", refusing)
    monkeypatch.setattr(simulate_module, "_value_draws", counted_draws)
    config = SimulationConfig(replications=50, noise_sd_max=0.1, estimators=("mpl", "tpd"))
    with pytest.raises(EstimationError, match="^refused$"):
        simulate(panel, config)
    assert calls == {"prepare": 1}


def test_mpl_without_residual_dof_reports_nan_se():
    # a spanning tree of cells: N + T - 1 = 4 present cells, no observed dof
    values = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
    panel = Panel(("a", "b"), ("t1", "t2", "t3"), values, values > 0)
    config = SimulationConfig(replications=5, noise_sd_max=0.1, seed=3,
                              estimators=("mpl", "tpd"))
    report = simulate(panel, config)
    for summary in report.summaries.values():
        assert summary.failures == 0
        assert np.isfinite(summary.mean_index).all()
        assert summary.mean_se[0] == 0.0
        assert np.isnan(summary.mean_se[1:]).all()


def test_bands_use_k_and_mean_se():
    panel = random_panel(np.random.default_rng(12), 5, 3)
    config = SimulationConfig(replications=20, noise_mean=0.0, noise_sd_max=0.3,
                              seed=21, k=2.5, estimators=("mpl", "tpd_weighted"))
    report = simulate(panel, config)
    for summary in report.summaries.values():
        assert_allclose(summary.hi_model - summary.lo_model,
                        2 * 2.5 * summary.mean_se, rtol=1e-12, atol=1e-15)
        assert_allclose(summary.hi_emp - summary.lo_emp,
                        2 * 2.5 * summary.emp_sd, rtol=1e-12, atol=1e-15)
        assert summary.draws is None


@pytest.mark.parametrize("scale, replications, sd_max", [(1.0, 3, 1e200),
                                                         (1e-160, 5, 1e-160)])
def test_replication_spread_at_the_ends_of_the_float_range(scale, replications, sd_max):
    # squared deviations of t2's indexes overflow near 1e200 and lose digits
    # as subnormals near 1e-160; the spread is taken on a power-of-two scaling
    values = np.array([[1.0, 2.0 * scale], [2.0, 3.0 * scale]])
    panel = Panel(("a", "b"), ("t1", "t2"), values, np.ones((2, 2)))
    config = SimulationConfig(replications=replications, noise_sd_max=sd_max,
                              estimators=("mpl",), dump_draws=True)
    summary = simulate(panel, config).summaries["mpl"]
    draws = list(summary.draws[:, 1])
    assert summary.failures == 0
    assert summary.mean_index[1] == pytest.approx(statistics.fmean(draws), rel=1e-15, abs=0)
    assert summary.emp_sd[1] == pytest.approx(statistics.stdev(draws), rel=1e-15, abs=0)
    assert np.isfinite([summary.lo_emp[1], summary.hi_emp[1]]).all()


def test_noise_sd_is_drawn_per_replication():
    """With sd_max > 0 the replication spreads differ, so noise is not constant."""
    panel = random_panel(np.random.default_rng(14), 6, 3)
    config = SimulationConfig(replications=40, noise_mean=0.0, noise_sd_max=1.0,
                              seed=33, estimators=("mpl",), dump_draws=True)
    draws = simulate(panel, config).summaries["mpl"].draws
    spread = draws[:, 1:].std(axis=1)
    assert np.unique(np.round(spread, 12)).size > 1


def assert_same_report(got, want):
    """Bit-for-bit equal summaries: the published figures, failures and draws."""
    assert got.units == want.units
    assert list(got.summaries) == list(want.summaries)
    for name, expected in want.summaries.items():
        summary = got.summaries[name]
        for field in ("mean_index", "emp_sd", "mean_se", "draws"):
            a, b = getattr(summary, field), getattr(expected, field)
            if b is None:
                assert a is None, (name, field)
            else:
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, field)
        assert summary.failed_replications == expected.failed_replications


def zero_dof_panel():
    # a spanning tree of cells: N + T - 1 = 4 present cells, no observed dof
    values = np.array([[1.0, 2.0, 0.0], [0.0, 3.0, 4.0]])
    return Panel(("a", "b"), ("t1", "t2", "t3"), values, values > 0)


ALL = ("mpl", "tpd", "tpd_weighted")


@pytest.mark.parametrize("panel, options", [
    (random_panel(np.random.default_rng(31), 9, 6, missing=0.2, base=2),
     dict(estimators=ALL, noise_mean=0.05, noise_sd_max=0.4)),
    (random_panel(np.random.default_rng(32), 7, 5, missing=0.1),
     dict(scheme="random_walk", estimators=ALL, noise_sd_max=0.5)),
    (random_panel(np.random.default_rng(33), 12, 8, missing=0.3, base=7),
     dict(estimators=("mpl",), variance_method="corollary3", noise_sd_max=0.3)),
    (random_panel(np.random.default_rng(34), 6, 9, missing=0.2),
     dict(estimators=("tpd_weighted", "mpl"), noise_sd_max=0.2)),
    (random_panel(np.random.default_rng(35), 3, 12, missing=0.1, base=4),
     dict(estimators=ALL, variance_method="corollary3", noise_sd_max=0.3)),
    (zero_dof_panel(), dict(estimators=ALL, noise_sd_max=0.1)),
    (zero_dof_panel(), dict(scheme="random_walk", estimators=ALL, noise_sd_max=0.1)),
])
def test_simulate_matches_the_per_replication_fits(panel, options):
    config = SimulationConfig(replications=25, seed=17, dump_draws=True, **options)
    assert_same_report(simulate(panel, config), simulate_reference(panel, config))


def test_one_fitted_replication_measures_no_spread(monkeypatch):
    # below two fits emp_sd and the empirical band are NaN off the base,
    # whose index is 1 in every fit, and nothing warns
    panel = random_panel(np.random.default_rng(11), 2, 3, base=1)
    config = SimulationConfig(replications=1, noise_sd_max=0.1, estimators=ALL)
    report = simulate(panel, config)
    assert_same_report(report, simulate_reference(panel, config))
    real = _ESTIMATOR_FUNCS["mpl"]

    def first_only(panel, config):
        fit, fitted = real(panel, config), []

        def fitter(values):
            if fitted:
                raise EstimationError("synthetic failure")
            fitted.append(values)
            return fit(values)

        return fitter

    monkeypatch.setitem(_ESTIMATOR_FUNCS, "mpl", first_only)
    failing = simulate(panel, SimulationConfig(replications=4, noise_sd_max=0.1,
                                               estimators=("mpl",))).summaries["mpl"]
    assert failing.failures == 3
    for summary in [*report.summaries.values(), failing]:
        assert (summary.emp_sd[1], summary.lo_emp[1], summary.hi_emp[1]) == (0.0, 1.0, 1.0)
        for band in (summary.emp_sd, summary.lo_emp, summary.hi_emp):
            assert np.isnan(band[[0, 2]]).all()
        assert np.isfinite(summary.lo_model).all()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_value_draws_match_the_per_unit_loop(scheme):
    # noise about as large as the values: many replications redraw a cell
    config = SimulationConfig(scheme=scheme, noise_mean=0.0, noise_sd_max=2.0)
    redrawn_count = draws = 0
    for k in range(40):
        rng = np.random.default_rng(k)
        n_units = int(rng.integers(2, 7))
        base = 0 if scheme == "random_walk" else int(rng.integers(n_units))
        panel = random_panel(rng, int(rng.integers(2, 9)), n_units, missing=0.2, base=base)
        draw = _value_draws(panel, config)
        for seed in range(5):
            values = draw(seed).copy()
            want, redrawn = per_unit_values(panel, config, np.random.default_rng(seed))
            draws += 1
            redrawn_count += redrawn
            # the walk draws unit by unit as the loop does, redraws and all;
            # one call over every cell gives the loop's stream until a redraw
            if scheme == "random_walk" or not redrawn:
                assert values.tobytes() == want.tobytes(), (k, seed)
                continue
            b = panel.base_unit
            assert_array_equal(values[:, b], panel.values[:, b])
            assert_array_equal(values[~panel.present], 0.0)
            assert (values[panel.present] > 0).all()
            draw(seed + 1)
            assert draw(seed).tobytes() == values.tobytes()
    assert 0 < redrawn_count < draws


@pytest.mark.parametrize("options, error", [
    (dict(noise_mean=-1e9, noise_sd_max=1e-6), RedrawExhausted),
    # draws past the float range read inf, which the panel check refuses
    (dict(noise_mean=1e308, noise_sd_max=1e308), ValidationError),
])
def test_simulate_fails_as_the_per_replication_fits(options, error):
    panel = random_panel(np.random.default_rng(37), 5, 4)
    config = SimulationConfig(replications=6, seed=2, **options)
    with pytest.raises(error) as expected:
        simulate_reference(panel, config)
    with pytest.raises(error) as got:
        simulate(panel, config)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


def test_refused_preparation_fails_as_the_reference():
    # item a's quantities span more than the float range, which the MPL
    # scaling refuses whatever the values: the run stops with that refusal
    panel = random_panel(np.random.default_rng(37), 5, 4)
    quantities = panel.quantities.copy()
    quantities[0, :2] = 1e-200, 1e200
    panel = Panel(panel.items, panel.units, panel.values, quantities)
    config = SimulationConfig(replications=6, seed=2, estimators=ALL)
    with pytest.raises(EstimationError) as expected:
        simulate_reference(panel, config)
    with pytest.raises(EstimationError) as got:
        simulate(panel, config)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value) == OVERFLOW_MESSAGE


def test_replications_repeat_no_presence_work(monkeypatch):
    # checks, panels, the unweighted TPD factor and its diag(S^{-1}) do not
    # scale with the number of replications
    panel = random_panel(np.random.default_rng(38), 10, 6, missing=0.2)
    counts = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(estimator, "require_connected")
    spy(dummy, "require_connected")
    factor_two_way = dummy.factor_two_way
    tpd_factoring = False

    def counted_factor(*args):
        nonlocal tpd_factoring
        counts["factor_two_way"] += 1
        tpd_factoring = True
        try:
            return factor_two_way(*args)
        finally:
            tpd_factoring = False

    monkeypatch.setattr(dummy, "factor_two_way", counted_factor)
    # a factor forms its diag(S^{-1}) when it is built: count the factors
    # built for the TPD fitter, on either side
    for side in (algebra._UnitSide, algebra._ItemSide):
        def counted_init(factor, *args, init=side.__init__):
            if tpd_factoring:
                counts["unit_variances"] += 1
            init(factor, *args)

        monkeypatch.setattr(side, "__init__", counted_init)
    post_init = Panel.__post_init__

    def counted_panel(self):
        counts["Panel"] += 1
        post_init(self)

    monkeypatch.setattr(Panel, "__post_init__", counted_panel)

    def calls(replications):
        counts.clear()
        simulate(panel, SimulationConfig(replications=replications, noise_sd_max=0.1,
                                         seed=1, estimators=("mpl", "tpd")))
        return dict(counts)

    assert calls(5) == calls(50) == {"require_connected": 2, "factor_two_way": 1,
                                     "unit_variances": 1}
