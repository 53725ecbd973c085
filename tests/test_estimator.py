import dataclasses
import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    BasketViolation,
    DeflatorEstimate,
    EstimationError,
    InvalidDimension,
    Panel,
    SimulationConfig,
    UnidentifiedModel,
    ValidationError,
    build_reference_basket,
    estimate_deflators,
    fit_dummy_index,
    gram_blocks,
    load_panel,
    simulate,
    to_index_series,
)
from mplindex.estimator import _stacked_ssr, deflator_fitter
from helpers import random_panel, solve_two_way
from oracles import build_design_system, long_double_deflators, ols_fit


def perfbench_gen():
    """perfbench/gen.py, loaded from its file without installing anything."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def ones_panel(*columns, base=0, mode="time"):
    v = np.column_stack(columns).astype(float)
    items = tuple(f"i{k}" for k in range(v.shape[0]))
    units = tuple(f"t{k}" for k in range(v.shape[1]))
    return Panel(items, units, v, np.ones_like(v),
                 base_unit=base, mode=mode)


F1 = ones_panel([1.0, 2.0], [2.0, 4.0])
F3 = ones_panel([1.0, 2.0], [3.0, 4.0])


def test_proportional_panel_fits_exactly():
    est = estimate_deflators(F1)
    assert_allclose(est.deflators, [1.0, 0.5], rtol=0, atol=1e-14)
    assert_allclose(est.indexes, [1.0, 2.0], rtol=0, atol=1e-13)
    assert_allclose(est.ref_prices, [1.0, 2.0], rtol=0, atol=1e-13)
    assert est.ssr == pytest.approx(0.0, abs=1e-26)


def test_two_unit_regression_values():
    est = estimate_deflators(F3)
    assert abs(est.deflators[1] - 0.44) <= 1e-12
    assert_allclose(est.ref_prices, [1.16, 1.88], rtol=0, atol=1e-12)
    assert abs(est.ssr - 0.08) <= 1e-12
    assert est.dof == 1
    assert abs(est.sigma2 - 0.08) <= 1e-12
    # full partition: scalar Schur complement 25 - 12.5 = 12.5; se * d is
    # the deflator's standard error
    assert_allclose((est.se * est.deflators)**2, [0.0, 0.0064], rtol=0, atol=1e-14)
    cor3 = estimate_deflators(F3, variance_method="corollary3")
    assert_allclose((cor3.se * cor3.deflators)**2, [0.0, 0.0032], rtol=0, atol=1e-14)
    var = cor3.index_se**2
    assert var[0] == 0.0
    assert abs(var[1] - 0.0032 / 0.44**4) <= 1e-9


def test_identical_units_give_unit_deflators():
    col = [1.5, 2.5, 0.5]
    est = estimate_deflators(ones_panel(col, col, col, col))
    assert_allclose(est.deflators, 1.0, rtol=0, atol=1e-12)
    assert est.ssr == pytest.approx(0.0, abs=1e-24)


def test_matches_dense_ols_on_random_panels():
    rng = np.random.default_rng(101)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        t = int(rng.integers(2, 8))
        base = int(rng.integers(0, t))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0, 0.25)),
                             base=base)
        est = estimate_deflators(panel)
        fit = ols_fit(build_design_system(panel))
        nb = panel.nonbase_units
        assert_allclose(est.deflators[nb], fit.beta[:t - 1], rtol=1e-10)
        assert_allclose(est.ref_prices, fit.beta[t - 1:], rtol=1e-10)
        assert est.sigma2 == pytest.approx(fit.sigma2, rel=1e-9)
        assert_allclose((est.se * est.deflators)[nb]**2,
                        est.sigma2 * np.diag(fit.blocks.lam11),
                        rtol=1e-8, atol=1e-13)
        assert est.se[panel.base_unit] == 0.0
        assert est.deflators[panel.base_unit] == 1.0
        assert est.indexes[panel.base_unit] == 1.0


def test_thin_item_rejected_before_estimation():
    values = np.array([[1.0, 2.0, 1.0], [3.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    panel = Panel(("a", "b", "c"), ("t1", "t2", "t3"),
                  values, np.where(values > 0, 1.0, 0.0))
    # item b and c each appear twice; shrink b to one appearance
    thin = np.array([[1.0, 2.0, 1.0], [3.0, 0.0, 0.0], [0.0, 2.0, 2.0]])
    panel = Panel(("a", "b", "c"), ("t1", "t2", "t3"),
                  thin, np.where(thin > 0, 1.0, 0.0))
    with pytest.raises(BasketViolation):
        estimate_deflators(panel)


def test_single_unit_panel_rejected():
    # a panel of one unit has no index to estimate: MPL and TPD, weighted or
    # not, and the replication harness refuse it alike
    v = np.ones((2, 1))
    panel = Panel(("a", "b"), ("t1",), v, v.copy())
    fits = (estimate_deflators, fit_dummy_index,
            lambda p: fit_dummy_index(p, weighted=True),
            lambda p: simulate(p, SimulationConfig(replications=2, estimators=("tpd",))))
    for fit in fits:
        with pytest.raises(InvalidDimension, match="at least two units, got T=1$"):
            fit(panel)


def test_dof_rules():
    # one rule: the present cells less the N + T - 1 parameters, since an
    # absent cell's residual is zero by construction
    rng = np.random.default_rng(55)
    full = random_panel(rng, 5, 4)
    assert estimate_deflators(full).dof == 20 - 8
    sparse = random_panel(rng, 5, 4, missing=0.2)
    n_present = int(sparse.present.sum())
    assert n_present < 20
    assert estimate_deflators(sparse).dof == n_present - 8
    with pytest.raises(ValidationError):
        estimate_deflators(full, variance_method="sandwich")


def test_undefined_variance_when_no_dof():
    panel = Panel(("a",), ("t1", "t2"),
                  np.array([[2.0, 3.0]]), np.array([[1.0, 1.0]]))
    est = estimate_deflators(panel)
    assert est.sigma2 is None
    assert est.se[0] == est.index_se[0] == 0.0
    assert np.isnan(est.se[1]) and np.isnan(est.index_se[1])


def test_variance_method_switch():
    cor3 = estimate_deflators(F3, variance_method="corollary3")
    full = estimate_deflators(F3, variance_method="full_partition")
    assert (cor3.variance_method, full.variance_method) == \
        ("corollary3", "full_partition")
    assert_allclose((cor3.se[1] * cor3.deflators[1])**2, 0.0032, rtol=0, atol=1e-14)
    assert_allclose((full.se[1] * full.deflators[1])**2, 0.0064, rtol=0, atol=1e-14)
    for field in ("deflators", "indexes", "ref_prices", "ssr", "sigma2"):
        assert_array_equal(getattr(cor3, field), getattr(full, field),
                           err_msg=field)


def test_corollary3_se_uses_the_deflator_gram():
    # corollary3's se is sigma2 / (v_t'v_t) on either side of the factor,
    # although both sides form diag(S^{-1}) for their error bound
    rng = np.random.default_rng(8)
    # 6 items over 4 non-base units eliminate the items, 3 over 7 the units
    for n, t in ((6, 5), (3, 8)):
        panel = random_panel(rng, n, t, missing=0.1)
        est = estimate_deflators(panel, variance_method="corollary3")
        gram = (np.delete(panel.values, panel.base_unit, axis=1) ** 2).sum(axis=0)
        nb = panel.nonbase_units
        assert_allclose(est.se[nb], np.sqrt(est.sigma2 / gram) / est.deflators[nb],
                        rtol=1e-14)
        series = to_index_series(est)
        assert np.isfinite(series.se).all()


def test_rescaled_fit_is_bit_identical_to_the_plain_solve():
    panel = random_panel(np.random.default_rng(12), 7, 5, missing=0.15)
    nb = panel.nonbase_units
    est = estimate_deflators(panel)
    blocks = gram_blocks(panel)
    deflators, prices, var = solve_two_way(
        blocks.price_gram, -blocks.cross, blocks.deflator_gram, blocks.rhs,
        np.zeros(len(nb)), list(panel.items), [panel.units[u] for u in nb],
        variances=True)
    assert_array_equal(est.deflators[nb], deflators)
    assert_array_equal(est.ref_prices, prices)
    assert est.ssr == _stacked_ssr(panel.quantities, panel.values.copy(), est.deflators, prices)
    assert_array_equal(est.se[nb], np.sqrt(est.sigma2 * var) / deflators)
    # powers of two far from 1, shared and per unit: the fit scales them
    # away exactly and back where they belong
    g = np.arange(panel.n_items) - 300
    k = 300 + 40 * (np.arange(panel.n_units) - 1)
    k_base = int(k[panel.base_unit])
    shifted = Panel(panel.items, panel.units, np.ldexp(panel.values, k),
                    np.ldexp(panel.quantities, g[:, None]))
    far = estimate_deflators(shifted)
    assert_array_equal(far.deflators, np.ldexp(est.deflators, k_base - k))
    assert_array_equal(far.se, est.se)
    assert_array_equal(far.ref_prices, np.ldexp(est.ref_prices, k_base - g))
    assert far.ssr == math.ldexp(est.ssr, 2 * k_base)
    assert far.sigma2 == math.ldexp(est.sigma2, 2 * k_base)



@pytest.mark.parametrize("spanning", ["values", "quantities"])
def test_a_unit_or_item_spanning_the_float_range_is_refused(spanning):
    # scaled to its largest entry, the 1e-300 next to 1e300 flushes to
    # zero: the fit refuses rather than drop a present cell
    values, quantities = np.full((3, 3), 2.0), np.full((3, 3), 1.5)
    (values if spanning == "values" else quantities.T)[:2, 1] = [1e300, 1e-300]
    panel = Panel(["a", "b", "c"], ["t0", "t1", "t2"], values, quantities)
    with pytest.raises(EstimationError, match="overflow"):
        estimate_deflators(panel)

@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
@pytest.mark.parametrize("seed", [1, 2, "one_unit_x2^40"])
def test_many_units_indexes_against_long_double(seed, tmp_path):
    # perfbench's many_units panel as the CLI loads it: 150 items over 1199
    # non-base outlets, so the units are eliminated.  The float64 Gram
    # blocks carry an error of their own: their exact solution is 2.0e-15
    # and 2.5e-15 off in the index on these seeds.  The solve adds at most
    # 2.5e-16 to that.  Eliminating the items read 2.2e-15 and 1.4e-15,
    # the second below the blocks' own error through cancellation.  The
    # last input is the 30 x 6 panel of default_rng(0).uniform(1, 10) with
    # unit t3's values x 2^40, which the unscaled pivot test refuses
    if seed == "one_unit_x2^40":
        rng = np.random.default_rng(0)
        values, quantities = rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6))
        values[:, 3] = np.ldexp(values[:, 3], 40)
        panel = Panel([f"i{k}" for k in range(30)], [f"t{k}" for k in range(6)],
                      values, quantities)
    else:
        gen = perfbench_gen()
        inputs = gen.generate(gen.Shape("space", 150, 1200, 0.3, True), seed, str(tmp_path))
        panel, _ = build_reference_basket(load_panel(inputs.panel_path, mode="space"))
    nb = panel.nonbase_units
    reference = 1 / long_double_deflators(panel)
    floor = 1 / long_double_deflators(panel, gram_blocks(panel))

    def worst(index):
        return float(np.max(np.abs(index - reference) / reference))

    error = worst(estimate_deflators(panel).indexes[nb])
    assert error <= worst(floor) + 2.5e-16
    assert error <= 2.6e-15


def test_index_series_bounds_and_pct():
    est = estimate_deflators(F1)
    # rig the log standard error so the index standard error is exactly 0.1
    rigged = dataclasses.replace(
        est, se=np.array([0.0, 0.05]),
        variance_method="full_partition",
    )
    series = to_index_series(rigged, k=3.0)
    assert_allclose(series.se, [0.0, 0.1], rtol=0, atol=1e-15)
    assert_allclose(series.lower, [1.0, 1.7], rtol=0, atol=1e-14)
    assert_allclose(series.upper, [1.0, 2.3], rtol=0, atol=1e-14)
    assert np.isnan(series.pct_change[0])
    assert series.pct_change[1] == pytest.approx(100.0, rel=1e-12)


@pytest.mark.parametrize("k", [-3.0, 0.0, float("nan"), float("inf")])
def test_index_series_rejects_bad_k(k):
    with pytest.raises(ValidationError, match="^k must be finite and positive"):
        to_index_series(estimate_deflators(F3), k=k)


@pytest.mark.parametrize("k", [None, "3", True])
def test_index_series_rejects_a_k_that_is_not_a_number(k):
    with pytest.raises(ValidationError, match="^k must be a real number"):
        to_index_series(estimate_deflators(F3), k=k)


def test_index_series_pct_change_chain():
    levels = np.array([1.0, 1.1, 1.21])
    est = DeflatorEstimate(
        units=("t1", "t2", "t3"), items=("a",), base_unit=0, mode="time",
        deflators=1.0 / levels, indexes=levels,
        ref_prices=np.ones(1), ssr=0.0, dof=0,
        variance_method="full_partition", se=np.array([0.0, np.nan, np.nan]),
    )
    series = to_index_series(est)
    assert np.isnan(series.pct_change[0])
    assert_allclose(series.pct_change[1:], [10.0, 10.0], rtol=1e-12)
    assert np.isnan(series.se[1]) and np.isnan(series.upper[1])
    assert series.se[0] == 0.0


def test_index_series_space_mode_pct_is_nan():
    rng = np.random.default_rng(4)
    panel = random_panel(rng, 4, 3, mode="space")
    est = estimate_deflators(panel)
    assert est.mode == "space"
    series = to_index_series(est)
    assert np.isnan(series.pct_change).all() and len(series.pct_change) == 3
    assert series.mode == "space"


def test_nonzero_base_unit():
    panel = ones_panel([1.0, 2.0], [2.0, 4.0], base=1)
    est = estimate_deflators(panel)
    assert est.deflators[1] == 1.0
    assert est.indexes[1] == 1.0
    assert_allclose(est.indexes[0], 0.5, rtol=0, atol=1e-13)


def test_disconnected_panel_raises_instead_of_zero_deflators():
    # units u2, u3 share no item with the base; their component has no exact
    # fit, so the Schur solve succeeds and would return zero deflators there
    values = np.array([[1.0, 2.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 2.0],
                       [0.0, 0.0, 3.0, 1.0]])
    panel = Panel(("a", "b", "c"), ("u0", "u1", "u2", "u3"),
                  values, np.where(values > 0, 1.0, 0.0))
    with pytest.raises(UnidentifiedModel) as exc:
        estimate_deflators(panel)
    assert len(exc.value.components) == 2
    assert "u2" in str(exc.value)


def test_exactly_fitting_split_panel_raises_unidentified():
    # each component fits exactly, so its Schur complement is singular; the
    # connectivity check runs before the solve and names the components
    values = np.array([[1.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 1.0]])
    panel = Panel(("a", "b"), ("u0", "u1", "u2", "u3"),
                  values, values.copy())
    with pytest.raises(UnidentifiedModel) as exc:
        estimate_deflators(panel)
    assert exc.value.components == ((("u0", "u1"), ("a",)), (("u2", "u3"), ("b",)))


@pytest.mark.parametrize("method, band, share", [
    # the full inverse's se matches the spread of log d_t
    pytest.param("full_partition", (0.9, 1.1), 1.0, id="full_partition-band0"),
    # sigma2 / sum(v_t^2) leaves out the reference prices' uncertainty and
    # understates the spread by about a third
    pytest.param("corollary3", (0.6, 0.8), 1.0, id="corollary3-band1"),
    # on a sparse panel too, as long as sigma2 counts only the present cells;
    # there corollary3 understates less and less evenly (0.63 to 0.81 per
    # unit over seeds 0 to 11)
    pytest.param("full_partition", (0.9, 1.1), 0.55, id="full_partition-sparse"),
    pytest.param("corollary3", (0.6, 0.85), 0.55, id="corollary3-sparse"),
])
def test_se_against_the_spread_under_the_papers_model(method, band, share):
    """se of log d_t over the empirical sd of log index_t across 1000 fits
    of v_it = (q_it p_i + e_it) / d_t, e ~ N(0, 0.5^2), on every non-base unit,
    with about share of the cells present."""
    rng = np.random.default_rng(0)
    n, t, sigma, fits = 30, 6, 0.5, 1000
    prices = rng.uniform(5.0, 10.0, (n, 1))
    quantities = rng.uniform(2.0, 10.0, (n, t))
    deflators = np.linspace(1.0, 1.5, t)
    noise = rng.normal(0.0, sigma, (fits, n, t))
    # the base unit holds every item and every item one other unit; with
    # q p >= 10, no draw of the noise on a present cell goes nonpositive
    present = rng.random((n, t)) < (share * t - 1) / (t - 1)
    present[:, 0] = True
    lone = ~present[:, 1:].any(axis=1)
    present[lone, rng.integers(1, t, lone.sum())] = True
    quantities *= present
    noise *= present
    panel = Panel([f"i{i}" for i in range(n)], [f"t{u}" for u in range(t)],
                  quantities * prices / deflators, quantities)
    assert abs(present.mean() - share) < 0.05
    fit = deflator_fitter(panel, variance_method=method)
    estimates = [fit((quantities * prices + e) / deflators) for e in noise]
    log_index = np.log([est.indexes for est in estimates])
    ratio = (np.mean([est.se for est in estimates], axis=0)[1:]
             / log_index.std(axis=0, ddof=1)[1:])
    assert ((band[0] <= ratio) & (ratio <= band[1])).all(), ratio
