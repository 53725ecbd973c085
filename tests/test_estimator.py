import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    BasketViolation,
    DeflatorEstimate,
    DegenerateDeflator,
    InvalidDimension,
    Panel,
    UndefinedVariance,
    UnidentifiedModel,
    ValidationError,
    deflator_covariance,
    estimate_deflators,
    index_variance,
    pseudo_reciprocal,
    to_index_series,
    with_variance_method,
)
from helpers import random_panel
from oracles import build_design_system, ols_fit


def ones_panel(*columns, base=0, mode="time"):
    v = np.column_stack(columns).astype(float)
    items = tuple(f"i{k}" for k in range(v.shape[0]))
    units = tuple(f"t{k}" for k in range(v.shape[1]))
    return Panel.from_arrays(items, units, v, np.ones_like(v),
                             base_unit=base, mode=mode)


F1 = ones_panel([1.0, 2.0], [2.0, 4.0])
F3 = ones_panel([1.0, 2.0], [3.0, 4.0])


def test_pseudo_reciprocal():
    assert_array_equal(pseudo_reciprocal([2.0, 0.0, 0.5]), [0.5, 0.0, 2.0])
    x = np.array([0.25, 3.0, 7.5])
    assert_allclose(pseudo_reciprocal(pseudo_reciprocal(x)), x, rtol=1e-15)


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
    # full partition: scalar Schur complement 25 - 12.5 = 12.5
    assert_allclose(est.cov_deflators, [[0.0064]], rtol=0, atol=1e-14)
    assert_allclose(deflator_covariance(est, "corollary3"), [[0.0032]],
                    rtol=0, atol=1e-14)
    var = index_variance(est, "corollary3")
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
        nb = list(est.nonbase_indices)
        assert_allclose(est.deflators[nb], fit.beta[:t - 1], rtol=1e-10)
        assert_allclose(est.ref_prices, fit.beta[t - 1:], rtol=1e-10)
        if est.sigma2 is not None:
            assert est.sigma2 == pytest.approx(fit.sigma2, rel=1e-9)
        assert_allclose(est.lam11, fit.blocks.lam11, rtol=1e-8, atol=1e-13)
        assert est.deflators[panel.base_unit] == 1.0
        assert est.indexes[panel.base_unit] == 1.0


def test_thin_item_rejected_before_estimation():
    values = np.array([[1.0, 2.0, 1.0], [3.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    panel = Panel.from_arrays(("a", "b", "c"), ("t1", "t2", "t3"),
                              values, np.where(values > 0, 1.0, 0.0))
    # item b and c each appear twice; shrink b to one appearance
    thin = np.array([[1.0, 2.0, 1.0], [3.0, 0.0, 0.0], [0.0, 2.0, 2.0]])
    panel = Panel.from_arrays(("a", "b", "c"), ("t1", "t2", "t3"),
                              thin, np.where(thin > 0, 1.0, 0.0))
    with pytest.raises(BasketViolation):
        estimate_deflators(panel)


def test_single_unit_panel_rejected():
    v = np.ones((2, 1))
    panel = Panel.from_arrays(("a", "b"), ("t1",), v, v.copy())
    with pytest.raises(InvalidDimension):
        estimate_deflators(panel)


def test_dof_rules():
    rng = np.random.default_rng(55)
    full = random_panel(rng, 5, 4)
    assert estimate_deflators(full, dof_rule="paper").dof == \
        estimate_deflators(full, dof_rule="observed").dof == 20 - 8
    sparse = random_panel(rng, 5, 4, missing=0.2)
    paper = estimate_deflators(sparse, dof_rule="paper")
    observed = estimate_deflators(sparse, dof_rule="observed")
    n_present = int(sparse.present.sum())
    assert paper.dof == 12
    assert observed.dof == n_present - 8
    assert observed.sigma2 == pytest.approx(paper.ssr / observed.dof, rel=1e-15)
    with pytest.raises(ValidationError):
        estimate_deflators(full, dof_rule="bootstrap")
    with pytest.raises(ValidationError):
        estimate_deflators(full, variance_method="sandwich")


def test_undefined_variance_when_no_dof():
    panel = Panel.from_arrays(("a",), ("t1", "t2"),
                              np.array([[2.0, 3.0]]), np.array([[1.0, 1.0]]))
    est = estimate_deflators(panel)
    assert est.sigma2 is None
    assert est.cov_deflators is None
    with pytest.raises(UndefinedVariance):
        deflator_covariance(est)


def test_variance_method_switch():
    est = estimate_deflators(F3, variance_method="corollary3")
    assert_allclose(est.cov_deflators, [[0.0032]], atol=1e-14)
    switched = with_variance_method(est, "full_partition")
    assert switched.variance_method == "full_partition"
    assert_allclose(switched.cov_deflators, [[0.0064]], atol=1e-14)
    assert_array_equal(switched.deflators, est.deflators)
    assert_allclose(deflator_covariance(est, "full_partition"),
                    switched.cov_deflators, rtol=0, atol=0)


def test_index_variance_identity_at_unit_deflator():
    est = estimate_deflators(F3)
    forced = dataclasses.replace(est, deflators=np.array([1.0, 1.0]))
    var = index_variance(forced)
    assert var[1] == pytest.approx(float(est.cov_deflators[0, 0]), rel=1e-15)


def test_index_variance_degenerate_deflator():
    est = estimate_deflators(F3)
    broken = dataclasses.replace(est, deflators=np.array([1.0, 0.0]))
    with pytest.raises(DegenerateDeflator):
        index_variance(broken)
    series = to_index_series(broken)  # must not raise
    assert series.se[0] == 0.0
    assert np.isnan(series.se[1])


def test_index_series_bounds_and_pct():
    est = estimate_deflators(F1)
    # rig the covariance so the index standard error is exactly 0.1
    rigged = dataclasses.replace(
        est, sigma2=1.0, lam11=np.array([[0.000625]]),
        cov_deflators=np.array([[0.000625]]),
        variance_method="full_partition",
    )
    series = to_index_series(rigged, k=3.0)
    assert_allclose(series.se, [0.0, 0.1], rtol=0, atol=1e-15)
    assert_allclose(series.lower, [1.0, 1.7], rtol=0, atol=1e-14)
    assert_allclose(series.upper, [1.0, 2.3], rtol=0, atol=1e-14)
    assert np.isnan(series.pct_change[0])
    assert series.pct_change[1] == pytest.approx(100.0, rel=1e-12)


def test_index_series_pct_change_chain():
    levels = np.array([1.0, 1.1, 1.21])
    est = DeflatorEstimate(
        units=("t1", "t2", "t3"), items=("a",), base_unit=0, mode="time",
        deflators=pseudo_reciprocal(levels), indexes=levels,
        ref_prices=np.ones(1), ssr=0.0, dof=0, dof_rule="paper", sigma2=None,
        variance_method="full_partition", cov_deflators=None,
        deflator_gram=np.ones(2), lam11=np.eye(2),
    )
    series = to_index_series(est)
    assert np.isnan(series.pct_change[0])
    assert_allclose(series.pct_change[1:], [10.0, 10.0], rtol=1e-12)
    assert np.isnan(series.se[1]) and np.isnan(series.upper[1])
    assert series.se[0] == 0.0


def test_index_series_space_mode_has_no_pct():
    rng = np.random.default_rng(4)
    panel = random_panel(rng, 4, 3, mode="space")
    est = estimate_deflators(panel)
    assert est.mode == "space"
    series = to_index_series(est)
    assert series.pct_change is None
    assert series.mode == "space"


def test_nonzero_base_unit():
    panel = ones_panel([1.0, 2.0], [2.0, 4.0], base=1)
    est = estimate_deflators(panel)
    assert est.deflators[1] == 1.0
    assert est.indexes[1] == 1.0
    assert_allclose(est.indexes[0], 0.5, rtol=0, atol=1e-13)


def test_trivial_single_unit_estimate():
    v = np.array([[15.0], [8.0]])
    q = np.array([[5.0], [2.0]])
    panel = Panel.from_arrays(("a", "b"), ("t1",), v, q)
    est = DeflatorEstimate.trivial(panel)
    assert_array_equal(est.ref_prices, [3.0, 4.0])
    assert_array_equal(est.deflators, [1.0])
    assert est.sigma2 is None
    with pytest.raises(InvalidDimension):
        DeflatorEstimate.trivial(F1)


def test_disconnected_panel_raises_instead_of_zero_deflators():
    # units u2, u3 share no item with the base; their component has no exact
    # fit, so the Schur solve succeeds and would return zero deflators there
    values = np.array([[1.0, 2.0, 0.0, 0.0],
                       [0.0, 0.0, 1.0, 2.0],
                       [0.0, 0.0, 3.0, 1.0]])
    panel = Panel.from_arrays(("a", "b", "c"), ("u0", "u1", "u2", "u3"),
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
    panel = Panel.from_arrays(("a", "b"), ("u0", "u1", "u2", "u3"),
                              values, values.copy())
    with pytest.raises(UnidentifiedModel) as exc:
        estimate_deflators(panel)
    assert exc.value.components == ((("u0", "u1"), ("a",)), (("u2", "u3"), ("b",)))
