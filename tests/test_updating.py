import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    BasketViolation,
    Panel,
    UnidentifiedModel,
    ValidationError,
    deflator_covariance,
    estimate_deflators,
    to_index_series,
    update_multilateral,
    update_multiperiod,
    with_variance_method,
)
from helpers import random_panel


def ones_panel(*columns, base=0):
    v = np.column_stack(columns).astype(float)
    items = tuple(f"i{k}" for k in range(v.shape[0]))
    units = tuple(f"t{k}" for k in range(v.shape[1]))
    return Panel.from_arrays(items, units, v, np.ones_like(v), base_unit=base)


F1 = ones_panel([1.0, 2.0], [2.0, 4.0])


def constrained_period_oracle(panel, values, quantities):
    """Dense joint fit of the new-period deflator and refreshed prices with
    every prior deflator frozen at its published value."""
    prior = estimate_deflators(panel)
    n, t = panel.n_items, panel.n_units
    rows = n * (t + 1)
    X = np.zeros((rows, 1 + n))
    y = np.zeros(rows)
    r = np.arange(n)
    for s in range(t):
        y[n * s + r] = prior.deflators[s] * panel.values[:, s]
        X[n * s + r, 1 + r] = panel.quantities[:, s]
    X[n * t + r, 0] = -values
    X[n * t + r, 1 + r] = quantities
    beta, ssr, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    return prior, beta[0], beta[1:], float(resid @ resid)


def test_new_unit_with_proportional_values():
    result = update_multilateral(F1, ("t3", np.array([3.0, 6.0]), np.ones(2)))
    est = result.estimate
    assert est.units == ("t0", "t1", "t3")
    assert_allclose(est.indexes, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)
    assert est.ssr == pytest.approx(0.0, abs=1e-24)
    assert result.changed_mask.shape == (3,)
    assert result.changed_mask[-1]


def test_duplicate_base_unit_reads_one():
    result = update_multilateral(F1, ("t3", np.array([1.0, 2.0]), np.ones(2)))
    assert abs(result.estimate.indexes[-1] - 1.0) <= 1e-12


def test_matches_fresh_estimation_with_missing_cells():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        t = int(rng.integers(2, 7))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0, 0.25)))
        values = rng.uniform(0.5, 8.0, n)
        quantities = rng.uniform(0.5, 8.0, n)
        if n > 3:  # leave one item out of the new unit
            values[0] = 0.0
            quantities[0] = 0.0
        result = update_multilateral(panel, ("new", values, quantities))
        fresh = estimate_deflators(panel.with_unit("new", values, quantities))
        for field in ("deflators", "indexes", "ref_prices", "lam11",
                      "cov_deflators", "ssr", "sigma2"):
            assert_array_equal(getattr(result.estimate, field),
                               getattr(fresh, field), err_msg=field)


def test_changed_mask_agrees_with_prior_comparison():
    rng = np.random.default_rng(13)
    panel = random_panel(rng, 5, 3, missing=0.1)
    new = ("new", rng.uniform(0.5, 8.0, 5), rng.uniform(0.5, 8.0, 5))
    prior = estimate_deflators(panel)
    result = update_multilateral(panel, new, prior=prior)
    expected = np.append(prior.indexes != result.estimate.indexes[:-1], True)
    assert_array_equal(result.changed_mask, expected)
    # a prior fitted on differently named units cannot vouch for any entry
    other_panel = random_panel(np.random.default_rng(1), 5, 3)
    other_panel = Panel.from_arrays(other_panel.items, ("x0", "x1", "x2"),
                                    other_panel.values, other_panel.quantities)
    other = estimate_deflators(other_panel)
    assert update_multilateral(panel, new, prior=other).changed_mask.all()


def test_new_unit_basket_violation():
    # item c appears only in t1; a newcomer that skips c leaves it thin
    values = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 5.0]])
    panel = Panel.from_arrays(("a", "b", "c"), ("t0", "t1"),
                              values, np.where(values > 0, 1.0, 0.0))
    with pytest.raises(BasketViolation):
        update_multilateral(panel, ("t2", np.array([1.0, 1.0, 0.0]),
                                    np.array([1.0, 1.0, 0.0])))
    # covering c fixes it
    ok = update_multilateral(panel, ("t2", np.array([1.0, 1.0, 5.0]),
                                     np.array([1.0, 1.0, 1.0])))
    assert ok.estimate.n_units == 3


# two blocks: items a, b in t0, t1 and items c, d in t2, t3; neither block
# fits exactly, so the Schur solve succeeds and only connectivity fails
SPLIT_VALUES = np.array([[1.0, 2.0, 0.0, 0.0],
                         [3.0, 5.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 2.0],
                         [0.0, 0.0, 3.0, 1.0]])
SPLIT = Panel.from_arrays(("a", "b", "c", "d"), ("t0", "t1", "t2", "t3"),
                          SPLIT_VALUES, (SPLIT_VALUES > 0).astype(float))


def test_newcomer_covering_one_block_of_split_panel_is_unidentified():
    newcomer = ("t4", np.array([2.0, 4.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(UnidentifiedModel, match="components"):
        update_multilateral(SPLIT, newcomer)
    # a newcomer that spans both blocks joins them
    bridge = ("t4", np.array([2.0, 4.0, 1.0, 2.0]), np.ones(4))
    assert update_multilateral(SPLIT, bridge).estimate.indexes.min() > 0


def test_new_unit_label_and_length_validation():
    with pytest.raises(ValidationError):
        update_multilateral(F1, ("t0", np.ones(2), np.ones(2)))
    with pytest.raises(ValidationError):
        update_multilateral(F1, ("t9", np.ones(3), np.ones(3)))


def test_period_update_scalar_fixture_is_exact():
    panel = Panel.from_arrays(("a",), ("t1", "t2"),
                              np.array([[10.0, 20.0]]), np.ones((1, 2)))
    prior = estimate_deflators(panel)
    result = update_multiperiod(prior, panel, ("t3", np.array([20.0]), np.ones(1)))
    est = result.estimate
    assert est.indexes[2] == 2.0  # bit-exact, not approximately
    assert est.deflators[2] == 0.5
    assert_array_equal(est.deflators[:2], prior.deflators)
    assert_array_equal(est.indexes[:2], prior.indexes)
    assert_array_equal(result.changed_mask, [False, False, True])
    assert est.covariance_stale


def test_period_update_matches_constrained_oracle():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(2, 6))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0, 0.2)))
        values = rng.uniform(0.5, 8.0, n)
        quantities = rng.uniform(0.5, 8.0, n)
        if n > 2:
            values[-1] = 0.0
            quantities[-1] = 0.0
        prior, delta_new, prices, ssr = constrained_period_oracle(
            panel, values, quantities)
        result = update_multiperiod(prior, panel, ("new", values, quantities))
        est = result.estimate
        assert est.deflators[-1] == pytest.approx(delta_new, rel=1e-9)
        assert_allclose(est.ref_prices, prices, rtol=1e-9)
        assert est.ssr == pytest.approx(ssr, rel=1e-9, abs=1e-12)
        assert est.dof == n * (t + 1) - (n + 1)
        assert est.sigma2 == pytest.approx(ssr / est.dof, rel=1e-9)
        # frozen history is carried bit for bit
        assert_array_equal(est.deflators[:-1], prior.deflators)
        assert_array_equal(est.indexes[:-1], prior.indexes)
        assert not result.changed_mask[:-1].any()


def test_period_update_covariance_blocks():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, 4, 3, missing=0.1)
    prior = estimate_deflators(panel)
    values = rng.uniform(0.5, 8.0, 4)
    quantities = rng.uniform(0.5, 8.0, 4)
    est = update_multiperiod(prior, panel, ("new", values, quantities)).estimate
    assert est.covariance_stale
    cov = est.cov_deflators
    assert_array_equal(cov[:2, :2], prior.cov_deflators)
    assert np.isnan(cov[2, :2]).all() and np.isnan(cov[:2, 2]).all()
    e = (panel.quantities**2).sum(axis=1)
    d = e + quantities**2
    denom = float(np.sum(values * values * e / d))
    assert cov[2, 2] == pytest.approx(est.sigma2 / denom, rel=1e-12)


@pytest.mark.parametrize("dof_rule", ["paper", "observed"])
@pytest.mark.parametrize("variance_method", ["full_partition", "corollary3"])
def test_period_update_reports_what_it_computed(dof_rule, variance_method):
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 6, 4)
    values = rng.uniform(0.5, 8.0, 6)
    quantities = rng.uniform(0.5, 8.0, 6)
    values[2] = quantities[2] = 0.0
    prior = estimate_deflators(panel, variance_method=variance_method,
                               dof_rule=dof_rule)
    est = update_multiperiod(prior, panel, ("new", values, quantities)).estimate
    assert (est.dof_rule, est.variance_method) == (dof_rule, variance_method)
    # 6 items x 5 units with one absent cell; N+1 = 7 unknowns
    assert est.dof == {"paper": 23, "observed": 22}[dof_rule]
    assert est.sigma2 == est.ssr / est.dof
    e = (panel.quantities**2).sum(axis=1)
    d = e + quantities**2
    basis = {"full_partition": float(np.sum(values * values * e / d)),
             "corollary3": float(values @ values)}[variance_method]
    assert est.cov_deflators[-1, -1] == pytest.approx(est.sigma2 / basis, rel=1e-12)


@pytest.mark.parametrize("variance_method", ["full_partition", "corollary3"])
def test_period_update_keeps_published_standard_errors(variance_method):
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 6, 4)
    prior = estimate_deflators(panel, variance_method=variance_method)
    values = rng.uniform(0.5, 8.0, 6)
    quantities = rng.uniform(0.5, 8.0, 6)
    est = update_multiperiod(prior, panel, ("new", values, quantities)).estimate
    published = to_index_series(prior).se
    assert_array_equal(to_index_series(est).se[:-1], published)
    assert_array_equal(deflator_covariance(est)[:3, :3], prior.cov_deflators)


def test_stale_covariance_cannot_switch_method():
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 6, 4)
    prior = estimate_deflators(panel)
    est = update_multiperiod(
        prior, panel, ("new", rng.uniform(0.5, 8.0, 6), rng.uniform(0.5, 8.0, 6))
    ).estimate
    with pytest.raises(ValidationError):
        with_variance_method(est, "corollary3")
    with pytest.raises(ValidationError):
        with_variance_method(est, "full_partition")
    with pytest.raises(ValidationError):
        deflator_covariance(est, "corollary3")


def test_period_update_requires_matching_prior():
    rng = np.random.default_rng(6)
    panel = random_panel(rng, 3, 3)
    renamed = Panel.from_arrays(panel.items, ("x0", "x1", "x2"),
                                panel.values, panel.quantities)
    with pytest.raises(ValidationError):
        update_multiperiod(estimate_deflators(renamed), panel,
                           ("new", np.ones(3), np.ones(3)))
    rebased = Panel.from_arrays(panel.items, panel.units,
                                panel.values, panel.quantities, base_unit=1)
    with pytest.raises(ValidationError):
        update_multiperiod(estimate_deflators(rebased), panel,
                           ("new", np.ones(3), np.ones(3)))


def test_bootstrap_from_single_unit():
    """Chaining from a one-unit panel equals estimating the two-unit panel."""
    from mplindex import DeflatorEstimate

    rng = np.random.default_rng(42)
    v = rng.uniform(1.0, 9.0, (2, 2))
    q = rng.uniform(1.0, 9.0, (2, 2))
    panel2 = Panel.from_arrays(("a", "b"), ("t1", "t2"), v, q)
    seed = Panel.from_arrays(("a", "b"), ("t1",), v[:, :1], q[:, :1])
    boot = update_multilateral(seed, ("t2", v[:, 1], q[:, 1]))
    full = estimate_deflators(panel2)
    assert_allclose(boot.estimate.deflators, full.deflators, rtol=1e-12)
    assert_allclose(boot.estimate.ref_prices, full.ref_prices, rtol=1e-12)
    assert boot.estimate.sigma2 == pytest.approx(full.sigma2, rel=1e-12)


def test_chained_unit_updates_match_batch():
    rng = np.random.default_rng(88)
    panel = random_panel(rng, 4, 5, missing=0.15)
    grown = Panel.from_arrays(panel.items, panel.units[:2],
                              panel.values[:, :2], panel.quantities[:, :2])
    for t in range(2, 5):
        grown = update_multilateral(
            grown, (panel.units[t], panel.values[:, t], panel.quantities[:, t])
        ).estimate
        # rebuild the panel the cheap way for the next round
        grown = Panel.from_arrays(panel.items, panel.units[: t + 1],
                                  panel.values[:, : t + 1],
                                  panel.quantities[:, : t + 1])
    final = update_multilateral(
        Panel.from_arrays(panel.items, panel.units[:4],
                          panel.values[:, :4], panel.quantities[:, :4]),
        (panel.units[4], panel.values[:, 4], panel.quantities[:, 4]),
    ).estimate
    batch = estimate_deflators(panel)
    assert_allclose(final.deflators, batch.deflators, rtol=1e-10)
