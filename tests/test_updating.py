import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    Panel,
    UnidentifiedModel,
    ValidationError,
    estimate_deflators,
    fit_dummy_index,
    to_index_series,
    update_multilateral,
    update_multiperiod,
)
from helpers import notes, one_unit, random_panel


def ones_panel(*columns, base=0):
    v = np.column_stack(columns).astype(float)
    items = tuple(f"i{k}" for k in range(v.shape[0]))
    units = tuple(f"t{k}" for k in range(v.shape[1]))
    return Panel(items, units, v, np.ones_like(v), base_unit=base)


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
    result = update_multilateral(F1, one_unit(F1, "t3", [3.0, 6.0], np.ones(2)))
    est = result.estimate
    assert est.units == ("t0", "t1", "t3")
    assert_allclose(est.indexes, [1.0, 2.0, 3.0], rtol=0, atol=1e-12)
    assert est.ssr == pytest.approx(0.0, abs=1e-24)
    assert result.changed_mask.shape == (3,)
    assert result.changed_mask[-1]


def test_duplicate_base_unit_reads_one():
    result = update_multilateral(F1, one_unit(F1, "t3", [1.0, 2.0], np.ones(2)))
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
        new = one_unit(panel, "new", values, quantities)
        result = update_multilateral(panel, new)
        fresh = estimate_deflators(panel.with_unit(new))
        for field in ("deflators", "indexes", "ref_prices", "se",
                      "ssr", "sigma2"):
            assert_array_equal(getattr(result.estimate, field),
                               getattr(fresh, field), err_msg=field)


def test_changed_mask_agrees_with_prior_comparison():
    rng = np.random.default_rng(13)
    panel = random_panel(rng, 5, 3, missing=0.1)
    new = one_unit(panel, "new", rng.uniform(0.5, 8.0, 5), rng.uniform(0.5, 8.0, 5))
    prior = estimate_deflators(panel)
    result = update_multilateral(panel, new)
    expected = np.append(prior.indexes != result.estimate.indexes[:-1], True)
    assert_array_equal(result.changed_mask, expected)


def test_new_unit_basket_violation():
    # item c appears only in t1; a newcomer that skips c leaves it thin, so
    # the extended panel's basket drops it, as mpl on that panel does
    values = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 5.0]])
    panel = Panel(("a", "b", "c"), ("t0", "t1"),
                  values, np.where(values > 0, 1.0, 0.0))
    with notes() as thin_notes:
        thin = update_multilateral(panel, one_unit(panel, "t2", [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]))
    assert thin_notes == ["note: dropped items outside the reference basket: c"]
    assert thin.estimate.items == ("a", "b")
    # covering c keeps it
    with notes() as ok_notes:
        ok = update_multilateral(panel, one_unit(panel, "t2", [1.0, 1.0, 5.0], [1.0, 1.0, 1.0]))
    assert ok_notes == []
    assert ok.estimate.items == ("a", "b", "c")
    assert len(ok.estimate.units) == 3


# two blocks: items a, b in t0, t1 and items c, d in t2, t3; neither block
# fits exactly, so the Schur solve succeeds and only connectivity fails
SPLIT_VALUES = np.array([[1.0, 2.0, 0.0, 0.0],
                         [3.0, 5.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 2.0],
                         [0.0, 0.0, 3.0, 1.0]])
SPLIT = Panel(("a", "b", "c", "d"), ("t0", "t1", "t2", "t3"),
              SPLIT_VALUES, (SPLIT_VALUES > 0).astype(float))


def test_newcomer_covering_one_block_of_split_panel_is_unidentified():
    newcomer = one_unit(SPLIT, "t4", [2.0, 4.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(UnidentifiedModel, match="components"):
        update_multilateral(SPLIT, newcomer)
    # a newcomer that spans both blocks joins them
    bridge = one_unit(SPLIT, "t4", [2.0, 4.0, 1.0, 2.0], np.ones(4))
    assert update_multilateral(SPLIT, bridge).estimate.indexes.min() > 0


def test_new_unit_label_validation_and_item_matching():
    with pytest.raises(ValidationError, match="already in panel"):
        update_multilateral(F1, one_unit(F1, "t0", np.ones(2), np.ones(2)))
    with pytest.raises(ValidationError, match="one-unit panel"):
        update_multilateral(F1, F1)
    # cells are matched by item label, not by position
    forward = update_multilateral(F1, one_unit(F1, "t9", [3.0, 5.0], [1.0, 2.0])).estimate
    reverse = Panel(("i1", "i0"), ("t9",), [[5.0], [3.0]], [[2.0], [1.0]])
    assert_array_equal(update_multilateral(F1, reverse).estimate.indexes, forward.indexes)
    # an item only the new unit holds is present once, and the basket drops it
    extra = Panel(("zz", "i0", "i1"), ("t9",), [[7.0], [3.0], [5.0]], [[1.0], [1.0], [2.0]])
    with notes() as noted:
        result = update_multilateral(F1, extra)
    assert noted == ["note: dropped items outside the reference basket: zz"]
    assert_array_equal(result.estimate.indexes, forward.indexes)


def test_period_update_scalar_fixture_is_exact():
    panel = Panel(("a",), ("t1", "t2"),
                  np.array([[10.0, 20.0]]), np.ones((1, 2)))
    prior = estimate_deflators(panel)
    est = update_multiperiod(prior, panel, one_unit(panel, "t3", [20.0], np.ones(1)))
    assert est.indexes[2] == 2.0  # bit-exact, not approximately
    assert est.deflators[2] == 0.5
    assert_array_equal(est.deflators[:2], prior.deflators)
    assert_array_equal(est.indexes[:2], prior.indexes)
    # the new period is appended after the published ones, none of which moved
    assert est.units == ("t1", "t2", "t3")


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
        est = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
        assert est.deflators[-1] == pytest.approx(delta_new, rel=1e-9)
        assert_allclose(est.ref_prices, prices, rtol=1e-9)
        assert est.ssr == pytest.approx(ssr, rel=1e-9, abs=1e-12)
        assert est.dof == int(panel.present.sum()) + np.count_nonzero(values) - (n + 1)
        assert est.sigma2 == pytest.approx(ssr / est.dof, rel=1e-9)
        # frozen history is carried bit for bit
        assert_array_equal(est.deflators[:-1], prior.deflators)
        assert_array_equal(est.indexes[:-1], prior.indexes)
        assert est.units == (*panel.units, "new")


def test_period_update_carries_prior_variances():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, 4, 3, missing=0.1)
    prior = estimate_deflators(panel)
    values = rng.uniform(0.5, 8.0, 4)
    quantities = rng.uniform(0.5, 8.0, 4)
    est = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
    assert_array_equal(est.se[:3], prior.se)
    e = (panel.quantities**2).sum(axis=1)
    d = e + quantities**2
    denom = float(np.sum(values * values * e / d))
    assert est.se[3] == pytest.approx(np.sqrt(est.sigma2 / denom) / est.deflators[3],
                                      rel=1e-12)


def test_period_update_without_prior_noise_scale():
    # one item in two units leaves the prior fit no residual dof
    panel = Panel(("a",), ("t1", "t2"), np.array([[2.0, 3.0]]),
                  np.ones((1, 2)))
    prior = estimate_deflators(panel)
    assert prior.sigma2 is None
    assert prior.se[0] == 0.0 and np.isnan(prior.se[1])
    est = update_multiperiod(prior, panel, one_unit(panel, "t3", [4.0], np.ones(1)))
    assert est.sigma2 is not None
    assert est.se[0] == 0.0 and np.isnan(est.se[1])
    assert np.isfinite(est.se[2])


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
def test_period_update_far_from_the_prior_scales_the_plain_figures(scale):
    # the new deflator's variance would leave the float range; its log
    # standard error does not depend on the scale
    panel = random_panel(np.random.default_rng(2), 3, 3)
    prior = estimate_deflators(panel)
    values, quantities = np.array([2.0, 3.0, 5.0]), np.array([1.0, 2.0, 1.0])
    plain = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
    far = update_multiperiod(prior, panel, one_unit(panel, "new", values * scale, quantities))
    assert far.indexes[-1] == pytest.approx(plain.indexes[-1] * scale, rel=1e-12)
    assert far.index_se[-1] == pytest.approx(plain.index_se[-1] * scale, rel=1e-12)
    assert far.se[-1] == pytest.approx(plain.se[-1], rel=1e-12)
    assert_array_equal(far.se[:-1], prior.se)


@pytest.mark.parametrize("variance_method", ["full_partition", "corollary3"])
def test_period_update_reports_what_it_computed(variance_method):
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 6, 4)
    values = rng.uniform(0.5, 8.0, 6)
    quantities = rng.uniform(0.5, 8.0, 6)
    values[2] = quantities[2] = 0.0
    prior = estimate_deflators(panel, variance_method=variance_method)
    est = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
    assert est.variance_method == variance_method
    # 6 items x 5 units with one absent cell: 29 present cells; N+1 = 7 unknowns
    assert est.dof == 22
    assert est.sigma2 == est.ssr / est.dof
    e = (panel.quantities**2).sum(axis=1)
    d = e + quantities**2
    basis = {"full_partition": float(np.sum(values * values * e / d)),
             "corollary3": float(values @ values)}[variance_method]
    assert est.se[-1] == pytest.approx(np.sqrt(est.sigma2 / basis) / est.deflators[-1],
                                       rel=1e-12)


@pytest.mark.parametrize("variance_method", ["full_partition", "corollary3"])
def test_period_update_keeps_published_standard_errors(variance_method):
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 6, 4)
    prior = estimate_deflators(panel, variance_method=variance_method)
    values = rng.uniform(0.5, 8.0, 6)
    quantities = rng.uniform(0.5, 8.0, 6)
    est = update_multiperiod(prior, panel, one_unit(panel, "new", values, quantities))
    published = to_index_series(prior).se
    assert_array_equal(to_index_series(est).se[:-1], published)
    assert_array_equal(est.se[:4], prior.se)


@pytest.mark.parametrize("variance_method", ["full_partition", "corollary3"])
def test_period_update_stores_no_schur_inverse(variance_method):
    rng = np.random.default_rng(9)
    panel = random_panel(rng, 6, 4, missing=0.1)
    prior = estimate_deflators(panel, variance_method=variance_method)
    est = update_multiperiod(
        prior, panel, one_unit(panel, "new", rng.uniform(0.5, 8.0, 6), rng.uniform(0.5, 8.0, 6))
    )
    # what is published comes from the carried standard errors alone
    se = est.indexes * est.se
    series = to_index_series(est)
    assert_array_equal(series.se, se)
    assert_array_equal(series.lower, est.indexes - 3.0 * se)


def test_period_update_requires_matching_prior():
    rng = np.random.default_rng(6)
    panel = random_panel(rng, 3, 3)
    # a prior fitted on other units, another base or other items
    for other, fitted_on in (
            ("units", Panel(panel.items, ("x0", "x1", "x2"), panel.values, panel.quantities)),
            ("base unit", Panel(panel.items, panel.units, panel.values, panel.quantities,
                                base_unit=1)),
            ("items", Panel(("x", "y", "z"), panel.units, panel.values, panel.quantities))):
        with pytest.raises(ValidationError,
                           match=f"^prior estimate and panel {other} disagree$"):
            update_multiperiod(estimate_deflators(fitted_on), panel,
                               one_unit(panel, "new", np.ones(3), np.ones(3)))


def test_period_update_refuses_a_prior_that_is_not_a_deflator_estimate():
    # a dummy fit has the panel's units, items and base, but no deflators
    panel = random_panel(np.random.default_rng(6), 3, 3)
    with pytest.raises(ValidationError,
                       match="^prior must be a DeflatorEstimate, not DummyFit$"):
        update_multiperiod(fit_dummy_index(panel), panel,
                           one_unit(panel, "new", np.ones(3), np.ones(3)))


def test_period_update_refuses_an_item_outside_the_basket():
    # the frozen history has no reference price for zz
    panel = random_panel(np.random.default_rng(6), 3, 3)
    new = Panel(("i0", "zz", "i2"), ("new",), np.ones((3, 1)), np.ones((3, 1)))
    with pytest.raises(ValidationError, match="^new period contains items outside the "
                                              "reference basket: zz$"):
        update_multiperiod(estimate_deflators(panel), panel, new)


def test_bootstrap_from_single_unit():
    """Chaining from a one-unit panel equals estimating the two-unit panel."""
    from mplindex import DeflatorEstimate

    rng = np.random.default_rng(42)
    v = rng.uniform(1.0, 9.0, (2, 2))
    q = rng.uniform(1.0, 9.0, (2, 2))
    panel2 = Panel(("a", "b"), ("t1", "t2"), v, q)
    seed = Panel(("a", "b"), ("t1",), v[:, :1], q[:, :1])
    boot = update_multilateral(seed, one_unit(seed, "t2", v[:, 1], q[:, 1]))
    full = estimate_deflators(panel2)
    assert_allclose(boot.estimate.deflators, full.deflators, rtol=1e-12)
    assert_allclose(boot.estimate.ref_prices, full.ref_prices, rtol=1e-12)
    assert boot.estimate.sigma2 == pytest.approx(full.sigma2, rel=1e-12)


def test_chained_unit_updates_match_batch():
    rng = np.random.default_rng(88)
    panel = random_panel(rng, 4, 5, missing=0.15)
    grown = Panel(panel.items, panel.units[:2],
                  panel.values[:, :2], panel.quantities[:, :2])
    for t in range(2, 5):
        grown = update_multilateral(
            grown, one_unit(panel, panel.units[t], panel.values[:, t], panel.quantities[:, t])
        ).estimate
        # rebuild the panel the cheap way for the next round
        grown = Panel(panel.items, panel.units[: t + 1],
                      panel.values[:, : t + 1],
                      panel.quantities[:, : t + 1])
    final = update_multilateral(
        Panel(panel.items, panel.units[:4],
              panel.values[:, :4], panel.quantities[:, :4]),
        one_unit(panel, panel.units[4], panel.values[:, 4], panel.quantities[:, 4]),
    ).estimate
    batch = estimate_deflators(panel)
    assert_allclose(final.deflators, batch.deflators, rtol=1e-10)


def test_period_update_rescales_shared_extreme_magnitudes():
    # values x 2^-540 square below the float range, and each unit, the new
    # one too, carries a shift of its own; scaled by exact powers of two,
    # the update gives the unscaled figures bit for bit
    panel = random_panel(np.random.default_rng(4), 5, 4)
    new = one_unit(panel, "new", [3.0, 1.5, 2.0, 4.0, 2.5], [1.0, 2.0, 1.5, 1.0, 3.0])
    plain = update_multiperiod(estimate_deflators(panel), panel, new)
    g = 3 * np.arange(5) - 200
    k = -540 + 50 * np.array([1, -2, 0, 3, -1])
    far_panel = Panel(panel.items, panel.units, np.ldexp(panel.values, k[:-1]),
                      np.ldexp(panel.quantities, g[:, None]))
    far_new = one_unit(panel, "new", np.ldexp(new.values[:, 0], k[-1]),
                       np.ldexp(new.quantities[:, 0], g))
    far = update_multiperiod(estimate_deflators(far_panel), far_panel, far_new)
    shift = k[panel.base_unit] - k
    assert_array_equal(far.deflators, np.ldexp(plain.deflators, shift))
    assert_array_equal(far.indexes, np.ldexp(plain.indexes, -shift))
    assert_array_equal(far.se, plain.se)
    assert_array_equal(far.ref_prices, np.ldexp(plain.ref_prices, k[panel.base_unit] - g))
