import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    Panel,
    SingularSystem,
    UnidentifiedModel,
    fit_dummy_index,
    load_panel,
    presence_components,
    to_index_series,
)
from helpers import random_panel
from oracles import dense_dummy_fit


def price_panel(p_by_unit, q_by_unit=None, base=0):
    """Panel whose implied prices are exactly the given per-unit price columns."""
    p = np.column_stack(p_by_unit).astype(float)
    q = np.ones_like(p) if q_by_unit is None else np.column_stack(q_by_unit).astype(float)
    items = tuple(f"i{k}" for k in range(p.shape[0]))
    units = tuple(f"t{k}" for k in range(p.shape[1]))
    return Panel(items, units, p * q, q, base_unit=base)


def geometric_mean_relatives(panel):
    prices = panel.values / panel.quantities
    rel = prices / prices[:, [panel.base_unit]]
    return np.exp(np.log(rel).mean(axis=0))


def test_balanced_fixture_equals_geometric_mean():
    panel = price_panel([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    fit = fit_dummy_index(panel)
    assert fit.indexes[0] == 1.0
    assert fit.indexes[1] == pytest.approx(math.sqrt(6.0), abs=1e-12)


def test_balanced_random_panels_equal_geometric_means():
    rng = np.random.default_rng(61)
    for _ in range(20):
        panel = random_panel(rng, int(rng.integers(2, 10)), int(rng.integers(2, 7)))
        fit = fit_dummy_index(panel)
        expected = geometric_mean_relatives(panel)
        assert np.abs(fit.indexes - expected).max() <= 1e-12 * expected.max()


def test_uniform_price_doubling():
    p1 = np.array([1.0, 2.0, 5.0])
    panel = price_panel([p1, 2.0 * p1], [np.array([2.0, 1.0, 3.0])] * 2)
    fit = fit_dummy_index(panel)
    assert fit.indexes[1] == pytest.approx(2.0, rel=1e-14)
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-28)


def test_weighted_equals_unweighted_under_constant_shares():
    # equal values in every cell make the within-unit shares constant
    rng = np.random.default_rng(67)
    q = rng.uniform(0.5, 4.0, (4, 3))
    v = np.ones((4, 3))
    panel = Panel(("a", "b", "c", "d"), ("t0", "t1", "t2"), v, q)
    plain = fit_dummy_index(panel, weighted=False)
    weighted = fit_dummy_index(panel, weighted=True)
    assert_allclose(weighted.log_unit_effects, plain.log_unit_effects,
                    rtol=0, atol=1e-12)
    assert_allclose(weighted.se, plain.se, rtol=1e-10, atol=1e-15)
    assert (weighted.variance_method, plain.variance_method) == ("dummy_wls", "dummy_ols")


def test_weighted_fit_runs_on_sparse_panel():
    rng = np.random.default_rng(73)
    panel = random_panel(rng, 8, 5, missing=0.25)
    fit = fit_dummy_index(panel, weighted=True)
    assert (fit.indexes > 0).all()
    assert fit.indexes[panel.base_unit] == 1.0
    assert fit.se[panel.base_unit] == 0.0
    assert (fit.se >= 0).all()
    assert fit.dof == int(panel.present.sum()) - (8 + 5 - 1)
    assert_allclose(fit.index_se, fit.indexes * fit.se, rtol=0, atol=0)


def test_item_order_does_not_matter():
    rng = np.random.default_rng(79)
    panel = random_panel(rng, 6, 4, missing=0.2)
    perm = rng.permutation(6)
    shuffled = Panel(tuple(panel.items[i] for i in perm), panel.units,
                     panel.values[perm], panel.quantities[perm])
    a = fit_dummy_index(panel)
    b = fit_dummy_index(shuffled)
    assert_allclose(a.indexes, b.indexes, rtol=1e-12)
    assert_allclose(a.se, b.se, rtol=1e-10)


def test_explicit_zero_rows_change_nothing():
    from mplindex import build_reference_basket

    header = "item_id,unit_id,value,quantity\n"
    body = "a,t0,2,1\nb,t0,3,1\na,t1,4,1\nb,t1,5,1\nc,t0,1,1\nc,t1,2,1\n"
    with_zero = load_panel(io.StringIO(header + body + "d,t0,0,0\n"))
    without = load_panel(io.StringIO(header + body))
    # the loader keeps the label; the basket rule is what removes it
    assert "d" in with_zero.items
    kept, report = build_reference_basket(with_zero)
    assert report.dropped_items == ("d",)
    a = fit_dummy_index(kept)
    b = fit_dummy_index(without)
    assert_array_equal(a.indexes, b.indexes)
    assert_array_equal(a.se, b.se)


def test_disconnected_presence_graph():
    values = np.array([
        [1.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 3.0, 4.0],
    ])
    panel = Panel(("a", "b"), ("u0", "u1", "u2", "u3"),
                  values, np.where(values > 0, 1.0, 0.0))
    comps = presence_components(panel)
    assert len(comps) == 2
    assert ({u for u, _ in comps} == {("u0", "u1"), ("u2", "u3")})
    with pytest.raises(UnidentifiedModel) as exc:
        fit_dummy_index(panel)
    assert len(exc.value.components) == 2
    assert "u2" in str(exc.value)


def test_connected_panel_has_single_component():
    panel = random_panel(np.random.default_rng(83), 7, 5, missing=0.3)
    assert len(presence_components(panel)) == 1


def test_overflowing_price_fits_in_logs():
    # v / q overflows, but the model needs only log v - log q
    panel = Panel(("a", "b"), ("t0", "t1"),
                  np.array([[1e308, 1.0], [1.0, 1.0]]),
                  np.array([[1e-308, 1.0], [1.0, 1.0]]))
    log_price = np.log(1e308) - np.log(1e-308)
    # unweighted, a_1 averages the items' changes (-L and 0); weighted, item
    # b weighs 1e-308 in t0, so item a's change decides it
    for weighted, effect in ((False, -log_price / 2), (True, -log_price)):
        fit = fit_dummy_index(panel, weighted=weighted)
        assert fit.log_unit_effects[1] == pytest.approx(effect, rel=1e-15)
        assert np.isfinite(fit.se).all()


def test_weighted_shares_at_the_top_of_the_float_range():
    # each unit's values sum past the float range, but its shares do not
    rng = np.random.default_rng(0)
    values, quantities = rng.uniform(1, 10, (30, 6)), rng.uniform(1, 10, (30, 6))
    items, units = [f"i{i}" for i in range(30)], [f"t{t}" for t in range(6)]
    plain = fit_dummy_index(Panel(items, units, values, quantities),
                            weighted=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = fit_dummy_index(Panel(items, units, values * 1e307, quantities),
                              weighted=True)
    assert_allclose(top.indexes, plain.indexes, rtol=1e-12)
    assert_allclose(top.index_se, plain.index_se, rtol=1e-12)


def test_zero_dof_leaves_sigma2_undefined():
    panel = price_panel([np.array([2.0]), np.array([3.0])])
    fit = fit_dummy_index(panel)
    assert fit.sigma2 is None
    assert fit.dof == 0
    assert np.isnan(fit.se[1])
    assert fit.se[0] == 0.0


def test_index_series_of_a_dummy_fit():
    panel = random_panel(np.random.default_rng(4), 5, 4, missing=0.1)
    fit = fit_dummy_index(panel, weighted=True)
    series = to_index_series(fit)
    assert (series.variance_method, series.dof_rule) == ("dummy_wls", "observed")
    assert series.mode == "time"
    assert_array_equal(series.index, fit.indexes)
    assert_array_equal(series.se, fit.index_se)
    assert to_index_series(fit_dummy_index(panel)).variance_method == "dummy_ols"


def test_nonzero_base_unit():
    panel = price_panel([np.array([1.0, 2.0]), np.array([3.0, 4.0])], base=1)
    fit = fit_dummy_index(panel)
    assert fit.indexes[1] == 1.0
    assert fit.indexes[0] == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-12)


def max_rel_err(a, b):
    """Largest absolute difference relative to the largest reference entry."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    assert_array_equal(np.isnan(a), np.isnan(b))
    keep = ~np.isnan(b)
    diff = np.abs(a[keep] - b[keep]).max(initial=0.0)
    scale = np.abs(b[keep]).max(initial=0.0)
    return diff / scale if scale > 0 else diff


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n, t, missing, base", [
    (12, 6, 0.0, 0),
    (12, 6, 0.3, 0),
    (12, 6, 0.6, 0),
    (12, 6, 0.3, 4),
    (1, 4, 0.0, 2),   # N + T - 1 = N * T: zero dof
])
def test_matches_dense_design_oracle(weighted, n, t, missing, base):
    rng = np.random.default_rng([n, t, int(10 * missing), base, int(weighted)])
    panel = random_panel(rng, n, t, missing=missing, base=base)
    fit = fit_dummy_index(panel, weighted=weighted)
    ref = dense_dummy_fit(panel, weighted=weighted)
    assert fit.dof == ref.dof
    for name in ("log_unit_effects", "item_effects", "se"):
        assert max_rel_err(getattr(fit, name), getattr(ref, name)) <= 1e-10, name
    if ref.dof > 0:
        assert fit.sigma2 == pytest.approx(ref.sigma2, rel=1e-10)
    else:
        assert fit.sigma2 is None and ref.sigma2 is None
        assert np.isnan(np.delete(fit.se, base)).all()


def test_item_with_zero_weight_is_singular():
    # item c's within-unit shares underflow to zero in both of its units
    values = np.array([[1e300, 1e300, 1.0],
                       [1e300, 1.0, 1.0],
                       [5e-324, 5e-324, 0.0]])
    panel = Panel(("a", "b", "c"), ("t0", "t1", "t2"), values,
                  np.where(values > 0, 1.0, 0.0))
    with pytest.raises(SingularSystem) as exc:
        fit_dummy_index(panel, weighted=True)
    assert exc.value.column == "item[c]"


@pytest.mark.parametrize("share", [1e-15, 1e-17])
def test_numerically_singular_schur_complement(share):
    # unit t2 reaches the other units only through item a's tiny share; at
    # 1e-17 the Schur pivot cancels to zero, at 1e-15 the forward-error
    # bound, which sees S_22 formed as 1 - 1 + 1e-15, exceeds BETA_TOL
    values = np.array([[2.0, 3.0, share],
                       [1.0, 4.0, 0.0],
                       [0.0, 0.0, 1.0]])
    panel = Panel(("a", "b", "c"), ("t0", "t1", "t2"), values,
                  np.where(values > 0, 1.0, 0.0))
    with pytest.raises(SingularSystem) as exc:
        fit_dummy_index(panel, weighted=True)
    assert exc.value.column == "unit[t2]"


@pytest.mark.parametrize("share", [1e-15, 1e-17])
def test_numerically_singular_schur_complement_through_the_item_side(share, solve_side):
    values = np.array([[2.0, 3.0, share],
                       [1.0, 4.0, 0.0],
                       [0.0, 0.0, 1.0]])
    panel = Panel(("a", "b", "c"), ("t0", "t1", "t2"), values,
                  np.where(values > 0, 1.0, 0.0))
    verdicts = solve_side("items")
    with pytest.raises(SingularSystem) as exc:
        fit_dummy_index(panel, weighted=True)
    assert exc.value.column == "unit[t2]"
    assert verdicts == [False]


def test_large_sparse_fit_never_builds_the_design():
    # the dense design would need n_obs * (N + T - 1) * 8 bytes, about 8.5 GB
    rng = np.random.default_rng(97)
    n, t = 5000, 60
    present = rng.random((n, t)) >= 0.3
    present[:, 0] = True  # every item meets the base unit: connected
    values = np.where(present, rng.uniform(0.5, 8.0, (n, t)), 0.0)
    quantities = np.where(present, rng.uniform(0.5, 8.0, (n, t)), 0.0)
    panel = Panel(tuple(f"i{k}" for k in range(n)), tuple(f"u{k}" for k in range(t)),
                  values, quantities)
    tracemalloc.start()
    try:
        fit = fit_dummy_index(panel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.isfinite(fit.se).all() and (fit.indexes > 0).all()
