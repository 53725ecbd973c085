"""Property tests: axioms of the two-period form plus estimator invariances."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import axiom_checks as ax
from mplindex import MplIndexError, Panel, estimate_deflators, load_panel
from helpers import emit_panel, random_panel

N_DRAWS = 200


@pytest.mark.parametrize("check", ax.ALL_CHECKS, ids=lambda c: c.__name__)
def test_axiom_holds_across_draws(check):
    rng = np.random.default_rng(2024)
    for _ in range(N_DRAWS):
        check(rng)


def test_value_scaling_of_one_unit_moves_only_that_index():
    """Scaling one non-base unit's values by a scales its index by a and
    leaves every other index and the reference prices unchanged."""
    rng = np.random.default_rng(303)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(3, 7))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0, 0.2)))
        a = float(rng.uniform(0.25, 4.0))
        target = int(rng.integers(1, t))
        values = panel.values.copy()
        values[:, target] *= a
        scaled = Panel(panel.items, panel.units, values,
                       panel.quantities)
        est = estimate_deflators(panel)
        est_scaled = estimate_deflators(scaled)
        expected = est.indexes.copy()
        expected[target] *= a
        assert_allclose(est_scaled.indexes, expected, rtol=1e-10)
        assert_allclose(est_scaled.ref_prices, est.ref_prices, rtol=1e-10)


def test_global_value_scaling_is_absorbed_by_prices():
    """Scaling every value by a leaves all indexes unchanged; reference
    prices absorb the scale."""
    rng = np.random.default_rng(404)
    for _ in range(20):
        panel = random_panel(rng, int(rng.integers(2, 8)), int(rng.integers(2, 6)),
                             missing=float(rng.uniform(0, 0.2)))
        a = float(rng.uniform(0.25, 4.0))
        scaled = Panel(panel.items, panel.units, a * panel.values,
                       panel.quantities)
        est = estimate_deflators(panel)
        est_scaled = estimate_deflators(scaled)
        assert_allclose(est_scaled.indexes, est.indexes, rtol=1e-10)
        assert_allclose(est_scaled.ref_prices, a * est.ref_prices, rtol=1e-10)


def test_item_quantity_rescaling_leaves_indexes_unchanged():
    """Changing an item's unit of measurement (q_i / g_i, value fixed)
    never moves the index; its reference price absorbs g_i."""
    rng = np.random.default_rng(505)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        panel = random_panel(rng, n, int(rng.integers(2, 6)),
                             missing=float(rng.uniform(0, 0.2)))
        g = rng.uniform(0.25, 4.0, n)
        rescaled = Panel(panel.items, panel.units, panel.values,
                         panel.quantities / g[:, None])
        est = estimate_deflators(panel)
        est_rescaled = estimate_deflators(rescaled)
        assert_allclose(est_rescaled.indexes, est.indexes, rtol=1e-10)
        assert_allclose(est_rescaled.ref_prices, g * est.ref_prices, rtol=1e-10)


def test_unit_permutation_permutes_results():
    """Reordering the unit columns permutes deflators, indexes and the
    standard errors accordingly (base followed along)."""
    rng = np.random.default_rng(606)
    for _ in range(10):
        t = int(rng.integers(3, 7))
        panel = random_panel(rng, int(rng.integers(2, 8)), t,
                             missing=float(rng.uniform(0, 0.15)))
        perm = rng.permutation(t)
        base_new = int(np.flatnonzero(perm == panel.base_unit)[0])
        shuffled = Panel(
            panel.items, tuple(panel.units[j] for j in perm),
            panel.values[:, perm], panel.quantities[:, perm],
            base_unit=base_new,
        )
        a = estimate_deflators(panel)
        b = estimate_deflators(shuffled)
        assert_allclose(b.indexes, a.indexes[perm], rtol=1e-10)
        assert_allclose(b.ref_prices, a.ref_prices, rtol=1e-10)
        assert_allclose(b.se, a.se[perm], rtol=1e-9)


def test_absent_cells_and_explicit_zero_cells_agree():
    """A panel built with explicit zero pairs equals one with implied zeros."""
    rng = np.random.default_rng(707)
    panel = random_panel(rng, 6, 4, missing=0.25)
    absent = np.argwhere(~panel.present)
    assert absent.size
    text = emit_panel(panel) + "".join(
        f"{panel.items[i]},{panel.units[t]},0,0\n" for i, t in absent)
    loaded = load_panel(io.StringIO(text))
    assert loaded.items == panel.items
    # a long CSV orders units by first appearance; put them back in panel order
    cols = [loaded.units.index(unit) for unit in panel.units]
    rebuilt = Panel(loaded.items, panel.units, loaded.values[:, cols],
                    loaded.quantities[:, cols], base_unit=panel.base_unit)
    a = estimate_deflators(panel)
    b = estimate_deflators(rebuilt)
    assert_array_equal(a.deflators, b.deflators)
    assert_array_equal(a.ref_prices, b.ref_prices)


def scaled_panel(panel, value_exp, quantity_exps, perm=None):
    """Values times 10**value_exp and item i's quantities times
    10**quantity_exps[i]; units reordered by perm with the base following."""
    perm = np.arange(panel.n_units) if perm is None else perm
    g = 10.0 ** np.asarray(quantity_exps[:panel.n_items], dtype=float)
    return Panel(panel.items, tuple(panel.units[j] for j in perm),
                 (panel.values * 10.0 ** value_exp)[:, perm],
                 (panel.quantities * g[:, None])[:, perm],
                 base_unit=int(np.flatnonzero(perm == panel.base_unit)[0]))


extreme_scales = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), t=st.integers(2, 6),
    missing=st.floats(0.0, 0.3), value_exp=st.integers(-300, 300),
    quantity_exps=st.lists(st.integers(-300, 300), min_size=7, max_size=7))


@settings(max_examples=80, deadline=None)
@given(**extreme_scales)
def test_indexes_are_invariant_to_extreme_scales(seed, n, t, missing, value_exp,
                                                 quantity_exps):
    """A global value scale and per-item quantity scales anywhere in
    10**[-300, 300] leave the indexes as they are, or fail with a typed
    error; they never drift."""
    panel = random_panel(np.random.default_rng(seed), n, t, missing=missing)
    expected = estimate_deflators(panel).indexes
    try:
        got = estimate_deflators(scaled_panel(panel, value_exp, quantity_exps)).indexes
    except MplIndexError:
        return
    assert_allclose(got, expected, rtol=1e-12)


@settings(max_examples=80, deadline=None)
@given(perm_seed=st.integers(0, 2**32 - 1), **extreme_scales)
def test_permutation_and_absent_cells_at_extreme_scales(seed, n, t, missing, value_exp,
                                                        quantity_exps, perm_seed):
    panel = random_panel(np.random.default_rng(seed), n, t, missing=missing)
    expected = estimate_deflators(panel)
    perm = np.random.default_rng(perm_seed).permutation(t)
    scaled = scaled_panel(panel, value_exp, quantity_exps, perm)
    try:
        got = estimate_deflators(scaled)
    except MplIndexError:
        return
    assert_allclose(got.indexes, expected.indexes[perm], rtol=1e-12)
    # the same cells with absences found from the zeros
    implied = Panel(scaled.items, scaled.units, scaled.values,
                    scaled.quantities, base_unit=scaled.base_unit)
    again = estimate_deflators(implied)
    assert_array_equal(again.deflators, got.deflators)
    assert_array_equal(again.ref_prices, got.ref_prices)
    assert_array_equal(again.se, got.se)


def fit_or_refusal(panel, variance_method):
    try:
        return estimate_deflators(panel, variance_method=variance_method)
    except MplIndexError as exc:
        return type(exc).__name__


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), t=st.integers(2, 6),
       missing=st.floats(0.0, 0.3), base=st.integers(0, 5),
       unit_exps=st.lists(st.integers(-480, 480), min_size=6, max_size=6),
       item_exps=st.lists(st.integers(-200, 200), min_size=7, max_size=7))
def test_per_unit_power_of_two_scales_move_only_their_own_figures(
        seed, n, t, missing, base, unit_exps, item_exps):
    """Unit t's values times 2^k_t and item i's quantities times 2^g_i, all
    of them normal floats, leave the decision and every log standard error
    as they are and scale unit t's index and index_se by exactly
    2^(k_t - k_b) and item i's reference price by 2^(k_b - g_i), under
    either variance method."""
    panel = random_panel(np.random.default_rng(seed), n, t, missing=missing, base=base % t)
    k, g = np.array(unit_exps[:t]), np.array(item_exps[:n])
    k_base = int(k[panel.base_unit])
    scaled = Panel(panel.items, panel.units, np.ldexp(panel.values, k),
                   np.ldexp(panel.quantities, g[:, None]), base_unit=panel.base_unit)
    for method in ("full_partition", "corollary3"):
        plain, got = fit_or_refusal(panel, method), fit_or_refusal(scaled, method)
        if isinstance(plain, str):
            assert got == plain
            continue
        assert_array_equal(got.indexes, np.ldexp(plain.indexes, k - k_base))
        assert_array_equal(got.se, plain.se)
        assert_array_equal(got.index_se, np.ldexp(plain.index_se, k - k_base))
        assert_array_equal(got.ref_prices, np.ldexp(plain.ref_prices, k_base - g))
