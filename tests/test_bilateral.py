import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mplindex import (
    BilateralInput,
    EstimationError,
    Panel,
    ValidationError,
    bilateral_from_panel,
    classical_index,
    estimate_deflators,
    mpl_two_period,
)
from mplindex.bilateral import CLASSICAL_KINDS
from helpers import panel_from_bilateral, random_bilateral
from oracles import (
    DegenerateForm,
    classical_form_matrix,
    convex_weights,
    convex_weights_from_values,
    quadratic_form_index,
)


def test_input_validation():
    with pytest.raises(ValidationError):
        BilateralInput(p1=[], p2=[], q1=[], q2=[])
    with pytest.raises(ValidationError):
        BilateralInput(p1=[1.0, 2.0], p2=[1.0], q1=[1.0, 1.0], q2=[1.0, 1.0])
    with pytest.raises(ValidationError):
        BilateralInput(p1=[1.0, -2.0], p2=[1.0, 2.0], q1=[1.0, 1.0], q2=[1.0, 1.0])
    with pytest.raises(ValidationError):
        BilateralInput(p1=[1.0, np.inf], p2=[1.0, 2.0], q1=[1.0, 1.0], q2=[1.0, 1.0])


def test_quadratic_form_identity_matrix():
    assert quadratic_form_index([1.0, 2.0], [2.0, 3.0], np.eye(2)) == \
        pytest.approx(8.0 / 5.0, abs=1e-15)


def test_quadratic_form_equal_prices_reads_one():
    p = np.array([3.0, 1.0, 4.0])
    form = np.outer([1.0, 2.0, 0.5], [1.0, 2.0, 0.5])
    assert quadratic_form_index(p, p.copy(), form) == 1.0


def test_quadratic_form_shape_and_degeneracy():
    with pytest.raises(ValidationError):
        quadratic_form_index([1.0, 2.0], [1.0, 2.0], np.eye(3))
    with pytest.raises(DegenerateForm):
        quadratic_form_index([1.0, 2.0], [1.0, 2.0], np.zeros((2, 2)))


def test_classical_fixture_values():
    inp = BilateralInput(p1=[1.0, 2.0], p2=[2.0, 3.0],
                         q1=[1.0, 1.0], q2=[2.0, 1.0])
    assert classical_index(inp, "laspeyres") == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert classical_index(inp, "paasche") == pytest.approx(7.0 / 4.0, abs=1e-15)
    me = (2 * 3 + 3 * 2) / (1 * 3 + 2 * 2)
    assert classical_index(inp, "marshall_edgeworth") == pytest.approx(me, abs=1e-15)
    with pytest.raises(ValidationError):
        classical_index(inp, "fisher")


def test_walsh_uses_geometric_mean_on_both_sides():
    inp = BilateralInput(p1=[1.0, 2.0], p2=[2.0, 3.0],
                         q1=[1.0, 4.0], q2=[4.0, 1.0])
    # sqrt(q1*q2) = (2, 2) on numerator and denominator alike
    assert classical_index(inp, "walsh") == pytest.approx(5.0 / 3.0, abs=1e-14)


def test_form_matrix_route_matches_direct_formulas():
    rng = np.random.default_rng(19)
    for _ in range(100):
        inp = random_bilateral(rng, int(rng.integers(1, 9)))
        for kind in ("laspeyres", "paasche", "marshall_edgeworth", "walsh"):
            direct = classical_index(inp, kind)
            via_form = quadratic_form_index(
                inp.p1, inp.p2, classical_form_matrix(inp, kind))
            assert abs(via_form - direct) <= 1e-12 * abs(direct)


def test_two_period_fixture_values():
    ones = [1.0, 1.0]
    assert mpl_two_period(BilateralInput([1.0, 2.0], [2.0, 4.0], ones, ones)) == \
        pytest.approx(2.0, abs=1e-14)
    assert mpl_two_period(BilateralInput([1.0, 2.0], [3.0, 4.0], ones, ones)) == \
        pytest.approx(25.0 / 11.0, abs=1e-13)


def test_two_period_single_item_is_price_relative():
    rng = np.random.default_rng(23)
    for _ in range(20):
        inp = random_bilateral(rng, 1)
        expected = float(inp.p2[0] / inp.p1[0])
        assert mpl_two_period(inp) == pytest.approx(expected, rel=1e-12)


def test_two_period_matches_panel_estimator():
    rng = np.random.default_rng(29)
    for _ in range(50):
        inp = random_bilateral(rng, int(rng.integers(1, 10)))
        panel = panel_from_bilateral(inp)
        lam2 = estimate_deflators(panel).indexes[1]
        assert abs(mpl_two_period(inp) - lam2) <= 1e-10 * abs(lam2)


def test_convex_weights_normalized_and_positive():
    rng = np.random.default_rng(31)
    for _ in range(30):
        inp = random_bilateral(rng, int(rng.integers(1, 12)))
        w = convex_weights(inp)
        assert (w > 0).all()
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
        as_mean = math.fsum((inp.p2 / inp.p1) * w)
        assert as_mean == pytest.approx(mpl_two_period(inp), rel=1e-12)


def test_value_weights_invariant_under_quantity_swap():
    rng = np.random.default_rng(37)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        v1, v2, q1, q2 = (rng.uniform(0.5, 8.0, n) for _ in range(4))
        a = convex_weights_from_values(v1, v2, q1, q2)
        b = convex_weights_from_values(v1, v2, q2, q1)
        assert_array_equal(a, b)


def test_item_permutation_leaves_value_bit_identical():
    rng = np.random.default_rng(41)
    inp = random_bilateral(rng, 7)
    perm = rng.permutation(7)
    shuffled = BilateralInput(p1=inp.p1[perm], p2=inp.p2[perm],
                              q1=inp.q1[perm], q2=inp.q2[perm])
    assert mpl_two_period(shuffled) == mpl_two_period(inp)
    for kind in ("laspeyres", "paasche", "marshall_edgeworth", "walsh"):
        assert classical_index(shuffled, kind) == classical_index(inp, kind)


@pytest.mark.parametrize("price_exp, quantity_exp",
                         [(330, 660), (-330, -660), (330, -660), (-330, 660)])
def test_extreme_scales_leave_every_index_bit_identical(price_exp, quantity_exp):
    rng = np.random.default_rng(37)
    for _ in range(20):
        inp = random_bilateral(rng, int(rng.integers(1, 9)))
        scaled = BilateralInput(p1=np.ldexp(inp.p1, price_exp), p2=np.ldexp(inp.p2, price_exp),
                                q1=np.ldexp(inp.q1, quantity_exp),
                                q2=np.ldexp(inp.q2, quantity_exp))
        for kind in CLASSICAL_KINDS:
            assert classical_index(scaled, kind) == classical_index(inp, kind)
        assert mpl_two_period(scaled) == mpl_two_period(inp)


@pytest.mark.parametrize("inp", [
    # the prices span the float range, so scaling flushes one to zero
    BilateralInput(p1=[1e308, 1e-310], p2=[1.0, 1.0], q1=[1.0, 1.0], q2=[1.0, 1.0]),
    # the aggregates sit more than the float range below the largest price
    # times the largest quantity, so scaled they are subnormal
    BilateralInput(p1=[1e10, 1e-300], p2=[1e10, 1e-300], q1=[1e-300, 1e10], q2=[1e-300, 1e10]),
])
def test_aggregates_beyond_the_float_range_are_refused(inp):
    for kind in CLASSICAL_KINDS:
        with pytest.raises(EstimationError, match="^Gram blocks overflow"):
            classical_index(inp, kind)
    with pytest.raises(EstimationError, match="^Gram blocks overflow"):
        mpl_two_period(inp)


def test_panel_adapter_roundtrip():
    inp = BilateralInput(p1=[2.0, 3.0], p2=[4.0, 5.0],
                         q1=[1.0, 2.0], q2=[3.0, 1.0])
    back = bilateral_from_panel(panel_from_bilateral(inp))
    assert_allclose(back.p1, inp.p1, rtol=1e-15)
    assert_allclose(back.p2, inp.p2, rtol=1e-15)
    assert_array_equal(back.q1, inp.q1)
    assert_array_equal(back.q2, inp.q2)


def test_panel_adapter_respects_base_unit():
    inp = BilateralInput(p1=[2.0, 3.0], p2=[4.0, 5.0],
                         q1=[1.0, 2.0], q2=[3.0, 1.0])
    panel = panel_from_bilateral(inp)
    flipped = Panel(panel.items, panel.units, panel.values,
                    panel.quantities, base_unit=1)
    back = bilateral_from_panel(flipped)
    assert_allclose(back.p1, inp.p2, rtol=1e-15)
    assert_allclose(back.p2, inp.p1, rtol=1e-15)


def test_panel_adapter_rejects_bad_shapes():
    rng = np.random.default_rng(3)
    from helpers import random_panel

    with pytest.raises(ValidationError):
        bilateral_from_panel(random_panel(rng, 3, 3))
    sparse = random_panel(rng, 4, 2)
    values = sparse.values.copy()
    quantities = sparse.quantities.copy()
    values[0, 1] = 0.0
    quantities[0, 1] = 0.0
    with pytest.raises(ValidationError):
        bilateral_from_panel(Panel(("a", "b", "c", "d"),
                                   sparse.units, values, quantities))
