import io
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from mplindex import (
    BasketReport,
    DuplicateObservation,
    EmptyBasket,
    FormatError,
    InconsistentCell,
    PairOverlaps,
    Panel,
    ValidationError,
    build_reference_basket,
    emit_panel,
    implied_prices,
    load_panel,
)
from helpers import random_panel

HEADER = "item_id,unit_id,value,quantity"


def csv(*rows):
    return io.StringIO("\n".join((HEADER,) + rows) + "\n")


def test_load_complete_tableau():
    panel = load_panel(csv(
        "a,t1,10,2",
        "b,t1,6,3",
        "a,t2,8,2",
        "b,t2,9,3",
    ))
    assert panel.items == ("a", "b")
    assert panel.units == ("t1", "t2")
    assert panel.base_unit == 0
    assert panel.present.all()
    assert_array_equal(panel.values, [[10.0, 8.0], [6.0, 9.0]])
    assert_array_equal(panel.quantities, [[2.0, 2.0], [3.0, 3.0]])


def test_missing_row_becomes_absent_cell_with_exact_zeros():
    panel = load_panel(csv(
        "a,t1,10,2", "b,t1,6,3", "a,t2,8,2", "a,t3,4,1", "b,t3,3,1",
    ))
    assert not panel.present[1, 1]
    assert panel.values[1, 1] == 0.0 and panel.quantities[1, 1] == 0.0


def test_explicit_zero_row_marks_absence():
    with_row = load_panel(csv(
        "a,t1,10,2", "b,t1,6,3", "a,t2,8,2", "b,t2,0,0",
        "a,t3,4,1", "b,t3,3,1",
    ))
    without = load_panel(csv(
        "a,t1,10,2", "b,t1,6,3", "a,t2,8,2",
        "a,t3,4,1", "b,t3,3,1",
    ))
    assert not with_row.present[1, 1]
    assert_array_equal(with_row.values, without.values)
    assert_array_equal(with_row.quantities, without.quantities)
    assert_array_equal(with_row.present, without.present)


@pytest.mark.parametrize("row", ["a,t2,5,0", "a,t2,0,3", "a,t2,-1,2", "a,t2,4,-2"])
def test_sign_mismatch_rejected(row):
    with pytest.raises(InconsistentCell):
        load_panel(csv("a,t1,10,2", "b,t1,6,3", row, "b,t2,9,3"))


def test_duplicate_cell_rejected():
    with pytest.raises(DuplicateObservation):
        load_panel(csv("a,t1,10,2", "a,t1,11,2", "a,t2,8,2"))


def test_format_error_carries_line_number():
    with pytest.raises(FormatError) as exc:
        load_panel(csv("a,t1,10,2", "b,t1,6"))
    assert exc.value.line == 3
    assert "line 3" in str(exc.value)


def test_unparseable_number_is_format_error():
    with pytest.raises(FormatError) as exc:
        load_panel(csv("a,t1,ten,2"))
    assert exc.value.line == 2


def test_bad_header_is_format_error():
    with pytest.raises(FormatError) as exc:
        load_panel(io.StringIO("item,unit,v,q\na,t1,1,1\n"))
    assert exc.value.line == 1


def test_empty_file_rejected():
    with pytest.raises(FormatError):
        load_panel(io.StringIO(""))


def test_unit_order_is_first_appearance():
    panel = load_panel(csv("a,z,1,1", "a,m,2,1", "b,z,1,1", "b,m,1,1"))
    assert panel.units == ("z", "m")
    assert panel.base_unit == 0


def test_base_unit_by_label_and_index():
    rows = ("a,t1,1,1", "a,t2,2,1", "b,t1,1,1", "b,t2,1,1")
    by_label = load_panel(csv(*rows), base_unit="t2")
    by_index = load_panel(csv(*rows), base_unit=1)
    assert by_label.base_unit == 1
    assert by_index.base_unit == 1
    with pytest.raises(ValidationError):
        load_panel(csv(*rows), base_unit="t9")
    with pytest.raises(ValidationError):
        load_panel(csv(*rows), base_unit=5)


def test_units_override_reorders_columns():
    rows = ("a,t1,1,1", "a,t2,2,1", "b,t1,3,1", "b,t2,4,1")
    panel = load_panel(csv(*rows), units=("t2", "t1"))
    assert panel.units == ("t2", "t1")
    assert_array_equal(panel.values, [[2.0, 1.0], [4.0, 3.0]])
    with pytest.raises(ValidationError):
        load_panel(csv(*rows), units=("t2",))
    with pytest.raises(ValidationError):
        load_panel(csv(*rows), units=("t2", "t1", "t3"))


def test_emit_load_roundtrip_is_exact():
    rng = np.random.default_rng(7)
    panel = random_panel(rng, 6, 4, missing=0.2)
    back = load_panel(io.StringIO(emit_panel(panel)), base_unit=panel.base_unit)
    assert back.items == panel.items
    assert back.units == panel.units
    assert_array_equal(back.values, panel.values)
    assert_array_equal(back.quantities, panel.quantities)
    assert_array_equal(back.present, panel.present)


def test_roundtrip_preserves_full_precision():
    values = np.array([[1.0 / 3.0, 0.1], [2.0 / 7.0, 1e-15]])
    quantities = np.array([[1.0 / 9.0, 3.0], [3.0, 2.0]])
    panel = Panel.from_arrays(("a", "b"), ("t1", "t2"), values, quantities)
    back = load_panel(io.StringIO(emit_panel(panel)))
    assert_array_equal(back.values, panel.values)
    assert_array_equal(back.quantities, panel.quantities)


def test_arrays_are_read_only():
    panel = random_panel(np.random.default_rng(0), 3, 3)
    with pytest.raises(ValueError):
        panel.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        panel.present[0, 0] = False


def test_from_arrays_validates_sign_combinations():
    with pytest.raises(InconsistentCell):
        Panel.from_arrays(("a",), ("t1", "t2"),
                          np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValidationError):
        Panel.from_arrays(("a", "a"), ("t1", "t2"),
                          np.ones((2, 2)), np.ones((2, 2)))


def test_unit_with_no_items_rejected():
    values = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        Panel.from_arrays(("a", "b"), ("t1", "t2"), values, values.copy())


def test_basket_drops_thin_items_and_reports():
    # a: both units + a third; b: two units; c: only one unit -> dropped
    panel = load_panel(csv(
        "a,t1,1,1", "a,t2,1,1", "a,t3,1,1",
        "b,t1,1,1", "b,t2,1,1",
        "c,t3,1,1",
    ))
    kept, report = build_reference_basket(panel)
    assert kept.items == ("a", "b")
    assert report.dropped_items == ("c",)
    assert report.pair_intersections[("t1", "t2")] == 2
    assert report.pair_intersections[("t1", "t3")] == 1
    # idempotent on already-clean panels
    again, rep2 = build_reference_basket(kept)
    assert again.items == kept.items
    assert rep2.dropped_items == ()
    assert_array_equal(again.values, kept.values)


def test_basket_flags_items_absent_from_base():
    panel = load_panel(csv(
        "a,t1,1,1", "a,t2,1,1",
        "b,t2,1,1", "b,t3,1,1",
        "a,t3,1,1",
    ))
    kept, report = build_reference_basket(panel)
    assert kept.items == ("a", "b")
    assert report.base_absent_items == ("b",)


def mask_panel(mask):
    """Panel with the given presence mask and arbitrary positive cells."""
    rng = np.random.default_rng(0)
    values = np.where(mask, rng.uniform(0.5, 8.0, mask.shape), 0.0)
    items = tuple(f"i{k}" for k in range(mask.shape[0]))
    units = tuple(f"u{k}" for k in range(mask.shape[1]))
    return Panel.from_arrays(items, units, values, mask.astype(float))


def random_mask(seed, n, t, density):
    """Seeded mask: every item in two or more units, every unit covered."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, t)) < density
    for i in range(n):
        mask[i, rng.permutation(t)[:2]] = True
    mask[np.arange(t) % n, np.arange(t)] = True
    return mask


def lone_row(t, unit):
    row = np.zeros((1, t), dtype=bool)
    row[0, unit] = True
    return row


def base_absent_row(t):
    row = np.ones((1, t), dtype=bool)
    row[0, 0] = False
    return row


OVERLAP_MASKS = {
    "two_units_with_dropped_item": np.vstack([random_mask(1, 4, 2, 0.5), lone_row(2, 1)]),
    "dropped_and_base_absent": np.vstack(
        [random_mask(2, 9, 7, 0.4), lone_row(7, 3), base_absent_row(7)]),
    "full_overlap": np.ones((4, 5), dtype=bool),
    "sparse": random_mask(3, 12, 10, 0.15),
}


@pytest.mark.parametrize("name", sorted(OVERLAP_MASKS))
def test_pair_overlaps_match_brute_force(name):
    mask = OVERLAP_MASKS[name]
    panel = mask_panel(mask)
    kept, report = build_reference_basket(panel)
    units = panel.units
    keep = mask.sum(axis=1) >= 2
    assert kept.items == tuple(lab for lab, k in zip(panel.items, keep) if k)
    pres = mask[keep]
    expected = {}
    for a in range(len(units)):
        for b in range(a + 1, len(units)):
            expected[(units[a], units[b])] = int((pres[:, a] & pres[:, b]).sum())

    view = report.pair_intersections
    assert isinstance(view, Mapping)
    assert len(view) == len(expected)
    assert list(view) == list(expected)
    for pair, count in expected.items():
        assert view[pair] == count
    assert dict(view) == expected
    assert report.min_pair_overlap() == min(expected.values())
    for bad in [(units[1], units[0]), (units[0], units[0]), (units[0], "nowhere"),
                units[0], (units[0], units[1], units[0]), ["unhashable"]]:
        with pytest.raises(KeyError):
            view[bad]
    assert (units[1], units[0]) not in view


def test_overlap_masks_hit_the_basket_cases():
    _, report = build_reference_basket(mask_panel(OVERLAP_MASKS["dropped_and_base_absent"]))
    assert report.dropped_items == ("i9",)
    assert "i10" in report.base_absent_items
    _, report = build_reference_basket(mask_panel(OVERLAP_MASKS["full_overlap"]))
    assert report.min_pair_overlap() == 4


def test_min_pair_overlap_single_unit_is_zero():
    view = PairOverlaps(np.ones((3, 1), dtype=bool), ("u0",))
    assert len(view) == 0
    assert list(view) == []
    assert BasketReport((), view).min_pair_overlap() == 0


def test_basket_work_is_linear_in_cells():
    # the overlaps of 4.5M unit pairs must not be materialized
    mask = np.ones((20, 3000), dtype=bool)
    mask[::3, 1::2] = False
    panel = mask_panel(mask)
    tracemalloc.start()
    try:
        kept, report = build_reference_basket(panel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept is panel and report.dropped_items == ()
    assert len(report.pair_intersections) == 3000 * 2999 // 2
    assert peak < 1_000_000


def test_basket_empty_when_nothing_survives():
    panel = load_panel(csv("a,t1,1,1", "b,t2,1,1"))
    with pytest.raises(EmptyBasket):
        build_reference_basket(panel)


def test_basket_rejects_unit_left_empty():
    # dropping the only item of t3 would empty that unit
    panel = load_panel(csv(
        "a,t1,1,1", "a,t2,1,1",
        "b,t1,1,1", "b,t2,1,1",
        "c,t3,1,1",
    ))
    with pytest.raises(ValidationError):
        build_reference_basket(panel)


def test_implied_prices_values_and_absences():
    panel = load_panel(csv("a,t1,15,5", "a,t2,8,2", "b,t1,6,3", "b,t2,9,3"))
    result = implied_prices(panel)
    assert_array_equal(result.prices, [[3.0, 4.0], [2.0, 3.0]])
    rng = np.random.default_rng(3)
    sparse = random_panel(rng, 8, 5, missing=0.3)
    prices = implied_prices(sparse).prices
    assert np.isfinite(prices).all()
    assert_array_equal(prices[~sparse.present], 0.0)


def test_with_unit_appends_column():
    panel = random_panel(np.random.default_rng(1), 3, 3)
    v = np.array([1.0, 2.0, 3.0])
    q = np.array([1.0, 1.0, 1.0])
    bigger = panel.with_unit("t9", v, q)
    assert bigger.units == panel.units + ("t9",)
    assert_array_equal(bigger.values[:, -1], v)
    assert_array_equal(bigger.values[:, :-1], panel.values)
    with pytest.raises(ValidationError):
        panel.with_unit(panel.units[0], v, q)
    with pytest.raises(ValidationError):
        panel.with_unit("t9", v[:2], q[:2])


def test_mode_validation():
    with pytest.raises(ValidationError):
        Panel.from_arrays(("a",), ("t1", "t2"), np.ones((1, 2)), np.ones((1, 2)),
                          mode="frequency")
