import io
import tracemalloc
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

import mplindex.panel as panel_module
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
    assert_array_equal(result, [[3.0, 4.0], [2.0, 3.0]])
    assert not result.flags.writeable
    rng = np.random.default_rng(3)
    sparse = random_panel(rng, 8, 5, missing=0.3)
    prices = implied_prices(sparse)
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


# --- columnar fast path against the strict row parser -----------------------

def strict_load(text, **kwargs):
    """load_panel with the columnar parser switched off."""
    with mock.patch.object(panel_module, "_parse_columns", return_value=None):
        return load_panel(io.StringIO(text), **kwargs)


def outcome(load):
    """A panel as comparable plain data, or the type and text of its error."""
    try:
        p = load()
    except Exception as exc:  # the comparison is the point
        return type(exc), str(exc)
    return (p.items, p.units, p.base_unit, p.mode, p.values.tobytes(),
            p.quantities.tobytes(), p.present.tobytes())


def assert_same_as_strict(text, tmp_path=None, columnar=None, **kwargs):
    """load_panel on a stream (and a file) matches the strict parser.

    columnar=True/False also pins whether the columnar parser decided.
    """
    expected = outcome(lambda: strict_load(text, **kwargs))
    assert outcome(lambda: load_panel(io.StringIO(text), **kwargs)) == expected
    if tmp_path is not None:
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(lambda: load_panel(path, **kwargs)) == expected
    if columnar is not None:
        decided = panel_module._parse_columns(io.BytesIO(text.encode())) is not None
        assert decided == columnar
    return expected


LOADER_CASES = {
    # plain input the columnar parser takes
    "plain": (HEADER + "\na,t1,10,2\nb,t1,6,3\na,t2,8,2\nb,t2,9,3\n", True),
    "no_trailing_newline": (HEADER + "\na,t1,10,2\nb,t1,6,3\na,t2,8,2\nb,t2,9,3", True),
    "whitespace": (" item_id ,unit_id, value,quantity \n"
                   " a ,\tt1 , 10 , 2\nb,t1,6 ,\t3\n a,t2 ,8,2\nb , t2,9, 3 \n", True),
    "spellings": (HEADER + "\na,t1,1_000,2\nb,t1,6e0,3\na,t2,-0,-0\nb,t2,+9,.5\n"
                  "a,t3,8,2\nb,t3,0,0\n", True),
    "non_ascii": (HEADER + "\ncafé,période 1,10,2\n日本,période 1,6,3\n"
                  "café,période 2,8,2\n日本,période 2,9,3\n", True),
    "odd_whitespace_in_labels": (HEADER + "\na\x0cb,t\x851,10,2\n c,t\x851,6,3\n"
                                 "a\x0cb,t2 ,8,2\nc\x0c,t2,9,3\n", True),
    "explicit_absence": (HEADER + "\na,t1,10,2\nb,t1,0,0\na,t2,8,2\nb,t2,9,3\n"
                         "b,t3,1,1\na,t3,0,0\n", True),
    # labels that strip to the same text are one label
    "unicode_padded_labels": (HEADER + "\na,t1,10,2\n\xa0b,t1,6,3\na\u3000,t2,8,2\n"
                              "b,\xa0t2\u3000,9,3\n", True),
    # input the row parser decides
    "unicode_digits": (HEADER + "\na,t1,١٠,2\nb,t1,6,٣\na,t2,8,2\nb,t2,9,3\n", False),
    "unicode_space_in_number": (HEADER + "\na,t1,\xa010,2\nb,t1,6,3\u3000\n", False),
    "unicode_padded_duplicate": (HEADER + "\na,t1,10,2\nb,t1,6,3\n\xa0a\u3000,t1,8,2\n",
                                 False),
    "bom": ("\ufeff" + HEADER + "\na,t1,10,2\nb,t1,6,3\n", False),
    "quoted": (HEADER + '\n"a",t1,10,2\nb,"t1",6,3\n"a,x",t2,8,2\nb,t2,"9",3\n', False),
    "crlf": ("item_id,unit_id,value,quantity\r\na,t1,10,2\r\nb,t1,6,3\r\n"
             "a,t2,8,2\r\nb,t2,9,3\r\n", False),
    "blank_lines": (HEADER + "\na,t1,10,2\n\nb,t1,6,3\na,t2,8,2\n\nb,t2,9,3\n\n", False),
    "trailing_comma": (HEADER + "\na,t1,10,2\nb,t1,6,3,\na,t2,8,2\n", False),
    # realigned, the fields would read as two more valid, distinct cells
    "three_then_five_fields": (HEADER + "\n1,2,3,4\n5,6,7\n8,9,10,11,12\n", False),
    "inf": (HEADER + "\na,t1,inf,2\nb,t1,6,3\n", False),
    "nan": (HEADER + "\na,t1,10,nan\nb,t1,6,3\n", False),
    "duplicate": (HEADER + "\na,t1,10,2\nb,t1,6,3\na,t2,8,2\n a ,t1,11,2\n", False),
    "inconsistent": (HEADER + "\na,t1,10,2\nb,t1,6,0\n", False),
    "negative": (HEADER + "\na,t1,10,2\nb,t1,-6,-3\n", False),
    "empty_label": (HEADER + "\na,t1,10,2\n ,t1,6,3\n", False),
    "unparseable": (HEADER + "\na,t1,10,2\nb,t1,six,3\n", False),
    "header_only": (HEADER + "\n", False),
    "bad_header": ("item_id,unit,value,quantity\na,t1,10,2\n", False),
    "empty": ("", False),
    "nul": (HEADER + "\na,t1,10,2\nb\0,t1,6,3\na,t2,8,2\nb\0,t2,9,3\n", False),
}


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_loader_matches_strict_parser(name, tmp_path):
    text, columnar = LOADER_CASES[name]
    assert_same_as_strict(text, tmp_path, columnar=columnar)


def test_loader_cases_hit_the_intended_outcomes():
    def result(name):
        return outcome(lambda: strict_load(LOADER_CASES[name][0]))

    assert result("three_then_five_fields") == (
        FormatError, "line 3: expected 4 fields, got 3")
    assert result("duplicate")[0] is DuplicateObservation
    assert "line 5" in result("duplicate")[1]
    assert result("inf") == (FormatError, "line 2: value and quantity must be finite")
    assert result("nan") == (FormatError, "line 2: value and quantity must be finite")
    assert result("header_only") == (FormatError, "line 2: input contains no data rows")
    assert result("empty") == (FormatError, "line 1: empty input")
    assert result("spellings")[0] == ("a", "b")
    assert result("quoted")[0] == ("a", "b", "a,x")
    assert result("odd_whitespace_in_labels")[:2] == (("a\x0cb", "c"), ("t\x851", "t2"))
    assert result("unicode_padded_labels")[:2] == (("a", "b"), ("t1", "t2"))
    assert result("unicode_digits")[0] == ("a", "b")
    assert result("unicode_space_in_number")[0] == ("a", "b")
    assert result("unicode_padded_duplicate") == (
        DuplicateObservation, "line 4: duplicate observation for item 'a', unit 't1'")
    assert result("bom") == (
        FormatError, "line 1: expected header item_id,unit_id,value,quantity, "
        "got \ufeffitem_id,unit_id,value,quantity")


def test_loader_applies_units_and_base_alike():
    text = LOADER_CASES["plain"][0]
    for kwargs in ({"units": ("t2", "t1"), "base_unit": "t1"}, {"base_unit": 1},
                   {"units": ("t2",)}, {"base_unit": "t9"}, {"mode": "space"}):
        assert_same_as_strict(text, **kwargs)


@pytest.fixture
def tiny_chunks(monkeypatch):
    # a batch of one or two lines, so labels and cells span batches
    monkeypatch.setattr(panel_module, "_CHUNK_CHARS", 12)


def test_first_appearance_spans_chunks(tiny_chunks, tmp_path):
    text = HEADER + "\nz,t2,1,1\ny,t2,2,1\nz,t1,3,1\nx,t1,4,1\ny,t3,5,1\nx,t3,6,1\n"
    assert panel_module._parse_columns(io.BytesIO(text.encode())) is not None
    assert_same_as_strict(text, tmp_path)
    panel = load_panel(io.StringIO(text))
    assert panel.items == ("z", "y", "x")
    assert panel.units == ("t2", "t1", "t3")


def test_duplicate_cell_across_chunks(tiny_chunks, tmp_path):
    text = HEADER + "\na,t1,1,1\nb,t1,2,1\na,t2,3,1\nb,t2,4,1\na,t1,5,1\n"
    error = assert_same_as_strict(text, tmp_path, columnar=False)
    assert error == (DuplicateObservation,
                     "line 6: duplicate observation for item 'a', unit 't1'")


def test_multibyte_label_across_a_read_boundary(tiny_chunks, tmp_path):
    # 12-byte reads after the header: the three first lines put a read
    # boundary before the three-byte 日, after its first byte and after its second
    for first in ("a,t1,1,1", "a,t1,10,1", "a,t1,100,1"):
        text = HEADER + f"\n{first}\n日本,t1,2,1\na,t2,3,1\n日本,t2,4,1\n"
        assert panel_module._parse_columns(io.BytesIO(text.encode())) is not None
        assert_same_as_strict(text, tmp_path)
        assert load_panel(io.StringIO(text)).items == ("a", "日本")


def test_fallback_replays_lines_already_read(tiny_chunks):
    # the quote sits several batches in; the row parser must still see line 2
    rows = [f"i{k},t{k % 3},{k + 1},1" for k in range(12)]
    rows[9] = '"i9",t0,10,1'
    text = "\n".join([HEADER] + rows) + "\n"
    assert_same_as_strict(text, columnar=False)
    assert load_panel(io.StringIO(text)).items == tuple(f"i{k}" for k in range(12))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), t=st.integers(2, 5),
       missing=st.floats(0.0, 0.5), chunk=st.sampled_from([1, 40, 1 << 20]))
def test_random_panels_load_like_strict_parser(seed, n, t, missing, chunk):
    rng = np.random.default_rng(seed)
    panel = random_panel(rng, n, t, missing=missing)
    # spell some absent cells as explicit 0,0 rows, then shuffle the rows
    lines = emit_panel(panel).splitlines()[1:]
    absent = np.argwhere(~panel.present)
    zero = absent[rng.random(len(absent)) < 0.5]
    lines += [f"{panel.items[i]},{panel.units[j]},0,0" for i, j in zero]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    text = "\n".join([HEADER] + lines) + "\n"
    with mock.patch.object(panel_module, "_CHUNK_CHARS", chunk):
        assert panel_module._parse_columns(io.BytesIO(text.encode())) is not None
        assert_same_as_strict(text)
    back = load_panel(io.StringIO(text), units=panel.units)
    assert sorted(back.items) == sorted(panel.items)
    rows = [back.items.index(item) for item in panel.items]
    assert_array_equal(back.values[rows], panel.values)
    assert_array_equal(back.quantities[rows], panel.quantities)


def big_panel_text(n_items=2000, n_units=50):
    """~100k-row long CSV with 17-digit numbers, unit by unit."""
    rng = np.random.default_rng(5)
    values = rng.uniform(0.5, 80.0, (n_items, n_units))
    quantities = rng.uniform(0.5, 8.0, (n_items, n_units))
    return HEADER + "\n" + "".join(
        f"i{i:05d},t{t:04d},{values[i, t]:.17g},{quantities[i, t]:.17g}\n"
        for t in range(n_units) for i in range(n_items))


def test_columnar_parse_peaks_below_half_the_row_parser(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(big_panel_text())

    def peak(load):
        tracemalloc.start()
        try:
            panel = load()
            return panel, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    fast, fast_peak = peak(lambda: load_panel(path))
    with mock.patch.object(panel_module, "_parse_columns", return_value=None):
        strict, strict_peak = peak(lambda: load_panel(path))
    assert fast.values.shape == (2000, 50)
    assert_array_equal(fast.values, strict.values)
    assert_array_equal(fast.quantities, strict.quantities)
    assert fast_peak < strict_peak / 2, (fast_peak, strict_peak)


def test_undecodable_file_is_format_error_with_line(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes((HEADER + "\na,t1,1,1\ncafé,t1,2,1\n").encode("latin-1"))
    with pytest.raises(FormatError) as exc:
        load_panel(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: input is not utf-8 text")
    path.write_bytes((HEADER + "\na,t1,1,1\n").encode("utf-16"))
    with pytest.raises(FormatError) as exc:
        load_panel(path)
    assert exc.value.line == 1


@pytest.mark.parametrize("line", [b"b,t1,2\xff,1", b"b\xe6\x97,t1,2,1"])
def test_undecodable_field_is_format_error_with_line(tmp_path, line):
    data = HEADER.encode() + b"\na,t1,1,1\n" + line + b"\na,t2,3,1\n"
    assert panel_module._parse_columns(io.BytesIO(data)) is None
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError) as exc:
        load_panel(path)
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: input is not utf-8 text")


def test_stream_with_a_lone_surrogate_goes_to_the_row_parser():
    text = HEADER + "\na\ud800,t1,1,1\nb,t1,2,1\na\ud800,t2,3,1\nb,t2,4,1\n"
    assert_same_as_strict(text)
    assert load_panel(io.StringIO(text)).items == ("a\ud800", "b")


def test_undecodable_stream_is_format_error():
    raw = io.BytesIO((HEADER + "\na,t1,1,1\nb,t1,2,1\n").encode("utf-16"))
    with pytest.raises(FormatError) as exc:
        load_panel(io.TextIOWrapper(raw, encoding="utf-8"))
    assert exc.value.line is None


def test_oversized_field_is_format_error(tmp_path):
    text = HEADER + "\na,t1,1,1\nb" + "x" * 200_000 + ",t1,2,1\n"
    error = assert_same_as_strict(text, tmp_path, columnar=False)
    assert error == (FormatError, "line 3: field larger than field limit (131072)")
