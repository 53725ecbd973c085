"""Value/quantity panel container, CSV ingestion, the reference-basket rule
and the connectivity of the presence graph.

A panel holds two aligned nonnegative matrices (values and quantities) over
N items and T units, where a unit is a time period (mode "time") or an area
(mode "space").  A cell is present when both entries are strictly positive;
absent cells carry exact zeros in both matrices.  Every estimator needs two
units or more and the bipartite item/unit presence graph connected
(require_connected), which is checked with boolean frontier sweeps.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import numbers
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DuplicateObservation,
    EmptyBasket,
    FormatError,
    InconsistentCell,
    InvalidDimension,
    UnidentifiedModel,
    ValidationError,
    require_number,
)

CSV_HEADER = ("item_id", "unit_id", "value", "quantity")
# accepted headers: CSV_HEADER and the paper's spelling
_HEADERS = (CSV_HEADER, ("item", "unit", "value", "quantity"))
MODES = ("time", "space")
_log = logging.getLogger("mplindex")

# bytes per read of the columnar parser (capped at the csv field limit): big
# enough that per-batch overhead vanishes, small enough that a batch's field
# bytes stay a few MB
_CHUNK_CHARS = 1 << 18


def _as_readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, order="C", copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Panel:
    """Immutable N x T value/quantity panel.

    Rows are items, columns are units (periods or areas).  Absent cells are
    exact zeros in both matrices.  ``present`` is derived, not passed: the
    panel computes it as ``values > 0`` once it has checked that no cell
    mixes a positive and a zero entry, so ``dataclasses.replace`` with new
    values recomputes it.  The arrays are marked read-only so a constructed
    panel can be shared freely.

    T = 1 panels are accepted: a new unit or period arrives as one (the
    --new file, and a one-unit update-unit input); every estimator requires
    T >= 2.
    """

    items: tuple[str, ...]
    units: tuple[str, ...]
    values: np.ndarray
    quantities: np.ndarray
    present: np.ndarray = field(init=False)
    base_unit: int = 0
    mode: str = "time"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(str(i) for i in self.items))
        object.__setattr__(self, "units", tuple(str(u) for u in self.units))
        object.__setattr__(self, "values", _as_readonly(self.values, np.float64))
        object.__setattr__(self, "quantities", _as_readonly(self.quantities, np.float64))

        n, t = len(self.items), len(self.units)
        if n < 1 or t < 1:
            raise ValidationError("panel needs at least one item and one unit")
        if len(set(self.items)) != n:
            raise ValidationError("item labels must be unique")
        if len(set(self.units)) != t:
            raise ValidationError("unit labels must be unique")
        shape = (n, t)
        for name in ("values", "quantities"):
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} must have shape {shape}")
        if not (np.isfinite(self.values).all() and np.isfinite(self.quantities).all()):
            raise ValidationError("values and quantities must be finite")
        if (self.values < 0).any() or (self.quantities < 0).any():
            raise ValidationError("values and quantities must be nonnegative")

        present = self.values > 0
        mixed = present != (self.quantities > 0)
        if mixed.any():
            i, t_ = np.argwhere(mixed)[0]
            raise InconsistentCell(
                f"cell ({self.items[i]}, {self.units[t_]}) mixes positive and "
                "zero entries; present cells need value > 0 and quantity > 0, "
                "absent cells need exact zeros in both"
            )
        present.flags.writeable = False
        object.__setattr__(self, "present", present)
        empty_units = np.flatnonzero(~present.any(axis=0))
        if empty_units.size:
            raise ValidationError(
                f"unit {self.units[empty_units[0]]!r} has no present items"
            )
        require_number("base_unit", self.base_unit, numbers.Integral)
        if not 0 <= self.base_unit < t:
            raise ValidationError(f"base_unit {self.base_unit} out of range for T={t}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def nonbase_units(self) -> list[int]:
        """Column indices of every unit except the base, in panel order."""
        return [u for u in range(self.n_units) if u != self.base_unit]

    def with_unit(self, unit: "Panel") -> "Panel":
        """Return a new panel with a one-unit panel's column appended.

        The new unit's cells are matched to this panel's rows by item label.
        Items only the new unit holds follow this panel's own items, in the
        new unit's order, absent in every earlier unit: the panel load_panel
        reads from the two long CSVs concatenated.
        """
        if unit.n_units != 1:
            raise ValidationError(f"new unit must be a one-unit panel, got {unit.n_units} units")
        if unit.units[0] in self.units:
            raise ValidationError(f"unit {unit.units[0]!r} already in panel")
        own = set(self.items)
        items = self.items + tuple(i for i in unit.items if i not in own)
        row = {item: k for k, item in enumerate(items)}
        rows = [row[item] for item in unit.items]
        pad = ((0, len(items) - self.n_items), (0, 1))
        values, quantities = np.pad(self.values, pad), np.pad(self.quantities, pad)
        values[rows, -1], quantities[rows, -1] = unit.values[:, 0], unit.quantities[:, 0]
        return replace(self, items=items, units=self.units + unit.units,
                       values=values, quantities=quantities)


class PairOverlaps(Mapping):
    """Read-only map (unit_a, unit_b) -> items present in both units.

    A view over a read-only N x T presence mask (``present``) and its unit
    labels (``units``).  Keys are the T(T-1)/2 unit pairs in panel order
    with a < b, iterated as (units[0], units[1]), (units[0], units[2]), ...;
    a reversed or unknown pair raises KeyError.  No overlap is precomputed:
    each lookup counts one pair's common items, and len is O(1).
    """

    __slots__ = ("present", "units", "_column")

    def __init__(self, present: np.ndarray, units: tuple[str, ...]):
        self.present = present
        self.units = units
        self._column = {label: k for k, label in enumerate(units)}

    def __len__(self) -> int:
        t = len(self.units)
        return t * (t - 1) // 2

    def __iter__(self):
        units = self.units
        for a in range(len(units)):
            for b in range(a + 1, len(units)):
                yield units[a], units[b]

    def __getitem__(self, pair) -> int:
        try:
            first, second = pair
            a, b = self._column[first], self._column[second]
        except (TypeError, ValueError, KeyError):
            raise KeyError(pair) from None
        if a >= b:
            raise KeyError(pair)
        return int(np.count_nonzero(self.present[:, a] & self.present[:, b]))


@dataclass(frozen=True, eq=False)
class BasketReport:
    """What build_reference_basket did and what it noticed.

    pair_intersections is a lazy PairOverlaps view over the restricted
    panel's presence mask; estimation never reads it, so no overlap is
    computed unless asked for.
    """

    dropped_items: tuple[str, ...]
    pair_intersections: PairOverlaps
    base_absent_items: tuple[str, ...] = ()

    def min_pair_overlap(self) -> int:
        """Fewest items any two units share (0 with fewer than two units).

        One float Gram product of the 0/1 mask gives every pair's count,
        exact below 2**53 items.
        """
        present = self.pair_intersections.present
        if present.shape[1] < 2:
            return 0
        mask = present.astype(np.float64)
        overlaps = mask.T @ mask
        np.fill_diagonal(overlaps, np.inf)
        return int(overlaps.min())


def _resolve_base(units: tuple[str, ...], base_unit) -> int:
    if base_unit is None:
        return 0
    if isinstance(base_unit, (int, np.integer)) and not isinstance(base_unit, bool):
        return int(base_unit)
    label = str(base_unit)
    if label in units:
        return units.index(label)
    if label.lstrip("+-").isdigit():
        return int(label)
    raise ValidationError(f"base unit {base_unit!r} not found among units")


def load_panel(source, mode: str = "time", base_unit=None) -> Panel:
    """Read a long-format CSV (item_id,unit_id,value,quantity) into a Panel.

    The header may also read item,unit,value,quantity; both are accepted.
    ``source`` is a path (read as UTF-8) or an open text stream; a binary
    stream raises FormatError.  Rows with value = 0 and quantity = 0 mark
    explicit absence; any other mix of signs is rejected.  Items and
    units are ordered by first appearance.  ``base_unit`` is a unit label
    or positional index (default: first unit).

    Plain input (LF line ends; no quote, CR or NUL; three commas on every
    line) is parsed column by column from its UTF-8 bytes, at most
    ``csv.field_size_limit()`` bytes (128 kB by default) at a time: a path
    is read in binary, a stream's text is encoded once.  Anything else goes
    to the csv row parser from the start of the input: a stream whose text
    does not encode (a lone surrogate), a first line in a batch longer than
    the field limit, a number float() does not take from ASCII bytes (such
    as Unicode digits or spaces), a label that is not UTF-8, and any input
    a whole-file check rejects.  Both parsers give the same panel, and every
    error comes from the row parser, which ends a line at LF, CRLF or a bare
    CR, for a stream as for a path.  Text that does not decode and csv
    faults such as an oversized field raise FormatError.
    """
    try:
        parsed = _parse(source)
    except UnicodeDecodeError as exc:
        line = None if hasattr(source, "read") else _undecodable_line(os.fspath(source))
        raise FormatError(f"input is not {exc.encoding} text ({exc.reason})",
                          line=line) from None
    item_order, unit_order, values, quantities = parsed
    return Panel(item_order, unit_order, values, quantities,
                 base_unit=_resolve_base(tuple(unit_order), base_unit), mode=mode)


def _parse(source):
    """Columnar parse of the source's UTF-8 bytes, else the row parser on its text."""
    if hasattr(source, "read"):
        text = source.read()
        if not isinstance(text, str):
            raise FormatError("input stream must be text, not "
                              f"{type(text).__name__}; open the file in text mode")
        try:
            parsed = _parse_columns(io.BytesIO(text.encode("utf-8")))
        except UnicodeEncodeError:  # a lone surrogate
            parsed = None
        # newline="" splits lines as the path branch's open() does, a bare CR too
        return _parse_rows(io.StringIO(text, newline="")) if parsed is None else parsed
    with open(source, "rb") as fh:
        parsed = _parse_columns(fh)
    if parsed is None:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            parsed = _parse_rows(fh)
    return parsed


def _undecodable_line(path) -> int | None:
    """Line holding the first byte sequence that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


class _Codes(dict):
    """label -> code, numbering labels in order of first lookup."""

    def __missing__(self, label):
        self[label] = code = len(self)
        return code


def _stripped(raw_codes: _Codes):
    """Stripped labels in first-appearance order, and the code of each raw label.

    Raw labels that strip to the same text share a code.  Raises
    UnicodeDecodeError on a label that is not UTF-8.
    """
    codes = _Codes()
    recode = [codes[raw.decode("utf-8").strip()] for raw in raw_codes]
    return list(codes), np.array(recode, dtype=np.intp)


def _parse_columns(fh):
    """Columnar parse of a binary handle; None where the row parser must decide.

    Returns what _parse_rows returns for the same text, or None on a header
    outside _HEADERS; a batch holding a quote, CR or NUL, a first line longer
    than the csv field limit or a line without exactly four fields; a number
    float() rejects; a label that is not UTF-8 or is empty once stripped; a
    non-finite or sign-inconsistent number, a duplicate cell or no data rows.
    """
    limit = csv.field_size_limit()
    header = fh.readline()
    try:
        names = header.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # a quote or NUL survives strip(), a CR does not
    if (len(header) > limit or "\r" in names
            or tuple(h.strip() for h in names.rstrip("\n").split(",")) not in _HEADERS):
        return None

    # labels are coded by their raw bytes and stripped once each at the end
    raw_items, raw_units = _Codes(), _Codes()
    batches = []
    size = min(_CHUNK_CHARS, limit)
    rest = b""
    while True:
        block = fh.read(size)
        if not block:
            if not rest:
                break
            block = b"\n"  # end the last line
        data = rest + block
        end = data.rfind(b"\n") + 1
        data, rest = data[:end], data[end:]
        # every line but the first lies within one read, so within the limit
        if len(rest) >= limit or data.find(b"\n") >= limit:
            return None
        if not data:
            continue
        if b'"' in data or b"\r" in data or b"\0" in data:
            return None
        count = data.count(b"\n")
        # each line is four fields and the b"\n" that ended it; the split
        # leaves one empty field after the last
        fields = data.replace(b"\n", b",\n,").split(b",")
        fields.pop()
        if len(fields) != 5 * count or fields[4::5].count(b"\n") != count:
            return None
        try:
            values = np.fromiter(map(float, fields[2::5]), np.float64, count)
            quantities = np.fromiter(map(float, fields[3::5]), np.float64, count)
        except ValueError:
            return None
        codes = [np.fromiter(map(code.__getitem__, fields[k::5]), np.intp, count)
                 for k, code in enumerate((raw_items, raw_units))]
        batches.append((*codes, values, quantities))
    if not batches:
        return None
    try:
        (item_order, item_recode), (unit_order, unit_recode) = map(
            _stripped, (raw_items, raw_units))
    except UnicodeDecodeError:
        return None
    if "" in item_order or "" in unit_order:
        return None

    rows, cols, values, quantities = (np.concatenate(part) for part in zip(*batches))
    del batches
    rows, cols = item_recode[rows], unit_recode[cols]
    if not (np.isfinite(values).all() and np.isfinite(quantities).all()):
        return None
    if not (((values > 0) & (quantities > 0)) | ((values == 0) & (quantities == 0))).all():
        return None
    n, t = len(item_order), len(unit_order)
    flat = rows * t + cols
    if np.bincount(flat, minlength=n * t).max() > 1:
        return None
    grid_values = np.zeros(n * t)
    grid_quantities = np.zeros(n * t)
    grid_values[flat] = values
    grid_quantities[flat] = quantities
    return (item_order, unit_order,
            grid_values.reshape(n, t), grid_quantities.reshape(n, t))


def _csv_rows(reader):
    """The reader's rows; a csv fault (oversized field, stray CR) as FormatError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(str(exc), line=reader.line_num) from None


def _parse_rows(lines):
    """Strict row-by-row parse: labels in first-appearance order, N x T arrays."""
    reader = csv.reader(lines)
    records = _csv_rows(reader)
    try:
        header = next(records)
    except StopIteration:
        raise FormatError("empty input", line=1) from None
    if tuple(h.strip() for h in header) not in _HEADERS:
        raise FormatError(
            f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}", line=1
        )

    item_code, unit_code = _Codes(), _Codes()
    cells: dict[tuple[int, int], tuple[float, float]] = {}
    for lineno, row in enumerate(records, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise FormatError(f"expected 4 fields, got {len(row)}", line=lineno)
        item, unit = row[0].strip(), row[1].strip()
        if not item or not unit:
            raise FormatError("empty item_id or unit_id", line=lineno)
        try:
            value = float(row[2])
            quantity = float(row[3])
        except ValueError:
            raise FormatError(f"unparseable numeric field in {row!r}", line=lineno) from None
        if not (math.isfinite(value) and math.isfinite(quantity)):
            raise FormatError("value and quantity must be finite", line=lineno)
        if not ((value > 0 and quantity > 0) or (value == 0 and quantity == 0)):
            raise InconsistentCell(
                f"line {lineno}: cell ({item}, {unit}) has value={row[2]}, "
                f"quantity={row[3]}; need both positive or both exactly zero"
            )
        key = (item_code[item], unit_code[unit])
        if key in cells:
            raise DuplicateObservation(
                f"line {lineno}: duplicate observation for item {item!r}, unit {unit!r}"
            )
        cells[key] = (value, quantity)

    if not cells:
        raise FormatError("input contains no data rows", line=2)

    values = np.zeros((len(item_code), len(unit_code)))
    quantities = np.zeros_like(values)
    for (i, j), (value, quantity) in cells.items():
        values[i, j] = value
        quantities[i, j] = quantity
    return list(item_code), list(unit_code), values, quantities


def build_reference_basket(panel: Panel) -> tuple[Panel, BasketReport]:
    """Drop items present in fewer than two units; report what happened.

    Returns the restricted panel and a report with the dropped item labels,
    the items that survive the rule but are absent in the base unit (they
    stay in the basket, zero-filled), and a lazy view of the per-pair
    presence intersection sizes.  The work is O(NT): estimation never reads
    the pairwise overlaps, so they are counted only on lookup.  Raises
    EmptyBasket when nothing survives.  Idempotent on conforming panels.
    """
    keep = panel.present.sum(axis=1) >= 2
    dropped = tuple(lab for lab, k in zip(panel.items, keep) if not k)
    if not keep.any():
        raise EmptyBasket("no item is present in two or more units")

    if dropped:
        restricted = replace(panel, items=[lab for lab, k in zip(panel.items, keep) if k],
                             values=panel.values[keep],
                             quantities=panel.quantities[keep])
    else:
        restricted = panel

    pres = restricted.present
    base_absent = tuple(
        lab for i, lab in enumerate(restricted.items) if not pres[i, restricted.base_unit]
    )
    overlaps = PairOverlaps(pres, restricted.units)
    return restricted, BasketReport(dropped, overlaps, base_absent)


def note_dropped(report: BasketReport) -> None:
    """Note the items a reference basket dropped on the "mplindex" logger."""
    if report.dropped_items:
        _log.info("note: dropped items outside the reference basket: %s",
                  ", ".join(report.dropped_items))


def implied_prices(panel: Panel) -> np.ndarray:
    """Read-only N x T unit values v/q on present cells, exact zeros elsewhere.

    Overflow to inf is tolerated here; consumers that need finite prices
    check and raise with a pointer to the offending cell.
    """
    prices = np.zeros_like(panel.values)
    with np.errstate(over="ignore"):
        np.divide(panel.values, panel.quantities, out=prices, where=panel.present)
    prices.flags.writeable = False
    return prices


def _reach(present, items, units):
    """Grow item and unit masks, in place, to their part of the presence graph.

    A boolean frontier sweep from the units: each step reaches the items
    present in the units reached last, then the units holding those items.
    Every unit of an item already in items must be in units.  No edge list
    is built.
    """
    frontier = units.copy()
    while frontier.any():
        new_items = present[:, frontier].any(axis=1) & ~items
        items |= new_items
        frontier = present[new_items].any(axis=0) & ~units
        units |= frontier


def presence_components(panel: Panel) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Connected components of the bipartite presence graph.

    Nodes are the N items followed by the T units; each present cell is an
    edge.  Returns (unit labels, item labels) per component, components in
    order of their first item and members in panel order (every unit holds
    an item, so each component is reached from its first item).
    """
    n, t = panel.n_items, panel.n_units
    seen = np.zeros(n, dtype=bool)
    out = []
    while not seen.all():
        first = np.argmin(seen)
        items = np.zeros(n, dtype=bool)
        items[first] = True
        units = panel.present[first].copy()
        _reach(panel.present, items, units)
        seen |= items
        out.append((tuple(panel.units[u] for u in np.flatnonzero(units)),
                    tuple(panel.items[i] for i in np.flatnonzero(items))))
    return out


def require_connected(panel: Panel) -> None:
    """Raise InvalidDimension for a panel of one unit, which leaves no index
    to estimate, and UnidentifiedModel unless the presence graph is connected.

    One sweep from the base unit; presence_components runs only to describe
    a failure.
    """
    if panel.n_units < 2:
        raise InvalidDimension(f"estimation needs at least two units, got T={panel.n_units}")
    items = np.zeros(panel.n_items, dtype=bool)
    units = np.zeros(panel.n_units, dtype=bool)
    units[panel.base_unit] = True
    _reach(panel.present, items, units)
    if units.all() and items.all():
        return
    comps = presence_components(panel)
    desc = "; ".join(
        f"units {{{', '.join(u)}}} with items {{{', '.join(i)}}}"
        for u, i in comps
    )
    raise UnidentifiedModel(
        f"presence graph splits into {len(comps)} components: {desc}",
        components=tuple(comps),
    )
