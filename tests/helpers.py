"""Shared generators for the test suite: valid random panels and bilateral inputs,
one-unit panels, a panel's CSV text, a one-call two-way solve and the
package's notes."""

from __future__ import annotations

import contextlib
import io
import logging

import numpy as np

from mplindex import BilateralInput, Panel
from mplindex.algebra import factor_two_way
from mplindex.panel import CSV_HEADER


def connected_presence(present: np.ndarray) -> bool:
    """True when the bipartite item/unit graph of the mask is connected."""
    n, t = present.shape
    seen_items = np.zeros(n, dtype=bool)
    seen_units = np.zeros(t, dtype=bool)
    stack = [("u", 0)]
    seen_units[0] = True
    while stack:
        kind, k = stack.pop()
        if kind == "u":
            for i in np.flatnonzero(present[:, k]):
                if not seen_items[i]:
                    seen_items[i] = True
                    stack.append(("i", int(i)))
        else:
            for u in np.flatnonzero(present[k]):
                if not seen_units[u]:
                    seen_units[u] = True
                    stack.append(("u", int(u)))
    return bool(seen_items.all() and seen_units.all())


def random_panel(rng, n_items, n_units, missing=0.0, base=0, mode="time",
                 lo=0.5, hi=8.0) -> Panel:
    """Random panel satisfying the basket rule with a connected presence graph."""
    values = rng.uniform(lo, hi, (n_items, n_units))
    quantities = rng.uniform(lo, hi, (n_items, n_units))
    present = np.ones((n_items, n_units), dtype=bool)
    target = int(round(missing * n_items * n_units))
    dropped = 0
    for flat in rng.permutation(n_items * n_units):
        if dropped >= target:
            break
        i, t = divmod(int(flat), n_units)
        present[i, t] = False
        if present[i].sum() >= 2 and present[:, t].any() and connected_presence(present):
            dropped += 1
        else:
            present[i, t] = True
    values = np.where(present, values, 0.0)
    quantities = np.where(present, quantities, 0.0)
    items = tuple(f"i{k}" for k in range(n_items))
    units = tuple(f"u{k}" for k in range(n_units))
    return Panel(items, units, values, quantities, base_unit=base, mode=mode)


def random_bilateral(rng, n_items, lo=0.5, hi=8.0) -> BilateralInput:
    return BilateralInput(
        p1=rng.uniform(lo, hi, n_items),
        p2=rng.uniform(lo, hi, n_items),
        q1=rng.uniform(lo, hi, n_items),
        q2=rng.uniform(lo, hi, n_items),
    )


def dyadic_bilateral(rng, n_items=1) -> BilateralInput:
    """Inputs that are exact powers of two, so IEEE products and ratios are exact."""
    def powers():
        return 2.0 ** rng.integers(-3, 4, n_items).astype(float)

    return BilateralInput(p1=powers(), p2=powers(), q1=powers(), q2=powers())


def panel_from_bilateral(inp: BilateralInput, mode="time") -> Panel:
    """Two-unit panel whose implied prices/quantities reproduce the input."""
    items = tuple(f"i{k}" for k in range(inp.p1.size))
    values = np.column_stack([inp.p1 * inp.q1, inp.p2 * inp.q2])
    quantities = np.column_stack([inp.q1, inp.q2])
    return Panel(items, ("b", "c"), values, quantities, mode=mode)


def one_unit(panel: Panel, label, values, quantities) -> Panel:
    """One-unit panel over panel's items (zero where absent), the form
    Panel.with_unit and the updates take a new unit or period in."""
    return Panel(panel.items, (label,), np.reshape(values, (-1, 1)),
                 np.reshape(quantities, (-1, 1)))


@contextlib.contextmanager
def notes():
    """The messages the "mplindex" logger notes inside the block, at INFO."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("mplindex")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def emit_panel(panel: Panel) -> str:
    """Serialize present cells back to long CSV with 17 significant digits."""
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for i, item in enumerate(panel.items):
        for t, unit in enumerate(panel.units):
            if panel.present[i, t]:
                buf.write(
                    f"{item},{unit},{panel.values[i, t]:.17g},{panel.quantities[i, t]:.17g}\n"
                )
    return buf.getvalue()


def solve_two_way(item_diag, cross, unit_diag, item_rhs, unit_rhs,
                  item_labels, unit_labels, variances=False):
    """Solve [[C, B], [B', A]] [b; a] = [r; s] with r = item_rhs, s = unit_rhs.

    The blocks are as in algebra.factor_two_way, which decides every
    refusal.  Returns the unit effects a, the item effects b and, with
    variances, diag(S^{-1}) (else None).
    """
    factor = factor_two_way(item_diag, cross, unit_diag, item_labels, unit_labels)
    units, items = factor.solve(item_rhs, unit_rhs)
    return units, items, factor.unit_variances if variances else None
