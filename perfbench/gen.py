"""Seeded panel generator for the benchmark workloads.

A panel is drawn from a known price level per unit (the generating true
index), a base price per item and lognormal quantities, so every present
cell has value = price * quantity > 0.  Absent cells are split evenly
between the two spellings the loader accepts: an explicit ``0,0`` row and
an omitted row.  Rows are written unit by unit, so the loader's
first-appearance unit order is the generated order and the base is the
first unit.  Floats are written with ``.17g``, which round-trips exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

HEADER = "item_id,unit_id,value,quantity\n"


@dataclass(frozen=True)
class Shape:
    mode: str            # "time" or "space"
    n_items: int
    n_units: int
    absent: float        # share of absent cells
    new_unit: bool       # also write a one-unit file for an update command


@dataclass
class Inputs:
    """What the generator wrote, kept in memory for the output checks."""

    items: list[str]
    units: list[str]
    values: np.ndarray       # N x T, zeros where absent
    quantities: np.ndarray
    panel_path: str
    rows: int                # data rows written to the panel file
    new_label: str | None = None
    new_values: np.ndarray | None = None
    new_quantities: np.ndarray | None = None
    new_path: str | None = None


def _draw(rng, n_items, n_units, absent):
    level = np.exp(np.concatenate([[0.0], np.cumsum(rng.normal(0.004, 0.02, n_units - 1))]))
    base_price = rng.lognormal(1.5, 0.5, n_items)
    prices = base_price[:, None] * level[None, :] * np.exp(rng.normal(0.0, 0.05, (n_items, n_units)))
    quantities = rng.lognormal(2.0, 0.7, (n_items, n_units))
    present = rng.random((n_items, n_units)) >= absent
    # every item needs two presences to stay in the reference basket
    short = present.sum(axis=1) < 2
    present[short, :2] = True
    values = np.where(present, prices * quantities, 0.0)
    quantities = np.where(present, quantities, 0.0)
    # absent cells written as explicit 0,0 rows; the rest are omitted
    zero_rows = ~present & (rng.random((n_items, n_units)) < 0.5)
    return level, base_price, values, quantities, present, zero_rows


def _rows(items, unit, v_col, q_col, present_col, zero_col):
    out = []
    for item, v, q, p, z in zip(items, v_col.tolist(), q_col.tolist(),
                                present_col.tolist(), zero_col.tolist()):
        if p:
            out.append(f"{item},{unit},{v:.17g},{q:.17g}\n")
        elif z:
            out.append(f"{item},{unit},0,0\n")
    return out


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(HEADER)
        fh.writelines(lines)


def generate(shape: Shape, seed: int, workdir: str) -> Inputs:
    """Draw the panel for ``seed`` and write its files under ``workdir``."""
    rng = np.random.default_rng(seed)
    n, t = shape.n_items, shape.n_units
    prefix = "t" if shape.mode == "time" else "o"
    items = [f"i{i:05d}" for i in range(n)]
    units = [f"{prefix}{u:04d}" for u in range(t + 1)]
    level, base_price, values, quantities, present, zero_rows = _draw(
        rng, n, t, shape.absent)

    os.makedirs(workdir, exist_ok=True)
    lines = []
    for u in range(t):
        lines.extend(_rows(items, units[u], values[:, u], quantities[:, u],
                           present[:, u], zero_rows[:, u]))
    panel_path = os.path.join(workdir, "panel.csv")
    _write(panel_path, lines)
    inputs = Inputs(items, units[:t], values, quantities, panel_path, len(lines))

    truth = [f"{u},{x:.17g}\n" for u, x in zip(units[:t], level.tolist())]
    if shape.new_unit:
        new_level = level[-1] * np.exp(rng.normal(0.004, 0.02))
        q = rng.lognormal(2.0, 0.7, n)
        p = base_price * new_level * np.exp(rng.normal(0.0, 0.05, n))
        keep = rng.random(n) < 0.7
        keep[0] = True
        zero = ~keep & (rng.random(n) < 0.5)
        inputs.new_label = units[t]
        inputs.new_values = np.where(keep, p * q, 0.0)
        inputs.new_quantities = np.where(keep, q, 0.0)
        inputs.new_path = os.path.join(workdir, "new_unit.csv")
        _write(inputs.new_path, _rows(items, units[t], inputs.new_values,
                                      inputs.new_quantities, keep, zero))
        truth.append(f"{units[t]},{new_level:.17g}\n")
    with open(os.path.join(workdir, "truth.csv"), "w", encoding="utf-8") as fh:
        fh.write("unit_id,true_index\n")
        fh.writelines(truth)
    return inputs


def warm(paths):
    """Read each file once so the timed commands find it in the page cache."""
    for path in paths:
        with open(path, "rb") as fh:
            while fh.read(1 << 20):
                pass
