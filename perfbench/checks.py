"""Output checks that do not use the package's solver.

Each check takes the generated arrays and the text a CLI command wrote, and
returns None when the output is right or a one-line reason when it is not.
The index is printed with 17 significant digits, so it round-trips exactly.

* ``mpl`` and ``update-unit``: with deflators d = 1/index, the reference
  prices have the closed form p_i = sum_t q_it v_it d_t / sum_t q_it^2, and
  then every non-base deflator normal equation sum_i v_it (q_it p_i - v_it d_t)
  must vanish relative to the size of its terms.
* ``update-period``: the prior units' indexes must equal, bit for bit, the
  ``mpl`` output on the same panel (no revision), and the new period's scalar
  normal equation must vanish with the prior deflators held fixed.
* ``tpd --weighted``: with unit effects a_t = log(index_t), the item effects
  b_i solve the per-item equations in closed form, and then the weighted
  residuals must sum to zero for every non-base unit.
* ``simulate``: no replication may fail, and the same seed must give the same
  bytes on every repeat.
"""

from __future__ import annotations

import json

import numpy as np

# at the seed the relative residuals are about 1e-15.  A relative error e in
# one index gives about e; the same error in every non-base index is mostly
# absorbed by the item terms and gives about e/T, so the tolerance sits well
# below 1e-6/T for T up to a few thousand
REL_TOL = 1e-11


def _series(text, units):
    """Index vector in ``units`` order from a JSON index report."""
    doc = json.loads(text)
    by_unit = {row["unit"]: row["index"] for row in doc["series"]}
    if sorted(by_unit) != sorted(units):
        raise ValueError("report units differ from the panel's units")
    index = np.array([by_unit[u] for u in units], dtype=np.float64)
    if not (np.isfinite(index).all() and (index > 0).all()):
        raise ValueError("index has a non-positive or non-finite entry")
    if index[0] != 1.0:
        raise ValueError(f"base index is {index[0]!r}, not 1")
    return index


def _worst(residual, scale):
    rel = np.abs(residual) / scale
    return float(rel.max())


def _deflator_equations(values, quantities, index):
    d = 1.0 / index
    qq = (quantities * quantities).sum(axis=1)
    prices = (quantities * values) @ d / qq
    fitted = quantities * prices[:, None]
    deflated = values * d[None, :]
    residual = (values * (fitted - deflated)).sum(axis=0)[1:]
    scale = (values * (fitted + deflated)).sum(axis=0)[1:]
    return _worst(residual, scale)


def check_mpl(inputs, text, extended=False):
    values, quantities, units = inputs.values, inputs.quantities, inputs.units
    if extended:
        values = np.column_stack([values, inputs.new_values])
        quantities = np.column_stack([quantities, inputs.new_quantities])
        units = units + [inputs.new_label]
    try:
        index = _series(text, units)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable index report: {exc}"
    worst = _deflator_equations(values, quantities, index)
    if not worst <= REL_TOL:
        return f"deflator normal equations off by {worst:.3g} (relative)"
    return None


def check_update_period(inputs, text, mpl_text):
    units = inputs.units + [inputs.new_label]
    try:
        index = _series(text, units)
        prior = _series(mpl_text, inputs.units)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable index report: {exc}"
    revised = np.flatnonzero(index[:-1] != prior)
    if revised.size:
        return f"published index revised for unit {inputs.units[revised[0]]}"
    d = 1.0 / prior
    d_new = 1.0 / index[-1]
    q, v = inputs.quantities, inputs.values
    q_new, v_new = inputs.new_quantities, inputs.new_values
    prices = ((q * v) @ d + q_new * v_new * d_new) / ((q * q).sum(axis=1) + q_new * q_new)
    residual = v_new @ (q_new * prices - v_new * d_new)
    scale = v_new @ (q_new * prices + v_new * d_new)
    worst = _worst(np.array([residual]), scale)
    if not worst <= REL_TOL:
        return f"new-period normal equation off by {worst:.3g} (relative)"
    return None


def check_tpd_weighted(inputs, text):
    try:
        index = _series(text, inputs.units)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable index report: {exc}"
    values, quantities = inputs.values, inputs.quantities
    present = values > 0
    w = np.where(present, values / values.sum(axis=0), 0.0)
    logp = np.log(np.where(present, values, 1.0) / np.where(present, quantities, 1.0))
    a = np.log(index)
    b = (w * (logp - a[None, :])).sum(axis=1) / w.sum(axis=1)
    resid = np.where(present, logp - a[None, :] - b[:, None], 0.0)
    residual = (w * resid).sum(axis=0)[1:]
    scale = (w * (np.abs(logp) + np.abs(a)[None, :] + np.abs(b)[:, None])).sum(axis=0)[1:]
    worst = _worst(residual, scale)
    if not worst <= REL_TOL:
        return f"weighted unit residual sums off by {worst:.3g} (relative)"
    return None


def simulate_failures(text):
    """Failed replications the report lists, summed over estimators."""
    return sum(json.loads(text)["meta"]["failures"].values())


def check_simulate(text, first_text, ops):
    """(failed operations, reason) for one simulate report of ``ops`` fits.

    A failed replication is one failed operation; an unreadable report or
    output that differs from the first repeat fails every operation.
    """
    try:
        failures = simulate_failures(text)
    except (ValueError, KeyError, TypeError) as exc:
        return ops, f"unreadable simulate report: {exc}"
    if first_text is not None and text != first_text:
        return ops, "same seed gave different simulate output"
    if failures:
        return failures, f"{failures} failed replications"
    return 0, None
