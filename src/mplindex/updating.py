"""Updates when a unit (area) or a period joins the panel.

A multilateral update (new area) is the fresh estimate on the extended
panel: every deflator is re-estimated jointly, and the update raises
UnidentifiedModel when the newcomer leaves the presence graph split.  A
multiperiod update (new period) keeps all previously published deflators
fixed and solves a scalar system for the new one, so the published history
never revises.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import OVERFLOW_MESSAGE
from .errors import (
    DegenerateDeflator,
    EstimationError,
    MplIndexError,
    SingularSystem,
    ValidationError,
)
from .estimator import (
    DeflatorEstimate,
    _check_basket,
    _dof,
    _exponent,
    _rescaled,
    _stacked_ssr,
    _unscale,
    estimate_deflators,
    pseudo_reciprocal,
)
from .panel import Panel


@dataclass(frozen=True)
class UpdateResult:
    """Updated estimate plus a mask of which published indexes moved.

    changed_mask has one entry per unit of the extended panel; the new unit
    is always True.  Period updates leave every prior entry False by
    construction; unit updates mark actual differences against the previous
    fit.
    """

    estimate: DeflatorEstimate
    changed_mask: np.ndarray


def update_multilateral(panel: Panel, new_unit,
                        variance_method: str = "full_partition",
                        dof_rule: str = "paper",
                        prior: DeflatorEstimate | None = None) -> UpdateResult:
    """Admit a new unit: the fresh estimate on the extended panel.

    new_unit is a (label, values, quantities) triple sharing the panel's
    item list (zero-filled where absent).  All deflators are re-estimated
    jointly, so prior indexes may move; changed_mask records where.  Raises
    UnidentifiedModel when the extended presence graph is disconnected.
    Without a prior, the panel is refitted to compare against; a panel that
    cannot be fitted on its own (one unit, thin basket) marks every unit.
    """
    extended = panel.with_unit(*new_unit)
    estimate = estimate_deflators(extended, variance_method, dof_rule)

    t = extended.n_units
    changed = np.ones(t, dtype=bool)
    if prior is None:
        try:
            prior = estimate_deflators(panel, variance_method, dof_rule)
        except MplIndexError:
            prior = None
    if prior is not None and prior.units == extended.units[:-1]:
        changed[: t - 1] = prior.indexes != estimate.indexes[: t - 1]
    return UpdateResult(estimate=estimate, changed_mask=changed)


def _normal(x: float) -> bool:
    """x is a float at full precision: finite, nonzero and not subnormal."""
    return math.isfinite(x) and abs(x) >= sys.float_info.min


def update_multiperiod(prior: DeflatorEstimate, panel: Panel,
                       new_period) -> UpdateResult:
    """Admit a new period while freezing every published deflator.

    Solves the joint fit of the new deflator and refreshed reference prices
    with the prior deflators held fixed; the prior deflators and indexes are
    carried over bit-identically.  The noise scale is recomputed on the
    stacked constrained system, whose N+1 unknowns are charged against the
    prior's dof_rule (the full N*(T+1) grid or the present cells).  The new
    deflator's variance follows the prior's variance_method: sigma2 over the
    scalar Schur complement, or sigma2 / (v_new'v_new) under "corollary3".
    The prior deflator variances are carried unchanged (NaN when the prior
    had no sigma2).  Raises EstimationError when the scalar system over- or
    underflows: a subnormal v_new'v_new or Schur complement has lost its
    precision, and the new variance would be off or infinite.
    """
    if prior.units != panel.units:
        raise ValidationError("prior estimate and panel units disagree")
    if prior.base_unit != panel.base_unit:
        raise ValidationError("prior estimate and panel base unit disagree")
    extended = panel.with_unit(*new_period)
    _check_basket(extended)

    k_items = _exponent(extended.quantities.max(axis=1))
    v, q, k = _rescaled(extended, extended.values, k_items)
    v_new, q_new = v[:, -1], q[:, -1]
    # overflow to inf or NaN is reported as EstimationError below
    with np.errstate(over="ignore", invalid="ignore"):
        qv = q_new * v_new
        # per-item quantity energy, split into the prior-panel part e and
        # the total d; the prior-fit signal m is (Q * V) applied to the
        # frozen deflator vector (base entry 1)
        e = (q[:, :-1]**2).sum(axis=1)
        d = e + q_new * q_new
        if (d <= 0).any():
            i = int(np.argmin(d))
            raise SingularSystem("an item has zero quantity everywhere",
                                 column=f"ref_price[{extended.items[i]}]")
        m = (q[:, :-1] * v[:, :-1]) @ prior.deflators

        # scalar Schur complement v'v - (q*v)' D^{-1} (q*v) in its summed
        # positive form v_i^2 e_i / d_i, which avoids cancellation
        denom = float(np.sum(v_new * v_new * e / d))
        if denom <= 0:
            raise DegenerateDeflator(
                "scalar Schur complement for the new period is not positive"
            )
        delta_new = float(np.sum(qv * m / d)) / denom
        prices = (m + qv * delta_new) / d
    if not (_normal(denom) and math.isfinite(delta_new) and np.isfinite(prices).all()):
        raise EstimationError(OVERFLOW_MESSAGE)

    deflators = np.append(prior.deflators, delta_new)
    ssr = _stacked_ssr(q, v, deflators, prices)
    dof = _dof(extended, prior.dof_rule, extended.n_items + 1)

    # scaled sigma2 over a scaled Gram: the scalings cancel
    if dof <= 0:
        var_new = np.nan
    else:
        gram = float(v_new @ v_new) if prior.variance_method == "corollary3" else denom
        var_new = ssr / dof / gram
        if not (_normal(gram) and (var_new == 0 or _normal(var_new))):
            raise EstimationError(OVERFLOW_MESSAGE)
    prices, ssr = _unscale(prices, ssr, k, k_items)
    sigma2 = ssr / dof if dof > 0 else None
    prior_var = prior.var_deflators
    if prior_var is None:
        prior_var = np.full(prior.n_units, np.nan)
        prior_var[prior.base_unit] = 0.0

    indexes = np.append(prior.indexes, pseudo_reciprocal([delta_new])[0])
    estimate = DeflatorEstimate(
        units=extended.units, items=extended.items, base_unit=extended.base_unit,
        mode=extended.mode, deflators=deflators, indexes=indexes,
        ref_prices=prices, ssr=ssr, dof=dof, dof_rule=prior.dof_rule,
        sigma2=sigma2, variance_method=prior.variance_method,
        var_deflators=np.append(prior_var, var_new),
    )
    changed = np.zeros(extended.n_units, dtype=bool)
    changed[-1] = True
    return UpdateResult(estimate=estimate, changed_mask=changed)
