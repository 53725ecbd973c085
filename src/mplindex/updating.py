"""Updates when a unit (area) or a period joins the panel.

A new unit or period is a one-unit Panel, matched to the panel by item
label.  A multilateral update (new area) notes the items the extended
panel's reference basket drops and re-estimates every deflator jointly on
that basket, as mpl on the concatenated input does; it raises
UnidentifiedModel when the newcomer leaves the presence graph split.  A
multiperiod update (new period) keeps all previously published deflators
fixed and solves a scalar system for the new one, so the published history
never revises.  Each returns a DeflatorEstimate (a unit update inside an
UpdateResult), so an update reaches a report through the same checked path
as a fresh fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import OVERFLOW_MESSAGE
from .errors import EstimationError, MplIndexError, ValidationError
from .estimator import (
    DeflatorEstimate,
    _check_basket,
    _normal,
    _Scaling,
    _stacked_ssr,
    estimate_deflators,
)
from .panel import Panel, build_reference_basket, note_dropped


@dataclass(frozen=True, eq=False)
class UpdateResult:
    """A unit update's estimate plus a mask of which published indexes moved.

    changed_mask has one entry per unit of the extended panel; the new unit
    is always True, and every other entry marks an actual difference
    against the fit of the panel's own basket.
    """

    estimate: DeflatorEstimate
    changed_mask: np.ndarray


def update_multilateral(panel: Panel, new_unit: Panel,
                        variance_method: str = "full_partition") -> UpdateResult:
    """Admit a new unit: the fresh estimate on the extended panel.

    new_unit is a one-unit Panel, matched to the panel by item label
    (Panel.with_unit).  The reference basket is taken on the extended panel
    and all deflators are re-estimated jointly on it, so prior indexes may
    move; changed_mask records where, against the fit of the panel's own
    basket.  A panel that cannot be fitted on its own (one unit, thin
    basket) marks every unit.  The extended basket's dropped items are
    noted before the fit.  Raises UnidentifiedModel when the extended
    presence graph is disconnected.
    """
    basket, report = build_reference_basket(panel.with_unit(new_unit))
    note_dropped(report)
    estimate = estimate_deflators(basket, variance_method)

    changed = np.ones(basket.n_units, dtype=bool)
    try:
        prior = estimate_deflators(build_reference_basket(panel)[0], variance_method)
    except MplIndexError:
        pass
    else:
        changed[:-1] = prior.indexes != estimate.indexes[:-1]
    return UpdateResult(estimate, changed)


def update_multiperiod(prior: DeflatorEstimate, panel: Panel,
                       new_period: Panel) -> DeflatorEstimate:
    """Admit a new period while freezing every published deflator.

    Solves the joint fit of the new deflator and refreshed reference prices
    with the prior deflators held fixed; the prior deflators and indexes are
    carried over bit-identically.  The noise scale is recomputed on the
    stacked constrained system, whose N+1 unknowns are charged against the
    present cells of the extended panel.  The new deflator's variance
    follows the prior's variance_method: sigma2 over the scalar Schur
    complement, or sigma2 / (v_new'v_new) under "corollary3".
    The prior's se is carried unchanged.  The system is solved on the
    scaling every MPL fit runs on (estimator._Scaling), with the frozen
    deflators moved into it.  new_period is a one-unit Panel matched to the
    panel by item label.  The frozen history leaves no room for a new item,
    so an item the panel (the prior's reference basket) does not hold
    raises ValidationError, as does a prior that is not a DeflatorEstimate
    or one fitted on other units, items or base.  EstimationError is raised
    when the scaled Schur complement underflows or a price is not finite,
    and, decided on the unscaled figures, when the new deflator leaves the
    normal float range.
    """
    if not isinstance(prior, DeflatorEstimate):
        raise ValidationError(f"prior must be a DeflatorEstimate, not {type(prior).__name__}")
    if prior.units != panel.units:
        raise ValidationError("prior estimate and panel units disagree")
    if prior.items != panel.items:
        raise ValidationError("prior estimate and panel items disagree")
    if prior.base_unit != panel.base_unit:
        raise ValidationError("prior estimate and panel base unit disagree")
    basket = set(panel.items)
    outside = [item for item in new_period.items if item not in basket]
    if outside:
        raise ValidationError("new period contains items outside the reference basket: "
                              + ", ".join(outside[:5]))
    extended = panel.with_unit(new_period)
    _check_basket(extended)

    n_present = int(extended.present.sum())
    q, k_items = _Scaling.scale(extended.quantities, 1, n_present)
    v, k_units = _Scaling.scale(extended.values, 0, n_present)
    scaling = _Scaling(k_units, k_items, int(k_units[extended.base_unit]))
    v_new, q_new = v[:, -1], q[:, -1]
    # overflow to inf or NaN is reported as EstimationError below
    with np.errstate(over="ignore", invalid="ignore"):
        frozen = scaling.deflators(prior.deflators)
        qv = q_new * v_new
        # per-item quantity energy, split into the prior-panel part e and
        # the total d; the prior-fit signal m is (Q * V) applied to the
        # frozen deflator vector (base entry 1).  Every item is present
        # somewhere (the basket check) and its largest quantity is scaled
        # to a normal float, so d >= (max q)^2 > 0
        e = (q[:, :-1]**2).sum(axis=1)
        d = e + q_new * q_new
        m = (q[:, :-1] * v[:, :-1]) @ frozen

        # scalar Schur complement v'v - (q*v)' D^{-1} (q*v) in its summed
        # form v_i^2 e_i / d_i, which avoids cancellation; a sum of
        # nonnegative terms, so a normal float is a positive one
        denom = float(np.sum(v_new * v_new * e / d))
        if not _normal(denom):
            raise EstimationError(OVERFLOW_MESSAGE)
        delta_new = float(np.sum(qv * m / d)) / denom
        prices = (m + qv * delta_new) / d
    if not np.isfinite(prices).all():
        raise EstimationError(OVERFLOW_MESSAGE)

    # read before _stacked_ssr overwrites v
    gram = float(v_new @ v_new) if prior.variance_method == "corollary3" else denom
    ssr = _stacked_ssr(q, v, np.append(frozen, delta_new), prices)
    dof = n_present - (extended.n_items + 1)
    se_new = np.sqrt(ssr / dof / gram) / delta_new if dof > 0 else np.nan
    deflators, prices, ssr = scaling.undo(np.append(frozen, delta_new), prices, ssr)
    delta_new = deflators[-1]
    with np.errstate(divide="ignore"):
        index_new = 1.0 / delta_new

    return DeflatorEstimate(
        units=extended.units, items=extended.items, base_unit=extended.base_unit,
        mode=extended.mode, deflators=np.append(prior.deflators, delta_new),
        indexes=np.append(prior.indexes, index_new),
        ref_prices=prices, ssr=ssr, dof=dof,
        variance_method=prior.variance_method, se=np.append(prior.se, se_new),
    )
