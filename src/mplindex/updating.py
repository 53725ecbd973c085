"""Closed-form updates when a unit (area) or a period joins the panel.

A multilateral update (new area) re-solves the joint system; its closed
form works off the previous Gram blocks extended by one column, and the
result coincides with a fresh estimate on the extended panel.  A multiperiod
update (new period) keeps all previously published deflators fixed and
solves a scalar system for the new one, so the published history never
revises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .algebra import GramBlocks, _base_first, _schur_factor, gram_blocks
from .errors import (
    DegenerateDeflator,
    MplIndexError,
    SingularSystem,
    ValidationError,
)
from .estimator import (
    DeflatorEstimate,
    _check_basket,
    _covariance,
    _stacked_ssr,
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


def _coerce_new_unit(panel: Panel, new_unit):
    label, values, quantities = new_unit
    return panel.with_unit(label, values, quantities)


def update_multilateral(panel: Panel, new_unit,
                        variance_method: str = "full_partition",
                        dof_rule: str = "paper",
                        prior: DeflatorEstimate | None = None) -> UpdateResult:
    """Admit a new unit by extending the Gram blocks and re-solving.

    new_unit is a (label, values, quantities) triple sharing the panel's
    item list (zero-filled where absent).  All deflators are re-estimated
    jointly, so prior indexes may move; changed_mask records where.
    """
    extended = _coerce_new_unit(panel, new_unit)
    _check_basket(extended)

    # extend the prior panel's blocks by the new unit's column instead of
    # recomputing from scratch; the base unit is unchanged so the non-base
    # ordering is the prior ordering plus the newcomer last
    prev = gram_blocks(panel)
    v_new = extended.values[:, -1]
    q_new = extended.quantities[:, -1]
    qv = q_new * v_new
    blocks = GramBlocks(
        deflator_gram=np.append(prev.deflator_gram, v_new @ v_new),
        cross=np.column_stack([prev.cross, qv]),
        price_gram=prev.price_gram + q_new * q_new,
        rhs=prev.rhs,
    )

    order = _base_first(extended)
    deflator_labels = [f"deflator[{extended.units[t]}]" for t in order[1:]]
    price_labels = [f"ref_price[{item}]" for item in extended.items]
    factor, bc = _schur_factor(blocks.price_gram, blocks.cross, blocks.deflator_gram,
                               price_labels, deflator_labels)
    delta_nb = cho_solve(factor, bc.T @ blocks.rhs)
    prices = (blocks.rhs + blocks.cross @ delta_nb) / blocks.price_gram
    lam11 = cho_solve(factor, np.eye(delta_nb.size))

    n, t = extended.n_items, extended.n_units
    deflators = np.ones(t)
    deflators[list(order[1:])] = delta_nb
    ssr = _stacked_ssr(extended, deflators, prices)
    if dof_rule == "paper":
        dof = n * t - (n + t - 1)
    else:
        dof = int(extended.present.sum()) - (n + t - 1)
    sigma2 = ssr / dof if dof > 0 else None
    cov = _covariance(variance_method, sigma2, blocks.deflator_gram, lam11)

    estimate = DeflatorEstimate(
        units=extended.units, items=extended.items, base_unit=extended.base_unit,
        mode=extended.mode, deflators=deflators,
        indexes=pseudo_reciprocal(deflators), ref_prices=prices,
        ssr=ssr, dof=dof, dof_rule=dof_rule, sigma2=sigma2,
        variance_method=variance_method, cov_deflators=cov,
        deflator_gram=blocks.deflator_gram, lam11=lam11,
    )

    changed = np.ones(t, dtype=bool)
    if prior is None:
        try:
            from .estimator import estimate_deflators

            prior = estimate_deflators(panel, variance_method=variance_method,
                                       dof_rule=dof_rule)
        except MplIndexError:
            prior = None
    if prior is not None and prior.units == extended.units[:-1]:
        changed[: t - 1] = prior.indexes != estimate.indexes[: t - 1]
    return UpdateResult(estimate=estimate, changed_mask=changed)


def update_multiperiod(prior: DeflatorEstimate, panel: Panel,
                       new_period) -> UpdateResult:
    """Admit a new period while freezing every published deflator.

    Solves the joint fit of the new deflator and refreshed reference prices
    with the prior deflators held fixed; the prior deflators and indexes are
    carried over bit-identically.  The noise scale is recomputed on the
    stacked constrained system with N*(T+1) - (N+1) degrees of freedom; the
    prior covariance block is carried unchanged and flagged stale.
    """
    if prior.units != panel.units:
        raise ValidationError("prior estimate and panel units disagree")
    if prior.base_unit != panel.base_unit:
        raise ValidationError("prior estimate and panel base unit disagree")
    extended = _coerce_new_unit(panel, new_period)
    _check_basket(extended)

    v_new = extended.values[:, -1]
    q_new = extended.quantities[:, -1]
    qv = q_new * v_new

    # per-item quantity energy, split into the prior-panel part e and the
    # total d; the prior-fit signal m is (Q * V) applied to the frozen
    # deflator vector (base entry 1)
    e = (panel.quantities**2).sum(axis=1)
    d = e + q_new * q_new
    if (d <= 0).any():
        i = int(np.argmin(d))
        raise SingularSystem("an item has zero quantity everywhere",
                             column=f"ref_price[{extended.items[i]}]")
    m = (panel.quantities * panel.values) @ prior.deflators

    # scalar Schur complement v'v - (q*v)' D^{-1} (q*v) in its summed
    # positive form v_i^2 e_i / d_i, which avoids cancellation
    denom = float(np.sum(v_new * v_new * e / d))
    if denom <= 0:
        raise DegenerateDeflator(
            "scalar Schur complement for the new period is not positive"
        )
    delta_new = float(np.sum(qv * m / d)) / denom
    prices = (m + qv * delta_new) / d

    deflators = np.append(prior.deflators, delta_new)
    n, t1 = extended.n_items, extended.n_units
    ssr = _stacked_ssr(extended, deflators, prices)
    dof = n * t1 - (n + 1)
    sigma2 = ssr / dof if dof > 0 else None

    var_new = sigma2 / denom if sigma2 is not None else np.nan
    k_prior = prior.deflator_gram.size
    cov = np.full((k_prior + 1, k_prior + 1), np.nan)
    if prior.cov_deflators is not None:
        cov[:k_prior, :k_prior] = prior.cov_deflators
    cov[k_prior, k_prior] = var_new
    lam11 = np.zeros((k_prior + 1, k_prior + 1))
    lam11[:k_prior, :k_prior] = prior.lam11
    lam11[k_prior, k_prior] = 1.0 / denom

    indexes = np.append(prior.indexes, pseudo_reciprocal([delta_new])[0])
    estimate = DeflatorEstimate(
        units=extended.units, items=extended.items, base_unit=extended.base_unit,
        mode=extended.mode, deflators=deflators, indexes=indexes,
        ref_prices=prices, ssr=ssr, dof=dof, dof_rule=prior.dof_rule,
        sigma2=sigma2, variance_method=prior.variance_method,
        cov_deflators=cov,
        deflator_gram=np.append(prior.deflator_gram, v_new @ v_new),
        lam11=lam11, covariance_stale=True,
    )
    changed = np.zeros(t1, dtype=bool)
    changed[-1] = True
    return UpdateResult(estimate=estimate, changed_mask=changed)
