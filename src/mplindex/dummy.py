"""Log-price dummy regressions: the standard time/country-product baseline.

Fits ln p_it = a_t + b_i + u on present cells with the base unit's effect
pinned to zero.  The optional weighting uses within-unit expenditure shares.
Identification needs the bipartite item/unit presence graph connected;
otherwise relative levels across components are arbitrary.

The normal equations have the same two-way shape as the deflator system:
a diagonal item block (per-item weight sums), the N x (T-1) weight matrix
as the cross block and a diagonal unit block (per-unit weight sums).  The
shared two-way factor (algebra.factor_two_way) absorbs the smaller of the
two diagonal blocks, so a fit costs O(NT min(N, T) + min(N, T)^3) time and
O(NT) memory and never forms the dummy design.  The standard errors of
the unit effects come from diag(S^{-1}), which the factor returns, as the
MPL deflator variances do; connectivity is checked by
panel.require_connected.  The log prices are taken as log v - log q where
v / q leaves the normal float range, so no present cell's price is out of
reach.  A fit is an IndexFit (estimator), so it reaches a report as an MPL
fit does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import factor_two_way
from .estimator import IndexFit
# presence_components is re-exported as mplindex.dummy.presence_components
from .panel import Panel, presence_components, require_connected  # noqa: F401


@dataclass(frozen=True, eq=False)
class DummyFit(IndexFit):
    """Two-way dummy regression result on the log-price scale.

    log_unit_effects has length T with 0 at the base unit, and indexes =
    exp(log_unit_effects); item_effects are the N item dummies.  ssr is the
    weighted SSR of the log prices, and dof counts the present cells, as in
    every fit.  variance_method is "dummy_wls" or "dummy_ols", for weighted
    or ordinary least squares.
    """

    log_unit_effects: np.ndarray
    item_effects: np.ndarray


def _log_prices(values: np.ndarray, quantities: np.ndarray) -> tuple[np.ndarray, bool]:
    """log(v / q), or log v - log q where the quotient is not a positive normal float.

    The difference of logs neither under- nor overflows, so values near
    1e300 over quantities near 1e-300 (or the reverse) fit as well; every
    other cell keeps the bits of log(v / q).  Also returns whether any cell
    took the difference.
    """
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        prices = values / quantities
        odd = ~(np.isfinite(prices) & (prices >= np.finfo(np.float64).tiny))
        out = np.log(prices, out=prices)
    extreme = bool(odd.any())
    if extreme:
        out[odd] = np.log(values[odd]) - np.log(quantities[odd])
    return out, extreme


def dummy_fitter(panel: Panel, weighted: bool = False):
    """Prepare the dummy fit of the panel's presence and quantities.

    Returns fit(values) -> DummyFit for an N x T value matrix that is
    positive exactly where the panel is present; fit_dummy_index is
    fit(panel.values).  The connectivity check, the dof and the labels are
    done here once.  Unweighted, the cell weights are the presence mask, so
    the factor of the normal equations and diag(S^{-1}) are too, and a fit
    is only the log prices, two right-hand sides, one solve and the SSR.
    """
    n, t = panel.n_items, panel.n_units
    require_connected(panel)
    present = panel.present
    # flat indexes of the present cells, in the order of present's True cells
    cells = np.flatnonzero(present)
    q_obs = panel.quantities.take(cells)
    nonbase = np.array(panel.nonbase_units, dtype=np.intp)
    dof = int(present.sum()) - (n + t - 1)
    labels = ([f"item[{item}]" for item in panel.items],
              [f"unit[{panel.units[u]}]" for u in nonbase])

    # W holds the cell weights, exact zeros on absent cells
    def blocks(w):
        return w.sum(axis=1), w[:, nonbase], w.sum(axis=0)[nonbase]

    if not weighted:
        # the factor of the presence mask, with its diag(S^{-1}), serves every fit
        fixed = factor_two_way(*blocks(present.astype(np.float64)), *labels)

    def fit(values: np.ndarray) -> DummyFit:
        logp = np.zeros((n, t))
        logp.ravel()[cells], extreme = _log_prices(values.take(cells), q_obs)
        if extreme:
            # log prices near +-700 would make the sums below lose the
            # digits the unit effects live in; the item effects absorb a
            # per-item shift exactly, so each item's mean is taken out
            shift = logp.sum(axis=1) / present.sum(axis=1)
            logp -= shift[:, None] * present
        if weighted:
            # each unit's values times 2^-k with 2^k just above its largest,
            # so the sum cannot overflow; the shares keep their bits
            _, k = np.frexp(values.max(axis=0))
            w = np.ldexp(values, -k)
            w /= w.sum(axis=0)
            wy = w * logp
        else:
            # W is the 0/1 presence mask and logp is 0 where W is, so
            # W * logp is logp
            w, wy = present, logp
        factor = factor_two_way(*blocks(w), *labels) if weighted else fixed
        unit_effects, item_effects = factor.solve(wy.sum(axis=1), wy.sum(axis=0)[nonbase])
        log_effects = np.zeros(t)
        log_effects[nonbase] = unit_effects

        # the residuals, in place of the log prices
        logp -= item_effects[:, None]
        logp -= log_effects[None, :]
        ssr = float((w * logp * logp).sum())
        if extreme:
            item_effects = item_effects + shift

        se = np.zeros(t)
        se[nonbase] = np.sqrt(ssr / dof * factor.unit_variances) if dof > 0 else np.nan
        # an effect past about 709 reads inf, which checked_indexes refuses
        with np.errstate(over="ignore"):
            indexes = np.exp(log_effects)
        return DummyFit(
            units=panel.units, items=panel.items, base_unit=panel.base_unit,
            mode=panel.mode, indexes=indexes, se=se, ssr=ssr, dof=dof,
            variance_method="dummy_wls" if weighted else "dummy_ols",
            log_unit_effects=log_effects, item_effects=item_effects,
        )

    return fit


def fit_dummy_index(panel: Panel, weighted: bool = False) -> DummyFit:
    """Fit the two-way log-price dummy model and return per-unit indexes.

    With weighted=True each present cell is weighted by its within-unit
    expenditure share v_it / sum_i v_it.  Standard errors come from the
    weighted-least-squares covariance with the noise scale estimated on
    (number of present cells) - (N + T - 1) degrees of freedom.
    """
    return dummy_fitter(panel, weighted)(panel.values)
