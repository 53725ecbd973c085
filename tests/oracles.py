"""Dense reference routes that the structured solvers are checked against.

Nothing in the package imports this module; it keeps the straightforward
implementations the fast paths replaced, so tests can compare against them.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from mplindex import DummyFit, Panel, SingularSystem, implied_prices


def dense_dummy_fit(panel: Panel, weighted: bool = False) -> DummyFit:
    """Two-way log-price dummy fit through the dense n_obs x (N+T-1) design.

    Builds one row per present cell with a unit dummy (base omitted) and an
    item dummy, then Cholesky-factors the full weighted Gram matrix and
    inverts it for the standard errors.  Expects a connected panel with
    positive finite prices.
    """
    n, t = panel.n_items, panel.n_units
    prices = implied_prices(panel).prices
    ii, tt = np.nonzero(panel.present)
    logp = np.log(prices[ii, tt])

    # columns: T-1 unit dummies (base omitted), then N item dummies
    nonbase = [u for u in range(t) if u != panel.base_unit]
    col_of_unit = np.full(t, -1)
    col_of_unit[nonbase] = np.arange(t - 1)
    n_obs = ii.size
    k = (t - 1) + n
    X = np.zeros((n_obs, k))
    rows = np.arange(n_obs)
    has_dummy = tt != panel.base_unit
    X[rows[has_dummy], col_of_unit[tt[has_dummy]]] = 1.0
    X[rows, (t - 1) + ii] = 1.0

    if weighted:
        unit_totals = panel.values.sum(axis=0)
        w = panel.values[ii, tt] / unit_totals[tt]
    else:
        w = np.ones(n_obs)
    sw = np.sqrt(w)

    xtwx = (X * w[:, None]).T @ X
    xtwy = (X * w[:, None]).T @ logp
    try:
        factor = cho_factor(xtwx, lower=True)
    except np.linalg.LinAlgError:
        raise SingularSystem("weighted dummy design is rank deficient") from None
    beta = cho_solve(factor, xtwy)
    resid = logp - X @ beta
    ssr = float((sw * resid) @ (sw * resid))
    dof = n_obs - k
    sigma2 = ssr / dof if dof > 0 else None

    cov_diag = np.diag(cho_solve(factor, np.eye(k)))
    log_effects = np.zeros(t)
    se = np.zeros(t)
    for u in nonbase:
        j = col_of_unit[u]
        log_effects[u] = beta[j]
        se[u] = np.sqrt(sigma2 * cov_diag[j]) if sigma2 is not None else np.nan
    return DummyFit(
        units=panel.units, items=panel.items, base_unit=panel.base_unit,
        log_unit_effects=log_effects, indexes=np.exp(log_effects),
        item_effects=beta[t - 1:], se=se, weighted=weighted,
        sigma2=sigma2, dof=dof,
    )
