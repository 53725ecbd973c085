"""Dense reference routes that the structured solvers are checked against.

Nothing in the package imports this module; it keeps the straightforward
implementations the fast paths replaced, so tests can compare against them:
the dense stacked deflator design with its pivoted-QR least-squares fit, the
normal matrix assembled from the closed-form blocks, and the dense dummy fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular

from mplindex import (
    DummyFit,
    GramBlocks,
    InvalidDimension,
    Panel,
    SingularSystem,
    gram_blocks,
    implied_prices,
)
from mplindex.algebra import PIVOT_RTOL


def transition_matrix(n: int) -> np.ndarray:
    """n^2 x n selector whose i-th column is e_i kron e_i.

    Sandwiching a Kronecker product between these selectors turns it into a
    Hadamard product: T_n' (A kron B) T_m = A * B for n x m factors.
    """
    if n < 1:
        raise InvalidDimension(f"transition matrix needs n >= 1, got {n}")
    out = np.zeros((n * n, n))
    out[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    return out


@dataclass(frozen=True)
class DesignSystem:
    """Dense stacked design for one panel, base unit ordered first."""

    y: np.ndarray
    X: np.ndarray
    n_items: int
    n_units: int
    dof: int
    column_labels: tuple[str, ...]
    unit_order: tuple[int, ...]


def structured_normal_matrix(panel: Panel) -> np.ndarray:
    """X'X assembled from the closed-form blocks (never from X itself)."""
    b = gram_blocks(panel)
    t1 = b.deflator_gram.size
    n = b.price_gram.size
    out = np.zeros((t1 + n, t1 + n))
    out[:t1, :t1] = np.diag(b.deflator_gram)
    out[:t1, t1:] = -b.cross.T
    out[t1:, :t1] = -b.cross
    out[t1:, t1:] = np.diag(b.price_gram)
    return out


def structured_normal_rhs(panel: Panel) -> np.ndarray:
    """X'y: zeros for the deflator columns, q_base * v_base for the prices."""
    b = gram_blocks(panel)
    return np.concatenate([np.zeros(b.deflator_gram.size), b.rhs])


def build_design_system(panel: Panel) -> DesignSystem:
    """Assemble the dense stacked design, base-unit rows first.

    Rows come in T blocks of N; block 0 carries the base unit.  Columns are
    the T-1 non-base deflators followed by the N reference prices.  The
    assembly fills the few structurally nonzero entries directly, so no
    Kronecker factor is ever materialized.
    """
    n, t = panel.n_items, panel.n_units
    if t < 2:
        raise InvalidDimension(f"design needs at least two units, got T={t}")
    order = (panel.base_unit,) + tuple(panel.nonbase_units)
    v = panel.values[:, order]
    q = panel.quantities[:, order]

    k = (t - 1) + n
    y = np.zeros(n * t)
    y[:n] = v[:, 0]
    X = np.zeros((n * t, k))
    rows = np.arange(n)
    X[rows, (t - 1) + rows] = q[:, 0]
    for s in range(1, t):
        block = n * s + rows
        X[block, s - 1] = -v[:, s]
        X[block, (t - 1) + rows] = q[:, s]

    labels = tuple(f"deflator[{panel.units[order[s]]}]" for s in range(1, t)) + tuple(
        f"ref_price[{item}]" for item in panel.items
    )
    return DesignSystem(y=y, X=X, n_items=n, n_units=t,
                        dof=n * t - (n + t - 1),
                        column_labels=labels, unit_order=order)


@dataclass(frozen=True)
class BlockInverse:
    """(X'X)^{-1} partitioned at the deflator/price boundary."""

    lam11: np.ndarray
    lam12: np.ndarray
    lam22: np.ndarray


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    residuals: np.ndarray
    sigma2: float | None
    blocks: BlockInverse


def ols_fit(system: DesignSystem, dof: int | None = None) -> OlsFit:
    """Plain pivoted-QR least squares on the dense design.

    Serves as the reference route against which the structured closed-form
    estimator is checked.  Raises SingularSystem naming a dependent column
    when the pivot ratio falls below PIVOT_RTOL.
    """
    X, y = system.X, system.y
    k = X.shape[1]
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or diag.min() < PIVOT_RTOL * diag.max():
        bad = int(piv[int(np.argmin(diag))])
        raise SingularSystem("design matrix is rank deficient",
                             column=system.column_labels[bad])
    beta = np.empty(k)
    beta[piv] = solve_triangular(R, Q.T @ y)
    residuals = y - X @ beta

    dof = system.dof if dof is None else dof
    sigma2 = float(residuals @ residuals) / dof if dof > 0 else None

    r_inv = solve_triangular(R, np.eye(k))
    gram_inv_p = r_inv @ r_inv.T
    lam = np.empty((k, k))
    lam[np.ix_(piv, piv)] = gram_inv_p
    t1 = system.n_units - 1
    blocks = BlockInverse(lam11=lam[:t1, :t1], lam12=lam[:t1, t1:], lam22=lam[t1:, t1:])
    return OlsFit(beta=beta, residuals=residuals, sigma2=sigma2, blocks=blocks)


def schur_block12(blocks: GramBlocks) -> np.ndarray:
    """Off-diagonal block of (X'X)^{-1}: S^{-1} B' C^{-1}, from blocks alone.

    Only the diagonal price block is inverted elementwise; the (T-1)-sized
    Schur complement is factored here with scipy, never the full (N+T-1)
    Gram matrix.
    """
    bc = blocks.cross / blocks.price_gram[:, None]
    schur = np.diag(blocks.deflator_gram) - blocks.cross.T @ bc
    return cho_solve(cho_factor(schur, lower=True), bc.T)


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
