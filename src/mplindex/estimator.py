"""Closed-form estimation of unit deflators and the price index.

The deflator vector solves the structured normal equations through the
small (T-1)-sized Schur complement; the reference prices follow by back
substitution through the diagonal price block.  The published index is the
pseudo-reciprocal of the deflators, so the base unit always reads 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import _base_first, _schur_factor, _tri_inv, _tri_solve, gram_blocks
from .dummy import require_connected
from .errors import (
    BasketViolation,
    DegenerateDeflator,
    InvalidDimension,
    UndefinedVariance,
    ValidationError,
)
from .panel import Panel

VARIANCE_METHODS = ("corollary3", "full_partition")
DOF_RULES = ("paper", "observed")


def pseudo_reciprocal(values) -> np.ndarray:
    """Elementwise 1/x with the convention that 0 maps to 0."""
    arr = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(arr)
    np.divide(1.0, arr, out=out, where=arr != 0)
    return out


@dataclass(frozen=True)
class DeflatorEstimate:
    """Joint fit of unit deflators and reference prices on one panel.

    deflators and indexes have length T in panel unit order with the base
    entry pinned to 1.  cov_deflators covers the non-base units only (same
    order) and is None when sigma2 is undefined.  deflator_gram and lam11
    keep the two variance bases around so the method can be switched after
    the fit.  covariance_stale marks covariances carried over unchanged by
    a period update; such an estimate cannot switch method, and its lam11
    is None because no single Schur complement covers the frozen history.
    """

    units: tuple[str, ...]
    items: tuple[str, ...]
    base_unit: int
    mode: str
    deflators: np.ndarray
    indexes: np.ndarray
    ref_prices: np.ndarray
    ssr: float
    dof: int
    dof_rule: str
    sigma2: float | None
    variance_method: str
    cov_deflators: np.ndarray | None
    deflator_gram: np.ndarray
    lam11: np.ndarray | None
    covariance_stale: bool = False

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def nonbase_indices(self) -> tuple[int, ...]:
        return tuple(t for t in range(len(self.units)) if t != self.base_unit)

    @classmethod
    def trivial(cls, panel: Panel) -> "DeflatorEstimate":
        """Exact single-unit fit (deflator 1, prices v/q); update bootstrap seed."""
        if panel.n_units != 1:
            raise InvalidDimension("trivial estimate needs a single-unit panel")
        q = panel.quantities[:, 0]
        v = panel.values[:, 0]
        prices = np.zeros_like(v)
        np.divide(v, q, out=prices, where=q > 0)
        empty = np.zeros((0, 0))
        return cls(
            units=panel.units, items=panel.items, base_unit=0, mode=panel.mode,
            deflators=np.ones(1), indexes=np.ones(1), ref_prices=prices,
            ssr=0.0, dof=0, dof_rule="paper", sigma2=None,
            variance_method="full_partition", cov_deflators=None,
            deflator_gram=np.zeros(0), lam11=empty,
        )


def _check_basket(panel: Panel):
    presences = panel.presences_per_item()
    short = np.flatnonzero(presences < 2)
    if short.size:
        labels = ", ".join(panel.items[i] for i in short[:5])
        raise BasketViolation(
            f"items present in fewer than two units: {labels}; "
            "apply build_reference_basket first"
        )


def _stacked_ssr(panel: Panel, delta: np.ndarray, prices: np.ndarray) -> float:
    """Sum of squared residuals of the stacked system, absent cells excluded.

    Absent cells have exact zero value and quantity, so their residuals
    vanish identically and summing over the full grid is equivalent.
    """
    resid = panel.quantities * prices[:, None] - panel.values * delta[None, :]
    return float((resid * resid).sum())


def _dof(panel: Panel, dof_rule: str, n_params: int) -> int:
    """Residual dof: the full grid ("paper") or the present cells ("observed")."""
    if dof_rule == "paper":
        return panel.n_items * panel.n_units - n_params
    return int(panel.present.sum()) - n_params


def _covariance(method, sigma2, deflator_gram, lam11):
    if sigma2 is None:
        return None
    if method == "corollary3":
        return sigma2 * np.diag(1.0 / deflator_gram)
    return sigma2 * lam11


def estimate_deflators(panel: Panel, variance_method: str = "full_partition",
                       dof_rule: str = "paper") -> DeflatorEstimate:
    """Estimate all unit deflators and reference prices in closed form.

    variance_method picks the deflator covariance: "corollary3" uses the
    diagonal sigma2 / (v_t'v_t) approximation, "full_partition" uses sigma2
    times the exact Schur-complement inverse.  dof_rule "paper" divides the
    SSR by N*T - (N+T-1); "observed" counts only present cells (absent cells
    have identically zero residuals, so only the divisor changes).
    Raises UnidentifiedModel when the presence graph is disconnected.
    """
    if variance_method not in VARIANCE_METHODS:
        raise ValidationError(f"variance_method must be one of {VARIANCE_METHODS}")
    if dof_rule not in DOF_RULES:
        raise ValidationError(f"dof_rule must be one of {DOF_RULES}")
    n, t = panel.n_items, panel.n_units
    if t < 2:
        raise InvalidDimension(f"estimation needs at least two units, got T={t}")
    _check_basket(panel)

    blocks = gram_blocks(panel)
    order = _base_first(panel)
    chol, bc = _schur_factor(
        blocks.price_gram, blocks.cross, blocks.deflator_gram,
        [f"ref_price[{item}]" for item in panel.items],
        [f"deflator[{panel.units[u]}]" for u in order[1:]])
    delta_nb = _tri_solve(chol, _tri_solve(chol, bc.T @ blocks.rhs), trans=True)
    prices = (1.0 / blocks.price_gram) * (blocks.rhs + blocks.cross @ delta_nb)
    # S^{-1} = L^{-T} L^{-1}; numpy computes X'X as one symmetric product
    chol_inv = _tri_inv(chol)
    lam11 = chol_inv.T @ chol_inv
    # after the solve: a split panel whose components each fit exactly
    # already failed there as SingularSystem; any other split would pin the
    # deflators outside the base unit's component at zero
    require_connected(panel)

    deflators = np.ones(t)
    deflators[list(order[1:])] = delta_nb

    ssr = _stacked_ssr(panel, deflators, prices)
    dof = _dof(panel, dof_rule, n + t - 1)
    sigma2 = ssr / dof if dof > 0 else None

    cov = _covariance(variance_method, sigma2, blocks.deflator_gram, lam11)
    return DeflatorEstimate(
        units=panel.units, items=panel.items, base_unit=panel.base_unit,
        mode=panel.mode, deflators=deflators,
        indexes=pseudo_reciprocal(deflators), ref_prices=prices,
        ssr=ssr, dof=dof, dof_rule=dof_rule, sigma2=sigma2,
        variance_method=variance_method, cov_deflators=cov,
        deflator_gram=blocks.deflator_gram, lam11=lam11,
    )


def deflator_covariance(estimate: DeflatorEstimate,
                        method: str | None = None) -> np.ndarray:
    """Covariance of the non-base deflators under the requested method.

    Under the estimate's own method this is the stored cov_deflators, so a
    period update reports the prior periods' published covariance.  A stale
    estimate cannot be re-based on another method: its prior block came
    from an earlier noise scale and its cross-covariances are unknown (NaN),
    so that request raises ValidationError.
    """
    method = estimate.variance_method if method is None else method
    if method not in VARIANCE_METHODS:
        raise ValidationError(f"method must be one of {VARIANCE_METHODS}")
    if estimate.sigma2 is None:
        raise UndefinedVariance("noise scale is undefined (no residual dof)")
    if method == estimate.variance_method and estimate.cov_deflators is not None:
        cov = estimate.cov_deflators.view()
        cov.flags.writeable = False
        return cov
    if estimate.covariance_stale:
        raise ValidationError(
            f"covariance carried over by a period update cannot be "
            f"recomputed under {method!r}"
        )
    return _covariance(method, estimate.sigma2, estimate.deflator_gram,
                       estimate.lam11)


def with_variance_method(estimate: DeflatorEstimate, method: str) -> DeflatorEstimate:
    """Same fit, covariance recomputed under another method.

    Raises ValidationError on a stale (period-updated) estimate, whose
    carried covariance cannot be recomputed.
    """
    if method not in VARIANCE_METHODS:
        raise ValidationError(f"method must be one of {VARIANCE_METHODS}")
    if estimate.covariance_stale:
        raise ValidationError(
            "covariance carried over by a period update cannot be recomputed"
        )
    cov = _covariance(method, estimate.sigma2, estimate.deflator_gram,
                      estimate.lam11)
    return replace(estimate, variance_method=method, cov_deflators=cov)


def index_variance(estimate: DeflatorEstimate,
                   method: str | None = None) -> np.ndarray:
    """Delta-method variance of the index: var(d_t) / d_t^4, base entry 0."""
    cov = deflator_covariance(estimate, method)
    nonbase = estimate.nonbase_indices
    delta_nb = estimate.deflators[list(nonbase)]
    if (delta_nb == 0).any():
        t = nonbase[int(np.argmin(delta_nb != 0))]
        raise DegenerateDeflator(
            f"deflator for unit {estimate.units[t]!r} is zero; "
            "index variance undefined"
        )
    out = np.zeros(estimate.n_units)
    out[list(nonbase)] = np.diag(cov) / delta_nb**4
    return out


@dataclass(frozen=True)
class IndexSeries:
    """Publishable index table: one row per unit, symmetric k-sigma bounds."""

    units: tuple[str, ...]
    base_unit: int
    mode: str
    index: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    k: float
    pct_change: np.ndarray | None


def to_index_series(estimate: DeflatorEstimate, k: float = 3.0) -> IndexSeries:
    """Index, standard errors and k-sigma bounds; never raises.

    When the noise scale is undefined the non-base standard errors and
    bounds are NaN.  pct_change is period-over-period in time mode (first
    entry NaN) and None in space mode.
    """
    t = estimate.n_units
    se = np.zeros(t)
    if estimate.sigma2 is None:
        se[list(estimate.nonbase_indices)] = np.nan
    else:
        try:
            se = np.sqrt(index_variance(estimate))
        except DegenerateDeflator:
            se = np.full(t, np.nan)
            se[estimate.base_unit] = 0.0
    lower = estimate.indexes - k * se
    upper = estimate.indexes + k * se
    pct = None
    if estimate.mode == "time":
        pct = np.full(t, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct[1:] = 100.0 * (estimate.indexes[1:] / estimate.indexes[:-1] - 1.0)
    return IndexSeries(units=estimate.units, base_unit=estimate.base_unit,
                       mode=estimate.mode, index=estimate.indexes.copy(),
                       se=se, lower=lower, upper=upper, k=float(k),
                       pct_change=pct)
