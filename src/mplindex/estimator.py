"""Closed-form estimation of unit deflators and the price index.

The deflators and reference prices solve the structured normal equations
through algebra.factor_two_way, which absorbs the smaller of the diagonal
price and deflator blocks and factors the Schur complement of the other,
(T-1)- or N-sized, at O(NT min(N, T) + min(N, T)^3).  The panel is
rescaled by powers of two before the blocks are formed, so a magnitude
the whole panel shares neither under- nor overflows, however far from 1.
The published index is the pseudo-reciprocal of the deflators, so the
base unit always reads 1.  deflator_fitter does the part of a fit that
depends on presence and quantities alone once, so redrawn values (the
replication harness) fit without repeating it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .algebra import factor_two_way
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
# magnitudes within 2**±_SAFE_EXPONENT are fitted unscaled: squared and
# summed, they stay far inside the normal float range
_SAFE_EXPONENT = 128


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
    entry pinned to 1.  var_deflators holds the deflator variances in the
    same order with 0 at the base; a fit without sigma2 leaves it None.  They
    are computed once, under variance_method; refit to get the other
    convention.  No covariance between deflators is kept.
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
    var_deflators: np.ndarray | None

    @property
    def n_units(self) -> int:
        return len(self.units)

    @property
    def index_se(self) -> np.ndarray:
        """Delta-method standard errors on the index scale, 0 at the base.

        NaN off the base when the variance is undefined: no residual dof or
        a zero deflator (see index_variance).
        """
        try:
            return np.sqrt(index_variance(self))
        except (UndefinedVariance, DegenerateDeflator):
            se = np.full(self.n_units, np.nan)
            se[self.base_unit] = 0.0
            return se


def _check_basket(panel: Panel):
    short = np.flatnonzero(panel.present.sum(axis=1) < 2)
    if short.size:
        labels = ", ".join(panel.items[i] for i in short[:5])
        raise BasketViolation(
            f"items present in fewer than two units: {labels}; "
            "apply build_reference_basket first"
        )


def _exponent(x):
    """Binary exponents of x, taken as 0 within _SAFE_EXPONENT of zero."""
    _, k = np.frexp(x)
    return np.where(np.abs(k) > _SAFE_EXPONENT, k, 0)


def _rescaled(panel: Panel, values: np.ndarray, k_items: np.ndarray):
    """values times 2^-k and item i's quantities times 2^-k_i, and k.

    values are the panel's or a redraw of its present cells, k is the
    _exponent of their largest base-unit entry and k_items the _exponent of
    each item's largest quantity, so both maxima scale into [0.5, 1) where
    they are far from 1.  Every residual of the stacked system is on the
    base unit's value scale, so a magnitude the whole panel shares neither
    under- nor overflows in the fit.  Powers of two scale exactly and every
    operation of the fit commutes with them: the deflators and their
    variances come out as from the unscaled panel, bit for bit where that
    does not under- or overflow, and _unscale moves the reference prices
    and the SSR back.  Without a scale the arrays are returned as they are.
    """
    k = int(_exponent(values[:, panel.base_unit].max()))
    if k == 0 and not k_items.any():
        return values, panel.quantities, k
    # validation catches a present cell that the scaling flushes to zero
    scaled = dataclasses.replace(
        panel, values=np.ldexp(values, -k),
        quantities=np.ldexp(panel.quantities, -k_items[:, None]))
    return scaled.values, scaled.quantities, k


def _unscale(prices: np.ndarray, ssr: float, k: int, k_items: np.ndarray):
    """Reference prices and SSR of a rescaled panel on the input's scale.

    A magnitude beyond the float range reads inf.
    """
    with np.errstate(over="ignore"):
        return np.ldexp(prices, k - k_items), float(np.ldexp(ssr, 2 * k))


def _stacked_ssr(quantities: np.ndarray, values: np.ndarray, delta: np.ndarray,
                 prices: np.ndarray) -> float:
    """Sum of squared residuals of the stacked system, absent cells excluded.

    Absent cells have exact zero value and quantity, so their residuals
    vanish identically and summing over the full grid is equivalent.
    """
    resid = quantities * prices[:, None] - values * delta[None, :]
    return float((resid * resid).sum())


def _dof(panel: Panel, dof_rule: str, n_params: int) -> int:
    """Residual dof: the full grid ("paper") or the present cells ("observed")."""
    if dof_rule == "paper":
        return panel.n_items * panel.n_units - n_params
    return int(panel.present.sum()) - n_params


def deflator_fitter(panel: Panel, variance_method: str = "full_partition",
                    dof_rule: str = "paper"):
    """Prepare the deflator fit of the panel's presence and quantities.

    Returns fit(values) -> DeflatorEstimate for an N x T C-ordered value
    matrix that is positive exactly where the panel is present, with the
    base unit's column left as it is; estimate_deflators is
    fit(panel.values).  The checks and everything that depends on presence
    and quantities alone are done here once: the argument, basket and
    connectivity checks, the dof, the labels and the quantity parts of the
    Gram blocks (see algebra.gram_blocks).  S depends on the values, so
    each fit factors it.
    """
    if variance_method not in VARIANCE_METHODS:
        raise ValidationError(f"variance_method must be one of {VARIANCE_METHODS}")
    if dof_rule not in DOF_RULES:
        raise ValidationError(f"dof_rule must be one of {DOF_RULES}")
    n, t = panel.n_items, panel.n_units
    if t < 2:
        raise InvalidDimension(f"estimation needs at least two units, got T={t}")
    _check_basket(panel)
    require_connected(panel)

    dof = _dof(panel, dof_rule, n + t - 1)
    base, nonbase = panel.base_unit, np.array(panel.nonbase_units, dtype=np.intp)
    labels = ([f"ref_price[{item}]" for item in panel.items],
              [f"deflator[{panel.units[u]}]" for u in nonbase])
    k_items = _exponent(panel.quantities.max(axis=1))
    # the quantities as _rescaled scales them
    scaled_q = (np.ldexp(panel.quantities, -k_items[:, None]) if k_items.any()
                else panel.quantities)
    neg_q_nb, q_base = np.negative(scaled_q[:, nonbase]), scaled_q[:, base]
    unit_rhs = np.zeros(t - 1)
    # overflow to inf is reported as EstimationError by factor_two_way
    with np.errstate(over="ignore", invalid="ignore"):
        price_gram = (scaled_q * scaled_q).sum(axis=1)

    def fit(values: np.ndarray) -> DeflatorEstimate:
        v, q, k = _rescaled(panel, values, k_items)
        v_nb = v[:, nonbase]
        with np.errstate(over="ignore", invalid="ignore"):
            deflator_gram = (v_nb * v_nb).sum(axis=0)
            rhs = q_base * v[:, base]
            # X'X holds the negative of the cross block q * v; formed in
            # place, so no second N x (T-1) array is live in the solve
            neg_cross = np.multiply(v_nb, neg_q_nb, out=v_nb)
        factor = factor_two_way(price_gram, neg_cross, deflator_gram, *labels)
        delta_nb, prices = factor.solve(rhs, unit_rhs)

        deflators = np.ones(t)
        deflators[nonbase] = delta_nb
        ssr = _stacked_ssr(q, v, deflators, prices)
        var = None
        if dof > 0:
            # scaled sigma2 times scaled diag(S^{-1}): the scalings cancel
            var = np.zeros(t)
            if variance_method == "corollary3":
                var[nonbase] = ssr / dof * (1.0 / deflator_gram)
            else:
                var[nonbase] = ssr / dof * factor.unit_variances
        prices, ssr = _unscale(prices, ssr, k, k_items)
        sigma2 = ssr / dof if dof > 0 else None
        return DeflatorEstimate(
            units=panel.units, items=panel.items, base_unit=base,
            mode=panel.mode, deflators=deflators,
            indexes=pseudo_reciprocal(deflators), ref_prices=prices,
            ssr=ssr, dof=dof, dof_rule=dof_rule, sigma2=sigma2,
            variance_method=variance_method, var_deflators=var,
        )

    return fit


def estimate_deflators(panel: Panel, variance_method: str = "full_partition",
                       dof_rule: str = "paper") -> DeflatorEstimate:
    """Estimate all unit deflators and reference prices in closed form.

    variance_method picks the deflator variances: "corollary3" uses the
    approximation sigma2 / (v_t'v_t), "full_partition" uses sigma2 times the
    diagonal of the exact Schur-complement inverse.  dof_rule "paper" divides the
    SSR by N*T - (N+T-1); "observed" counts only present cells (absent cells
    have identically zero residuals, so only the divisor changes).
    Raises UnidentifiedModel when the presence graph is disconnected.
    """
    return deflator_fitter(panel, variance_method, dof_rule)(panel.values)


def index_variance(estimate: DeflatorEstimate) -> np.ndarray:
    """Delta-method variance of the index: var(d_t) / d_t^4, base entry 0.

    Raises UndefinedVariance when the noise scale is undefined and
    DegenerateDeflator when a deflator is zero.
    """
    if estimate.sigma2 is None:
        raise UndefinedVariance("noise scale is undefined (no residual dof)")
    zero = np.flatnonzero(estimate.deflators == 0)
    if zero.size:
        raise DegenerateDeflator(
            f"deflator for unit {estimate.units[zero[0]]!r} is zero; "
            "index variance undefined"
        )
    # with d = mant * 2**exp, var / d**4 = (var * 2**(-4 exp)) / mant**4; the
    # power-of-two scaling is exact, and nothing under- or overflows where
    # the result does not
    mant, exp = np.frexp(estimate.deflators)
    return np.ldexp(estimate.var_deflators, -4 * exp) / mant**4


@dataclass(frozen=True)
class IndexSeries:
    """Publishable index table: one row per unit, symmetric k-sigma bounds.

    variance_method and dof_rule are the labels of the fit it came from.
    """

    units: tuple[str, ...]
    base_unit: int
    mode: str
    index: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    k: float
    pct_change: np.ndarray | None
    variance_method: str
    dof_rule: str


def to_index_series(fit, k: float = 3.0) -> IndexSeries:
    """Index, standard errors and k-sigma bounds of a DeflatorEstimate or DummyFit.

    se is the fit's index_se, so it is NaN off the base where the variance
    is undefined, and so are the bounds.  pct_change is period-over-period in
    time mode (first entry NaN) and None in space mode.  Raises
    ValidationError unless k is finite and positive.
    """
    if not (math.isfinite(k) and k > 0):
        raise ValidationError(f"k must be finite and positive, got {k}")
    index, se = fit.indexes, fit.index_se
    pct = None
    if fit.mode == "time":
        pct = np.full(len(fit.units), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            pct[1:] = 100.0 * (index[1:] / index[:-1] - 1.0)
    return IndexSeries(units=fit.units, base_unit=fit.base_unit, mode=fit.mode,
                       index=index.copy(), se=se, lower=index - k * se,
                       upper=index + k * se, k=float(k), pct_change=pct,
                       variance_method=fit.variance_method, dof_rule=fit.dof_rule)
