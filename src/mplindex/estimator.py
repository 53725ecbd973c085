"""Closed-form estimation of unit deflators and the price index.

The deflators and reference prices solve the structured normal equations
through algebra.factor_two_way, which absorbs the smaller of the diagonal
price and deflator blocks and factors the Schur complement of the other,
(T-1)- or N-sized, at O(NT min(N, T) + min(N, T)^3).  Every fit runs
on an exact power-of-two scaling (_Scaling): each unit's values and each
item's quantities are brought to a largest entry in [0.5, 1) before the
blocks are formed, so no unit's or item's magnitude under- or overflows
the fit or sways its singularity test, and the scaling is undone in one
step.  The published index is the reciprocal of the deflators, so the base
unit always reads 1.  The residual dof counts the present cells: an absent
cell's residual is zero by construction.  deflator_fitter does the part of
a fit that depends on presence and quantities alone once, so redrawn
values (the replication harness) fit without repeating it.

IndexFit is the one result type that MPL and the dummy baseline share and
that to_index_series, simulate and the CLI read.  An index reaches a report
only through checked_indexes, which refuses one that is not a positive
normal float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .algebra import factor_two_way
from .errors import (
    OVERFLOW_MESSAGE,
    BasketViolation,
    EstimationError,
    ValidationError,
    require_number,
)
from .panel import Panel, require_connected

VARIANCE_METHODS = ("corollary3", "full_partition")


@dataclass(frozen=True, eq=False)
class IndexFit:
    """What every fit publishes: per-unit indexes, their log standard errors
    and the residual figures behind them.

    indexes and se have length T in panel unit order, with the base entry
    pinned to 1 and 0.  se holds the standard errors of log index_t: 0 at
    the base and NaN elsewhere when the fit has no residual dof.  It is
    computed once, under variance_method; no covariance between units is
    kept.  ssr is the fit's sum of squared residuals on its own scale and
    dof its residual degrees of freedom: the present cells less the
    parameters.
    to_index_series, simulate and the CLI read only these fields.
    """

    units: tuple[str, ...]
    items: tuple[str, ...]
    base_unit: int
    mode: str
    indexes: np.ndarray
    se: np.ndarray
    ssr: float
    dof: int
    variance_method: str

    @property
    def sigma2(self) -> float | None:
        """The noise variance ssr / dof, or None without residual dof."""
        return self.ssr / self.dof if self.dof > 0 else None

    @property
    def index_se(self) -> np.ndarray:
        """Delta-method standard errors on the index scale, 0 at the base."""
        return self.indexes * self.se


@dataclass(frozen=True, eq=False)
class DeflatorEstimate(IndexFit):
    """Joint fit of unit deflators and reference prices on one panel.

    deflators have length T with the base entry pinned to 1, and indexes
    are their reciprocals; se, the standard errors of log d_t, are
    those of log index_t and do not depend on any unit's scale.  ref_prices
    has one entry per item.  variance_method is "full_partition" or
    "corollary3"; refit to get the other convention.
    """

    deflators: np.ndarray
    ref_prices: np.ndarray


def _check_basket(panel: Panel):
    short = np.flatnonzero(panel.present.sum(axis=1) < 2)
    if short.size:
        labels = ", ".join(panel.items[i] for i in short[:5])
        raise BasketViolation(
            f"items present in fewer than two units: {labels}; "
            "apply build_reference_basket first"
        )


def _normal(x):
    """Where x is a float at full precision: finite, nonzero and not subnormal."""
    return np.isfinite(x) & (np.abs(x) >= sys.float_info.min)


@dataclass(frozen=True, eq=False)
class _Scaling:
    """The exact power-of-two scaling that every MPL fit runs on.

    Unit t's values are scaled by 2^-units[t], item i's quantities by
    2^-items[i]; base is units at the base unit.  Values enter the model
    only as v_t d_t, so the scaled fit has deflators d_t 2^(units[t] - base),
    prices p_i 2^(items[i] - base) and residuals 2^-base times the input's;
    undo gives the unscaled fit, bit for bit where it neither under- nor
    overflows, as every step of the fit commutes with powers of two.
    """

    units: np.ndarray
    items: np.ndarray
    base: int

    @staticmethod
    def scale(x: np.ndarray, axis: int, n_present: int):
        """x times 2^-k along axis, and k, the exponents of its largest entries.

        Raises EstimationError when that flushes one of x's n_present
        positive cells to zero: a row or column spans the float range.
        """
        k = np.frexp(x.max(axis=axis))[1]
        out = np.ldexp(x, -np.expand_dims(k, axis))
        if np.count_nonzero(out) < n_present:
            raise EstimationError(OVERFLOW_MESSAGE)
        return out, k

    def deflators(self, deflators: np.ndarray) -> np.ndarray:
        """The first units' deflators as the scaled fit has them."""
        return np.ldexp(deflators, self.units[:len(deflators)] - self.base)

    def undo(self, deflators, prices, ssr):
        """The deflators, the prices and the SSR, unscaled.

        Raises EstimationError when a nonzero deflator leaves the normal
        float range; a price or the SSR reads inf or 0 there.
        """
        with np.errstate(over="ignore"):
            unscaled = np.ldexp(deflators, self.base - self.units)
            prices = np.ldexp(prices, self.base - self.items)
            ssr = float(np.ldexp(ssr, 2 * self.base))
        if not (_normal(unscaled) | np.equal(deflators, 0)).all():
            raise EstimationError(OVERFLOW_MESSAGE)
        return unscaled, prices, ssr


def _stacked_ssr(quantities: np.ndarray, values: np.ndarray, delta: np.ndarray,
                 prices: np.ndarray) -> float:
    """Sum of squared residuals of the stacked system, absent cells excluded.

    Absent cells have exact zero value and quantity, so their residuals
    vanish identically and summing over the full grid is equivalent.  The
    residuals are formed in values, which the caller gives up.
    """
    resid = np.multiply(values, delta, out=values)
    resid -= quantities * prices[:, None]
    return float(np.square(resid, out=resid).sum())


def deflator_fitter(panel: Panel, variance_method: str = "full_partition"):
    """Prepare the deflator fit of the panel's presence and quantities.

    Returns fit(values) -> DeflatorEstimate for an N x T C-ordered value
    matrix that is positive exactly where the panel is present, with the
    base unit's column left as it is; estimate_deflators is
    fit(panel.values).  The checks and everything that depends on presence
    and quantities alone are done here once: the argument, basket and
    connectivity checks, the dof, the labels, the item scaling and the
    item block C = diag(sum_t q^2) of algebra.factor_two_way's layout
    [[C, B], [B', A]].  The cross block B, the unit block A and so S depend
    on the values, so each fit scales them unit by unit, factors S and
    undoes the scaling (_Scaling).  Scaled, the blocks neither under- nor
    overflow: what magnitude alone still refuses, with EstimationError, is
    a deflator that leaves the normal float range once unscaled, or a unit
    or item whose entries span more than that range.
    """
    if variance_method not in VARIANCE_METHODS:
        raise ValidationError(f"variance_method must be one of {VARIANCE_METHODS}")
    n, t = panel.n_items, panel.n_units
    require_connected(panel)
    _check_basket(panel)

    base, nonbase = panel.base_unit, np.array(panel.nonbase_units, dtype=np.intp)
    labels = ([f"ref_price[{item}]" for item in panel.items],
              [f"deflator[{panel.units[u]}]" for u in nonbase])
    n_present = int(panel.present.sum())
    dof = n_present - (n + t - 1)
    q, k_items = _Scaling.scale(panel.quantities, 1, n_present)
    unit_rhs = np.zeros(t - 1)
    price_gram = (q * q).sum(axis=1)

    def fit(values: np.ndarray) -> DeflatorEstimate:
        v, k_units = _Scaling.scale(values, 0, n_present)
        v_nb = v[:, nonbase]
        deflator_gram = (v_nb * v_nb).sum(axis=0)
        rhs = q[:, base] * v[:, base]
        # X'X holds the negative of the cross block q * v; formed in place,
        # so no second N x (T-1) array is live in the solve
        neg_cross = np.negative(np.multiply(v_nb, q[:, nonbase], out=v_nb), out=v_nb)
        factor = factor_two_way(price_gram, neg_cross, deflator_gram, *labels)
        delta_nb, prices = factor.solve(rhs, unit_rhs)

        deflators = np.ones(t)
        deflators[nonbase] = delta_nb
        ssr = _stacked_ssr(q, v, deflators, prices)
        # sd(d_t) and d_t carry the same scale, so the scaled ratio is final
        se = np.zeros(t)
        if dof <= 0:
            se[nonbase] = np.nan
        elif variance_method == "corollary3":
            se[nonbase] = np.sqrt(ssr / dof / deflator_gram) / delta_nb
        else:
            se[nonbase] = np.sqrt(ssr / dof * factor.unit_variances) / delta_nb
        deflators, prices, ssr = _Scaling(
            k_units, k_items, int(k_units[base])).undo(deflators, prices, ssr)
        # undo lets an exact-zero deflator through; its inf index is
        # refused by checked_indexes
        with np.errstate(divide="ignore"):
            indexes = 1.0 / deflators
        return DeflatorEstimate(
            units=panel.units, items=panel.items, base_unit=base,
            mode=panel.mode, deflators=deflators, indexes=indexes,
            ref_prices=prices, ssr=ssr, dof=dof,
            variance_method=variance_method, se=se,
        )

    return fit


def estimate_deflators(panel: Panel,
                       variance_method: str = "full_partition") -> DeflatorEstimate:
    """Estimate all unit deflators and reference prices in closed form.

    variance_method picks the deflator variances behind se: "corollary3"
    uses the approximation sigma2 / (v_t'v_t), "full_partition" uses sigma2
    times the diagonal of the exact Schur-complement inverse.  sigma2
    divides the SSR by the present cells less the N+T-1 parameters.
    Raises UnidentifiedModel when the presence graph is disconnected.
    """
    return deflator_fitter(panel, variance_method)(panel.values)


@dataclass(frozen=True, eq=False)
class IndexSeries:
    """Publishable index table: one row per unit, symmetric k-sigma bounds.

    variance_method is the label of the fit it came from.
    """

    units: tuple[str, ...]
    base_unit: int
    mode: str
    index: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    pct_change: np.ndarray
    variance_method: str


def checked_indexes(fit: IndexFit) -> np.ndarray:
    """The fit's indexes, once each is a positive normal float.

    Raises EstimationError naming the first unit whose index is not: a log
    effect or a deflator past the float range gives an index of inf, 0 or a
    subnormal, which no band or ratio survives.
    """
    index = fit.indexes
    bad = ~(_normal(index) & (index > 0))
    if bad.any():
        t = int(np.argmax(bad))
        raise EstimationError(f"index of unit {fit.units[t]} is not a positive normal "
                              f"float: {index[t]:.17g}")
    return index


def to_index_series(fit: IndexFit, k: float = 3.0) -> IndexSeries:
    """Index, standard errors and k-sigma bounds of a fit.

    se is the fit's index_se, so it is NaN off the base where the variance
    is undefined, and so are the bounds.  pct_change is period-over-period in
    time mode (first entry NaN, inf past the float range) and NaN throughout
    in space mode.  Raises ValidationError unless k is a finite, positive real
    number, and EstimationError when an index is not a positive normal
    float (checked_indexes).
    """
    require_number("k", k)
    if not (math.isfinite(k) and k > 0):
        raise ValidationError(f"k must be finite and positive, got {k}")
    index, se = checked_indexes(fit), fit.index_se
    pct = np.full(len(fit.units), np.nan)
    if fit.mode == "time":
        with np.errstate(over="ignore"):
            pct[1:] = 100.0 * (index[1:] / index[:-1] - 1.0)
    return IndexSeries(units=fit.units, base_unit=fit.base_unit, mode=fit.mode,
                       index=index.copy(), se=se, lower=index - k * se,
                       upper=index + k * se, pct_change=pct,
                       variance_method=fit.variance_method)
