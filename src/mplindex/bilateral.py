"""Two-unit index formulas: classical indexes and the two-period closed form.

Every index here is a quadratic-form index (p2' A p1) / (p1' A p1) for a
rank-one nonnegative-definite A: built from quantities for the classical
indexes, and price-weighted for the two-period closed form of the panel
estimator.  Each index is computed on the prices times one power of two
and the quantities times another, which bring the largest of each just
below 1, so no weight or sum overflows and an index keeps its bits.  Sums
are compensated (math.fsum) so item permutations leave results
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OVERFLOW_MESSAGE, EstimationError, ValidationError
from .estimator import _normal, _Scaling
from .panel import Panel, implied_prices

CLASSICAL_KINDS = ("laspeyres", "paasche", "marshall_edgeworth", "walsh")


@dataclass(frozen=True, eq=False)
class BilateralInput:
    """Strictly positive price and quantity vectors for two units."""

    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        for name in ("p1", "p2", "q1", "q2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            object.__setattr__(self, name, arr)
        n = self.p1.size
        if n < 1:
            raise ValidationError("bilateral input needs at least one item")
        for name in ("p2", "q1", "q2"):
            if getattr(self, name).size != n:
                raise ValidationError("bilateral vectors must share one length")
        for name in ("p1", "p2", "q1", "q2"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all() or (arr <= 0).any():
                raise ValidationError(f"{name} must be strictly positive and finite")


def _quantity_weights(inp: BilateralInput, kind: str) -> np.ndarray:
    """Quantity vector w whose price aggregate p'w defines the classic kind."""
    if kind == "laspeyres":
        return inp.q1
    if kind == "paasche":
        return inp.q2
    if kind == "marshall_edgeworth":
        return inp.q1 + inp.q2
    if kind == "walsh":
        # geometric mean of the two quantity vectors, both sides of the ratio
        return np.sqrt(inp.q1 * inp.q2)
    raise ValidationError(f"kind must be one of {CLASSICAL_KINDS}, got {kind!r}")


def _scaled(inp: BilateralInput) -> BilateralInput:
    """inp with p1, p2 times one power of two and q1, q2 times another.

    Each power brings the largest entry into [0.5, 1), as an MPL fit's
    scaling does (estimator._Scaling); an index, a ratio of price
    aggregates, does not see it.  Raises EstimationError when an entry
    flushes to zero: the prices or the quantities span the float range.
    """
    n = inp.p1.size
    p, _ = _Scaling.scale(np.concatenate([inp.p1, inp.p2]), 0, 2 * n)
    q, _ = _Scaling.scale(np.concatenate([inp.q1, inp.q2]), 0, 2 * n)
    return BilateralInput(p1=p[:n], p2=p[n:], q1=q[:n], q2=q[n:])


def _price_ratio(inp: BilateralInput, w: np.ndarray) -> float:
    """p2'w / p1'w, refused with EstimationError unless the two aggregates
    and their ratio are positive normal floats."""
    num, den = math.fsum(inp.p2 * w), math.fsum(inp.p1 * w)
    ratio = num / den if den else math.inf
    if not _normal(np.array([num, den, ratio])).all():
        raise EstimationError(OVERFLOW_MESSAGE)
    return ratio


def classical_index(inp: BilateralInput, kind: str) -> float:
    """Laspeyres, Paasche, Marshall-Edgeworth or Walsh index."""
    inp = _scaled(inp)
    return _price_ratio(inp, _quantity_weights(inp, kind))


def mpl_two_period(inp: BilateralInput) -> float:
    """Two-period closed form of the panel deflator estimator.

    The ratio of price aggregates under harmonic quantity weights; it equals
    the mean of the price relatives p2/p1 under convex weights proportional
    to v1 v2 q1 q2 / (q1^2 + q2^2), with v = p q.
    """
    inp = _scaled(inp)
    p2, q1, q2 = inp.p2, inp.q1, inp.q2
    # an item whose d underflows to zero weighs 0 / 0, which the ratio refuses
    with np.errstate(invalid="ignore"):
        d = q1 * q1 + q2 * q2
        # the leading factor 2 cancels in the ratio; kept for fidelity.  The
        # quantity product is grouped so a q1/q2 swap stays bit-neutral.
        pi = 2.0 * p2 * ((q1 * q1) * (q2 * q2)) / d
    return _price_ratio(inp, pi)


def bilateral_from_panel(panel: Panel) -> BilateralInput:
    """Adapt a fully observed two-unit panel; the base unit supplies p1, q1.

    Raises EstimationError when an implied price v/q is not a positive
    normal float.
    """
    if panel.n_units != 2:
        raise ValidationError("bilateral adapter needs exactly two units")
    if not panel.present.all():
        raise ValidationError("bilateral formulas need every cell present")
    prices = implied_prices(panel)
    if not _normal(prices).all():
        raise EstimationError(OVERFLOW_MESSAGE)
    b = panel.base_unit
    o = 1 - b
    return BilateralInput(p1=prices[:, b], p2=prices[:, o],
                          q1=panel.quantities[:, b], q2=panel.quantities[:, o])
