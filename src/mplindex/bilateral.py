"""Two-unit index formulas: classical indexes and the two-period closed form.

Every index here is a quadratic-form index (p2' A p1) / (p1' A p1) for a
rank-one nonnegative-definite A: built from quantities for the classical
indexes, and price-weighted for the two-period closed form of the panel
estimator.  Sums are compensated (math.fsum) so item permutations leave
results bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, ValidationError
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


def classical_index(inp: BilateralInput, kind: str) -> float:
    """Laspeyres, Paasche, Marshall-Edgeworth or Walsh index."""
    w = _quantity_weights(inp, kind)
    return math.fsum(inp.p2 * w) / math.fsum(inp.p1 * w)


def mpl_two_period(inp: BilateralInput) -> float:
    """Two-period closed form of the panel deflator estimator.

    The ratio of price aggregates under harmonic quantity weights; it equals
    the mean of the price relatives p2/p1 under convex weights proportional
    to v1 v2 q1 q2 / (q1^2 + q2^2), with v = p q.
    """
    p1, p2, q1, q2 = inp.p1, inp.p2, inp.q1, inp.q2
    d = q1 * q1 + q2 * q2
    # the leading factor 2 cancels in the ratio; kept for fidelity.  The
    # quantity product is grouped so a q1/q2 swap stays bit-neutral.
    pi = 2.0 * p2 * ((q1 * q1) * (q2 * q2)) / d
    num = math.fsum(p2 * pi)
    den = math.fsum(p1 * pi)
    if den <= 0:
        raise DegenerateForm("price aggregate vanishes on the base prices")
    return num / den


def bilateral_from_panel(panel: Panel) -> BilateralInput:
    """Adapt a fully observed two-unit panel; the base unit supplies p1, q1."""
    if panel.n_units != 2:
        raise ValidationError("bilateral adapter needs exactly two units")
    if not panel.present.all():
        raise ValidationError("bilateral formulas need every cell present")
    prices = implied_prices(panel)
    b = panel.base_unit
    o = 1 - b
    return BilateralInput(p1=prices[:, b], p2=prices[:, o],
                          q1=panel.quantities[:, b], q2=panel.quantities[:, o])
