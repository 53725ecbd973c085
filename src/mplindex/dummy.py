"""Log-price dummy regressions: the standard time/country-product baseline.

Fits ln p_it = a_t + b_i + u on present cells with the base unit's effect
pinned to zero.  The optional weighting uses within-unit expenditure shares.
Identification needs the bipartite item/unit presence graph connected;
otherwise relative levels across components are arbitrary.

The normal equations have the same two-way shape as the deflator system:
a diagonal item block (per-item weight sums), the N x (T-1) weight matrix
as the cross block and a diagonal unit block (per-unit weight sums).  The
item effects are absorbed by the shared two-way solve (algebra.solve_two_way),
so a fit costs O(NT^2 + T^3) time and O(NT) memory and never forms the
dummy design.  The standard errors of the unit effects come from the
triangular inverse of its Schur factor (algebra._tri_inv); connectivity is
checked with boolean frontier sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _tri_inv, solve_two_way
from .errors import InvalidPrice, UnidentifiedModel
from .panel import Panel, implied_prices


@dataclass(frozen=True)
class DummyFit:
    """Two-way dummy regression result on the log-price scale.

    log_unit_effects and se have length T with zeros at the base unit;
    indexes = exp(log_unit_effects).  item_effects are the N item dummies.
    """

    units: tuple[str, ...]
    items: tuple[str, ...]
    base_unit: int
    log_unit_effects: np.ndarray
    indexes: np.ndarray
    item_effects: np.ndarray
    se: np.ndarray
    weighted: bool
    sigma2: float | None
    dof: int

    @property
    def index_se(self) -> np.ndarray:
        """Delta-method standard errors on the index scale."""
        return self.indexes * self.se


def _reach(present, items, units):
    """Grow item and unit masks, in place, to their part of the presence graph.

    A boolean frontier sweep from the units: each step reaches the items
    present in the units reached last, then the units holding those items.
    Every unit of an item already in items must be in units.  No edge list
    is built.
    """
    frontier = units.copy()
    while frontier.any():
        new_items = present[:, frontier].any(axis=1) & ~items
        items |= new_items
        frontier = present[new_items].any(axis=0) & ~units
        units |= frontier


def presence_components(panel: Panel) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Connected components of the bipartite presence graph.

    Nodes are the N items followed by the T units; each present cell is an
    edge.  Returns (unit labels, item labels) per component, components in
    order of their first item and members in panel order (every unit holds
    an item, so each component is reached from its first item).
    """
    n, t = panel.n_items, panel.n_units
    seen = np.zeros(n, dtype=bool)
    out = []
    while not seen.all():
        first = np.argmin(seen)
        items = np.zeros(n, dtype=bool)
        items[first] = True
        units = panel.present[first].copy()
        _reach(panel.present, items, units)
        seen |= items
        out.append((tuple(panel.units[u] for u in np.flatnonzero(units)),
                    tuple(panel.items[i] for i in np.flatnonzero(items))))
    return out


def require_connected(panel: Panel) -> None:
    """Raise UnidentifiedModel unless the presence graph is connected.

    One sweep from the base unit; presence_components runs only to describe
    a failure.
    """
    items = np.zeros(panel.n_items, dtype=bool)
    units = np.zeros(panel.n_units, dtype=bool)
    units[panel.base_unit] = True
    _reach(panel.present, items, units)
    if units.all() and items.all():
        return
    comps = presence_components(panel)
    desc = "; ".join(
        f"units {{{', '.join(u)}}} with items {{{', '.join(i)}}}"
        for u, i in comps
    )
    raise UnidentifiedModel(
        f"presence graph splits into {len(comps)} components: {desc}",
        components=tuple(comps),
    )


def fit_dummy_index(panel: Panel, weighted: bool = False) -> DummyFit:
    """Fit the two-way log-price dummy model and return per-unit indexes.

    With weighted=True each present cell is weighted by its within-unit
    expenditure share v_it / sum_i v_it.  Standard errors come from the
    weighted-least-squares covariance with the noise scale estimated on
    (number of present cells) - (N + T - 1) degrees of freedom.
    """
    n, t = panel.n_items, panel.n_units
    require_connected(panel)

    present = panel.present
    prices = implied_prices(panel).prices
    p_obs = prices[present]
    if (p_obs <= 0).any() or not np.isfinite(p_obs).all():
        ii, tt = np.nonzero(present)
        k = int(np.flatnonzero((p_obs <= 0) | ~np.isfinite(p_obs))[0])
        raise InvalidPrice(
            f"nonpositive or non-finite price for item {panel.items[ii[k]]!r} "
            f"in unit {panel.units[tt[k]]!r}"
        )
    logp = np.zeros((n, t))
    logp[present] = np.log(p_obs)

    # W holds the cell weights, exact zeros on absent cells
    if weighted:
        w = panel.values / panel.values.sum(axis=0)
    else:
        w = present.astype(np.float64)
    wy = w * logp

    nonbase = panel.nonbase_units
    unit_effects, item_effects, chol = solve_two_way(
        w.sum(axis=1), w[:, nonbase], w.sum(axis=0)[nonbase],
        wy.sum(axis=1), wy.sum(axis=0)[nonbase],
        [f"item[{item}]" for item in panel.items],
        [f"unit[{panel.units[u]}]" for u in nonbase],
    )
    log_effects = np.zeros(t)
    log_effects[nonbase] = unit_effects

    resid = logp - item_effects[:, None] - log_effects[None, :]
    ssr = float((w * resid * resid).sum())
    dof = int(present.sum()) - (n + t - 1)
    sigma2 = ssr / dof if dof > 0 else None

    # S^{-1} is exactly the unit block of the full inverse Gram matrix, and
    # its diagonal is the column sums of squares of L^{-1}
    se = np.zeros(t)
    if sigma2 is None:
        se[nonbase] = np.nan
    else:
        chol_inv = _tri_inv(chol)
        se[nonbase] = np.sqrt(sigma2 * (chol_inv * chol_inv).sum(axis=0))
    return DummyFit(
        units=panel.units, items=panel.items, base_unit=panel.base_unit,
        log_unit_effects=log_effects, indexes=np.exp(log_effects),
        item_effects=item_effects, se=se, weighted=weighted,
        sigma2=sigma2, dof=dof,
    )
