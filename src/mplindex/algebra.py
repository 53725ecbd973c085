"""Structured least-squares algebra for the deflator system.

The stacked regression treats the base-unit values as the response for the
reference prices and every other unit's rows as homogeneous equations that
tie that unit's deflator to the same reference prices:

    base rows:      v_base = diag(q_base) ptilde + err
    unit t rows:    0      = -v_t d_t + diag(q_t) ptilde + err

Unknowns are the T-1 non-base deflators followed by the N reference prices.
The Gram matrix of this design has a closed block form (diagonal, Hadamard
cross products, diagonal), which everything downstream exploits; the dense
design matrix is never assembled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import EstimationError, SingularSystem
from .panel import Panel

# a system is declared singular when its smallest pivot falls below
# this fraction of the largest one
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class GramBlocks:
    """Closed-form blocks of X'X and X'y for the deflator design.

    deflator_gram: length T-1, squared norms v_t'v_t of non-base value columns
    cross: N x (T-1) Hadamard product of non-base quantity and value columns
    price_gram: length N, per-item sum of squared quantities over all units
    rhs: length N, q_base * v_base (the only nonzero part of X'y)
    """

    deflator_gram: np.ndarray
    cross: np.ndarray
    price_gram: np.ndarray
    rhs: np.ndarray


def _base_first(panel: Panel) -> tuple[int, ...]:
    base = panel.base_unit
    return (base,) + tuple(t for t in range(panel.n_units) if t != base)


def gram_blocks(panel: Panel) -> GramBlocks:
    """Assemble the structured normal-equation blocks without forming X."""
    order = _base_first(panel)
    v = panel.values[:, order]
    q = panel.quantities[:, order]
    v_nb = v[:, 1:]
    q_nb = q[:, 1:]
    # overflow to inf is reported as EstimationError by _schur_factor
    with np.errstate(over="ignore", invalid="ignore"):
        return GramBlocks(
            deflator_gram=(v_nb * v_nb).sum(axis=0),
            cross=q_nb * v_nb,
            price_gram=(q * q).sum(axis=1),
            rhs=q[:, 0] * v[:, 0],
        )


def _schur_factor(item_diag, cross, unit_diag, item_labels, unit_labels):
    """Cholesky factor of a two-way Schur complement S = A - B'C^{-1}B.

    The Gram matrix of a two-way model has a diagonal item block
    C = diag(item_diag), an N x K cross block B = cross and a diagonal
    unit block A = diag(unit_diag).  Eliminating the N item columns leaves
    the K-sized S, so the full (N+K)-sized matrix is never formed.  The sign
    of B does not enter S.  Returns the factor and C^{-1}B.  Raises
    SingularSystem naming the item or unit column when a pivot of C is not
    positive or the pivot ratio of S falls below PIVOT_RTOL, and
    EstimationError when C, its inverse or S is not finite.
    """
    if (item_diag <= 0).any():
        i = int(np.argmin(item_diag))
        raise SingularSystem("an item has zero weight in every unit",
                             column=item_labels[i])
    # a subnormal pivot overflows its reciprocal, an infinite one turns
    # inf * 0 into NaN; both are reported below
    with np.errstate(over="ignore", invalid="ignore"):
        c_inv = 1.0 / item_diag
        bc = cross * c_inv[:, None]
        schur = np.diag(unit_diag) - cross.T @ bc
    # an infinite item pivot would silently zero its column of C^{-1}B
    if not (np.isfinite(schur).all() and np.isfinite(item_diag).all()
            and np.isfinite(c_inv).all()):
        raise EstimationError("Gram blocks overflow: values or quantities "
                              "are too large or too small in magnitude")
    # potrf directly rather than cho_factor, so a failed minor can be named
    potrf, = get_lapack_funcs(("potrf",), (schur,))
    chol, info = potrf(schur, lower=True, clean=False)
    if info > 0:
        raise SingularSystem("Schur complement is not positive definite",
                             column=unit_labels[info - 1])
    pivots = np.diag(chol) ** 2
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        j = int(np.argmin(pivots))
        raise SingularSystem("Schur complement is numerically singular",
                             column=unit_labels[j])
    return (chol, True), bc
