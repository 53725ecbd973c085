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

solve_two_way solves every system of this two-way shape, the deflator
system and the TPD/CPD dummy regression alike.  The Schur complement left
after absorbing the items is the only matrix it factors.  The kit for it
runs on numpy alone: np.linalg.cholesky for the factor, and two recursive
blocked routines on BLAS-3 products, _tri_solve for triangular solves and
_tri_inv for the triangular inverse, which callers use for covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, SingularSystem
from .panel import Panel

# a system is declared singular when its smallest pivot falls below
# this fraction of the largest one
PIVOT_RTOL = 1e-12
# triangular blocks of at most this order are inverted by LAPACK in one call
_BLOCK = 64


@dataclass(frozen=True)
class GramBlocks:
    """Closed-form blocks of X'X and X'y for the deflator design.

    deflator_gram: length T-1, squared norms v_t'v_t of non-base value columns
    cross: N x (T-1) Hadamard product of non-base quantity and value columns
        (X'X holds its negative)
    price_gram: length N, per-item sum of squared quantities over all units
    rhs: length N, q_base * v_base (the only nonzero part of X'y)
    """

    deflator_gram: np.ndarray
    cross: np.ndarray
    price_gram: np.ndarray
    rhs: np.ndarray


def gram_blocks(panel: Panel) -> GramBlocks:
    """Assemble the structured normal-equation blocks without forming X."""
    v, q, base = panel.values, panel.quantities, panel.base_unit
    nonbase = panel.nonbase_units
    v_nb = v[:, nonbase]
    # overflow to inf is reported as EstimationError by solve_two_way
    with np.errstate(over="ignore", invalid="ignore"):
        return GramBlocks(
            deflator_gram=(v_nb * v_nb).sum(axis=0),
            cross=q[:, nonbase] * v_nb,
            price_gram=(q * q).sum(axis=1),
            rhs=q[:, base] * v[:, base],
        )


def _tri_solve(chol, rhs, trans=False):
    """Solve L x = rhs, or L' x = rhs with trans, for lower-triangular L.

    rhs is a vector or a matrix of columns.  The order is halved until
    blocks reach _BLOCK, so all but O(T * _BLOCK) of the work is in matrix
    products; a block multiplies by its inverse from _tri_inv.
    """
    n = chol.shape[0]
    if n <= _BLOCK:
        inv = _tri_inv(chol)
        return (inv.T if trans else inv) @ rhs
    h = n // 2
    l11, l21, l22 = chol[:h, :h], chol[h:, :h], chol[h:, h:]
    if trans:
        x2 = _tri_solve(l22, rhs[h:], True)
        x1 = _tri_solve(l11, rhs[:h] - l21.T @ x2, True)
    else:
        x1 = _tri_solve(l11, rhs[:h])
        x2 = _tri_solve(l22, rhs[h:] - l21 @ x1)
    return np.concatenate([x1, x2])


def _tri_inv(chol):
    """Inverse X of a lower-triangular L with positive diagonal.

    Blocks above _BLOCK are split as
    [[L11, 0], [L21, L22]]^{-1} = [[X11, 0], [-X22 L21 X11, X22]].
    A smaller block is reversed in both axes, which makes it upper
    triangular: LU with partial pivoting then has nothing to pivot and
    zero multipliers, so it returns the block itself exactly, and
    np.linalg.inv reduces to LAPACK's triangular back substitution, which
    multiplies by reciprocal pivots as BLAS trsm does (a 1x1 block gives
    exactly 1/l).  For the Cholesky factor of S, S^{-1} = X'X and
    diag(S^{-1}) is the column sums of squares of X.
    """
    n = chol.shape[0]
    if n <= _BLOCK:
        return np.linalg.inv(chol[::-1, ::-1])[::-1, ::-1]
    h = n // 2
    out = np.zeros((n, n))
    x11 = out[:h, :h] = _tri_inv(chol[:h, :h])
    x22 = out[h:, h:] = _tri_inv(chol[h:, h:])
    out[h:, :h] = -(x22 @ (chol[h:, :h] @ x11))
    return out


def _first_failed_minor(a):
    """Index of the first column whose leading minor of a is not positive definite.

    Runs only after np.linalg.cholesky has failed on a, to name the column
    LAPACK potrf reports in its info (info - 1 here).  Blocks of _BLOCK
    columns are factored left to right; the first block whose Schur
    complement fails is searched one leading minor at a time.  When rounding
    lets every block through, the column with the smallest pivot is named.
    """
    n = a.shape[0]
    chol = np.zeros_like(a)
    for p in range(0, n, _BLOCK):
        q = min(p + _BLOCK, n)
        l21 = _tri_solve(chol[:p, :p], a[p:q, :p].T).T
        s = a[p:q, p:q] - l21 @ l21.T
        try:
            chol[p:q, p:q] = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            for j in range(q - p):
                try:
                    np.linalg.cholesky(s[:j + 1, :j + 1])
                except np.linalg.LinAlgError:
                    return p + j
        chol[p:q, :p] = l21
    return int(np.argmin(np.diagonal(chol)))


def solve_two_way(item_diag, cross, unit_diag, item_rhs, unit_rhs,
                  item_labels, unit_labels):
    """Solve two-way normal equations [[C, B], [B', A]] [b; a] = [r; s].

    C = diag(item_diag) is the N-sized item block, B = cross the N x K cross
    block and A = diag(unit_diag) the K-sized unit block; r = item_rhs and
    s = unit_rhs.  Eliminating the items leaves the Schur complement
    S = A - B'C^{-1}B, so the (N+K)-sized matrix is never formed:
    S a = s - B'C^{-1}r, then b = C^{-1}(r - B a).  Returns the unit effects
    a, the item effects b and the lower Cholesky factor L of S (S = LL').
    Raises SingularSystem naming the item or unit column when a pivot of C
    is not positive, S has a leading minor that is not positive definite
    (the first one is named) or the pivot ratio of S falls below
    PIVOT_RTOL, and EstimationError when C, its inverse or S is not finite.
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
    try:
        chol = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        j = _first_failed_minor(schur)
        raise SingularSystem("Schur complement is not positive definite",
                             column=unit_labels[j]) from None
    pivots = np.diagonal(chol) ** 2
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        j = int(np.argmin(pivots))
        raise SingularSystem("Schur complement is numerically singular",
                             column=unit_labels[j])
    units = _tri_solve(chol, _tri_solve(chol, unit_rhs - bc.T @ item_rhs),
                       trans=True)
    items = (item_rhs - cross @ units) / item_diag
    return units, items, chol
