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

The (T-1)-sized Schur complement left after absorbing the items is the only
matrix that is factored.  The kit for it runs on numpy alone:
np.linalg.cholesky for the factor, and two recursive blocked routines on
BLAS-3 products, _tri_solve for triangular solves and _tri_inv for the
triangular inverse.
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


def _schur_factor(item_diag, cross, unit_diag, item_labels, unit_labels):
    """Lower Cholesky factor L of a two-way Schur complement S = A - B'C^{-1}B.

    The Gram matrix of a two-way model has a diagonal item block
    C = diag(item_diag), an N x K cross block B = cross and a diagonal
    unit block A = diag(unit_diag).  Eliminating the N item columns leaves
    the K-sized S, so the full (N+K)-sized matrix is never formed.  The sign
    of B does not enter S.  Returns L (from np.linalg.cholesky, so S = LL')
    and C^{-1}B.  Raises SingularSystem naming the item or unit column when
    a pivot of C is not positive, S has a leading minor that is not
    positive definite (the first one is named) or the pivot ratio of S
    falls below PIVOT_RTOL, and EstimationError when C, its inverse or S is
    not finite.
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
    return chol, bc
