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

factor_two_way factors every system of this two-way shape, the deflator
system and the TPD/CPD dummy regression alike.  It eliminates the smaller
side and factors the Schur complement left on the other: the (T-1)-sized
S of the units when there are at least as many items, else the N-sized K
of the items.  That is the only matrix it factors, at a cost of
O(NT min(N, T) + min(N, T)^3), and a factor solves any number of
right-hand sides, so a fit that only changes them (an unweighted TPD fit
of redrawn values) factors once.  The kit for it runs on numpy alone:
np.linalg.cholesky for the factor L and a recursive blocked _tri_inv on
BLAS-3 products for L^{-1}, which is all a factor keeps; every solve
multiplies by it.  Callers need only the solve and the variances of the
unit effects, diag(S^{-1}), which the factor holds; L never leaves this
module.  With diag(A) and diag(S) they give the one forward-error bound,
_error_bound, that decides a refusal on either side.  Callers hand the
factor scaled, bounded blocks, so it checks no magnitude, and each of its
refusals is a SingularSystem naming a column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem
from .panel import Panel

# a factored system is refused when its forward-error bound exceeds this
BETA_TOL = 1e-6
# triangular blocks of at most this order are inverted by LAPACK in one call
_BLOCK = 64


@dataclass(frozen=True, eq=False)
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
    # no fit reads these unscaled blocks, so an extreme panel's products
    # are left to overflow to inf quietly
    with np.errstate(over="ignore", invalid="ignore"):
        return GramBlocks(
            deflator_gram=(v_nb * v_nb).sum(axis=0),
            cross=q[:, nonbase] * v_nb,
            price_gram=(q * q).sum(axis=1),
            rhs=q[:, base] * v[:, base],
        )


def _tri_inv(chol):
    """Inverse X of a lower-triangular L with positive diagonal.

    Blocks above _BLOCK are split as
    [[L11, 0], [L21, L22]]^{-1} = [[X11, 0], [-X22 L21 X11, X22]].
    A smaller block is reversed in both axes, which makes it upper
    triangular: LU with partial pivoting then has nothing to pivot and
    zero multipliers, so it returns the block itself exactly, and
    np.linalg.inv reduces to LAPACK's triangular back substitution, which
    multiplies by reciprocal pivots as BLAS trsm does (a 1x1 block gives
    exactly 1/l).
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
    LAPACK potrf reports in its info (info - 1 here).  Once a leading minor
    is not positive definite, no larger one is, so the orders are bisected
    with one np.linalg.cholesky per step.  The result j is always a
    boundary: the minor of order j factors and that of order j + 1 does not.
    """
    lo, hi = 0, a.shape[0]  # the minor of order lo factors, that of order hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.linalg.cholesky(a[:mid, :mid])
        except np.linalg.LinAlgError:
            hi = mid
        else:
            lo = mid
    return lo


class _Factor:
    """L^{-1} for the Cholesky factor L of the Schur complement left on one side."""

    def __init__(self, chol):
        self._inv = _tri_inv(chol)

    def _chol_solve(self, rhs):
        """x with LL' x = rhs."""
        return self._inv.T @ (self._inv @ rhs)


class _UnitSide(_Factor):
    """The items eliminated: S = A - B'C^{-1}B = LL'.

    solve gives S a = s - B'C^{-1}r, then b = C^{-1}(r - B a).
    unit_variances is diag(S^{-1}), the column sums of squares of L^{-1}.
    """

    def __init__(self, chol, item_diag, cross, bc):
        super().__init__(chol)
        self._item_diag, self._cross, self._bc = item_diag, cross, bc
        self.unit_variances = (self._inv * self._inv).sum(axis=0)

    def solve(self, item_rhs, unit_rhs):
        """The unit effects a and the item effects b for r = item_rhs, s = unit_rhs."""
        units = self._chol_solve(unit_rhs - self._bc.T @ item_rhs)
        return units, (item_rhs - self._cross @ units) / self._item_diag


class _ItemSide(_Factor):
    """The units eliminated: K = C - BA^{-1}B' = LL'.

    solve gives K b = r - BA^{-1}s, then a = A^{-1}(s - B'b), and refines
    that once on the residual of the whole system taken in np.longdouble:
    the plain solve is a few times less accurate than the unit side's, and
    the step brings it to the exact solution of the given blocks (where
    long double is wider than float64; elsewhere it is an ordinary
    refinement step).  unit_variances is diag(S^{-1}), by the Woodbury
    identity S^{-1} = A^{-1} + A^{-1}B'K^{-1}BA^{-1}: diag(A^{-1}) plus the
    column sums of squares of L^{-1}BA^{-1}.
    """

    def __init__(self, chol, item_diag, cross, unit_diag, a_inv, ba):
        super().__init__(chol)
        self._item_diag, self._cross, self._unit_diag, self._ba = item_diag, cross, unit_diag, ba
        w = self._inv @ ba
        self.unit_variances = a_inv + (w * w).sum(axis=0)

    def _plain_solve(self, r, s):
        b = self._chol_solve(r - self._ba @ s)
        return b, (s - self._cross.T @ b) / self._unit_diag

    def solve(self, item_rhs, unit_rhs):
        """The unit effects a and the item effects b for r = item_rhs, s = unit_rhs."""
        items, units = self._plain_solve(item_rhs, unit_rhs)
        b, a, x = (arr.astype(np.longdouble) for arr in (items, units, self._cross))
        d_items, d_units = self._plain_solve(
            (item_rhs - self._item_diag * b - np.einsum("ij,j->i", x, a)).astype(float),
            (unit_rhs - np.einsum("i,ij->j", b, x) - self._unit_diag * a).astype(float))
        return units + d_units, items + d_items


def _error_bound(unit_diag, schur_diag, unit_variances):
    """beta = 10 eps (sum_t A_t / S_tt) (sum_t S_tt (S^{-1})_tt), or inf.

    The first sum measures the cancellation in forming S = A - B'C^{-1}B,
    the second is trace(S_e^{-1}) >= ||S_e^{-1}||_2 for S_e, S scaled to
    unit diagonal; the 10 covers right-hand sides from rounded data (TPD).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        beta = (10.0 * np.finfo(np.float64).eps * (unit_diag / schur_diag).sum()
                * (schur_diag * unit_variances).sum())
    return float(beta) if np.isfinite(beta) and (schur_diag > 0).all() else np.inf


def factor_two_way(item_diag, cross, unit_diag, item_labels, unit_labels):
    """Factor two-way normal equations [[C, B], [B', A]] for any right-hand side.

    C = diag(item_diag) is the N-sized item block, B = cross the N x K cross
    block and A = diag(unit_diag) the K-sized unit block.  The (N+K)-sized
    matrix is never formed: the smaller side is eliminated and the other
    side's Schur complement factored, at O(NK min(N, K) + min(N, K)^3).
    With N >= K the items go, leaving S = A - B'C^{-1}B (_eliminate_items);
    with N < K the units go, leaving the N-sized K = C - BA^{-1}B'
    (_eliminate_units).

    Callers pass bounded blocks.  An MPL fit scales each unit's values and
    each item's quantities to a largest entry in [0.5, 1), so A and C are
    at least 1/4 and |B| at most 1; a TPD fit's weights lie in [0, 1] and
    each unit's sum to its count or to 1, so A is at least 1, |B| at most 1
    and each C_i at least every entry of its row of B.  C^{-1}B, S and K
    then cannot overflow, and the factor checks no magnitude beyond C's
    pivots.  The factor's solve(r, s) returns the unit effects a and the item
    effects b of [[C, B], [B', A]] [b; a] = [r; s], and its unit_variances
    is diag(S^{-1}), the unit block of the inverse matrix's diagonal.
    Every refusal is decided here, and each is a SingularSystem: it names
    the first item column whose pivot of C has no finite positive
    reciprocal (a zero weight, or one too small to invert), and the unit
    column when S has a leading minor that is not positive definite (the
    first one) or _error_bound exceeds BETA_TOL (the largest
    A_t (S^{-1})_tt); the item side leaves every system it finds over that
    bound to the unit side.
    """
    with np.errstate(divide="ignore", over="ignore"):
        c_inv = 1.0 / item_diag
    bad = ~(np.isfinite(c_inv) & (c_inv > 0))
    if bad.any():
        raise SingularSystem("an item's total weight is zero or too small to invert",
                             column=item_labels[int(np.argmax(bad))])
    args = (item_diag, cross, unit_diag, c_inv)
    if item_diag.size < unit_diag.size:
        factor = _eliminate_units(*args)
        if factor is not None:
            return factor
    return _eliminate_items(*args, unit_labels=unit_labels)


def _eliminate_items(item_diag, cross, unit_diag, c_inv, unit_labels):
    """The unit-side factor, deciding every refusal factor_two_way leaves to S."""
    bc = cross * c_inv[:, None]
    schur = np.diag(unit_diag) - cross.T @ bc
    try:
        chol = np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        j = _first_failed_minor(schur)
        raise SingularSystem("Schur complement is not positive definite",
                             column=unit_labels[j]) from None
    factor = _UnitSide(chol, item_diag, cross, bc)
    beta = _error_bound(unit_diag, np.diag(schur), factor.unit_variances)
    if beta > BETA_TOL:
        j = int(np.argmax(unit_diag * factor.unit_variances))
        raise SingularSystem(f"Schur complement is numerically singular: error "
                             f"bound {beta:.3g} > {BETA_TOL:g}", column=unit_labels[j])
    return factor


def _eliminate_units(item_diag, cross, unit_diag, c_inv):
    """The item-side factor, or None to leave the decision to _eliminate_items.

    It returns None when K is not positive definite, or when _error_bound,
    on diag(S) formed at O(NK), exceeds BETA_TOL.
    """
    a_inv = 1.0 / unit_diag
    ba = cross * a_inv
    k = np.diag(item_diag) - ba @ cross.T
    schur_diag = unit_diag - (cross * cross).T @ c_inv
    try:
        factor = _ItemSide(np.linalg.cholesky(k), item_diag, cross, unit_diag, a_inv, ba)
    except np.linalg.LinAlgError:
        return None
    beta = _error_bound(unit_diag, schur_diag, factor.unit_variances)
    return factor if beta <= BETA_TOL else None
