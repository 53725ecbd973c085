"""Structured least-squares algebra for the deflator system.

The stacked regression treats the base-unit values as the response for the
reference prices and every other unit's rows as homogeneous equations that
tie that unit's deflator to the same reference prices:

    base rows:      v_base = diag(q_base) ptilde + err
    unit t rows:    0      = -v_t d_t + diag(q_t) ptilde + err

Unknowns are the T-1 non-base deflators followed by the N reference prices.
The Gram matrix of this design has a closed block form (diagonal, Hadamard
cross products, diagonal), which everything downstream exploits; the dense
design matrix is only ever assembled explicitly for cross-checks and for
callers that want plain OLS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, get_lapack_funcs, qr, solve_triangular

from .errors import InvalidDimension, SingularSystem
from .panel import Panel

# a system is declared singular when its smallest pivot falls below
# this fraction of the largest one
PIVOT_RTOL = 1e-12


def transition_matrix(n: int) -> np.ndarray:
    """n^2 x n selector whose i-th column is e_i kron e_i.

    Sandwiching a Kronecker product between these selectors turns it into a
    Hadamard product: T_n' (A kron B) T_m = A * B for n x m factors.
    """
    if n < 1:
        raise InvalidDimension(f"transition matrix needs n >= 1, got {n}")
    out = np.zeros((n * n, n))
    out[np.arange(n) * (n + 1), np.arange(n)] = 1.0
    return out


@dataclass(frozen=True)
class DesignSystem:
    """Dense stacked design for one panel, base unit ordered first."""

    y: np.ndarray
    X: np.ndarray
    n_items: int
    n_units: int
    dof: int
    column_labels: tuple[str, ...]
    unit_order: tuple[int, ...]


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
    return GramBlocks(
        deflator_gram=(v_nb * v_nb).sum(axis=0),
        cross=q_nb * v_nb,
        price_gram=(q * q).sum(axis=1),
        rhs=q[:, 0] * v[:, 0],
    )


def structured_normal_matrix(panel: Panel) -> np.ndarray:
    """X'X assembled from the closed-form blocks (never from X itself)."""
    b = gram_blocks(panel)
    t1 = b.deflator_gram.size
    n = b.price_gram.size
    out = np.zeros((t1 + n, t1 + n))
    out[:t1, :t1] = np.diag(b.deflator_gram)
    out[:t1, t1:] = -b.cross.T
    out[t1:, :t1] = -b.cross
    out[t1:, t1:] = np.diag(b.price_gram)
    return out


def structured_normal_rhs(panel: Panel) -> np.ndarray:
    """X'y: zeros for the deflator columns, q_base * v_base for the prices."""
    b = gram_blocks(panel)
    return np.concatenate([np.zeros(b.deflator_gram.size), b.rhs])


def build_design_system(panel: Panel) -> DesignSystem:
    """Assemble the dense stacked design, base-unit rows first.

    Rows come in T blocks of N; block 0 carries the base unit.  Columns are
    the T-1 non-base deflators followed by the N reference prices.  The
    assembly fills the few structurally nonzero entries directly, so no
    Kronecker factor is ever materialized.
    """
    n, t = panel.n_items, panel.n_units
    if t < 2:
        raise InvalidDimension(f"design needs at least two units, got T={t}")
    order = _base_first(panel)
    v = panel.values[:, order]
    q = panel.quantities[:, order]

    k = (t - 1) + n
    y = np.zeros(n * t)
    y[:n] = v[:, 0]
    X = np.zeros((n * t, k))
    rows = np.arange(n)
    X[rows, (t - 1) + rows] = q[:, 0]
    for s in range(1, t):
        block = n * s + rows
        X[block, s - 1] = -v[:, s]
        X[block, (t - 1) + rows] = q[:, s]

    labels = tuple(f"deflator[{panel.units[order[s]]}]" for s in range(1, t)) + tuple(
        f"ref_price[{item}]" for item in panel.items
    )
    return DesignSystem(y=y, X=X, n_items=n, n_units=t,
                        dof=n * t - (n + t - 1),
                        column_labels=labels, unit_order=order)


@dataclass(frozen=True)
class BlockInverse:
    """(X'X)^{-1} partitioned at the deflator/price boundary."""

    lam11: np.ndarray
    lam12: np.ndarray
    lam22: np.ndarray


@dataclass(frozen=True)
class OlsFit:
    beta: np.ndarray
    residuals: np.ndarray
    sigma2: float | None
    blocks: BlockInverse


def ols_fit(system: DesignSystem, dof: int | None = None) -> OlsFit:
    """Plain pivoted-QR least squares on the dense design.

    Serves as the reference route against which the structured closed-form
    estimator is checked.  Raises SingularSystem naming a dependent column
    when the pivot ratio falls below PIVOT_RTOL.
    """
    X, y = system.X, system.y
    k = X.shape[1]
    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0 or diag.min() < PIVOT_RTOL * diag.max():
        bad = int(piv[int(np.argmin(diag))])
        raise SingularSystem("design matrix is rank deficient",
                             column=system.column_labels[bad])
    beta = np.empty(k)
    beta[piv] = solve_triangular(R, Q.T @ y)
    residuals = y - X @ beta

    dof = system.dof if dof is None else dof
    sigma2 = float(residuals @ residuals) / dof if dof > 0 else None

    r_inv = solve_triangular(R, np.eye(k))
    gram_inv_p = r_inv @ r_inv.T
    lam = np.empty((k, k))
    lam[np.ix_(piv, piv)] = gram_inv_p
    t1 = system.n_units - 1
    blocks = BlockInverse(lam11=lam[:t1, :t1], lam12=lam[:t1, t1:], lam22=lam[t1:, t1:])
    return OlsFit(beta=beta, residuals=residuals, sigma2=sigma2, blocks=blocks)


def _schur_factor(item_diag, cross, unit_diag, item_labels, unit_labels):
    """Cholesky factor of a two-way Schur complement S = A - B'C^{-1}B.

    The Gram matrix of a two-way model has a diagonal item block
    C = diag(item_diag), an N x K cross block B = cross and a diagonal
    unit block A = diag(unit_diag).  Eliminating the N item columns leaves
    the K-sized S, so the full (N+K)-sized matrix is never formed.  The sign
    of B does not enter S.  Returns the factor and C^{-1}B.  Raises
    SingularSystem naming the item or unit column when a pivot of C is not
    positive or the pivot ratio of S falls below PIVOT_RTOL.
    """
    if (item_diag <= 0).any():
        i = int(np.argmin(item_diag))
        raise SingularSystem("an item has zero weight in every unit",
                             column=item_labels[i])
    c_inv = 1.0 / item_diag
    bc = cross * c_inv[:, None]
    schur = np.diag(unit_diag) - cross.T @ bc
    # potrf directly rather than cho_factor, so a failed minor can be named
    potrf, = get_lapack_funcs(("potrf",), (schur,))
    chol, info = potrf(np.asarray_chkfinite(schur), lower=True, clean=False)
    if info > 0:
        raise SingularSystem("Schur complement is not positive definite",
                             column=unit_labels[info - 1])
    pivots = np.diag(chol) ** 2
    if pivots.size and pivots.min() < PIVOT_RTOL * pivots.max():
        j = int(np.argmin(pivots))
        raise SingularSystem("Schur complement is numerically singular",
                             column=unit_labels[j])
    return (chol, True), bc


def schur_block12(blocks: GramBlocks) -> np.ndarray:
    """Off-diagonal block of (X'X)^{-1}: S^{-1} B' C^{-1}, from blocks alone.

    Only the diagonal price block is inverted elementwise; the (T-1)-sized
    Schur complement is factored, never the full (N+T-1) Gram matrix.
    """
    n, t1 = blocks.cross.shape
    factor, bc = _schur_factor(blocks.price_gram, blocks.cross, blocks.deflator_gram,
                               [f"ref_price[#{i}]" for i in range(n)],
                               [f"deflator[#{j}]" for j in range(t1)])
    return cho_solve(factor, bc.T)
