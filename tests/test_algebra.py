import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve, get_lapack_funcs, solve_triangular
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from mplindex import InvalidDimension, Panel, SingularSystem, gram_blocks
from mplindex.algebra import _first_failed_minor, _tri_inv, _tri_solve, solve_two_way
from mplindex.dummy import presence_components
from helpers import random_panel
from oracles import (
    DesignSystem,
    build_design_system,
    ols_fit,
    schur_block12,
    structured_normal_matrix,
    structured_normal_rhs,
    transition_matrix,
)


def ones_panel(v1, v2, base=0):
    """Two-unit panel with unit quantities; values given per unit."""
    v = np.column_stack([v1, v2]).astype(float)
    items = tuple(f"i{k}" for k in range(len(v1)))
    return Panel.from_arrays(items, ("t1", "t2"), v, np.ones_like(v), base_unit=base)


# --- transition matrix -------------------------------------------------------

def test_transition_matrix_small_cases():
    with pytest.raises(InvalidDimension):
        transition_matrix(0)
    assert_array_equal(transition_matrix(1), [[1.0]])
    t2 = transition_matrix(2)
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0
    expected[3, 1] = 1.0
    assert_array_equal(t2, expected)


def test_transition_matrix_columns_are_self_kroneckers():
    for n in (1, 2, 3, 5):
        t = transition_matrix(n)
        eye = np.eye(n)
        for i in range(n):
            assert_array_equal(t[:, i], np.kron(eye[i], eye[i]))
        assert t.sum() == n


def test_transition_sandwich_turns_kronecker_into_hadamard():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2))
    sandwich = transition_matrix(3).T @ np.kron(a, b) @ transition_matrix(2)
    assert_allclose(sandwich, a * b, rtol=0, atol=1e-14)


# --- dense design ------------------------------------------------------------

def test_design_single_item_two_units_by_hand():
    panel = Panel.from_arrays(("a",), ("t1", "t2"),
                              np.array([[15.0, 40.0]]), np.array([[5.0, 10.0]]))
    system = build_design_system(panel)
    assert_array_equal(system.y, [15.0, 0.0])
    assert_array_equal(system.X, [[0.0, 5.0], [-40.0, 10.0]])
    assert system.column_labels == ("deflator[t2]", "ref_price[a]")
    fit = ols_fit(system)
    assert_allclose(fit.beta, [0.75, 3.0], rtol=0, atol=1e-14)
    assert_allclose(fit.residuals, 0.0, atol=1e-13)
    assert fit.sigma2 is None  # zero degrees of freedom


def test_design_shape_and_structure():
    panel = random_panel(np.random.default_rng(5), 4, 3, missing=0.2)
    system = build_design_system(panel)
    n, t = 4, 3
    assert system.X.shape == (n * t, (t - 1) + n)
    assert_array_equal(system.y[n:], 0.0)
    # deflator columns carry minus the unit's values, price columns the quantities
    order = system.unit_order
    for s in range(1, t):
        block = slice(n * s, n * (s + 1))
        assert_array_equal(system.X[block, s - 1], -panel.values[:, order[s]])
        assert_array_equal(system.X[block, (t - 1):].diagonal(),
                           panel.quantities[:, order[s]])


def test_design_requires_two_units():
    v = np.ones((2, 1))
    panel = Panel.from_arrays(("a", "b"), ("t1",), v, v.copy())
    with pytest.raises(InvalidDimension):
        build_design_system(panel)


def test_design_base_reorder_matches_column_swap():
    rng = np.random.default_rng(9)
    panel = random_panel(rng, 3, 3, missing=0.1)
    swapped = Panel.from_arrays(
        panel.items, (panel.units[1], panel.units[0], panel.units[2]),
        panel.values[:, [1, 0, 2]], panel.quantities[:, [1, 0, 2]],
    )
    a = build_design_system(Panel.from_arrays(panel.items, panel.units,
                                              panel.values, panel.quantities,
                                              base_unit=1))
    b = build_design_system(swapped)
    assert_array_equal(a.X, b.X)
    assert_array_equal(a.y, b.y)


# --- structured normal equations ----------------------------------------------

def test_structured_normal_matrix_matches_dense_gram():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(1, 16))
        t = int(rng.integers(2, 9))
        missing = float(rng.uniform(0.0, 0.3)) if n >= 2 else 0.0
        panel = random_panel(rng, n, t, missing=missing)
        system = build_design_system(panel)
        dense = system.X.T @ system.X
        structured = structured_normal_matrix(panel)
        scale = np.abs(dense).max()
        assert np.abs(structured - dense).max() <= 1e-12 * scale
        assert_array_equal(structured_normal_rhs(panel), system.X.T @ system.y)


def test_gram_blocks_values():
    panel = ones_panel([1.0, 2.0], [3.0, 4.0])
    b = gram_blocks(panel)
    assert_array_equal(b.deflator_gram, [25.0])   # 9 + 16
    assert_array_equal(b.cross, [[3.0], [4.0]])
    assert_array_equal(b.price_gram, [2.0, 2.0])
    assert_array_equal(b.rhs, [1.0, 2.0])


def test_normal_matrix_sign_pattern():
    panel = random_panel(np.random.default_rng(2), 3, 4)
    m = structured_normal_matrix(panel)
    t1 = 3
    assert (np.diag(m) > 0).all()
    assert (m[:t1, t1:] <= 0).all()
    off = m[:t1, :t1] - np.diag(np.diag(m[:t1, :t1]))
    assert_array_equal(off, 0.0)


# --- plain OLS route ----------------------------------------------------------

def test_ols_two_item_fixture():
    system = build_design_system(ones_panel([1.0, 2.0], [3.0, 4.0]))
    fit = ols_fit(system)
    assert_allclose(fit.beta[0], 0.44, rtol=0, atol=1e-12)
    assert_allclose(fit.beta[1:], [1.16, 1.88], rtol=0, atol=1e-12)
    assert_allclose(float(fit.residuals @ fit.residuals), 0.08, rtol=0, atol=1e-12)
    assert fit.sigma2 == pytest.approx(0.08, abs=1e-12)


def test_ols_recovers_exact_coefficients():
    rng = np.random.default_rng(33)
    panel = random_panel(rng, 5, 4, missing=0.15)
    system = build_design_system(panel)
    beta0 = rng.uniform(0.5, 2.0, system.X.shape[1])
    exact = DesignSystem(y=system.X @ beta0, X=system.X,
                         n_items=system.n_items, n_units=system.n_units,
                         dof=system.dof, column_labels=system.column_labels,
                         unit_order=system.unit_order)
    fit = ols_fit(exact)
    assert_allclose(fit.beta, beta0, rtol=1e-10)
    assert fit.sigma2 == pytest.approx(0.0, abs=1e-18)


def test_ols_duplicate_column_raises_named_singularity():
    X = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [3.0, 3.0, 4.0], [1.0, 1.0, 2.0]])
    system = DesignSystem(y=np.ones(4), X=X, n_items=2, n_units=2, dof=1,
                          column_labels=("deflator[t2]", "dup", "ref_price[a]"),
                          unit_order=(0, 1))
    with pytest.raises(SingularSystem) as exc:
        ols_fit(system)
    assert exc.value.column in ("deflator[t2]", "dup")


def test_ols_disconnected_panel_is_singular():
    # two blocks of units that share no common item
    values = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
    ])
    panel = Panel.from_arrays(("a", "b"), ("u0", "u1", "u2", "u3"),
                              values, values.copy())
    with pytest.raises(SingularSystem):
        ols_fit(build_design_system(panel))


def test_ols_dof_override():
    system = build_design_system(ones_panel([1.0, 2.0], [3.0, 4.0]))
    fit = ols_fit(system, dof=2)
    assert fit.sigma2 == pytest.approx(0.04, abs=1e-14)
    assert ols_fit(system, dof=0).sigma2 is None


# --- Schur route --------------------------------------------------------------

def test_schur_block_matches_dense_inverse():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        t = int(rng.integers(2, 8))
        panel = random_panel(rng, n, t, missing=float(rng.uniform(0, 0.25)))
        fit = ols_fit(build_design_system(panel))
        block = schur_block12(gram_blocks(panel))
        assert_allclose(block, fit.blocks.lam12, rtol=1e-9, atol=1e-12)


def test_schur_two_unit_scalar_formula():
    panel = ones_panel([1.0, 2.0], [3.0, 4.0])
    b = gram_blocks(panel)
    # S = v2'v2 - sum_i (q v)_i^2 / c_i = 25 - (9/2 + 16/2) = 12.5
    block = schur_block12(b)
    assert_allclose(block, [[3.0 / 2.0 / 12.5, 4.0 / 2.0 / 12.5]], rtol=1e-14)


def test_schur_rejects_zero_quantity_item():
    # the second item has zero quantity, so its price pivot is zero
    with pytest.raises(SingularSystem) as exc:
        solve_two_way(np.array([1.0, 0.0]), -np.array([[1.0], [0.0]]),
                      np.array([2.0]), np.array([1.0, 0.0]), np.zeros(1),
                      ["ref_price[a]", "ref_price[b]"], ["deflator[t2]"])
    assert exc.value.column == "ref_price[b]"


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (40, 70), (90, 130)])
def test_solve_two_way_matches_dense_solve(n, k):
    # negative cross block and nonzero right-hand sides on both sides; the
    # unit block makes S diagonally dominant, so positive definite
    rng = np.random.default_rng(10 * n + k)
    item_diag = rng.uniform(0.5, 3.0, n)
    cross = -rng.uniform(0.0, 2.0, (n, k))
    absorbed = cross.T @ (cross / item_diag[:, None])
    unit_diag = 2.0 * np.abs(absorbed).sum(axis=1) + rng.uniform(0.1, 2.0, k)
    item_rhs = rng.normal(size=n)
    unit_rhs = rng.normal(size=k)
    dense = np.block([[np.diag(item_diag), cross], [cross.T, np.diag(unit_diag)]])
    expected = np.linalg.solve(dense, np.concatenate([item_rhs, unit_rhs]))
    units, items, chol = solve_two_way(item_diag, cross, unit_diag, item_rhs, unit_rhs,
                                       [f"i{j}" for j in range(n)],
                                       [f"u{j}" for j in range(k)])
    scale = np.abs(expected).max()
    assert_allclose(items, expected[:n], rtol=0, atol=1e-12 * scale)
    assert_allclose(units, expected[n:], rtol=0, atol=1e-12 * scale)
    schur = np.diag(unit_diag) - absorbed
    assert_allclose(chol @ chol.T, schur, rtol=1e-13, atol=1e-13 * np.abs(schur).max())


def test_blocks_invert_the_normal_matrix():
    rng = np.random.default_rng(8)
    for _ in range(10):
        panel = random_panel(rng, int(rng.integers(2, 10)), int(rng.integers(2, 7)),
                             missing=float(rng.uniform(0, 0.2)))
        system = build_design_system(panel)
        fit = ols_fit(system)
        k = system.X.shape[1]
        t1 = system.n_units - 1
        lam = np.zeros((k, k))
        lam[:t1, :t1] = fit.blocks.lam11
        lam[:t1, t1:] = fit.blocks.lam12
        lam[t1:, :t1] = fit.blocks.lam12.T
        lam[t1:, t1:] = fit.blocks.lam22
        gram = structured_normal_matrix(panel)
        assert_allclose(gram @ lam, np.eye(k), rtol=0, atol=1e-9)


# --- numpy triangular kit against scipy ----------------------------------------

def spd(rng, n):
    """Well-conditioned random SPD matrix (eigenvalues in about [1, 5])."""
    g = rng.normal(size=(n, n))
    return g @ g.T / n + np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200, 1199])
@pytest.mark.parametrize("cols", [None, 3])
def test_triangular_kit_matches_scipy(n, cols):
    rng = np.random.default_rng(n)
    chol = np.linalg.cholesky(spd(rng, n))
    rhs = rng.normal(size=n if cols is None else (n, cols))
    x = _tri_solve(chol, rhs)
    assert x.shape == rhs.shape
    assert_allclose(x, solve_triangular(chol, rhs, lower=True), rtol=1e-12, atol=1e-12)
    assert_allclose(_tri_solve(chol, rhs, trans=True),
                    solve_triangular(chol, rhs, lower=True, trans="T"),
                    rtol=1e-12, atol=1e-12)
    assert_allclose(_tri_solve(chol, x, trans=True), cho_solve((chol, True), rhs),
                    rtol=1e-12, atol=1e-12)
    if cols is None:
        inv = _tri_inv(chol)
        assert_array_equal(np.triu(inv, 1), 0.0)
        assert_allclose(inv, solve_triangular(chol, np.eye(n), lower=True),
                        rtol=1e-12, atol=1e-13)
        assert_allclose(inv.T @ inv, cho_solve((chol, True), np.eye(n)),
                        rtol=1e-12, atol=1e-13)


def test_one_by_one_solve_multiplies_by_reciprocal_pivot():
    # chosen so that rhs * (1/l) and rhs / l round differently, both once
    # and twice over
    chol = np.array([[np.sqrt(6.10569418009508)]])
    rhs = np.array([7.322015953741584])
    step = 1.0 / chol[0, 0]
    assert rhs[0] * step != rhs[0] / chol[0, 0]
    assert rhs[0] * step * step != rhs[0] / chol[0, 0] / chol[0, 0]
    assert _tri_solve(chol, rhs)[0] == rhs[0] * step
    assert _tri_solve(chol, rhs, trans=True)[0] == rhs[0] * step
    assert _tri_solve(chol, _tri_solve(chol, rhs), trans=True)[0] == rhs[0] * step * step
    assert _tri_inv(chol)[0, 0] == step


def test_small_blocks_are_inverted_without_pivoting():
    # dyadic pivots and integer entries: back substitution is exact, while
    # LU with row exchanges on the unreversed block leaves rounding errors
    chol = np.array([[0.5, 0.0, 0.0, 0.0, 0.0],
                     [-6.0, 0.25, 0.0, 0.0, 0.0],
                     [4.0, -2.0, 2.0, 0.0, 0.0],
                     [-3.0, -5.0, -1.0, 0.25, 0.0],
                     [-2.0, -1.0, 5.0, -4.0, 0.5]])
    exact = np.array([[2.0, 0.0, 0.0, 0.0, 0.0],
                      [48.0, 4.0, 0.0, 0.0, 0.0],
                      [44.0, 4.0, 0.5, 0.0, 0.0],
                      [1160.0, 96.0, 2.0, 4.0, 0.0],
                      [8944.0, 736.0, 11.0, 32.0, 2.0]])
    assert_array_equal(_tri_inv(chol), exact)
    rhs = np.array([1.0, -2.0, 3.0, 0.5, 4.0])
    assert_array_equal(_tri_solve(chol, rhs), exact @ rhs)
    assert_array_equal(_tri_solve(chol, rhs, trans=True), exact.T @ rhs)


@pytest.mark.parametrize("n,k", [(1, 1), (5, 1), (5, 3), (64, 64), (70, 65),
                                 (200, 130), (300, 299)])
def test_failed_minor_matches_potrf_info(n, k):
    rng = np.random.default_rng(100 * n + k)
    a = spd(rng, n)
    # push the k-th Schur pivot below zero: the minor of order k fails first
    head, col = a[:k - 1, :k - 1], a[:k - 1, k - 1]
    a[k - 1, k - 1] = col @ np.linalg.solve(head, col) - rng.uniform(0.01, 1.0)
    potrf, = get_lapack_funcs(("potrf",), (a,))
    _, info = potrf(a, lower=True, clean=False)
    assert info == k
    assert _first_failed_minor(a) == info - 1


def test_failed_minor_of_shifted_random_matrices_matches_potrf():
    rng = np.random.default_rng(21)
    for n in (10, 64, 65, 150, 300):
        for _ in range(3):
            a = spd(rng, n) - rng.uniform(1.2, 3.0) * np.eye(n)
            potrf, = get_lapack_funcs(("potrf",), (a,))
            _, info = potrf(a, lower=True, clean=False)
            assert info > 0
            assert _first_failed_minor(a) == info - 1


def test_schur_factor_names_the_failed_unit_column():
    # S = diag(unit_diag): its third leading minor is the first to fail
    with pytest.raises(SingularSystem) as exc:
        solve_two_way(np.ones(2), np.zeros((2, 4)), np.array([1.0, 2.0, -1.0, 3.0]),
                      np.zeros(2), np.zeros(4), ["i0", "i1"], ["u0", "u1", "u2", "u3"])
    assert exc.value.column == "u2"
    units, items, chol = solve_two_way(
        np.ones(2), np.zeros((2, 3)), np.array([4.0, 1.0, 9.0]),
        np.array([3.0, 5.0]), np.array([8.0, 2.0, 18.0]), ["i0", "i1"], ["u0", "u1", "u2"])
    assert_array_equal(chol, np.diag([2.0, 1.0, 3.0]))
    assert_array_equal(units, [2.0, 2.0, 2.0])
    assert_array_equal(items, [3.0, 5.0])


def split_masks():
    """Seeded sparse presence masks, mostly split into several components.

    Every unit holds an item (the panel requires it); items may be absent
    everywhere and so form components of their own.
    """
    rng = np.random.default_rng(44)
    for _ in range(25):
        n, t = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        present = rng.random((n, t)) < rng.uniform(0.0, 0.1)
        present[rng.integers(0, n, t), np.arange(t)] = True
        yield n, t, present


def test_presence_components_match_csgraph():
    for n, t, present in split_masks():
        values = np.where(present, 1.0, 0.0)
        panel = Panel(tuple(f"i{k}" for k in range(n)), tuple(f"u{k}" for k in range(t)),
                      values, values.copy(), present)
        ii, tt = np.nonzero(present)
        graph = coo_matrix((np.ones(ii.size), (ii, tt + n)), shape=(n + t, n + t))
        n_comp, labels = connected_components(graph, directed=False)
        expected = []
        for c in range(n_comp):
            members = np.flatnonzero(labels == c)
            expected.append((tuple(panel.units[m - n] for m in members if m >= n),
                             tuple(panel.items[m] for m in members if m < n)))
        assert presence_components(panel) == expected
