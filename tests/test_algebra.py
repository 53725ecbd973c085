import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import cho_solve, get_lapack_funcs, solve_triangular
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from mplindex import (
    InvalidDimension,
    MplIndexError,
    Panel,
    SingularSystem,
    UnidentifiedModel,
    algebra,
    estimate_deflators,
    fit_dummy_index,
    gram_blocks,
)
from mplindex.algebra import BETA_TOL, _Factor, _first_failed_minor, _tri_inv, factor_two_way
from mplindex.dummy import presence_components
from mplindex.panel import require_connected
from helpers import random_panel, solve_two_way
from oracles import (
    DesignSystem,
    build_design_system,
    exact_deflators,
    exact_tpd,
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
    return Panel(items, ("t1", "t2"), v, np.ones_like(v), base_unit=base)


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
    panel = Panel(("a",), ("t1", "t2"),
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
    panel = Panel(("a", "b"), ("t1",), v, v.copy())
    with pytest.raises(InvalidDimension):
        build_design_system(panel)


def test_design_base_reorder_matches_column_swap():
    rng = np.random.default_rng(9)
    panel = random_panel(rng, 3, 3, missing=0.1)
    swapped = Panel(
        panel.items, (panel.units[1], panel.units[0], panel.units[2]),
        panel.values[:, [1, 0, 2]], panel.quantities[:, [1, 0, 2]],
    )
    a = build_design_system(Panel(panel.items, panel.units,
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
    panel = Panel(("a", "b"), ("u0", "u1", "u2", "u3"),
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


@pytest.mark.parametrize("pivot", [0.0, 1e-310], ids=["zero", "too_small_to_invert"])
def test_schur_rejects_zero_quantity_item(pivot):
    # the second item's price pivot is zero, or a subnormal whose
    # reciprocal overflows: either way the item is named as singular
    with pytest.raises(SingularSystem) as exc:
        solve_two_way(np.array([1.0, pivot]), -np.array([[1.0], [0.0]]),
                      np.array([2.0]), np.array([1.0, 0.0]), np.zeros(1),
                      ["ref_price[a]", "ref_price[b]"], ["deflator[t2]"])
    assert exc.value.column == "ref_price[b]"
    assert str(exc.value) == ("an item's total weight is zero or too small to invert "
                              "(dependent column: ref_price[b])")


@pytest.mark.parametrize("n,k", [(1, 1), (7, 3), (40, 70), (90, 130),
                                 (64, 65), (65, 65), (66, 65)])
def test_solve_two_way_matches_dense_solve(n, k, solve_side):
    # negative cross block and nonzero right-hand sides on both sides; the
    # unit block makes S diagonally dominant, so positive definite.  With
    # n < k the units are eliminated, otherwise the items
    verdicts = solve_side()
    rng = np.random.default_rng(10 * n + k)
    item_diag = rng.uniform(0.5, 3.0, n)
    cross = -rng.uniform(0.0, 2.0, (n, k))
    absorbed = cross.T @ (cross / item_diag[:, None])
    unit_diag = 2.0 * np.abs(absorbed).sum(axis=1) + rng.uniform(0.1, 2.0, k)
    item_rhs = rng.normal(size=n)
    unit_rhs = rng.normal(size=k)
    dense = np.block([[np.diag(item_diag), cross], [cross.T, np.diag(unit_diag)]])
    expected = np.linalg.solve(dense, np.concatenate([item_rhs, unit_rhs]))
    args = (item_diag, cross, unit_diag, item_rhs, unit_rhs,
            [f"i{j}" for j in range(n)], [f"u{j}" for j in range(k)])
    units, items, var = solve_two_way(*args, variances=True)
    scale = np.abs(expected).max()
    assert_allclose(items, expected[:n], rtol=0, atol=1e-12 * scale)
    assert_allclose(units, expected[n:], rtol=0, atol=1e-12 * scale)
    # diag(S^{-1}) is the unit block of the inverse's diagonal
    schur = np.diag(unit_diag) - absorbed
    assert_allclose(var, np.diag(np.linalg.inv(schur)), rtol=1e-12)
    assert_allclose(var, np.diag(np.linalg.inv(dense))[n:], rtol=1e-12)
    no_var = solve_two_way(*args)
    assert no_var[2] is None
    assert_array_equal(no_var[0], units)
    assert_array_equal(no_var[1], items)
    assert verdicts == ([True, True] if n < k else [])


@pytest.mark.parametrize("n,k", [(7, 3), (130, 90), (40, 70), (90, 130)])
def test_one_factor_solves_every_right_hand_side(n, k):
    # a factor serves any number of right-hand sides, each bit for bit as
    # solve_two_way solves it alone, on both sides and at orders on both
    # sides of one LAPACK inverse (_tri_inv's block)
    rng = np.random.default_rng(n + k)
    item_diag = rng.uniform(0.5, 3.0, n)
    cross = -rng.uniform(0.0, 2.0, (n, k))
    unit_diag = 2.0 * np.abs(cross.T @ (cross / item_diag[:, None])).sum(axis=1) + 1.0
    labels = ([f"i{j}" for j in range(n)], [f"u{j}" for j in range(k)])
    factor = factor_two_way(item_diag, cross, unit_diag, *labels)
    for _ in range(3):
        item_rhs, unit_rhs = rng.normal(size=n), rng.normal(size=k)
        units, items, var = solve_two_way(item_diag, cross, unit_diag, item_rhs, unit_rhs,
                                          *labels, variances=True)
        got_units, got_items = factor.solve(item_rhs, unit_rhs)
        assert got_units.tobytes() == units.tobytes()
        assert got_items.tobytes() == items.tobytes()
        assert factor.unit_variances.tobytes() == var.tobytes()


def test_item_side_without_a_wider_long_double_is_the_plain_solve(monkeypatch):
    # where np.longdouble is float64, the item side skips its refinement
    # step and returns the plain solve bit for bit
    rng = np.random.default_rng(12)
    n, k = 40, 70
    item_diag = rng.uniform(0.5, 3.0, n)
    cross = -rng.uniform(0.0, 2.0, (n, k))
    unit_diag = 2.0 * np.abs(cross.T @ (cross / item_diag[:, None])).sum(axis=1) + 1.0
    factor = factor_two_way(item_diag, cross, unit_diag,
                            [f"i{j}" for j in range(n)], [f"u{j}" for j in range(k)])
    assert isinstance(factor, algebra._ItemSide)
    monkeypatch.setattr(algebra, "_WIDE_REFINEMENT", False)
    item_rhs, unit_rhs = rng.normal(size=n), rng.normal(size=k)
    items, units = factor._plain_solve(item_rhs, unit_rhs)
    got_units, got_items = factor.solve(item_rhs, unit_rhs)
    assert got_units.tobytes() == units.tobytes()
    assert got_items.tobytes() == items.tobytes()


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
    inv = _tri_inv(chol)
    x = inv @ rhs
    assert x.shape == rhs.shape
    assert_allclose(x, solve_triangular(chol, rhs, lower=True), rtol=1e-12, atol=1e-12)
    assert_allclose(inv.T @ rhs, solve_triangular(chol, rhs, lower=True, trans="T"),
                    rtol=1e-12, atol=1e-12)
    assert_allclose(inv.T @ x, cho_solve((chol, True), rhs), rtol=1e-12, atol=1e-12)
    assert_array_equal(_Factor(chol)._chol_solve(rhs), inv.T @ x)
    if cols is None:
        assert_array_equal(np.triu(inv, 1), 0.0)
        assert_allclose(inv, solve_triangular(chol, np.eye(n), lower=True),
                        rtol=1e-12, atol=1e-13)
        s_inv = cho_solve((chol, True), np.eye(n))
        assert_allclose(inv.T @ inv, s_inv, rtol=1e-12, atol=1e-13)
        assert_allclose((inv * inv).sum(axis=0), np.diag(s_inv), rtol=1e-12)


def test_one_by_one_solve_multiplies_by_reciprocal_pivot():
    # chosen so that rhs * (1/l) and rhs / l round differently, both once
    # and twice over
    chol = np.array([[np.sqrt(6.10569418009508)]])
    rhs = np.array([7.322015953741584])
    step = 1.0 / chol[0, 0]
    assert rhs[0] * step != rhs[0] / chol[0, 0]
    assert rhs[0] * step * step != rhs[0] / chol[0, 0] / chol[0, 0]
    inv = _tri_inv(chol)
    assert inv[0, 0] == step
    assert (inv @ rhs)[0] == rhs[0] * step
    assert (inv.T @ rhs)[0] == rhs[0] * step
    assert _Factor(chol)._chol_solve(rhs)[0] == rhs[0] * step * step


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


@pytest.mark.parametrize("n", [40, 64, 65, 130, 350])
def test_failed_minor_of_rank_deficient_grams_is_a_boundary(n):
    # rounding decides where x x' of rank r < n stops factoring, so potrf's
    # info is not pinned; the result must be an order where the leading
    # minor factors and the next one does not
    rng = np.random.default_rng(n)
    refused = 0
    for r in range(n - 4, n):
        x = rng.standard_normal((n, r))
        a = x @ x.T
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            refused += 1
        else:
            continue
        j = _first_failed_minor(a)
        assert 0 <= j < n
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a[:j + 1, :j + 1])
        np.linalg.cholesky(a[:j, :j])
    assert refused


def test_schur_factor_names_the_failed_unit_column():
    # S = diag(unit_diag): its third leading minor is the first to fail
    with pytest.raises(SingularSystem) as exc:
        solve_two_way(np.ones(2), np.zeros((2, 4)), np.array([1.0, 2.0, -1.0, 3.0]),
                      np.zeros(2), np.zeros(4), ["i0", "i1"], ["u0", "u1", "u2", "u3"])
    assert exc.value.column == "u2"
    # S = diag(4, 1, 9): with three items the units' factor diag(2, 1, 3)
    # is inverted, with two the units are eliminated and A^{-1} is exact
    for n, var_last in ((3, (1.0 / 3.0) ** 2), (2, 1.0 / 9.0)):
        units, items, var = solve_two_way(
            np.ones(n), np.zeros((n, 3)), np.array([4.0, 1.0, 9.0]),
            np.arange(3.0, 3.0 + 2 * n, 2), np.array([8.0, 2.0, 18.0]),
            [f"i{j}" for j in range(n)], ["u0", "u1", "u2"], variances=True)
        assert_array_equal(var, [0.25, 1.0, var_last])
        assert_array_equal(units, [2.0, 2.0, 2.0])
        assert_array_equal(items, np.arange(3.0, 3.0 + 2 * n, 2))


def weakly_linked_panels(count):
    """Seeded panels whose last two units reach the rest only through one
    item's tiny value in the last unit, spread across the point where the
    Schur complement turns numerically singular.  They have more items
    than non-base units and fewer, so both sides of factor_two_way are met.
    """
    rng = np.random.default_rng(7)
    for _ in range(count):
        n, t = int(rng.integers(3, 12)), int(rng.integers(4, 16))
        values = rng.uniform(0.5, 8.0, (n, t))
        quantities = rng.uniform(0.5, 8.0, (n, t))
        values[:, -2:] = quantities[:, -2:] = 0.0
        values[-1] = quantities[-1] = 0.0
        values[-1, -2:] = rng.uniform(1.0, 2.0, 2)
        quantities[-1, -2:] = rng.uniform(0.5, 2.0, 2)
        values[0, -1] = 10.0 ** rng.uniform(-20.0, -3.0)
        quantities[0, -1] = rng.uniform(0.5, 2.0)
        yield Panel([f"i{k}" for k in range(n)], [f"u{k}" for k in range(t)],
                    values, quantities)


def spread_level_panels(count):
    """Seeded sparse panels whose item price levels spread over 1e+-30.

    Each item's prices are its level 10^U(-30, 30) times
    exp(N(0, 0.3)) noise; quantities are U(0.5, 8).  Each cell is present
    with probability 0.8, unit 0 is complete, and items present in fewer
    than two units are dropped.
    """
    rng = np.random.default_rng(3)
    for _ in range(count):
        n, t = int(rng.integers(3, 15)), int(rng.integers(3, 12))
        levels = 10.0 ** rng.uniform(-30.0, 30.0, n)
        prices = levels[:, None] * np.exp(rng.normal(0.0, 0.3, (n, t)))
        quantities = rng.uniform(0.5, 8.0, (n, t))
        present = rng.random((n, t)) < 0.8
        present[:, 0] = True
        keep = present.sum(axis=1) >= 2
        present, prices, quantities = present[keep], prices[keep], quantities[keep]
        yield Panel([f"i{k}" for k in np.flatnonzero(keep)], [f"u{k}" for k in range(t)],
                    np.where(present, prices * quantities, 0.0),
                    np.where(present, quantities, 0.0))


def dominant_unit_panels(count):
    """Seeded sparse panels in which one unit holds most of every item's weight.

    Item prices are U(1, 10), unit deflators U(0.8, 1.2) with the base's 1
    and quantities U(1, 10), one random unit's times 10^U(0, 8); values
    are q p e^N(0, 0.05) / d.  Each cell is present with probability 0.85,
    unit 0 and item 0 are complete, and items present in fewer than two
    units are dropped.
    """
    rng = np.random.default_rng(11)
    for _ in range(count):
        n, t = int(rng.integers(8, 30)), int(rng.integers(2, 12))
        prices = rng.uniform(1.0, 10.0, n)
        deflators = rng.uniform(0.8, 1.2, t)
        deflators[0] = 1.0
        quantities = rng.uniform(1.0, 10.0, (n, t))
        quantities[:, rng.integers(t)] *= 10.0 ** rng.uniform(0.0, 8.0)
        values = quantities * prices[:, None] * np.exp(rng.normal(0.0, 0.05, (n, t)))
        values /= deflators
        present = rng.random((n, t)) < 0.85
        present[:, 0] = present[0] = True
        keep = present.sum(axis=1) >= 2
        present, values, quantities = present[keep], values[keep], quantities[keep]
        yield Panel([f"i{k}" for k in np.flatnonzero(keep)], [f"u{k}" for k in range(t)],
                    np.where(present, values, 0.0), np.where(present, quantities, 0.0))


def fit_outcome(fit, panel):
    try:
        return "ok", fit(panel).indexes
    except MplIndexError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "column", None)


def test_item_side_decides_as_the_unit_side(solve_side):
    fits = (estimate_deflators, lambda panel: fit_dummy_index(panel, weighted=True))
    decisions = []
    for panel in weakly_linked_panels(200):
        for fit in fits:
            solve_side("units")
            expected = fit_outcome(fit, panel)
            verdicts = solve_side("items")
            verdicts.clear()
            got = fit_outcome(fit, panel)
            # only the decision is compared: the accepted indexes are
            # checked against the exact solution below
            assert got[0] == expected[0], (panel.values, expected, got)
            if got[0] != "ok":
                assert got == expected
            decisions.append((got[0], verdicts[0]))
    # both sides decide on the same bound, so the item side never defers on
    # a fit the unit side accepts; refusals and acceptances both occur
    assert ("ok", False) not in decisions
    assert {("SingularSystem", False), ("ok", True)} <= set(decisions)


def test_accepted_fits_are_within_their_error_bound(monkeypatch):
    # every accepted MPL, weighted TPD and unweighted TPD fit of the weakly
    # linked, the spread-price-level and the dominant-unit panels, on
    # whichever side factor_two_way factors it, is within BETA_TOL of the
    # exact solution of its normal equations and within the bound that
    # accepted it (the last one computed)
    bounds = []
    error_bound = algebra._error_bound

    def recorded(*args):
        bounds.append(error_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(algebra, "_error_bound", recorded)

    def tpd_error(weighted):
        return lambda panel: np.expm1(fit_dummy_index(panel, weighted).log_unit_effects
                                      - exact_tpd(panel, weighted))

    index_errors = {
        "mpl": lambda panel: estimate_deflators(panel).indexes * exact_deflators(panel) - 1,
        "tpd": tpd_error(True),
        "tpd_ols": tpd_error(False),
    }
    families = {"weakly_linked": (weakly_linked_panels(200), (10, 60, 200)),
                "spread_levels": (spread_level_panels(200), (200, 100, 200)),
                "dominant_unit": (dominant_unit_panels(200), (100, 200, 200))}
    for family, (panels, least) in families.items():
        accepted = dict.fromkeys(index_errors, 0)
        for panel in panels:
            for name, index_error in index_errors.items():
                try:
                    error = np.abs(index_error(panel)).max()
                except SingularSystem:
                    continue
                accepted[name] += 1
                assert error <= min(BETA_TOL, bounds[-1]), (
                    family, name, panel.values, error, bounds[-1])
        assert all(a >= b for a, b in zip(accepted.values(), least)), (family, accepted)


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
                      values, values.copy())
        ii, tt = np.nonzero(present)
        graph = coo_matrix((np.ones(ii.size), (ii, tt + n)), shape=(n + t, n + t))
        n_comp, labels = connected_components(graph, directed=False)
        expected = []
        for c in range(n_comp):
            members = np.flatnonzero(labels == c)
            expected.append((tuple(panel.units[m - n] for m in members if m >= n),
                             tuple(panel.items[m] for m in members if m < n)))
        assert presence_components(panel) == expected
        if t < 2:
            continue
        # connectivity is read off the same list
        if n_comp == 1:
            require_connected(panel)
        else:
            with pytest.raises(UnidentifiedModel) as caught:
                require_connected(panel)
            assert caught.value.components == tuple(expected)
