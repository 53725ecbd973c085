"""Dense reference routes that the structured solvers are checked against.

Nothing in the package imports this module; it keeps the straightforward
implementations the fast paths replaced, so tests can compare against them:
the dense stacked deflator design with its pivoted-QR least-squares fit, the
normal matrix assembled from the closed-form blocks, the dense dummy fit,
the unit-by-unit replication draw and the replication loop that builds and
fits a panel per replication.  It solves the MPL and TPD normal
equations exactly, in fractions, for the accuracy tests.  It also holds the two forms the paper gives
for the two-period index, which the tests check mpl_two_period and
classical_index against: the quadratic-form index and the convex mean of
price relatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import cho_factor, cho_solve, qr, solve_triangular

from mplindex import (
    BilateralInput,
    DummyFit,
    EstimationError,
    EstimatorSummary,
    GramBlocks,
    InvalidDimension,
    Panel,
    RedrawExhausted,
    SimulationConfig,
    SimulationReport,
    SingularSystem,
    ValidationError,
    estimate_deflators,
    fit_dummy_index,
    gram_blocks,
    implied_prices,
)
from mplindex.bilateral import _quantity_weights
from mplindex.simulate import MAX_REDRAWS, _value_draws
from helpers import solve_two_way

# ols_fit declares the design rank deficient when its smallest QR pivot
# falls below this fraction of the largest one
PIVOT_RTOL = 1e-12


class DegenerateForm(EstimationError):
    """The quadratic form vanishes on the base price vector."""


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
    order = (panel.base_unit,) + tuple(panel.nonbase_units)
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
                        dof=int(panel.present.sum()) - (n + t - 1),
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


def schur_block12(blocks: GramBlocks) -> np.ndarray:
    """Off-diagonal block of (X'X)^{-1}: S^{-1} B' C^{-1}, from blocks alone.

    Only the diagonal price block is inverted elementwise; the (T-1)-sized
    Schur complement is factored here with scipy, never the full (N+T-1)
    Gram matrix.
    """
    bc = blocks.cross / blocks.price_gram[:, None]
    schur = np.diag(blocks.deflator_gram) - blocks.cross.T @ bc
    return cho_solve(cho_factor(schur, lower=True), bc.T)


def dense_dummy_fit(panel: Panel, weighted: bool = False) -> DummyFit:
    """Two-way log-price dummy fit through the dense n_obs x (N+T-1) design.

    Builds one row per present cell with a unit dummy (base omitted) and an
    item dummy, then Cholesky-factors the full weighted Gram matrix and
    inverts it for the standard errors.  Expects a connected panel with
    positive finite prices.
    """
    n, t = panel.n_items, panel.n_units
    prices = implied_prices(panel)
    ii, tt = np.nonzero(panel.present)
    logp = np.log(prices[ii, tt])

    # columns: T-1 unit dummies (base omitted), then N item dummies
    nonbase = [u for u in range(t) if u != panel.base_unit]
    col_of_unit = np.full(t, -1)
    col_of_unit[nonbase] = np.arange(t - 1)
    n_obs = ii.size
    k = (t - 1) + n
    X = np.zeros((n_obs, k))
    rows = np.arange(n_obs)
    has_dummy = tt != panel.base_unit
    X[rows[has_dummy], col_of_unit[tt[has_dummy]]] = 1.0
    X[rows, (t - 1) + ii] = 1.0

    if weighted:
        unit_totals = panel.values.sum(axis=0)
        w = panel.values[ii, tt] / unit_totals[tt]
    else:
        w = np.ones(n_obs)
    sw = np.sqrt(w)

    xtwx = (X * w[:, None]).T @ X
    xtwy = (X * w[:, None]).T @ logp
    try:
        factor = cho_factor(xtwx, lower=True)
    except np.linalg.LinAlgError:
        raise SingularSystem("weighted dummy design is rank deficient") from None
    beta = cho_solve(factor, xtwy)
    resid = logp - X @ beta
    ssr = float((sw * resid) @ (sw * resid))
    dof = n_obs - k
    sigma2 = ssr / dof if dof > 0 else None

    cov_diag = np.diag(cho_solve(factor, np.eye(k)))
    log_effects = np.zeros(t)
    se = np.zeros(t)
    for u in nonbase:
        j = col_of_unit[u]
        log_effects[u] = beta[j]
        se[u] = np.sqrt(sigma2 * cov_diag[j]) if sigma2 is not None else np.nan
    return DummyFit(
        units=panel.units, items=panel.items, base_unit=panel.base_unit,
        mode=panel.mode, log_unit_effects=log_effects, indexes=np.exp(log_effects),
        item_effects=beta[t - 1:], se=se, ssr=ssr, dof=dof,
        variance_method="dummy_wls" if weighted else "dummy_ols",
    )


def long_double_deflators(panel: Panel, blocks: GramBlocks | None = None) -> np.ndarray:
    """Non-base deflators of the normal equations, refined in np.longdouble.

    The blocks are formed from the panel in long double unless float64
    blocks are given, whose exact solution is then returned.  solve_two_way
    supplies the corrections of the refinement steps, which converge as
    long as its relative error is well below one.  They are taken on the
    blocks scaled as the fit scales the panel: unit t's values by 2^-k_t and
    item i's quantities by 2^-g_i, k and g the exponents of the largest
    entries.  So the correction solve refuses only what the fit refuses, and
    the scaled deflators d_t 2^(k_t - k_b) map back exactly.
    """
    wide = np.longdouble
    nb, base = panel.nonbase_units, panel.base_unit
    if blocks is None:
        v, q = panel.values.astype(wide), panel.quantities.astype(wide)
        c, cross = (q * q).sum(axis=1), q[:, nb] * v[:, nb]
        a, r = (v[:, nb] ** 2).sum(axis=0), q[:, base] * v[:, base]
    else:
        c, cross, a, r = (x.astype(wide) for x in (blocks.price_gram, blocks.cross,
                                                    blocks.deflator_gram, blocks.rhs))
    k = np.frexp(panel.values.max(axis=0))[1]
    g = np.frexp(panel.quantities.max(axis=1))[1]
    c, a = np.ldexp(c, -2 * g), np.ldexp(a, -2 * k[nb])
    cross, r = np.ldexp(cross, -g[:, None] - k[nb]), np.ldexp(r, -g - k[base])
    args = [x.astype(float) for x in (c, -cross, a)]
    labels = ([f"i{i}" for i in range(c.size)], [f"u{j}" for j in range(a.size)])
    prices, deflators = np.zeros(c.size, dtype=wide), np.zeros(a.size, dtype=wide)
    for _ in range(4):
        item_res = r - c * prices + cross @ deflators
        unit_res = prices @ cross - a * deflators
        step_d, step_p, _ = solve_two_way(*args, item_res.astype(float),
                                          unit_res.astype(float), *labels)
        prices, deflators = prices + step_p, deflators + step_d
    return np.ldexp(deflators, k[base] - k[nb])


def _exact_unit_effects(item_diag, cross, unit_diag, item_rhs, unit_rhs) -> np.ndarray:
    """Unit effects a of [[C, B], [B', A]] [b; a] = [r; s], solved exactly.

    The blocks are lists of Fractions, cross a list of rows.  The items are
    eliminated, S = A - B'C^{-1}B and s - B'C^{-1}r are formed without
    rounding, and S, positive definite, is solved by Gaussian elimination.
    Returns the effects rounded once to float64.
    """
    n, k = len(item_diag), len(unit_diag)
    bc = [[b / c for b in row] for row, c in zip(cross, item_diag)]
    rows = []
    for t in range(k):
        row = [-sum(cross[i][t] * bc[i][u] for i in range(n) if cross[i][t])
               for u in range(k)]
        row[t] += unit_diag[t]
        row.append(unit_rhs[t] - sum(bc[i][t] * item_rhs[i] for i in range(n)))
        rows.append(row)
    for j in range(k):
        for r in range(j + 1, k):
            f = rows[r][j] / rows[j][j]
            if f:
                for col in range(j, k + 1):
                    rows[r][col] -= f * rows[j][col]
    effects = [Fraction(0)] * k
    for j in reversed(range(k)):
        rest = sum(rows[j][col] * effects[col] for col in range(j + 1, k))
        effects[j] = (rows[j][k] - rest) / rows[j][j]
    return np.array([float(x) for x in effects])


def _fractions(x: np.ndarray) -> list:
    return [_fractions(row) for row in x] if x.ndim > 1 else [Fraction(v) for v in x]


def exact_deflators(panel: Panel) -> np.ndarray:
    """Deflators of the MPL normal equations of the panel's float64 data.

    Solves the unit-side Schur system in fractions.Fraction, so the result
    is the exact solution rounded once: length T, 1 at the base.
    """
    nb, base = panel.nonbase_units, panel.base_unit
    v, q = _fractions(panel.values), _fractions(panel.quantities)
    items = range(panel.n_items)
    cross = [[-q[i][t] * v[i][t] for t in nb] for i in items]
    deflators = np.ones(panel.n_units)
    deflators[nb] = _exact_unit_effects(
        [sum(x * x for x in q[i]) for i in items], cross,
        [sum(v[i][t] ** 2 for i in items) for t in nb],
        [q[i][base] * v[i][base] for i in items], [Fraction(0)] * len(nb))
    return deflators


def exact_tpd(panel: Panel, weighted: bool) -> np.ndarray:
    """Log unit effects of the TPD normal equations, solved exactly.

    The data are those the fit starts from: the float64 within-unit shares,
    formed as fit_dummy_index forms them (the presence mask when not
    weighted), and np.log(v / q) on the present cells.  The sums over them
    are exact, and a per-item shift of the log prices, which the fit takes
    out, leaves the unit effects unchanged.  Length T, 0 at the base.
    """
    nb = panel.nonbase_units
    values, present = panel.values, panel.present
    if weighted:
        k = np.frexp(values.max(axis=0))[1]
        shares = np.ldexp(values, -k)
        shares /= shares.sum(axis=0)
    else:
        shares = present.astype(np.float64)
    logp = np.zeros_like(values)
    logp[present] = np.log(values[present] / panel.quantities[present])
    w, y = _fractions(shares), _fractions(logp)
    items = range(panel.n_items)
    wy = [[a * b for a, b in zip(wi, yi)] for wi, yi in zip(w, y)]
    effects = np.zeros(panel.n_units)
    effects[nb] = _exact_unit_effects(
        [sum(w[i]) for i in items], [[w[i][t] for t in nb] for i in items],
        [sum(w[i][t] for i in items) for t in nb],
        [sum(wy[i]) for i in items], [sum(wy[i][t] for i in items) for t in nb])
    return effects


def per_unit_values(panel: Panel, config: SimulationConfig, rng) -> tuple[np.ndarray, bool]:
    """One replication's value matrix drawn unit by unit, and whether any
    nonpositive draw was redrawn.

    Each unit off the base draws its present cells in one normal call and
    redraws its own nonpositive cells before the next unit draws, so a
    redraw shifts the stream every later unit draws from.  Without a redraw
    that is the stream of simulate's one call over all the cells.
    """
    sd = rng.uniform(0.0, config.noise_sd_max)
    redrawn = False

    def positive(start):
        nonlocal redrawn
        out = start + rng.normal(config.noise_mean, sd, size=start.shape)
        for _ in range(MAX_REDRAWS):
            bad = out <= 0
            if not bad.any():
                return out
            redrawn = True
            out[bad] = start[bad] + rng.normal(config.noise_mean, sd, size=int(bad.sum()))
        raise RedrawExhausted("noise kept values nonpositive")

    values = panel.values.copy()
    if config.scheme == "additive_on_base":
        for t in panel.nonbase_units:
            mask = panel.present[:, t]
            values[mask, t] = positive(panel.values[mask, t])
        return values, redrawn
    assert panel.base_unit == 0, "random_walk needs the base unit first"
    # walk state: last simulated (or original, if never present) value per item
    state = values[:, 0].copy()
    for t in range(1, panel.n_units):
        mask = panel.present[:, t]
        start = state[mask]
        # an item absent so far starts its walk from its own current value
        start = np.where(start <= 0, panel.values[mask, t], start)
        values[mask, t] = positive(start)
        state[mask] = values[mask, t]
    return values, redrawn


def simulate_reference(panel: Panel, config: SimulationConfig) -> SimulationReport:
    """simulate as a loop of whole fits: per replication, the values
    simulate._value_draws draws, a freshly validated Panel and
    estimate_deflators or fit_dummy_index on it.

    Each estimator first fits the unperturbed panel, and its error stops
    the run, as simulate's preparation does before the first draw.  That
    fit stands in for the preparation, so the two agree where the panel's
    own values fit or are refused for their presence and quantities.
    """
    fits = {
        "mpl": lambda p: estimate_deflators(p, variance_method=config.variance_method),
        "tpd": lambda p: fit_dummy_index(p, weighted=False),
        "tpd_weighted": lambda p: fit_dummy_index(p, weighted=True),
    }
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    draws = {name: [] for name in config.estimators}
    ses = {name: [] for name in config.estimators}
    failed = {name: [] for name in config.estimators}
    draw = _value_draws(panel, config)
    for name in config.estimators:
        fits[name](panel)
    for r in range(config.replications):
        values = draw(children[r]).copy()
        sim_panel = Panel(panel.items, panel.units, values, panel.quantities,
                          base_unit=panel.base_unit, mode=panel.mode)
        for name in config.estimators:
            try:
                fit = fits[name](sim_panel)
            except EstimationError:
                failed[name].append(r)
                continue
            draws[name].append(fit.indexes)
            ses[name].append(fit.index_se)

    summaries = {}
    for name in config.estimators:
        if not draws[name]:
            raise EstimationError(f"estimator {name!r} failed in every replication")
        arr = np.vstack(draws[name])
        mean_index = arr.mean(axis=0)
        # below two fits the spread is unmeasured: NaN, except 0 at the base
        emp_sd = arr.std(axis=0, ddof=1) if arr.shape[0] > 1 else np.where(
            np.arange(panel.n_units) == panel.base_unit, 0.0, np.nan)
        mean_se = np.vstack(ses[name]).mean(axis=0)
        summaries[name] = EstimatorSummary(
            mean_index=mean_index, emp_sd=emp_sd, mean_se=mean_se,
            lo_emp=mean_index - config.k * emp_sd, hi_emp=mean_index + config.k * emp_sd,
            lo_model=mean_index - config.k * mean_se, hi_model=mean_index + config.k * mean_se,
            failures=len(failed[name]), failed_replications=tuple(failed[name]),
            draws=arr if config.dump_draws else None,
        )
    return SimulationReport(units=panel.units, config=config, summaries=summaries)


def quadratic_form_index(p1, p2, form: np.ndarray) -> float:
    """(p2' A p1) / (p1' A p1) for a nonnegative-definite matrix A."""
    p1 = np.asarray(p1, dtype=np.float64).reshape(-1)
    p2 = np.asarray(p2, dtype=np.float64).reshape(-1)
    form = np.asarray(form, dtype=np.float64)
    if form.shape != (p1.size, p1.size):
        raise ValidationError("form matrix shape does not match the price vectors")
    denom = float(p1 @ form @ p1)
    if not math.isfinite(denom) or denom <= 0:
        raise DegenerateForm("quadratic form vanishes on the base price vector")
    return float(p2 @ form @ p1) / denom


def classical_form_matrix(inp: BilateralInput, kind: str) -> np.ndarray:
    """Rank-one quantity form whose quadratic-form index equals the classic."""
    w = _quantity_weights(inp, kind)
    return np.outer(w, w)


def convex_weights_from_values(v1, v2, q1, q2) -> np.ndarray:
    """Normalized weights proportional to v1*v2*q1*q2 / (q1^2 + q2^2).

    Swapping q1 and q2 while holding the values fixed leaves every weight
    bit-identical: each factor enters commutatively.
    """
    v1, v2, q1, q2 = (np.asarray(a, dtype=np.float64).reshape(-1)
                      for a in (v1, v2, q1, q2))
    d = q1 * q1 + q2 * q2
    # the grouping keeps every factor commutative, so a q1/q2 swap is exact
    w = (v1 * v2) * (q1 * q2) / d
    total = math.fsum(w)
    if total <= 0:
        raise DegenerateForm("convex weights sum to zero")
    return w / total


def convex_weights(inp: BilateralInput) -> np.ndarray:
    """Normalized weights that express the two-period index as a weighted
    mean of price relatives."""
    return convex_weights_from_values(inp.p1 * inp.q1, inp.p2 * inp.q2,
                                      inp.q1, inp.q2)
