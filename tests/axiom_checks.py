"""Axiom checks for the two-period closed form, shared by the property tests
and the acceptance gate.

Each check draws its own data from the given generator and asserts one
axiom.  Exactness levels: "bit" means the check asserts float equality
(guaranteed by commutative/compensated arithmetic), otherwise the stated
tolerance applies to the mathematically exact identity.
"""

from __future__ import annotations

import numpy as np

from mplindex import BilateralInput, estimate_deflators, mpl_two_period
from helpers import dyadic_bilateral, panel_from_bilateral, random_bilateral
from oracles import convex_weights_from_values

TOL_CLOSED = 1e-12
TOL_PANEL = 1e-10


def _panel_lambda2(inp: BilateralInput) -> float:
    return float(estimate_deflators(panel_from_bilateral(inp)).indexes[1])


def check_strong_identity(rng):
    """Equal price vectors give an index of exactly one."""
    n = int(rng.integers(1, 9))
    p = rng.uniform(0.5, 8.0, n)
    inp = BilateralInput(p1=p, p2=p.copy(), q1=rng.uniform(0.5, 8.0, n),
                         q2=rng.uniform(0.5, 8.0, n))
    assert mpl_two_period(inp) == 1.0
    assert abs(_panel_lambda2(inp) - 1.0) <= TOL_PANEL


def check_proportionality(rng):
    """Scaling every comparison price by a scales the index by a."""
    inp = random_bilateral(rng, int(rng.integers(1, 9)))
    a = float(rng.uniform(0.2, 5.0))
    base = mpl_two_period(inp)
    scaled = mpl_two_period(BilateralInput(inp.p1, a * inp.p2, inp.q1, inp.q2))
    assert abs(scaled - a * base) <= TOL_CLOSED * abs(a * base)


def check_inverse_proportionality(rng):
    """Scaling every base price by a divides the index by a."""
    inp = random_bilateral(rng, int(rng.integers(1, 9)))
    a = float(rng.uniform(0.2, 5.0))
    base = mpl_two_period(inp)
    scaled = mpl_two_period(BilateralInput(a * inp.p1, inp.p2, inp.q1, inp.q2))
    assert abs(scaled - base / a) <= TOL_CLOSED * abs(base / a)


def check_dimensionality(rng):
    """A common currency rescaling of both price vectors changes nothing."""
    inp = random_bilateral(rng, int(rng.integers(1, 9)))
    a = float(rng.uniform(0.2, 5.0))
    base = mpl_two_period(inp)
    scaled = mpl_two_period(BilateralInput(a * inp.p1, a * inp.p2, inp.q1, inp.q2))
    assert abs(scaled - base) <= TOL_CLOSED * abs(base)


def check_commensurability(rng):
    """Per-item unit changes (p_i -> g_i p_i, q_i -> q_i / g_i) cancel."""
    n = int(rng.integers(1, 9))
    inp = random_bilateral(rng, n)
    g = rng.uniform(0.25, 4.0, n)
    base = mpl_two_period(inp)
    rescaled = BilateralInput(g * inp.p1, g * inp.p2, inp.q1 / g, inp.q2 / g)
    assert abs(mpl_two_period(rescaled) - base) <= TOL_CLOSED * abs(base)
    # same through the panel estimator, where only quantities move
    panel = panel_from_bilateral(inp)
    scaled_panel = panel_from_bilateral(rescaled)
    a = estimate_deflators(panel).indexes[1]
    b = estimate_deflators(scaled_panel).indexes[1]
    assert abs(a - b) <= TOL_PANEL * abs(a)


def check_positivity(rng):
    inp = random_bilateral(rng, int(rng.integers(1, 9)))
    assert mpl_two_period(inp) > 0.0


def check_commodity_reversal(rng):
    """Relabeling items leaves the index bit-identical (compensated sums)."""
    n = int(rng.integers(2, 10))
    inp = random_bilateral(rng, n)
    perm = rng.permutation(n)
    shuffled = BilateralInput(inp.p1[perm], inp.p2[perm],
                              inp.q1[perm], inp.q2[perm])
    assert mpl_two_period(shuffled) == mpl_two_period(inp)


def check_quantity_reversal(rng):
    """Swapping the two quantity vectors with prices fixed is bit-neutral,
    and with values fixed the weight multiset is bit-identical."""
    n = int(rng.integers(1, 9))
    inp = random_bilateral(rng, n)
    swapped = BilateralInput(inp.p1, inp.p2, inp.q2, inp.q1)
    assert mpl_two_period(swapped) == mpl_two_period(inp)
    v1, v2 = rng.uniform(0.5, 8.0, n), rng.uniform(0.5, 8.0, n)
    w_a = convex_weights_from_values(v1, v2, inp.q1, inp.q2)
    w_b = convex_weights_from_values(v1, v2, inp.q2, inp.q1)
    assert np.array_equal(w_a, w_b)


def check_monotonicity(rng):
    """Strict increase in comparison prices under the admissibility window
    (every scale factor exceeds one and min(k)^2 > max(k))."""
    n = int(rng.integers(1, 9))
    inp = random_bilateral(rng, n)
    a = float(rng.uniform(1.05, 1.4))
    hi = a + 0.98 * (a * a - a)
    k = rng.uniform(a, hi, n)
    assert k.min() ** 2 > k.max()
    base = mpl_two_period(inp)
    raised = mpl_two_period(BilateralInput(inp.p1, k * inp.p2, inp.q1, inp.q2))
    assert raised > base


def check_base_reversibility_single_item(rng):
    """N=1: swapping the roles of the two periods inverts the index.

    Power-of-two prices make the identity exact in floats; general prices
    hold it to TOL_CLOSED.
    """
    dy = dyadic_bilateral(rng, 1)
    fwd = mpl_two_period(dy)
    rev = mpl_two_period(BilateralInput(dy.p2, dy.p1, dy.q2, dy.q1))
    assert fwd * rev == 1.0
    inp = random_bilateral(rng, 1)
    fwd = mpl_two_period(inp)
    rev = mpl_two_period(BilateralInput(inp.p2, inp.p1, inp.q2, inp.q1))
    assert abs(fwd * rev - 1.0) <= TOL_CLOSED


def check_transitivity_single_item(rng):
    """N=1: chaining 1->2->3 equals the direct 1->3 comparison."""
    def chain(p, q):
        step12 = mpl_two_period(BilateralInput(p[0], p[1], q[0], q[1]))
        step23 = mpl_two_period(BilateralInput(p[1], p[2], q[1], q[2]))
        direct = mpl_two_period(BilateralInput(p[0], p[2], q[0], q[2]))
        return step12 * step23, direct

    p = [2.0 ** rng.integers(-3, 4, 1).astype(float) for _ in range(3)]
    q = [2.0 ** rng.integers(-3, 4, 1).astype(float) for _ in range(3)]
    chained, direct = chain(p, q)
    assert chained == direct
    p = [rng.uniform(0.5, 8.0, 1) for _ in range(3)]
    q = [rng.uniform(0.5, 8.0, 1) for _ in range(3)]
    chained, direct = chain(p, q)
    assert abs(chained - direct) <= TOL_CLOSED * abs(direct)


ALL_CHECKS = (
    check_strong_identity,
    check_proportionality,
    check_inverse_proportionality,
    check_dimensionality,
    check_commensurability,
    check_positivity,
    check_commodity_reversal,
    check_quantity_reversal,
    check_monotonicity,
    check_base_reversibility_single_item,
    check_transitivity_single_item,
)


def run_suite(seed: int, n_panels: int) -> int:
    """Run every axiom on n_panels independent draws; returns checks run."""
    rng = np.random.default_rng(seed)
    ran = 0
    for _ in range(n_panels):
        for check in ALL_CHECKS:
            check(rng)
            ran += 1
    return ran
