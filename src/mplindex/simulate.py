"""Noise-replication harness comparing estimators on a common panel.

Each replication perturbs the value matrix (quantities stay fixed), re-runs
the requested estimators and records each fit's indexes and index_se (NaN
off the base where the fit has no residual dof); a replication fails only
when the fit raises or an index is not a positive normal float
(estimator.checked_indexes, the check every published index passes).
Presence and quantities never change, so what depends on them alone is
done once per run: each estimator is prepared once, before the first draw
(deflator_fitter, dummy_fitter), and no panel is rebuilt per replication.
One draw function (_value_draws) writes every replication's values into
one reused buffer.  Replication r draws from its own child of the root seed
sequence, so its draws do not depend on how many replications run.
Nonpositive perturbed values are redrawn from the same generator;
persistent failure to stay positive aborts the whole run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .dummy import dummy_fitter
from .errors import EstimationError, RedrawExhausted, ValidationError, require_number
from .estimator import IndexFit, checked_indexes, deflator_fitter
from .panel import Panel

SCHEMES = ("additive_on_base", "random_walk")
# name -> callable(panel, config) returning the fit of the panel's presence
# and quantities to a value matrix: values -> IndexFit (see deflator_fitter)
_ESTIMATOR_FUNCS = {
    "mpl": lambda panel, config: deflator_fitter(panel, config.variance_method),
    "tpd": lambda panel, config: dummy_fitter(panel, weighted=False),
    "tpd_weighted": lambda panel, config: dummy_fitter(panel, weighted=True),
}
ESTIMATORS = tuple(_ESTIMATOR_FUNCS)
MAX_REDRAWS = 100


@dataclass(frozen=True)
class SimulationConfig:
    """What to perturb, how often, and which estimators to run.

    noise draws are normal with mean noise_mean and a standard deviation
    drawn once per replication from Uniform(0, noise_sd_max).  k scales the
    reported bands.
    """

    scheme: str = "additive_on_base"
    replications: int = 1000
    noise_mean: float = 0.0
    noise_sd_max: float = 0.0
    seed: int = 0
    k: float = 3.0
    estimators: tuple[str, ...] = ("mpl", "tpd")
    variance_method: str = "full_partition"
    dump_draws: bool = False

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if self.scheme not in SCHEMES:
            raise ValidationError(f"scheme must be one of {SCHEMES}")
        for name in ("replications", "seed"):
            require_number(name, getattr(self, name), numbers.Integral)
        for name in ("noise_mean", "noise_sd_max", "k"):
            require_number(name, getattr(self, name))
        if self.replications < 1:
            raise ValidationError("replications must be >= 1")
        if not math.isfinite(self.noise_mean):
            raise ValidationError("noise_mean must be finite")
        if not (math.isfinite(self.noise_sd_max) and self.noise_sd_max >= 0):
            raise ValidationError("noise_sd_max must be finite and >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        if not self.estimators:
            raise ValidationError("at least one estimator is required")
        for k, name in enumerate(self.estimators):
            if name not in ESTIMATORS:
                raise ValidationError(f"unknown estimator {name!r}")
            # a repeated name would pool each replication's fit twice
            if name in self.estimators[:k]:
                raise ValidationError(f"estimator {name!r} is listed twice")
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValidationError(f"k must be finite and positive, got {self.k}")


@dataclass(frozen=True, eq=False)
class EstimatorSummary:
    """Replication averages and bands for one estimator.

    emp_sd is the spread of the fitted replications' indexes: NaN off the
    base, with the empirical bands, when fewer than two were fitted.  Each
    unit's figures are averaged and spread on a power-of-two scaling
    (_scaled_columns), and a band past the float range is ±inf.
    """

    mean_index: np.ndarray
    emp_sd: np.ndarray
    mean_se: np.ndarray
    lo_emp: np.ndarray
    hi_emp: np.ndarray
    lo_model: np.ndarray
    hi_model: np.ndarray
    failures: int
    failed_replications: tuple[int, ...]
    draws: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SimulationReport:
    units: tuple[str, ...]
    config: SimulationConfig
    summaries: dict = field(default_factory=dict)


def _draw_positive(rng, base: np.ndarray, mean: float, sd: float) -> np.ndarray:
    """base + normal noise, redrawing nonpositive entries up to MAX_REDRAWS."""
    out = base + rng.normal(mean, sd, size=base.shape)
    for _ in range(MAX_REDRAWS):
        bad = out <= 0
        if not bad.any():
            return out
        out[bad] = base[bad] + rng.normal(mean, sd, size=int(bad.sum()))
    raise RedrawExhausted(
        f"noise kept values nonpositive after {MAX_REDRAWS} redraws; "
        "reduce noise_mean/noise_sd_max"
    )


def _value_draws(panel: Panel, config: SimulationConfig):
    """Prepare the replications' value draws; returns draw(seed) -> values.

    Every replication's values go to one buffer, which draw returns; the
    base unit's column and the absent cells keep the panel's values.  The
    generator on seed first draws the replication's noise sd.  Under
    additive_on_base the present cells off the base, in unit-major order,
    are then drawn off the panel's values in one call; under random_walk
    each unit in turn steps off the last drawn value of each item, or off
    its own value where the item was absent so far.  Nonpositive draws are
    redrawn from the same generator (_draw_positive).  draw raises what
    Panel raises for drawn values that are not finite, as building the
    replication's panel would.
    """
    if config.scheme == "random_walk" and panel.base_unit != 0:
        raise ValidationError("random_walk scheme requires the base unit first")
    units, items = np.nonzero(panel.present.T)
    off_base = units != panel.base_unit
    cells = items[off_base] * panel.n_units + units[off_base]
    start = panel.values.take(cells)
    rows = [np.flatnonzero(panel.present[:, t]) for t in range(panel.n_units)]
    values = panel.values.copy()

    def draw(seed) -> np.ndarray:
        rng = np.random.default_rng(seed)
        sd = rng.uniform(0.0, config.noise_sd_max)
        if config.scheme == "additive_on_base":
            values.ravel()[cells] = _draw_positive(rng, start, config.noise_mean, sd)
        else:  # random_walk
            walk = panel.values[:, 0].copy()
            for t in range(1, panel.n_units):
                at = rows[t]
                step = np.where(walk[at] <= 0, panel.values[at, t], walk[at])
                values[at, t] = walk[at] = _draw_positive(rng, step, config.noise_mean, sd)
        if not np.isfinite(values).all():
            replace(panel, values=values)
        return values

    return draw


def _scaled_columns(arr: np.ndarray):
    """arr with each column times 2^-k, k the binary exponent of the
    column's largest magnitude, and k per column.

    A column's mean and sd taken on the scaled figures and multiplied back
    by 2^k (ldexp) are numpy's own wherever those neither over- nor
    underflow, since scaling by a power of two is exact; squared deviations
    of figures near 1e200 or 1e-160 would.
    """
    exp = np.frexp(np.abs(arr).max(axis=0))[1]
    return np.ldexp(arr, -exp), exp


def simulate(panel: Panel, config: SimulationConfig) -> SimulationReport:
    """Run the replication study; failed replications are excluded and counted.

    Each estimator is prepared once, before the first draw, and fits every
    replication's values.  A preparation reads only presence and quantities,
    which no replication changes, so its error stops the run before any
    draw; after that, errors surface in the replication and the order in
    which per-replication fits of freshly built panels would raise them.
    """
    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    t = panel.n_units
    draw = _value_draws(panel, config)
    fitters = {name: _ESTIMATOR_FUNCS[name](panel, config) for name in config.estimators}
    draws = {name: [] for name in config.estimators}
    ses = {name: [] for name in config.estimators}
    failed = {name: [] for name in config.estimators}

    for r in range(config.replications):
        values = draw(children[r])
        for name, fitter in fitters.items():
            try:
                fit: IndexFit = fitter(values)
                draws[name].append(checked_indexes(fit))
            except EstimationError:
                failed[name].append(r)
                continue
            ses[name].append(fit.index_se)

    summaries = {}
    for name in config.estimators:
        if not draws[name]:
            raise EstimationError(f"estimator {name!r} failed in every replication")
        arr = np.vstack(draws[name])
        scaled, exp = _scaled_columns(arr)
        mean_index = np.ldexp(scaled.mean(axis=0), exp)
        if arr.shape[0] > 1:
            emp_sd = np.ldexp(scaled.std(axis=0, ddof=1), exp)
        else:
            # one fit measures no spread, but the base index is 1 in every fit
            emp_sd = np.full(t, np.nan)
            emp_sd[panel.base_unit] = 0.0
        scaled, exp = _scaled_columns(np.vstack(ses[name]))
        mean_se = np.ldexp(scaled.mean(axis=0), exp)
        # a band past the float range is inf, which a report writes as null
        with np.errstate(over="ignore"):
            summaries[name] = EstimatorSummary(
                mean_index=mean_index,
                emp_sd=emp_sd,
                mean_se=mean_se,
                lo_emp=mean_index - config.k * emp_sd,
                hi_emp=mean_index + config.k * emp_sd,
                lo_model=mean_index - config.k * mean_se,
                hi_model=mean_index + config.k * mean_se,
                failures=len(failed[name]),
                failed_replications=tuple(failed[name]),
                draws=arr if config.dump_draws else None,
            )
    return SimulationReport(units=panel.units, config=config, summaries=summaries)
