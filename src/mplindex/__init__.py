"""Deflator-based multi-period/multilateral price indexes from value/quantity panels."""

from .algebra import GramBlocks, gram_blocks
from .bilateral import (
    BilateralInput,
    bilateral_from_panel,
    classical_index,
    mpl_two_period,
)
from .dummy import DummyFit, fit_dummy_index
from .errors import (
    BasketViolation,
    DuplicateObservation,
    EmptyBasket,
    EstimationError,
    FormatError,
    InconsistentCell,
    InvalidDimension,
    MplIndexError,
    RedrawExhausted,
    SingularSystem,
    UnidentifiedModel,
    ValidationError,
)
from .estimator import (
    DeflatorEstimate,
    IndexFit,
    IndexSeries,
    estimate_deflators,
    to_index_series,
)
from .panel import (
    BasketReport,
    PairOverlaps,
    Panel,
    build_reference_basket,
    implied_prices,
    load_panel,
    presence_components,
)
from .simulate import (
    EstimatorSummary,
    SimulationConfig,
    SimulationReport,
    simulate,
)
from .updating import update_multilateral, update_multiperiod

__version__ = "0.1.0"

__all__ = [
    "BasketReport",
    "BasketViolation",
    "BilateralInput",
    "DeflatorEstimate",
    "DummyFit",
    "DuplicateObservation",
    "EmptyBasket",
    "EstimationError",
    "EstimatorSummary",
    "FormatError",
    "GramBlocks",
    "InconsistentCell",
    "IndexFit",
    "IndexSeries",
    "InvalidDimension",
    "MplIndexError",
    "PairOverlaps",
    "Panel",
    "RedrawExhausted",
    "SimulationConfig",
    "SimulationReport",
    "SingularSystem",
    "UnidentifiedModel",
    "ValidationError",
    "bilateral_from_panel",
    "build_reference_basket",
    "classical_index",
    "estimate_deflators",
    "fit_dummy_index",
    "gram_blocks",
    "implied_prices",
    "load_panel",
    "mpl_two_period",
    "presence_components",
    "simulate",
    "to_index_series",
    "update_multilateral",
    "update_multiperiod",
]
