"""NSGA-II / NSGA-III on OneMinMax benchmarks, with reference-point
geometry verification and a CSV experiment harness."""

from .analysis import (
    AngleReport,
    MinimalPResult,
    RunRecord,
    coverage,
    detect_loss,
    minimal_p_search,
    verify_unique_association,
)
from .dominance import fast_nondominated_sort
from .engine import RunConfig, make_offspring, run, run_collect
from .genome import random_population, uniform_crossover
from .normalization import (
    DegeneratePopulationError,
    NormalizationState,
    normalize,
)
from .problems import make_problem, one_min_max, pareto_front_3omm, three_omm
from .refpoints import ReferencePointSet, generate_reference_points
from .selection import associate, crowding_distance_select, niching_select

__all__ = [
    "AngleReport",
    "DegeneratePopulationError",
    "MinimalPResult",
    "NormalizationState",
    "ReferencePointSet",
    "RunConfig",
    "RunRecord",
    "associate",
    "coverage",
    "crowding_distance_select",
    "detect_loss",
    "fast_nondominated_sort",
    "generate_reference_points",
    "make_offspring",
    "make_problem",
    "minimal_p_search",
    "niching_select",
    "normalize",
    "one_min_max",
    "pareto_front_3omm",
    "random_population",
    "run",
    "run_collect",
    "three_omm",
    "uniform_crossover",
    "verify_unique_association",
]
