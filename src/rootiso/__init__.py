"""Exact real-root isolation for integer polynomials.

The solver bisects (-1, 1) with Descartes' rule of signs over exact
dyadic arithmetic, extends to the whole real line through x -> 1/x, and
records the full subdivision tree.  Companion modules measure condition
numbers with certified brackets, bound and count complex roots near the
interval, sample random polynomial ensembles, and drive reproducible
Monte Carlo experiments over all of it.
"""

from .condition import (
    ConditionBracket,
    UnboundedConditionError,
    global_condition_bracket,
    local_condition,
    separation_epsilon,
    separation_lower_bound,
)
from .dyadic import Dyadic, DyadicInterval
from .models import (
    RandomModel,
    exact_bitsize_model,
    signs_model,
    smoothed_model,
    support_model,
    uniform_model,
)
from .polynomial import (
    IntPolynomial,
    ZeroPolynomialError,
    mobius_test_poly,
    square_free_part,
    variations_in_interval,
)
from .regions import (
    ComplexRootSet,
    DiskCover,
    NoConvergenceError,
    ObreshkoffDiscs,
    RootCountRange,
    count_roots_in_cover,
    cover_root_count_bound,
    disk_cover,
    eps_real_separation,
    numeric_roots,
    obreshkoff_discs,
)
from .solver import (
    ExactRoot,
    IsolationResult,
    RootInterval,
    SubdivisionTrace,
    isolate_all,
    isolate_unit,
)

__version__ = "0.1.0"

__all__ = [
    "ComplexRootSet",
    "ConditionBracket",
    "DiskCover",
    "Dyadic",
    "DyadicInterval",
    "ExactRoot",
    "IntPolynomial",
    "IsolationResult",
    "NoConvergenceError",
    "ObreshkoffDiscs",
    "RandomModel",
    "RootCountRange",
    "RootInterval",
    "SubdivisionTrace",
    "UnboundedConditionError",
    "ZeroPolynomialError",
    "count_roots_in_cover",
    "cover_root_count_bound",
    "disk_cover",
    "eps_real_separation",
    "exact_bitsize_model",
    "global_condition_bracket",
    "isolate_all",
    "isolate_unit",
    "local_condition",
    "mobius_test_poly",
    "numeric_roots",
    "obreshkoff_discs",
    "separation_epsilon",
    "separation_lower_bound",
    "signs_model",
    "smoothed_model",
    "square_free_part",
    "support_model",
    "uniform_model",
    "variations_in_interval",
]
