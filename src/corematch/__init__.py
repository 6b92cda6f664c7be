"""Exact-arithmetic solver for many-to-one assignment markets.

Firms hire up to their capacity, workers take one job, and every pairwise
surplus is shared through a salary. The package computes optimal matchings,
the core and the competitive salary polytope, all extreme core allocations,
classical cooperative solutions, and the mirrored buyer-seller model, all in
exact rational arithmetic.
"""

__version__ = "0.1.0"

from ._kernels import implementation as kernel_implementation
from .core import (
    Allocation,
    CoreConstraint,
    CoreConstraintSystem,
    constant_decrease,
    core_constraints,
    core_violation,
    firm_payoffs,
    is_competitive_equilibrium,
    is_core_allocation,
    is_in_worker_core,
    is_maximum,
    is_minimum,
    market_core_system,
    max_competitive_salaries,
    max_valid_decrease,
    min_competitive_salaries,
    salary_bounds,
)
from .errors import (
    CorematchError,
    LimitExceededError,
    NotBalancedError,
    NotDominantDiagonalError,
    NotImputationError,
    NotInCoreError,
    NotOptimalError,
    UndefinedSolutionError,
)
from .game import (
    GameTable,
    build_game,
    dual_value,
    essential_candidates,
    essential_family,
    lemaral_vector,
    marginal_vector,
)
from .kaneko import (
    BuyerMarket,
    buyer_core_constraints,
    ce_constraints,
    ce_equals_core,
    ce_prices,
    ce_vertices,
    extended_tight_digraph,
    optimal_assignment,
    seller_payoffs,
)
from .market import (
    BalancedMarket,
    Market,
    RawMarket,
    balance,
    restrict,
    surplus_matrix,
)
from .matching import (
    Matching,
    MatchingResult,
    all_optimal_matchings,
    coalition_value,
    optimal_matching,
)
from .maxmin import (
    ExtendedOrder,
    ExtremePoint,
    ExtremeSet,
    enumerate_extremes,
    maxmin_table,
    witnesses_for,
)
from .solutions import (
    DominantDiagonalCheck,
    fair_division,
    has_dominant_diagonal,
    is_convex_market,
    is_in_kernel,
    kernel_core_test,
    max_surplus,
    nucleolus,
    shapley,
    side_optimal_allocations,
    tau_value,
)
from .tight_digraph import (
    TightDigraph,
    build_tight_digraph,
    is_extreme,
    to_dot,
)
