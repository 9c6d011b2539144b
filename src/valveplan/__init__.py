"""Exact anytime optimizer for isolation valve placement in water networks."""

from .network import (
    MLS,
    InstanceError,
    Network,
    ParseError,
    PlanarityError,
    ValidationError,
    compute_faces,
    format_flow,
    load_instance,
    parse_network,
    parse_placement,
    serialize_network,
)
from .isolation import (
    INFEASIBLE_UD,
    WorstCase,
    bridge_lower_bound,
    ud_by_component_deletion,
    worst_case_ud,
)
from .solver import (
    BudgetError,
    InfeasibleBudget,
    Search,
    SearchStats,
    Solution,
    SolverOptions,
    required_source_slots,
    solve,
    symmetry_forced_slots,
)
from .oracle import EnumerationCapExceeded, OracleResult, brute_force
from .pareto import ParetoPoint, SweepResult, sweep
from .generate import random_document, random_instance
from . import instances

__version__ = "0.1.0"
