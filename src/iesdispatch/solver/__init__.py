"""Exact MILP solving: reference simplex, branch-and-bound, backend registry."""

from .simplex import LpSolution, NumericalFailure, solve_lp
from .branch_bound import MilpOptions, MilpSolution, solve_milp
from .backends import BACKENDS, BackendUnavailableError, get_backend

__all__ = [
    "LpSolution",
    "NumericalFailure",
    "solve_lp",
    "MilpOptions",
    "MilpSolution",
    "solve_milp",
    "BACKENDS",
    "BackendUnavailableError",
    "get_backend",
]
