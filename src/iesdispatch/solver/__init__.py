"""MILP solving: the embedded backend and the backend registry.

The embedded backend (`solve_milp`) solves an LP on its HiGHS core and hands
a model with binaries to HiGHS branch-and-cut; LP solves handed one
`LpChain` share one core, which restarts hot after an optimal solve.
"""

from .branch_bound import LpChain, LpSolution, MilpOptions, MilpSolution, NumericalFailure, solve_milp
from .backends import BACKENDS, BackendUnavailableError, get_backend

__all__ = [
    "LpChain",
    "LpSolution",
    "NumericalFailure",
    "MilpOptions",
    "MilpSolution",
    "solve_milp",
    "BACKENDS",
    "BackendUnavailableError",
    "get_backend",
]
