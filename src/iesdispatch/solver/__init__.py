"""MILP solving: the embedded backend and the backend registry.

The embedded backend (`solve_milp`) solves an LP on its HiGHS core and hands
a model with binaries to HiGHS branch-and-cut; inside `lp_chain` its LP
solves share one core.
"""

from .branch_bound import LpSolution, MilpOptions, MilpSolution, NumericalFailure, lp_chain, solve_milp
from .backends import BACKENDS, BackendUnavailableError, get_backend

__all__ = [
    "LpSolution",
    "NumericalFailure",
    "MilpOptions",
    "MilpSolution",
    "lp_chain",
    "solve_milp",
    "BACKENDS",
    "BackendUnavailableError",
    "get_backend",
]
