"""MILP solving: the embedded backend, the backend registry, the reference simplex.

The embedded backend (`solve_milp`) solves an LP on its HiGHS core and hands
a model with binaries to HiGHS branch-and-cut.  The reference simplex
(`solve_lp`) is a test reference: no other module of the package imports it.
"""

from .simplex import solve_lp
from .branch_bound import LpSolution, MilpOptions, MilpSolution, NumericalFailure, solve_milp
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
