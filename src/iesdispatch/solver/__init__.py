"""MILP solving: the embedded backend and the backend registry.

The embedded backend (`solve_milp`) solves an LP on its HiGHS core and hands
a model with binaries to HiGHS branch-and-cut; the LP solves of one model
share one core, kept beside the model, which loads the model's arrays once
and restarts hot after an optimal solve.
"""

from .branch_bound import MilpOptions, MilpSolution, NumericalFailure, solve_milp
from .backends import BACKENDS, BackendUnavailableError, get_backend

__all__ = [
    "NumericalFailure",
    "MilpOptions",
    "MilpSolution",
    "solve_milp",
    "BACKENDS",
    "BackendUnavailableError",
    "get_backend",
]
