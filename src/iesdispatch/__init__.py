"""Low-carbon optimal dispatch for an electricity-gas-heat energy system.

Library layout:

- model_core: case data model, JSON ingestion, validation, the bundled
  scenarios and the case arithmetic the build and verification share
- demand_response: load decomposition, shift/substitute blocks, satisfaction
- carbon: quota/actual emission accounting, tiered trading cost
- milp_ir: solver-agnostic MILP representation and linearization helpers
- solver: the embedded backend (an LP on a HiGHS core, HiGHS branch-and-cut
  for gated rounds) and the scipy-milp and external backends
- verify: independent verification of a schedule against its case
- dispatch: scenario assembly, solving, extraction, sweeps
- cli: command-line entry points
"""

__version__ = "0.1.0"
