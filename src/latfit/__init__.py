"""latfit: reference-free local lattice fitting and defect topology for point clouds.

The model's core (`core_model`, `potentials`) loads with the package.  The
names re-exported from `fitting`, `generators` and `topology` load their
module on first access (PEP 562), so a caller that only reads files, as
`latfit.fileio` does, never compiles the fitting code.
"""

import importlib

from .core_model import (
    AffinePair,
    Box,
    Configuration,
    EnergyBreakdown,
    ModelParams,
    RegularityThresholds,
    is_regular_pair,
    j_lambda,
    local_density,
    low_energy_thresholds,
    pre_energy,
    split_regular_atoms,
)
from .potentials import DerivedConstants, ElasticDensity, derive_constants

__version__ = "0.1.0"

__all__ = [
    "AffinePair", "Box", "Configuration", "EnergyBreakdown", "ModelParams",
    "RegularityThresholds", "is_regular_pair", "j_lambda", "local_density",
    "low_energy_thresholds", "pre_energy", "split_regular_atoms",
    "BranchPoint", "FitResult", "a_init_candidates", "fit_global", "minimize_j_local",
    "tau_init",
    "GeneratorSpec", "GroundTruth", "generate",
    "DerivedConstants", "ElasticDensity", "derive_constants",
    "ChainStep", "LoopResult", "Reparam", "burgers_loop", "chain_drift_bound",
    "chain_product", "chain_refinement_invariance", "compose", "densify_loop",
    "find_reparam",
]

# the home module of each name re-exported on first access
_LAZY = {
    **dict.fromkeys(["BranchPoint", "FitResult", "a_init_candidates", "fit_global",
                     "minimize_j_local", "tau_init"], "fitting"),
    **dict.fromkeys(["GeneratorSpec", "GroundTruth", "generate"], "generators"),
    **dict.fromkeys(["ChainStep", "LoopResult", "Reparam", "burgers_loop",
                     "chain_drift_bound", "chain_product", "chain_refinement_invariance",
                     "compose", "densify_loop", "find_reparam"], "topology"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value     # later lookups no longer come here
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
