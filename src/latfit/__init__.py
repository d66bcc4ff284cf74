"""latfit: reference-free local lattice fitting and defect topology for point clouds."""

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
from .fitting import (
    BranchPoint,
    FitResult,
    a_init_candidates,
    fit_global,
    minimize_j_local,
    tau_init,
)
from .generators import GeneratorSpec, GroundTruth, generate
from .potentials import DerivedConstants, ElasticDensity, derive_constants
from .topology import (
    ChainStep,
    LoopResult,
    Reparam,
    burgers_loop,
    chain_drift_bound,
    chain_product,
    chain_refinement_invariance,
    compose,
    densify_loop,
    find_reparam,
)

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
