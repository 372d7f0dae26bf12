"""Design and verification of multiplexed SBE genotyping assays on universal arrays.

The package models pools of single-base-extension primers hybridized to a
universal probe array, selects subsets of pools whose genotypes remain
decodable when assayed together, partitions large SNP sets across several
arrays, and independently verifies the resulting designs.
"""

__version__ = "0.1.0"

from .dnaseq import complement, reverse_complement, weight, is_degenerate
from .probespace import KmerSpace, CTokenSpace, ExplicitSpace, make_space
from .instance import Primer, Pool, ProblemInstance, build_graph
from .decodability import (
    DesignResult,
    SelectedPool,
    is_strongly_r_decodable,
    verify_design,
)
from .solvers import SolverConfig, solve
from .partition import partition, coverage_curve
from .datasets import RandomSpec, generate_random, load_snp_table
from .oracles import (
    BipartiteGraph,
    brute_force_mim,
    brute_force_max_decodable,
    reduce_matching_to_design,
)

__all__ = [
    "complement",
    "reverse_complement",
    "weight",
    "is_degenerate",
    "KmerSpace",
    "CTokenSpace",
    "ExplicitSpace",
    "make_space",
    "Primer",
    "Pool",
    "ProblemInstance",
    "build_graph",
    "DesignResult",
    "SelectedPool",
    "is_strongly_r_decodable",
    "verify_design",
    "SolverConfig",
    "solve",
    "partition",
    "coverage_curve",
    "RandomSpec",
    "generate_random",
    "load_snp_table",
    "BipartiteGraph",
    "brute_force_mim",
    "brute_force_max_decodable",
    "reduce_matching_to_design",
    "__version__",
]
