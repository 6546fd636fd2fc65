"""Randomized construction and certified verification of k-chromatic
vertex-critical graphs whose chromatic number survives the deletion of any
r edges."""

from .certify import (
    Certificate,
    check_certificate,
    min_subset_edges,
    verify_construction,
)
from .hypergraph import (
    Graph,
    Hypergraph,
    Matching,
    complement,
    two_section,
)
from .matching import (
    MatchabilityReport,
    SearchBudgetExceeded,
    all_deletions_matchable,
    find_perfect_matching,
)
from .sampling import (
    ConstructionParams,
    derive_params,
    pm_threshold_sweep,
    sample_hypergraph,
    shamir_p,
)
from .sparsity import SparsityVerdict, brute_force_sparsity, check_sparsity, excess

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConstructionParams",
    "Graph",
    "Hypergraph",
    "MatchabilityReport",
    "Matching",
    "SearchBudgetExceeded",
    "SparsityVerdict",
    "all_deletions_matchable",
    "brute_force_sparsity",
    "check_certificate",
    "check_sparsity",
    "complement",
    "derive_params",
    "excess",
    "find_perfect_matching",
    "min_subset_edges",
    "pm_threshold_sweep",
    "sample_hypergraph",
    "shamir_p",
    "two_section",
    "verify_construction",
]
