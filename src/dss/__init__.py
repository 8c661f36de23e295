"""Cost-aware datastore selection under approximate membership indicators.

The package answers one question end to end: given several datastores that
might hold an item, each signalling through a Bloom-style indicator that can
false-positive, which of them should a client access to minimize expected
cost? It provides the expected-cost model, closed forms for identical
stores, five heterogeneous selection strategies with provable guarantees,
the indicator and LRU store building blocks, and a trace-driven simulator
over network topologies.
"""

from .cbf import CountingBloomFilter, FilterBank, expected_fpr, size_for_target_fpr
from .core import (
    RHO_MAX,
    RHO_MIN,
    CostBreakdown,
    DatastoreProfile,
    InvariantError,
    SelectionContext,
    clamp_mis_ratio,
    expected_cost,
    misindication_ratio,
    positive_prob,
)
from .datastore import Datastore, RhoEstimator
from .homogeneous import (
    HomogeneousParams,
    SweepPoint,
    cost_homo,
    cpi_cost,
    epi_cost,
    fpo_access_count,
    fpo_cost,
    homogeneous_sweep,
    no_indicator_cost,
    nx_distribution,
    perfect_indicator_cost,
)
from .knapsack import (
    KnapsackInstance,
    KnapsackItem,
    log_hit_weight,
    solve_exact,
    solve_exact_all_budgets,
    solve_greedy2,
)
from .sim import (
    SimConfig,
    SimMetrics,
    designated_stores,
    markdown_summary,
    metrics_csv,
    run,
    run_grid,
    run_with_baseline,
)
from .strategies import (
    PgmCandidate,
    PotentialState,
    merge_candidate_lists,
    phi,
    potential_state,
    select_cpi,
    select_dsalg_knap,
    select_dsalg_pp,
    select_epi,
    select_exhaustive,
    select_pgm,
    select_pot,
)
from .topology import (
    Edge,
    Topology,
    cost_matrix,
    default_topology,
    generate_synthetic_topology,
    load_topology,
    min_hop_max_bottleneck,
    save_topology,
)
from .workload import load_trace, save_trace, zipf_trace

__version__ = "0.1.0"

__all__ = [
    "CountingBloomFilter",
    "FilterBank",
    "expected_fpr",
    "size_for_target_fpr",
    "RHO_MAX",
    "RHO_MIN",
    "CostBreakdown",
    "DatastoreProfile",
    "InvariantError",
    "SelectionContext",
    "clamp_mis_ratio",
    "expected_cost",
    "misindication_ratio",
    "positive_prob",
    "Datastore",
    "RhoEstimator",
    "HomogeneousParams",
    "SweepPoint",
    "cost_homo",
    "cpi_cost",
    "epi_cost",
    "fpo_access_count",
    "fpo_cost",
    "homogeneous_sweep",
    "no_indicator_cost",
    "nx_distribution",
    "perfect_indicator_cost",
    "KnapsackInstance",
    "KnapsackItem",
    "log_hit_weight",
    "solve_exact",
    "solve_exact_all_budgets",
    "solve_greedy2",
    "SimConfig",
    "SimMetrics",
    "designated_stores",
    "markdown_summary",
    "metrics_csv",
    "run",
    "run_grid",
    "run_with_baseline",
    "PgmCandidate",
    "PotentialState",
    "merge_candidate_lists",
    "phi",
    "potential_state",
    "select_cpi",
    "select_dsalg_knap",
    "select_dsalg_pp",
    "select_epi",
    "select_exhaustive",
    "select_pgm",
    "select_pot",
    "Edge",
    "Topology",
    "cost_matrix",
    "default_topology",
    "generate_synthetic_topology",
    "load_topology",
    "min_hop_max_bottleneck",
    "save_topology",
    "zipf_trace",
    "load_trace",
    "save_trace",
    "__version__",
]
