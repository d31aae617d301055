"""forestcalc: spanning rooted forest matrices of weighted digraphs.

Computes the forest matrices J(tau) and Jbar of the column Laplacian and
the paper's k-arc forest recurrence, cross-checks everything against
exhaustive enumeration, and applies the matrices to reachability analysis,
source-knot detection, vertex proximity, Markov-chain limits, and ranking.
"""

from .digraph import (
    Arc,
    Condensation,
    Digraph,
    EdgeListError,
    SourceKnotSet,
    load_digraph,
    mediates,
    reachability_bfs,
    reverse,
    source_knots,
    standard_numeration,
    strong_components,
)
from .laplacian import DegreeVector, LaplacianMatrix, column_laplacian, degrees, row_laplacian
from .calculus import (
    ForestMatrixStack,
    MaxForestMatrix,
    ParametricForestMatrix,
    RecurrenceBreakdownError,
    dense_forest_matrix,
    forest_digraph_laplacians,
    forest_dimension,
    forest_matrix_from_powers,
    forest_recurrence,
    forest_stack,
    in_forest_stack,
    max_forest_matrix,
    parametric_matrices,
)
from .oracle import (
    ForestSet,
    SpanningForest,
    enumerate_out_forests,
    extend_path_to_forest,
    forest_matrix,
)
from .structure import (
    TopReachabilityMatrix,
    reachability_from_parametric,
    reachability_from_top_layers,
    sign_pattern,
    source_knots_from_matrix,
    top_reachability,
    top_reachability_by_threshold,
)
from .accessibility import (
    ConditionReport,
    ProximityMatrix,
    check_condition,
    convexity_path,
    in_accessibility,
    out_accessibility,
)
from .markov import (
    CesaroLimit,
    DisseminationEstimate,
    MarkovChain,
    cesaro_limit,
    dissemination_estimate,
    inverse_corresponding_chain,
    uniform_start_distribution,
    verify_tree_theorem,
)
from .ranking import (
    ScoreBasis,
    ScoreVector,
    daniels_scores_strong,
    generalized_borda,
    mean_score,
    rank_order,
    score_basis,
)
from .verification import verify_suite

__version__ = "0.1.0"
