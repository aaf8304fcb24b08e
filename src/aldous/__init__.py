"""Spectra of the marble-swap operator on S_n irreducibles, and the partial
order on representations those spectra induce."""

from .graphs import (
    WeightedGraph,
    complete_graph,
    cycle_graph,
    graph_family,
    matching_graph,
    path_graph,
    quasi_complete_graph,
    random_graph,
    star_graph,
    weighted_star_graph,
)
from .partitions import (
    Box,
    Partition,
    conjugate,
    content_sum,
    corners,
    dominates,
    in_row_class,
    num_standard_tableaux,
    parse_partition,
    partitions_of,
)
from .spectral import (
    complete_graph_eigenvalue,
    irrep_spectra,
    laplacian_gap,
    nested_star_extremes,
    nested_star_lambda1_scaled,
    quasi_complete_spectrum,
    remark_weights,
    spectra,
    spectrum,
)
from .symrep import (
    delta_matrices,
    delta_matrix,
    regular_delta,
    rep_adjacent,
    rep_transposition,
)
from .characters import (
    ClassFunction,
    character_from_rep,
    mn_hook_character,
    verify_hook_wedge_iso,
    wedge_character,
)
from .order import (
    RelationEntry,
    RelationLedger,
    check_matching_bound,
    check_onestar_bounds,
    check_pair,
    export_dot,
    scan,
    seed_known,
)
from .game import game_vs_spectra, game_winner

__version__ = "0.1.0"
