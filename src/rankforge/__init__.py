"""rankforge: exact desk-scale computations for multilinear forms over prime fields."""

__version__ = "0.1.0"

from .errors import DomainSizeError, LemmaViolationError
from .field import PrimeField, is_prime
from .forms import (
    MultiaffineMap,
    MultilinearMap,
    Shape,
    as_multiaffine,
    curry_last,
    map_from_json,
    map_to_json,
    multilinear_parts,
    random_multiaffine,
    random_multilinear,
    slice_map,
    value_table,
)
from .analytic import (
    BiasReport,
    ValueHistogram,
    arank,
    bias,
    bias_homog_check,
    bias_report,
    box_norm,
    exact_bias,
    gcs_check,
    value_histogram,
)
from .partition import (
    PartitionDecomposition,
    PartitionSummand,
    RankReport,
    bilinear_strong_decomposition,
    flatten,
    is_partition_rank_le1,
    lovett_lower_bound,
    prank_exact,
)
from .varieties import (
    ConnectivityReport,
    LayerFamily,
    Variety,
    approximation_error,
    bohr_external,
    bohr_external_sim,
    connectivity,
    density,
    density_bound_check,
    find_common_nonvanisher,
    multilinearize_variety,
    nonzero_conn_check,
    solvability_check,
)
from .convolutions import (
    Arrangement,
    DomainTable,
    arrangement_identity_check,
    conv_chain,
    conv_dir,
    count_arrangements,
    cs_chain_check,
    enumerate_arrangements,
    find_heavy_point,
    indicator_table,
    position_count_check,
    sample_arrangement_in_set,
    vanishing_propagation_check,
    zero_set_indicator,
)
from .polarization import (
    PolyDense,
    SymmetricForm,
    cs_amplification_check,
    diagonal_poly,
    polarize,
    substitute_decomposition,
)
