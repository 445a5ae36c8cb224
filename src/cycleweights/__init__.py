"""Verification and exploration toolkit for squared-distance cycle weights.

Edge weights on a complete graph over points in the plane or 3-space
are *squared* Euclidean distances.  The package checks Hamiltonian cycle
weights against their sharp spectral interval on 3 to 10 points, the
four-point midpoint relation behind the 4-point bound, the five-point
midpoint iteration and its exact rational shadow sequence, and searches
for extremal ratios.
"""

from .bounds import (
    BoundReport,
    CycleRow,
    DualityReport,
    DualityRow,
    check_bounds,
    check_k4_bounds,
    check_k5_bounds,
    duality_check,
    fuzz,
    spectral_interval,
)
from .checks import (
    DEGENERATE,
    HOLDS,
    HOLDS_WITH_EQUALITY,
    REL_TOL_DERIVED,
    REL_TOL_DIRECT,
    VIOLATED,
    relative_residual,
)
from .cycles import (
    Cycle,
    canonicalize,
    complement_cycle,
    complement_weight,
    cycle_weight,
    enumerate_cycles,
    total_weight,
)
from .errors import CycleWeightsError, DegenerateError, UsageError
from .extremal import (
    MAXIMIZE,
    MINIMIZE,
    ConjectureRow,
    OptimizationResult,
    conjecture_table,
    optimize,
    ratio,
)
from .geometry import (
    Configuration,
    FLOAT,
    RATIONAL,
    format_points,
    midpoint,
    normalize,
    parse_points,
    pairwise_weight,
    random_config,
    regular_polygon,
    squared_distance,
)
from .pentagon import (
    IterationState,
    Trace,
    init_state,
    quadruple_decomposition,
    step,
    trace,
)
from .prng import SplitMix64, mix64
from .quadrilateral import (
    IdentityFuzzReport,
    IdentityReport,
    IdentityTerms,
    QuadLabeling,
    fuzz_identity,
    identity_terms,
    midpoint_parallelogram_relations,
    midsegment_relations,
    verify_identity,
)
from .sequences import (
    BOUND_LIMIT,
    RATIO_LIMIT,
    SequencePropertyReport,
    SequenceTable,
    bound_value,
    check_sequence_properties,
    closed_form_term,
    representation_residual,
    sequence_table,
)

__version__ = "0.1.0"
