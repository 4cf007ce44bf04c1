"""Exact combinatorics of finite ultrametric spaces.

Everything is computed over exact rationals: validation and geometry of
ultrametric spaces, the duality with leveled trees, convex-order
enumeration and Ramsey degrees, exhaustive arrow verification, and an
executable model of the countable homogeneous ultrametric space with a
constructive extension algorithm for finite partial order-isometries.
"""

from .errors import (
    AsymmetricMatrix,
    BudgetExceeded,
    DuplicateLabel,
    DuplicatePoint,
    EmptySpace,
    FormatError,
    InternalNonIntegerTau,
    NonConvexOrder,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    NotOrderPreserving,
    NotPartialIsometry,
    OracleFailure,
    SpaceValidationError,
    UltrametricViolation,
    UmrError,
)
from .orders import (
    OrderTypeClass,
    RamseyDegreeReport,
    count_convex_orders,
    enumerate_convex_orders,
    is_order_invariant,
    order_invariant_hull,
    order_profile,
    order_type_partition,
    tau,
)
from .ramsey import (
    DEFAULT_BUDGET,
    ArrowVerdict,
    ChainResult,
    Coloring,
    chain_upper_bound,
    enumerate_copies,
    format_arrow_report,
    order_type_coloring,
    search_witness,
    verify_arrow,
    verify_degree_lower,
)
from .rational import as_fraction, format_rational, parse_rational
from .shapes import (
    ExtremalReport,
    ShapeFinding,
    all_tree_shapes,
    branching_vectors,
    comb_tree,
    extremal_scan,
    is_comb,
    tree_degree,
    uniform_tree,
)
from .spaces import (
    DistanceSet,
    UltrametricSpace,
    ball_partition,
    canonical_convex_order,
    distance_set,
    format_uspace,
    is_convex_order,
    order_labels,
    parse_uspace,
    space_from_distances,
    validate_space,
)
from .trees import (
    LeveledTree,
    canonical_code,
    canonical_tree,
    count_automorphisms,
    count_sibling_orderings,
    format_utree,
    parse_utree,
    space_to_tree,
    tree_to_space,
)
from .urysohn import (
    EQUAL,
    GREATER,
    IDENTITY,
    LESS,
    ZERO_POINT,
    CoordMap,
    HomogeneityReport,
    PiecewiseLinearMap,
    QsAutomorphism,
    QsPoint,
    Translate,
    check_homogeneity,
    extend_isometry,
    format_automorphism,
    format_menu,
    format_qpoint,
    invert_automorphism,
    menu_of,
    parse_automorphism,
    parse_menu,
    parse_qpoint,
    qs_distance,
    qs_lex_compare,
    qs_point,
    random_automorphism,
    random_point,
    stretch_above,
)

__version__ = "0.1.0"
