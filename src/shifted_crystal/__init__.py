"""Shifted tableaux, jeu de taquin, crystal operators, and the cactus action."""

from .core import (
    EMPTY_PARTITION,
    EMPTY_SHAPE,
    EMPTY_TABLEAU,
    InvariantError,
    ShiftedTableau,
    SkewShape,
    StrictPartition,
    Word,
    canonicalize,
    enumerate_tableaux,
    letter,
    strict_partitions_inside,
    strict_partitions_of,
)
from .jdt import (
    SlideRecord,
    inner_slide,
    is_lrs,
    knuth_neighbors,
    outer_slide,
    rectify,
    replay,
    unrectify,
    yamanouchi,
)
from .involutions import (
    IntervalPermutation,
    eta,
    eta_interval,
    evacuate,
    reversal,
    star,
)
from .operators import (
    Lengths,
    StringDescriptor,
    apply_program,
    classify_string,
    is_highest,
    is_lowest,
    lengths,
    parse_operator_program,
    primed_lower,
    primed_lower_tableau,
    primed_raise,
    primed_raise_tableau,
    sigma,
    unprimed_lower,
    unprimed_raise,
)
from .graph import (
    Component,
    CrystalGraph,
    build_graph,
    cactus_act,
    cactus_generators,
    export_dot,
    export_json,
    graph_from_json,
    interval_subgraph,
    lrs_count,
    lrs_weight_counts,
    verify_cactus,
)

__version__ = "0.1.0"
