"""Dynamic shortest-paths toolkit for unweighted graphs.

Algebraic core: a dynamic truncated-polynomial matrix inverse whose
entry min-degrees encode hop distances, with paths read by walking one
inverse column towards the target.  On top of it: exact and approximate
fully dynamic APSP, combinatorial and algebraic spanners, a dynamic
Steiner tree, and hard-instance generators with a replay harness.
"""

from .apsp import ApproxApsp, HittingSetApsp, StitchFailure
from .gadgets import (
    BfsProvider,
    GadgetScript,
    HarnessReport,
    OuMvInstance,
    ParamDomain,
    gen_kcycle,
    gen_oumv_decremental,
    gen_oumv_fully,
    gen_oumv_incremental,
    harness_run,
    kcycle_exists,
)
from .graph import (
    AddTerminal,
    DeleteEdge,
    DistQuery,
    DynamicGraph,
    IllegalUpdate,
    InsertEdge,
    PathQuery,
    PhaseMark,
    RemoveTerminal,
    UpdateScript,
    all_pairs_dist,
    apply_update,
    bfs_dist,
    bfs_dist_bounded,
    bfs_path,
    graph_of,
    parse_script,
    serialize_script,
    validate_path,
)
from .estree import DECREMENTAL, INCREMENTAL, EsTree, ModeViolation
from .inverse import DEFAULT_KAPPA, InverseState
from .polymat import EncodedAdjacency, encode
from .reporter import BEYOND, NoWitnessFound, PathReporter
from .ring import DEFAULT_PRIME, FieldParams, poly_inv
from .spanner_alg import AlgSpannerState
from .spanner_comb import RebuildSpanner, SpannerState, sp_rebuild_update
from .steiner import Disconnected, SteinerState, SteinerTree, TerminalStateError

__version__ = "0.1.0"
