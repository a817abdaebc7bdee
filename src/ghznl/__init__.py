"""Strongest-nonlocality certification for tripartite GHZ-like state sets."""

from .certifier import CertReport, Verdict, certify, certify_via_graphs, check_hypotheses
from .constructions import build, c333, c345, c444_weight4, even_d, odd_d
from .graphs import (
    PartitionGraph,
    build_graph,
    build_path_graph,
    connected_components,
    to_dot,
)
from .oracle import (
    ConstraintSystem,
    NullspaceResult,
    ResourceGuardError,
    build_constraints,
    build_systems,
    nullspace,
    oracle_all,
)
from .state_model import (
    GhzTuple,
    Ket,
    Partition,
    StateSet,
    StateSetFormatError,
    StateVector,
    SystemDims,
    check_genuine_entanglement,
    check_mutual_orthogonality,
    check_plane_containing,
    check_special_set,
    expand_set,
    expand_tuple,
    parse_state_set,
    write_state_set,
)

__version__ = "0.1.0"
