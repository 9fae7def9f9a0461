"""Certifying 3-connectivity toolkit.

Test graphs for 3-connectedness with a construction-sequence certificate
or a small-separator witness, verify certificates independently, and
convert certificates between representations.  Verification is linear,
O(n + m), on every graph.
"""

from .graph import (
    GraphUsageError,
    MultiGraph,
    ParseError,
    parse_graph,
    serialize_graph,
    simplify,
)
from .k4finder import Witness, find_k4_subdivision
from .oracle import gen_3_connected, is_3_connected_brute
from .sequencer import CertifyResult, InputError, PathCertificate, certify
from .sparsify import sparsify3
from .subdivision import (
    ExpandStep,
    PathStep,
    PathRejected,
    StructureError,
    Subdivision,
    build_subdivision,
)
from .transforms import (
    ContractionSequence,
    EdgeRep,
    OpA,
    OpB,
    OpC,
    OpD,
    ReplayError,
    TransformError,
    edge_to_path,
    from_basic,
    path_to_edge,
    replay_edge_rep,
    to_basic,
    to_contractions,
)
from .verifier import VerifyResult, verify_certificate, verify_witness

__version__ = "0.1.0"

__all__ = [
    "CertifyResult",
    "ContractionSequence",
    "EdgeRep",
    "ExpandStep",
    "GraphUsageError",
    "InputError",
    "MultiGraph",
    "OpA",
    "OpB",
    "OpC",
    "OpD",
    "ParseError",
    "PathCertificate",
    "PathRejected",
    "PathStep",
    "ReplayError",
    "StructureError",
    "Subdivision",
    "TransformError",
    "VerifyResult",
    "Witness",
    "build_subdivision",
    "certify",
    "edge_to_path",
    "find_k4_subdivision",
    "from_basic",
    "gen_3_connected",
    "is_3_connected_brute",
    "parse_graph",
    "path_to_edge",
    "replay_edge_rep",
    "serialize_graph",
    "simplify",
    "sparsify3",
    "to_basic",
    "to_contractions",
    "verify_certificate",
    "verify_witness",
]
