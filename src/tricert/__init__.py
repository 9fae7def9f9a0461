"""Certifying 3-connectivity toolkit.

Test graphs for 3-connectedness with a construction-sequence certificate
or a small-separator witness, verify certificates independently, and
convert certificates between representations.  Verification is linear in
the certificate when one end of every step edge has bounded degree, and
O(a * m) for a graph of arboricity a in general.
"""

from .graph import (
    ContractError,
    GraphUsageError,
    MultiGraph,
    ParseError,
    SimplifyReport,
    connected_components,
    contract_edge,
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
    "ContractError",
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
    "SimplifyReport",
    "StructureError",
    "Subdivision",
    "TransformError",
    "VerifyResult",
    "Witness",
    "build_subdivision",
    "certify",
    "connected_components",
    "contract_edge",
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
