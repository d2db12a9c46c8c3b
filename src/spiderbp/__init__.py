"""spiderbp: semiring belief propagation as tensor-network contraction.

Factor graphs are treated as wiring diagrams whose variables are copy
("spider") tensors and whose factors are dense tensors over a semiring of
your choice. The same message-passing engine then computes marginals,
partition functions, satisfiability, model counts, best assignments, and
derivatives, depending only on which semiring the values live in.

A graph's tensors live in one semiring, named by ``FactorGraph.semiring``;
to run another algebra, build or parse the model under it. The names below
are what the demos, the README and the benchmark use; everything else is
imported from its submodule (``spiderbp.engine``, ``spiderbp.tensor``, ...).
"""

from .algebra import PROB, SEMIRINGS
from .engine import (
    BPResult,
    RunConfig,
    contraction_value,
    decode_map,
    dual_seed,
    evaluate_assignment,
    run_bp,
)
from .errors import (
    BadSplitError,
    CliqueTooLargeError,
    ContradictionError,
    FormatWarning,
    NoTotalOrderError,
    NotATreeError,
    ObjectMismatchError,
    ParseError,
    ShapeMismatchError,
    SpiderBPError,
    TooLargeError,
    UnsupportedPreambleError,
    ValidationError,
    ZeroMessageError,
)
from .formats import build_graph, parse_native, parse_uai, serialize_native, serialize_uai
from .graph import FactorGraph, tree_info
from .jtree import JTResult, run_junction_tree
from .oracle import exact_argmax, exact_contraction, exact_marginal

__version__ = "0.1.0"

__all__ = [
    "BadSplitError",
    "BPResult",
    "build_graph",
    "CliqueTooLargeError",
    "ContradictionError",
    "contraction_value",
    "decode_map",
    "dual_seed",
    "evaluate_assignment",
    "exact_argmax",
    "exact_contraction",
    "exact_marginal",
    "FactorGraph",
    "FormatWarning",
    "JTResult",
    "NoTotalOrderError",
    "NotATreeError",
    "ObjectMismatchError",
    "ParseError",
    "parse_native",
    "parse_uai",
    "PROB",
    "run_bp",
    "run_junction_tree",
    "RunConfig",
    "SEMIRINGS",
    "serialize_native",
    "serialize_uai",
    "ShapeMismatchError",
    "SpiderBPError",
    "TooLargeError",
    "tree_info",
    "UnsupportedPreambleError",
    "ValidationError",
    "ZeroMessageError",
]
