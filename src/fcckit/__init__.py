"""Function-correcting codes over finite fields.

Construct systematic encoders that protect a target function of the
message against symbol errors, verify the pairwise distance condition
they must satisfy, decode function values through noisy channels,
evaluate redundancy bounds, and compute exact optimal redundancy by
search at desk scale.
"""

from .bounds import (
    BoundReport,
    lower_bound,
    mds_equality,
    sphere_packing_min_r,
    upper_bound_binary,
)
from .channel import inject
from .codes import GeneratorMatrix, linear_encode, min_distance
from .constructions import ConstructionReport, bch_systematic, or_scheme, rs_systematic
from .errors import FccError
from .fcc import (
    DecodeOutcome,
    FccScheme,
    FunctionTable,
    VerificationResult,
    builtin_function,
    fcc_decode,
    fcc_encode,
    find_critical_pair,
    verify_fcc,
)
from .formats import (
    parse_function_file,
    parse_scheme_file,
    serialize_function_file,
    serialize_scheme_file,
)
from .gf import Field
from .search import RedundancySearchResult, exact_redundancy

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ConstructionReport",
    "DecodeOutcome",
    "FccError",
    "FccScheme",
    "Field",
    "FunctionTable",
    "GeneratorMatrix",
    "RedundancySearchResult",
    "VerificationResult",
    "bch_systematic",
    "builtin_function",
    "exact_redundancy",
    "fcc_decode",
    "fcc_encode",
    "find_critical_pair",
    "inject",
    "linear_encode",
    "lower_bound",
    "mds_equality",
    "min_distance",
    "or_scheme",
    "parse_function_file",
    "parse_scheme_file",
    "rs_systematic",
    "serialize_function_file",
    "serialize_scheme_file",
    "sphere_packing_min_r",
    "upper_bound_binary",
    "verify_fcc",
]
