"""Projection decoding of binary self-dual [40,20,8] codes via the
Hermitian self-dual (10, 2^10, 4) code over GF(4)."""

from .constructions import (
    BinaryGeneratorMatrix,
    CertificationReport,
    binmap,
    certify,
    printed_de_matrix,
    printed_se_matrix,
    rho_a,
    rho_b,
    rho_c,
)
from .decoders import (
    CaseLabel,
    DecodeOutcome,
    InternalInvariantError,
    classify_case,
    represent_decode,
    syndrome,
    syndrome_decode,
)
from .gf4 import format_symbols, hermitian_inner, parse_symbols, trace_inner
from .oracle import OracleTable, build_oracle, indexed_decode, oracle_decode
from .projection import (
    has_projection_e,
    has_projection_o,
    parity_profile,
)
from .quaternary import (
    OrbitType,
    QuaternaryGeneratorMatrix,
    classify_type,
    orbit_census,
)

__version__ = "1.0.0"
