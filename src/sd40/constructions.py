"""Lifting the quaternary codes to binary self-dual [40,20,8] codes.

A length-40 binary word is one int with coordinate 1 at bit 39 and
coordinate 40 at bit 0, so a word prints as a plain 40-character bit
string.  Coordinates 4i-3..4i form column i of the 4x10 array view.

The lift sends each GF(4) symbol to four bits (0 -> 0000, 1 -> 0011,
w -> 0101, W -> 0110) and adjoins generators of the even-weight subcode
of ten repeated [4,1,4] blocks plus one glue vector: e_B for the
doubly-even construction, e_C for the singly-even one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .gf4 import Gf4Word
from .projection import N_BITS, N_COLS
from .quaternary import QuaternaryGeneratorMatrix, b10_matrix, e10_matrix

DIMENSION = 20
CODE_SIZE = 1 << DIMENSION

_BINMAP_NIBBLE = (0x0, 0x3, 0x5, 0x6)  # images of 0, 1, w, W


def binmap(word: Gf4Word) -> int:
    """Binary image of a length-10 quaternary word (the hat map)."""
    if word.n != N_COLS:
        raise ValueError(f"expected length {N_COLS}, got {word.n}")
    out = 0
    for s in word:
        out = (out << 4) | _BINMAP_NIBBLE[s]
    return out


def d4_block(i: int) -> int:
    """All-ones nibble in column i (1-based): a [4,1,4] block generator."""
    if not 1 <= i <= N_COLS:
        raise ValueError(f"column {i} out of range")
    return 0xF << (4 * (N_COLS - i))


def build_d4n0() -> tuple[int, ...]:
    """Nine generators of the weight-divisible-by-8 subcode of the ten
    d4 blocks: adjacent double blocks i, i+1 for i = 1..9."""
    return tuple(d4_block(i) | d4_block(i + 1) for i in range(1, N_COLS))


def build_e_b() -> int:
    """Glue vector 1000 repeated nine times then 0111 (length 10 = 2 mod 4)."""
    return int("1000" * 9 + "0111", 2)


def build_e_c() -> int:
    """Glue vector 1000 repeated ten times."""
    return int("1000" * N_COLS, 2)


def row_reduce(rows) -> tuple[int, ...]:
    """Reduced row-echelon basis over GF(2), pivots left to right.

    Deterministic: the same span always yields the same row list.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # Back-substitute so each pivot appears in exactly one row.
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[j] & (1 << (basis[i].bit_length() - 1)):
                basis[j] ^= basis[i]
    return tuple(sorted(basis, reverse=True))


@dataclass(frozen=True)
class BinaryGeneratorMatrix:
    """20 generator rows of a [40,20] binary code, kept as given."""

    name: str
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != DIMENSION:
            raise ValueError(f"expected {DIMENSION} rows, got {len(self.rows)}")
        if any(r >> N_BITS for r in self.rows):
            raise ValueError("row longer than 40 bits")
        if len(self.reduced) != DIMENSION:
            raise ValueError(f"{self.name}: rows have rank {len(self.reduced)}, not {DIMENSION}")

    @functools.cached_property
    def reduced(self) -> tuple[int, ...]:
        return row_reduce(self.rows)

    def contains(self, word: int) -> bool:
        for b in self.reduced:
            word = min(word, word ^ b)
        return word == 0

    def is_self_dual(self) -> bool:
        """G G^T = 0 over GF(2), including the diagonal (even row weights)."""
        return all(
            (x & y).bit_count() % 2 == 0
            for i, x in enumerate(self.rows)
            for y in self.rows[i:]
        )

    def encode(self, message: int) -> int:
        """XOR of the rows selected by the 20 message bits (bit 19 = row 1)."""
        if message >> DIMENSION:
            raise ValueError("message longer than 20 bits")
        word = 0
        for i in range(DIMENSION):
            if (message >> (DIMENSION - 1 - i)) & 1:
                word ^= self.rows[i]
        return word

    def to_text(self) -> str:
        return "\n".join(format(r, f"0{N_BITS}b") for r in self.rows) + "\n"


def _lift(matrix: QuaternaryGeneratorMatrix, extra: tuple[int, ...], name: str) -> BinaryGeneratorMatrix:
    rows = [binmap(r) for r in matrix.rows] + list(extra)
    basis = row_reduce(rows)
    if len(basis) != DIMENSION:
        raise ValueError(f"{name}: span has rank {len(basis)}, expected {DIMENSION}")
    return BinaryGeneratorMatrix(name, basis)


def rho_a(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Binary image plus all ten d4 blocks (no minimum-distance claim)."""
    extra = tuple(d4_block(i) for i in range(1, N_COLS + 1))
    return _lift(matrix, extra, f"rho_A({matrix.name})")


def rho_b(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Doubly-even [40,20,8] lift: image + even-d4 subcode + e_B."""
    return _lift(matrix, build_d4n0() + (build_e_b(),), f"rho_B({matrix.name})")


def rho_c(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Singly-even [40,20,8] lift: image + even-d4 subcode + e_C."""
    return _lift(matrix, build_d4n0() + (build_e_c(),), f"rho_C({matrix.name})")


@dataclass(frozen=True)
class CertificationReport:
    """Exhaustive facts about the span of a 20-row binary matrix."""

    name: str
    self_dual: bool
    minimum_distance: int
    weight_distribution: dict[int, int]
    parity_type: str  # "doubly-even", "singly-even", or "odd"

    def format_text(self) -> str:
        lines = [
            f"code: {self.name}",
            f"codewords: {sum(self.weight_distribution.values())}",
            f"self-dual (GG^T = 0): {'yes' if self.self_dual else 'NO'}",
            f"minimum distance: {self.minimum_distance}",
            f"type: {self.parity_type}",
            "weight distribution:",
        ]
        for w in sorted(self.weight_distribution):
            lines.append(f"  A_{w} = {self.weight_distribution[w]}")
        return "\n".join(lines) + "\n"


def certify(matrix: BinaryGeneratorMatrix) -> CertificationReport:
    """Enumerate all 2^20 codewords (Gray order, one row-XOR per step)
    and report self-duality, minimum distance, weight histogram, type."""
    rows = matrix.reduced
    counts = [0] * (N_BITS + 1)
    word = 0
    counts[0] += 1
    for i in range(1, CODE_SIZE):
        word ^= rows[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    dist = {w: c for w, c in enumerate(counts) if c}
    min_d = min(w for w in dist if w > 0)
    if any(w % 2 for w in dist):
        parity_type = "odd"
    elif all(w % 4 == 0 for w in dist):
        parity_type = "doubly-even"
    else:
        parity_type = "singly-even"
    return CertificationReport(
        matrix.name, matrix.is_self_dual(), min_d, dist, parity_type
    )


# ---------------------------------------------------------------------------
# The generator matrices exactly as printed, used for encoding and as the
# reference for span-equality checks.  Rows 1..10 are the binary images of
# the quaternary basis rows, rows 11..19 pair block 1 with blocks 2..10,
# row 20 is the glue vector.
# ---------------------------------------------------------------------------

_PRINTED_DE_ROWS = (
    "0011001100110011000000000000000000000000",
    "0000000000110011001100110000000000000000",
    "0000000000000000001100110011001100000000",
    "0000000000000000000000000011001100110011",
    "0011000000110000001100000011000001010110",
    "0101010101010101000000000000000000000000",
    "0000000001010101010101010000000000000000",
    "0000000000000000010101010101010100000000",
    "0000000000000000000000000101010101010101",
    "0101000001010000010100000101000001100011",
    "1111111100000000000000000000000000000000",
    "1111000011110000000000000000000000000000",
    "1111000000001111000000000000000000000000",
    "1111000000000000111100000000000000000000",
    "1111000000000000000011110000000000000000",
    "1111000000000000000000001111000000000000",
    "1111000000000000000000000000111100000000",
    "1111000000000000000000000000000011110000",
    "1111000000000000000000000000000000001111",
    "1000100010001000100010001000100010000111",
)


def parse_matrix_text(text: str) -> tuple[int, ...]:
    """Parse 20 lines of 40 characters over {0,1}."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != DIMENSION:
        raise ValueError(f"expected {DIMENSION} rows, got {len(lines)}")
    rows = []
    for k, ln in enumerate(lines, 1):
        if len(ln) != N_BITS or set(ln) - {"0", "1"}:
            raise ValueError(f"row {k} is not a {N_BITS}-character bit string")
        rows.append(int(ln, 2))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def printed_de_matrix() -> BinaryGeneratorMatrix:
    """The doubly-even generator matrix as printed (built from E10)."""
    return BinaryGeneratorMatrix("C40,1-DE", tuple(int(r, 2) for r in _PRINTED_DE_ROWS))


@functools.lru_cache(maxsize=None)
def printed_se_matrix() -> BinaryGeneratorMatrix:
    """The singly-even variant: same rows with the glue row replaced by e_C."""
    rows = tuple(int(r, 2) for r in _PRINTED_DE_ROWS[:-1]) + (build_e_c(),)
    return BinaryGeneratorMatrix("C40,1-SE", rows)


@functools.lru_cache(maxsize=None)
def c40_de() -> BinaryGeneratorMatrix:
    return rho_b(e10_matrix())


@functools.lru_cache(maxsize=None)
def c40_se() -> BinaryGeneratorMatrix:
    return rho_c(e10_matrix())


@functools.lru_cache(maxsize=None)
def c40_de_b10() -> BinaryGeneratorMatrix:
    return rho_b(b10_matrix())


def same_span(a: BinaryGeneratorMatrix, b: BinaryGeneratorMatrix) -> bool:
    """Mutual membership of all rows both ways."""
    return all(b.contains(r) for r in a.rows) and all(a.contains(r) for r in b.rows)
