"""Lifting the quaternary codes to binary self-dual [40,20,8] codes.

A length-40 binary word is one int with coordinate 1 at bit 39 and
coordinate 40 at bit 0, so a word prints as a plain 40-character bit
string.  Coordinates 4i-3..4i form column i of the 4x10 array view.

The lift sends each GF(4) symbol to four bits (0 -> 0000, 1 -> 0011,
w -> 0101, W -> 0110) and adjoins generators of the even-weight subcode
of ten repeated [4,1,4] blocks plus one glue vector: E_B for the
doubly-even construction, E_C for the singly-even one.  The lifts of E10
are the generator matrices the paper prints, row for row: the ten images,
block 1 paired with blocks 2..10, then the glue vector.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .gf4 import packed, xor_span
from .projection import N_BITS, N_COLS, TOP_ROW_MASK, parse_bit_rows
from .quaternary import QuaternaryGeneratorMatrix, e10_table

DIMENSION = 20

_BINMAP_NIBBLE = (0x0, 0x3, 0x5, 0x6)  # images of 0, 1, w, W


def binmap(word: int) -> int:
    """Binary image of a packed 10-symbol quaternary word (the hat map)."""
    bits = packed(word, N_COLS)
    out = 0
    for i in range(0, 2 * N_COLS, 2):
        out = (out << 4) | _BINMAP_NIBBLE[(bits >> i) & 3]
    return out


def d4_block(i: int) -> int:
    """All-ones nibble in column i (1-based): a [4,1,4] block generator."""
    if type(i) is not int or not 1 <= i <= N_COLS:
        raise ValueError(f"column {i!r} out of range")
    return 0xF << (4 * (N_COLS - i))


# Nine generators of the weight-divisible-by-8 subcode of the ten d4
# blocks: block 1 paired with block j for j = 2..10.
D4N0 = tuple(d4_block(1) | d4_block(j) for j in range(2, N_COLS + 1))
E_B = int("1000" * 9 + "0111", 2)  # rho_B's glue vector (length 10 = 2 mod 4)
E_C = TOP_ROW_MASK  # rho_C's glue vector, 1000 ten times: the array's top row


def row_reduce(rows) -> tuple[int, ...]:
    """Reduced row-echelon basis over GF(2), pivots left to right; it is
    unique to the span.  The basis stays reduced as each row arrives."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            top = 1 << (row.bit_length() - 1)
            basis = [b ^ row if b & top else b for b in basis] + [row]
    return tuple(sorted(basis, reverse=True))


@dataclass(frozen=True)
class BinaryGeneratorMatrix:
    """20 generator rows of a [40,20] binary code, kept as given."""

    name: str
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != DIMENSION:
            raise ValueError(f"expected {DIMENSION} rows, got {len(self.rows)}")
        for r in self.rows:
            if type(r) is not int or r >> N_BITS:  # r >> N_BITS is -1 for every negative r
                raise ValueError(f"row {r!r} is not a {N_BITS}-bit word")
        if len(self.reduced) != DIMENSION:
            raise ValueError(f"{self.name}: rows have rank {len(self.reduced)}, not {DIMENSION}")

    @functools.cached_property
    def reduced(self) -> tuple[int, ...]:
        return row_reduce(self.rows)

    def contains(self, word: int) -> bool:
        if type(word) is not int or word >> N_BITS:  # word >> N_BITS is -1 for every negative word
            raise ValueError(f"received word {word} is not a {N_BITS}-bit word")
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
        if type(message) is not int or message >> DIMENSION:
            raise ValueError(f"message {message!r} is not a {DIMENSION}-bit int")
        word = 0
        for i in range(DIMENSION):
            if (message >> (DIMENSION - 1 - i)) & 1:
                word ^= self.rows[i]
        return word

    def to_text(self) -> str:
        return "\n".join(format(r, f"0{N_BITS}b") for r in self.rows) + "\n"


def _lift(matrix: QuaternaryGeneratorMatrix, extra: tuple[int, ...], name: str) -> BinaryGeneratorMatrix:
    return BinaryGeneratorMatrix(name, tuple(binmap(r) for r in matrix.rows) + extra)


def rho_a(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Binary image plus all ten d4 blocks (no minimum-distance claim)."""
    extra = tuple(d4_block(i) for i in range(1, N_COLS + 1))
    return _lift(matrix, extra, f"rho_A({matrix.name})")


def rho_b(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Doubly-even [40,20,8] lift: image + even-d4 subcode + E_B."""
    return _lift(matrix, D4N0 + (E_B,), f"rho_B({matrix.name})")


def rho_c(matrix: QuaternaryGeneratorMatrix) -> BinaryGeneratorMatrix:
    """Singly-even [40,20,8] lift: image + even-d4 subcode + E_C."""
    return _lift(matrix, D4N0 + (E_C,), f"rho_C({matrix.name})")


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
    """Enumerate all 2^20 codewords (the XOR of a word of the span of the
    high ten reduced rows with one of the low ten) and report
    self-duality, minimum distance, weight histogram, type.  The 1,024
    words of one span lie in five ints, one per byte position, a byte lane
    per word; per word of the other span each int takes one XOR and one
    popcount translate, and a lane sums to at most 40, so no carry crosses."""
    half = DIMENSION // 2
    lo, hi = xor_span(matrix.reduced[:half]), xor_span(matrix.reduced[half:])
    popcount = bytes(b.bit_count() for b in range(256))
    ones = int.from_bytes(b"\1" * len(lo), "big")
    shifts = range(0, N_BITS, 8)
    lanes = [int.from_bytes(bytes(w >> s & 0xFF for w in lo), "big") for s in shifts]
    weights = bytearray()
    for h in hi:
        total = 0
        for s, lane in zip(shifts, lanes):
            spread = (lane ^ (h >> s & 0xFF) * ones).to_bytes(len(lo), "big")
            total += int.from_bytes(spread.translate(popcount), "big")
        weights += total.to_bytes(len(lo), "big")
    dist = {w: weights.count(w) for w in range(N_BITS + 1) if w in weights}
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


def parse_matrix_text(text: str) -> tuple[int, ...]:
    """Parse 20 lines of 40 characters over {0,1}."""
    return parse_bit_rows(text, DIMENSION, N_BITS)


@functools.lru_cache(maxsize=None)
def printed_de_matrix() -> BinaryGeneratorMatrix:
    """The doubly-even generator matrix the paper prints, row for row: rho_B(E10)."""
    return rho_b(e10_table())


@functools.lru_cache(maxsize=None)
def printed_se_matrix() -> BinaryGeneratorMatrix:
    """The singly-even generator matrix the paper prints, row for row: rho_C(E10)."""
    return rho_c(e10_table())
