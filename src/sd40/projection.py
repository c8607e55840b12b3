"""The 4x10 array view of 40-bit words and the projection onto GF(4)^10.

Column i of the array holds coordinates 4i-3..4i, top to bottom; the four
rows are labelled 0, 1, w, W.  Projecting a column means summing the row
labels at its one-bits, so each column contributes one GF(4) symbol.

For a fixed symbol there are exactly four columns producing it (two of
even parity, two of odd, the members of each parity pair being bitwise
complements), which is what lets a corrected projection be written back
into the array with a forced number of bit flips.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf4 import Gf4Word, InternalInvariantError, nonzero_mask

N_BITS = 40
N_COLS = 10

# Top row of the array: bit 3 of every column nibble.
TOP_ROW_MASK = int("1000" * N_COLS, 2)

# Projection of a single column nibble (bits 3..0 = rows 0, 1, w, W):
# XOR of the row labels 0, 1, w=2, W=3 at the set bits.
_PROJ_OF_NIBBLE = tuple(
    (1 if n & 4 else 0) ^ (2 if n & 2 else 0) ^ (3 if n & 1 else 0)
    for n in range(16)
)
_PARITY_OF_NIBBLE = tuple(n.bit_count() & 1 for n in range(16))

# The four columns yielding each symbol, in the order they are usually
# tabulated: two even-parity columns then two odd-parity columns.
COLUMN_PATTERNS = (
    (0x0, 0xF, 0x8, 0x7),  # 0
    (0xC, 0x3, 0x4, 0xB),  # 1
    (0xA, 0x5, 0x2, 0xD),  # w
    (0x9, 0x6, 0x1, 0xE),  # W
)


def _byte_tables(per_nibble: tuple[int, ...], width: int) -> tuple[tuple[int, ...], ...]:
    """Five 256-entry tables, one per byte of a 40-bit word.  Byte k holds
    columns 10-2k (low nibble) and 9-2k (high nibble); entry b places
    per_nibble of each column at width*(column-1).  Every column has its
    own field, so a word's image is the OR of its five byte images."""
    return tuple(
        tuple(
            per_nibble[b & 0xF] << (width * (N_COLS - 1 - 2 * k))
            | per_nibble[b >> 4] << (width * (N_COLS - 2 - 2 * k))
            for b in range(256)
        )
        for k in range(5)
    )


_PROJ_BYTES = _byte_tables(_PROJ_OF_NIBBLE, 2)
_PARITY_BYTES = _byte_tables(_PARITY_OF_NIBBLE, 1)

# 10-bit column mask -> the same mask with bit i moved to bit 2i, the
# position layout of packed GF(4) words.
_SPREAD = [0]
for _i in range(N_COLS):
    _SPREAD += [s | 1 << (2 * _i) for s in _SPREAD]
_LOW_BITS = nonzero_mask(N_COLS)  # the low bit of every symbol


class LiftError(Exception):
    """No consistent rewrite of the array within the flip budget."""


def column_nibble(v: int, col: int) -> int:
    """Column col (1-based) of the array as a 4-bit value, row 0 on top."""
    return (v >> (4 * (N_COLS - col))) & 0xF


def proj_bits(v: int) -> int:
    """Packed projection of a 40-bit word (hot-path form)."""
    p0, p1, p2, p3, p4 = _PROJ_BYTES
    return (p0[v & 0xFF] | p1[(v >> 8) & 0xFF] | p2[(v >> 16) & 0xFF]
            | p3[(v >> 24) & 0xFF] | p4[(v >> 32) & 0xFF])


def parity_vector(v: int) -> int:
    """Column parities of a 40-bit word; bit c-1 is 1 when column c is odd."""
    p0, p1, p2, p3, p4 = _PARITY_BYTES
    return (p0[v & 0xFF] | p1[(v >> 8) & 0xFF] | p2[(v >> 16) & 0xFF]
            | p3[(v >> 24) & 0xFF] | p4[(v >> 32) & 0xFF])


def proj(v: int) -> Gf4Word:
    """Projection of a 40-bit word onto GF(4)^10."""
    return Gf4Word(proj_bits(v), N_COLS)


def candidates_for(value: int, parity: int) -> tuple[int, int]:
    """The two column nibbles with the given projection value and parity."""
    pats = COLUMN_PATTERNS[value]
    return (pats[0], pats[1]) if parity == 0 else (pats[2], pats[3])


@dataclass(frozen=True)
class ParityProfile:
    """Column and top-row parities of an array (1 = odd)."""

    column_parities: tuple[int, ...]
    top_row_parity: int
    majority_parity: int
    minority_columns: tuple[int, ...]  # 1-based

    @property
    def decodable(self) -> bool:
        return len(self.minority_columns) <= 3


def parity_profile(v: int) -> ParityProfile:
    parities = parity_vector(v)
    cols = tuple((parities >> i) & 1 for i in range(N_COLS))
    odd = parities.bit_count()
    # Ties (5 odd / 5 even) are undecodable either way; call even majority.
    majority = 1 if odd > N_COLS - odd else 0
    minority = tuple(c for c in range(1, N_COLS + 1) if cols[c - 1] != majority)
    top = (v & TOP_ROW_MASK).bit_count() & 1
    return ParityProfile(cols, top, majority, minority)


def has_projection_o(v: int, code_words: frozenset[int]) -> bool:
    """Projection-O membership: projection in the code, uniform column
    parity, top-row parity equal to the column parity."""
    p = parity_profile(v)
    return (
        not p.minority_columns
        and p.top_row_parity == p.majority_parity
        and proj_bits(v) in code_words
    )


def has_projection_e(v: int, code_words: frozenset[int]) -> bool:
    """Projection-E membership: as projection O but the top row parity is
    required even regardless of the column parity."""
    p = parity_profile(v)
    return (
        not p.minority_columns
        and p.top_row_parity == 0
        and proj_bits(v) in code_words
    )


def _cheaper_candidate(nibble: int, value: int, parity: int) -> tuple[int, int]:
    """The candidate column for (value, parity) nearer to nibble, the
    first one on a tie at distance 2, and its distance."""
    a, b = candidates_for(value, parity)
    da = (nibble ^ a).bit_count()
    return (a, da) if da <= 4 - da else (b, 4 - da)


# (nibble | value << 4 | parity << 6) -> (pick, distance).
_LIFT_PICKS = tuple(
    _cheaper_candidate(key & 0xF, (key >> 4) & 3, key >> 6) for key in range(128)
)


def lift(
    v: int,
    y_corrected: Gf4Word | int,
    column_parity: int,
    top_row_parity: int,
    max_flips: int = 3,
) -> tuple[int, tuple[int, ...]]:
    """Rewrite columns of v so that its projection becomes y_corrected,
    every column has the given parity and the top row the given parity,
    flipping as few bits as possible.

    Only columns whose projection value must change or whose parity is
    wrong are touched.  Each such column admits exactly two candidate
    nibbles (complements of each other); the cheaper one is taken, and if
    the resulting top-row parity is off, the single cheapest candidate
    swap fixes it (complementing a column always toggles its top bit).

    Returns the rewritten word and the 1-based flipped coordinates.
    Raises LiftError when no rewrite exists within max_flips.
    """
    target = y_corrected.bits if isinstance(y_corrected, Gf4Word) else y_corrected
    wrong_value = proj_bits(v) ^ target
    wrong_parity = parity_vector(v) ^ ((1 << N_COLS) - 1 if column_parity else 0)
    # Bit 2i is set when column i+1 must be rewritten.
    todo = ((wrong_value | (wrong_value >> 1)) & _LOW_BITS) | _SPREAD[wrong_parity]
    parity_key = column_parity << 6
    total = 0
    best_dist = best_shift = -1
    out = v
    while todo:
        low = todo & -todo
        todo ^= low
        pos = low.bit_length() >> 1  # 0-based column index
        shift = 4 * (N_COLS - 1 - pos)
        cur = (v >> shift) & 0xF
        pick, dist = _LIFT_PICKS[cur | ((target >> (2 * pos)) & 3) << 4 | parity_key]
        out ^= (cur ^ pick) << shift
        total += dist
        # Swapping a column to its complement costs 4 - 2d extra flips;
        # the largest-distance, lowest-index column is the cheapest to swap.
        if dist > best_dist:
            best_dist, best_shift = dist, shift
    if (out & TOP_ROW_MASK).bit_count() & 1 != top_row_parity:
        if best_dist < 0:
            raise LiftError("top-row parity off with no column to rewrite")
        out ^= 0xF << best_shift
        total += 4 - 2 * best_dist
    if total > max_flips:
        raise LiftError(f"{total} flips needed, budget is {max_flips}")
    diff = v ^ out
    flips = []
    while diff:
        bit = diff.bit_length() - 1
        diff ^= 1 << bit
        flips.append(N_BITS - bit)
    if len(flips) != total:
        raise InternalInvariantError(f"{len(flips)} bits flipped, {total} counted")
    return out, tuple(flips)


def format_array_text(v: int) -> str:
    """Four lines of ten characters, rows in label order 0, 1, w, W."""
    lines = []
    for row in range(4):
        bit = 3 - row
        lines.append(
            "".join(
                str((column_nibble(v, c) >> bit) & 1) for c in range(1, N_COLS + 1)
            )
        )
    return "\n".join(lines) + "\n"


def parse_array_text(text: str) -> int:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 4:
        raise ValueError(f"expected 4 rows, got {len(lines)}")
    v = 0
    for row, ln in enumerate(lines):
        if len(ln) != N_COLS or set(ln) - {"0", "1"}:
            raise ValueError(f"row {row + 1} is not a {N_COLS}-character bit string")
        for c, ch in enumerate(ln, 1):
            if ch == "1":
                v |= 1 << (4 * (N_COLS - c) + (3 - row))
    return v
