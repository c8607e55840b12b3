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

from typing import TYPE_CHECKING

from .gf4 import InternalInvariantError, byte_tables, nonzero_mask

if TYPE_CHECKING:  # decoders imports this module
    from .decoders import CaseLabel

N_BITS = 40
N_COLS = 10
# The decoding radius: the most bit flips a lift or an oracle answer makes.
RADIUS = 3

# Top row of the array: bit 3 of every column nibble.
TOP_ROW_MASK = int("1000" * N_COLS, 2)

# The four columns yielding each symbol, in the order they are usually
# tabulated: two even-parity columns then two odd-parity columns.
COLUMN_PATTERNS = (
    (0x0, 0xF, 0x8, 0x7),  # 0
    (0xC, 0x3, 0x4, 0xB),  # 1
    (0xA, 0x5, 0x2, 0xD),  # w
    (0x9, 0x6, 0x1, 0xE),  # W
)


# Bit p lies in column N_COLS - p // 4, in the row labelled 3 - p % 4
# (row 0 is the nibble's top bit): the projection adds that label to the
# column's symbol and the parity toggles the column's bit.
_PARITY_BYTES = byte_tables([1 << (N_COLS - 1 - p // 4) for p in range(N_BITS)])
_PROJ_BYTES = byte_tables([(3 - p % 4) << (2 * (N_COLS - 1 - p // 4)) for p in range(N_BITS)])
_LOW_BITS = nonzero_mask(N_COLS)  # the low bit of every symbol


class LiftError(Exception):
    """No consistent rewrite of the array within the flip budget."""


def proj_bits(v: int) -> int:
    """Packed projection of a 40-bit word (hot-path form).  v must lie in
    [0, 2^40): any other int is read by its low 40 bits, silently."""
    p0, p1, p2, p3, p4 = _PROJ_BYTES
    return (p0[v & 0xFF] ^ p1[(v >> 8) & 0xFF] ^ p2[(v >> 16) & 0xFF]
            ^ p3[(v >> 24) & 0xFF] ^ p4[(v >> 32) & 0xFF])


def parity_profile(v: int) -> int:
    """Column parities of a 40-bit word; bit c-1 is 1 when column c is odd."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    p0, p1, p2, p3, p4 = _PARITY_BYTES
    return (p0[v & 0xFF] ^ p1[(v >> 8) & 0xFF] ^ p2[(v >> 16) & 0xFF]
            ^ p3[(v >> 24) & 0xFF] ^ p4[(v >> 32) & 0xFF])


def candidates_for(value: int, parity: int) -> tuple[int, int]:
    """The two column nibbles with the given projection value and parity."""
    if type(value) is not int or value not in (0, 1, 2, 3):
        raise ValueError(f"symbol must lie in 0..3, got {value!r}")
    if type(parity) is not int or parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    pats = COLUMN_PATTERNS[value]
    return (pats[0], pats[1]) if parity == 0 else (pats[2], pats[3])


def _has_projection(v: int, code_words: frozenset[int], top_follows_columns: bool) -> bool:
    """Projection membership: projection in the code, uniform column
    parity, and a top-row parity equal to the column parity when
    top_follows_columns (projection O), even otherwise (projection E)."""
    parities = parity_profile(v)
    top = parities & 1 if top_follows_columns else 0
    return (parities in (0, (1 << N_COLS) - 1)
            and (v & TOP_ROW_MASK).bit_count() & 1 == top and proj_bits(v) in code_words)


def has_projection_o(v: int, code_words: frozenset[int]) -> bool:
    """Projection-O membership: the top row has the column parity."""
    return _has_projection(v, code_words, True)


def has_projection_e(v: int, code_words: frozenset[int]) -> bool:
    """Projection-E membership: the top row is even."""
    return _has_projection(v, code_words, False)


def _cheaper_candidate(nibble: int, symbol: int, parity: int) -> tuple[int, int]:
    """The candidate column for (proj(nibble) + symbol, parity) nearer to
    nibble, the first one on a tie at distance 2, and its distance; the low
    nibble is column 10, whose symbol proj_bits puts at bit 18."""
    a, b = candidates_for(proj_bits(nibble) >> 18 ^ symbol, parity)
    da = (nibble ^ a).bit_count()
    return (a, da) if da <= 4 - da else (b, 4 - da)


# (nibble | error symbol << 4 | parity << 6) -> (pick, distance).
_LIFT_PICKS = tuple(
    _cheaper_candidate(key & 0xF, (key >> 4) & 3, key >> 6) for key in range(128)
)


def lift(v: int, error: int, case: CaseLabel, top_row_parity: int) -> int:
    """Rewrite columns of v so that its projection becomes proj(v) + error,
    every column takes the majority parity of case, the parity case of v,
    and the top row the given parity, flipping as few bits as possible.

    Only the columns where error is nonzero and the case's erasure columns
    are touched.  Each such column admits exactly two candidate nibbles
    (complements of each other); the cheaper one is taken, and if the
    resulting top-row parity is off, the single cheapest candidate swap
    fixes it (complementing a column always toggles its top bit).

    An unchecked decode stage: case is classify_case(v), error the packed
    projection error word a search found inside case's budget, and
    top_row_parity 0 or 1.  Returns the rewritten word, whose XOR with v is
    the flip mask; LiftError when no rewrite exists within RADIUS flips.
    """
    # Bit 2i is set when column i+1 must be rewritten.
    todo = ((error | (error >> 1)) & _LOW_BITS) | case.erasure_bits
    parity_key = case.majority_parity << 6
    total = 0
    best_dist = best_shift = -1
    out = v
    while todo:
        low = todo & -todo
        todo ^= low
        pos = low.bit_length() >> 1  # 0-based column index
        shift = 4 * (N_COLS - 1 - pos)
        cur = (v >> shift) & 0xF
        pick, dist = _LIFT_PICKS[cur | ((error >> (2 * pos)) & 3) << 4 | parity_key]
        out ^= (cur ^ pick) << shift
        total += dist
        # Swapping a column to its complement costs 4 - 2d extra flips, so the
        # farthest column is the cheapest swap; a swap within RADIUS never
        # meets a tie: two farthest columns plus the swap cost at least 4 flips.
        if dist > best_dist:
            best_dist, best_shift = dist, shift
    if (out & TOP_ROW_MASK).bit_count() & 1 != top_row_parity:
        if best_dist < 0:
            raise LiftError("top-row parity off with no column to rewrite")
        out ^= 0xF << best_shift
        total += 4 - 2 * best_dist
    if total > RADIUS:
        raise LiftError(f"{total} flips needed, budget is {RADIUS}")
    if (v ^ out).bit_count() != total:
        raise InternalInvariantError(f"{(v ^ out).bit_count()} bits flipped, {total} counted")
    return out


def format_array_text(v: int) -> str:
    """Four lines of ten characters, rows in label order 0, 1, w, W.
    ValueError: v is no 40-bit word."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"word {v} is not a {N_BITS}-bit word")
    bits = format(v, f"0{N_BITS}b")  # column c is bits[4c-4:4c], row r every fourth from r
    return "".join(bits[row::4] + "\n" for row in range(4))


def parse_bit_rows(text: str, count: int, width: int) -> tuple[int, ...]:
    """The non-blank lines of text, stripped, read as binary ints: there
    must be count of them, each width characters over {0,1}."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != count:
        raise ValueError(f"expected {count} rows, got {len(lines)}")
    for k, ln in enumerate(lines, 1):
        if len(ln) != width or set(ln) - {"0", "1"}:
            raise ValueError(f"row {k} is not a {width}-character bit string")
    return tuple(int(ln, 2) for ln in lines)


def parse_array_text(text: str) -> int:
    """Inverse of format_array_text: bit j of row r is bit 4j + 3 - r."""
    rows = parse_bit_rows(text, 4, N_COLS)
    return sum((bits >> j & 1) << (4 * j + 3 - r)
               for r, bits in enumerate(rows) for j in range(N_COLS))
