"""The 4x10 array view of 40-bit words and the projection onto GF(4)^10.

Column i of the array holds coordinates 4i-3..4i, top to bottom; the four
rows are labelled 0, 1, w, W.  Projecting a column means summing the row
labels at its one-bits, so each column contributes one GF(4) symbol.

For a fixed symbol there are exactly four columns producing it (two of
even parity, two of odd, the members of each parity pair being bitwise
complements), which is what lets a corrected projection be written back
into the array with a forced number of bit flips.  Those flips do not
depend on the column's nibble: error symbol s costs an erasure (a minority
column) one flip, in the row labelled s, and a majority column with s != 0
two, in the top row and row s, or the complement of those two.
"""

from __future__ import annotations

import itertools

from .gf4 import InternalInvariantError, byte_tables
from .quaternary import e10_table

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


# Bit p lies in column N_COLS - p // 4, in the row labelled 3 - p % 4 (row 0
# is the nibble's top bit): it toggles the column's parity bit, above the 20
# projection bits, and adds that label to its symbol.  Entries stay one int digit.
_COLUMN_BYTES = byte_tables([1 << 20 + N_COLS - 1 - p // 4
                             | (3 - p % 4) << 2 * (N_COLS - 1 - p // 4) for p in range(N_BITS)])


class LiftError(Exception):
    """No consistent rewrite of the array within the flip budget."""


def read_columns(v: int) -> int:
    """parity_profile(v) << 20 | proj_bits(v), in one read; ValueError: v is no 40-bit word."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    c0, c1, c2, c3, c4 = _COLUMN_BYTES
    return (c0[v & 0xFF] ^ c1[(v >> 8) & 0xFF] ^ c2[(v >> 16) & 0xFF]
            ^ c3[(v >> 24) & 0xFF] ^ c4[v >> 32])


def proj_bits(v: int) -> int:
    """Packed projection of a 40-bit word, read_columns(v) & 0xFFFFF
    unchecked: its callers pass a word already checked to be 40 bits."""
    c0, c1, c2, c3, c4 = _COLUMN_BYTES
    return (c0[v & 0xFF] ^ c1[(v >> 8) & 0xFF] ^ c2[(v >> 16) & 0xFF]
            ^ c3[(v >> 24) & 0xFF] ^ c4[v >> 32]) & 0xFFFFF


def parity_profile(v: int) -> int:
    """Column parities, read_columns(v) >> 20: bit c-1 is 1 when column c is odd."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    c0, c1, c2, c3, c4 = _COLUMN_BYTES
    return (c0[v & 0xFF] ^ c1[(v >> 8) & 0xFF] ^ c2[(v >> 16) & 0xFF]
            ^ c3[(v >> 24) & 0xFF] ^ c4[v >> 32]) >> 20


def candidates_for(value: int, parity: int) -> tuple[int, int]:
    """The two column nibbles with the given projection value and parity."""
    if type(value) is not int or value not in (0, 1, 2, 3):
        raise ValueError(f"symbol must lie in 0..3, got {value!r}")
    if type(parity) is not int or parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    pats = COLUMN_PATTERNS[value]
    return (pats[0], pats[1]) if parity == 0 else (pats[2], pats[3])


def _has_projection(v: int, top_follows_columns: bool) -> bool:
    """Projection membership: projection in E10, uniform column parity,
    and a top-row parity equal to the column parity when
    top_follows_columns (projection O), even otherwise (projection E)."""
    parities, y = divmod(read_columns(v), 1 << 20)
    top = parities & 1 if top_follows_columns else 0
    return (parities in (0, (1 << N_COLS) - 1)
            and (v & TOP_ROW_MASK).bit_count() & 1 == top and y in e10_table().word_set)


def has_projection_o(v: int) -> bool:
    """Projection-O membership: the top row has the column parity."""
    return _has_projection(v, True)


def has_projection_e(v: int) -> bool:
    """Projection-E membership: the top row is even."""
    return _has_projection(v, False)


# A majority column's flips for error symbol s; an erasure toggles the top bit too.
_MAJORITY_FLIPS = tuple(8 ^ 8 >> s for s in range(4))


def _flip_bytes() -> tuple[tuple[int, ...], ...]:
    """Byte tables of the majority flips of a packed error word, each the
    product of its columns' four flips (the map is not GF(2)-linear).
    InternalInvariantError: some column's flips miss its nearer candidate."""
    for nibble, s, parity in itertools.product(range(16), range(4), (0, 1)):
        flips = _MAJORITY_FLIPS[s] ^ 8 * (nibble.bit_count() & 1 != parity)
        pair = candidates_for(proj_bits(nibble) >> 18 ^ s, parity)  # column 10's symbol
        if nibble ^ flips not in pair or flips.bit_count() > 2:  # the pair is d and 4 - d away
            raise InternalInvariantError(f"column {nibble:04b}, symbol {s}: flips {flips:04b}")
    tables = [[0], [0], [0]]
    for col in range(N_COLS, 0, -1):  # a new column is the low symbol of its byte
        k = (col - 1) // 4
        tables[k] = [t ^ f << 4 * (N_COLS - col) for t in tables[k] for f in _MAJORITY_FLIPS]
    return tuple(map(tuple, tables))


_FLIP_BYTES = _flip_bytes()


def lift(error: int, erasures: int, off: int) -> int:
    """The fewest flips that move a word's projection by error, toggle the
    parity of each erasure column and of no other, and flip an odd number
    of top-row bits exactly when off is 1: a 40-bit mask.

    An erasure takes one flip, in the row labelled by its error symbol s;
    any other column with s != 0 takes two, the top row and row s.  If the
    top row is then off, the first two-flip column is complemented, at no
    cost, or else the first erasure, at two more flips; wherever two
    columns could be, the flips already exceed RADIUS.

    An unchecked decode stage: error is a packed projection error word
    inside a case's budget, erasures that case's erasure_nibbles (0xF at
    each erasure column) and off 0 or 1.  LiftError: no rewrite within
    RADIUS flips.
    """
    f0, f1, f2 = _FLIP_BYTES
    flips = f0[error & 0xFF] ^ f1[(error >> 8) & 0xFF] ^ f2[error >> 16] ^ erasures & TOP_ROW_MASK
    if (flips & TOP_ROW_MASK).bit_count() & 1 != off:
        swap = flips & ~erasures or erasures  # the two-flip columns, else the erasures
        if not swap:
            raise LiftError("top-row parity off with no column to rewrite")
        flips ^= 0xF << ((swap.bit_length() - 1) & ~3)  # the first such column, the highest
    count = flips.bit_count()
    if count > RADIUS:
        raise LiftError(f"{count} flips needed, budget is {RADIUS}")
    return flips


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
