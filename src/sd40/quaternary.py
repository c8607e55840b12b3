"""The two Hermitian self-dual (10, 2^10, 4) codes over GF(4).

Provides their generator matrices, five GF(4) rows from which each matrix
derives its 1024-codeword tables (word set and weight distribution), and
the classification of the first code's 1023 nonzero codewords into eight
orbit types: the orbits of the group that the paper's automorphisms
(12)(34), (13)(24), (13579)(2468 10) and the scalar w generate, found by
closing each printed representative under those four maps.

Coordinates are grouped into five blocks (1,2) (3,4) (5,6) (7,8) (9,10);
block indices and column indices in the public API are 1-based to match
the printed matrices.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .gf4 import (InternalInvariantError, format_symbols, hermitian_inner, packed,
                  parse_symbols, word_times_w, word_weight, xor_span)

N = 10
CODE_SIZE = 1 << N  # 2^10 GF(2)-linear combinations

# GF(4)-basis rows as printed; the GF(2)-basis adds their w-multiples.
_E10_ROWS = (
    "1111000000",
    "0011110000",
    "0000111100",
    "0000001111",
    "10101010wW",
)

_B10_ROWS = (
    "1111000000",
    "01wW100000",
    "0000011110",
    "0000001wW1",
    "01Ww001Ww0",
)


@dataclass(frozen=True)
class QuaternaryGeneratorMatrix:
    """Five packed GF(4)-basis rows of a Hermitian self-dual linear code,
    which is a self-dual additive (10, 2^10) code over GF(4).  The
    constructor checks that the rows span 2^10 words."""

    name: str
    linear_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.linear_rows) != 5:
            raise ValueError(f"{self.name}: expected 5 rows, got {len(self.linear_rows)}")
        # Hermitian orthogonality of these rows (each checked to pack N symbols)
        # is trace orthogonality of `rows`: Tr(h) = Tr(w^2 h) = 0 forces h = 0.
        for i, x in enumerate(self.linear_rows):
            for y in self.linear_rows[i:]:
                if hermitian_inner(x, y, N):
                    raise ValueError(f"{self.name}: rows not self-orthogonal")
        if len(self.word_set) != CODE_SIZE:
            raise ValueError(f"{self.name}: rows are GF(2)-dependent")

    @functools.cached_property
    def rows(self) -> tuple[int, ...]:
        """GF(2)-basis: the five rows, then their w-multiples."""
        return self.linear_rows + tuple(word_times_w(r, N) for r in self.linear_rows)

    @functools.cached_property
    def word_set(self) -> frozenset[int]:
        """All GF(2)-linear combinations of `rows`, packed."""
        return frozenset(xor_span(self.rows))

    @functools.cached_property
    def weight_distribution(self) -> dict[int, int]:
        return dict(Counter(word_weight(bits, N) for bits in self.word_set))


@functools.lru_cache(maxsize=None)
def e10_table() -> QuaternaryGeneratorMatrix:
    return QuaternaryGeneratorMatrix("E10", tuple(parse_symbols(r, N) for r in _E10_ROWS))


@functools.lru_cache(maxsize=None)
def b10_table() -> QuaternaryGeneratorMatrix:
    return QuaternaryGeneratorMatrix("B10", tuple(parse_symbols(r, N) for r in _B10_ROWS))


# ---------------------------------------------------------------------------
# Generators and orbit types
# ---------------------------------------------------------------------------

# The printed automorphisms of E10 as maps of packed words (coordinate i
# at bits 2i-2..2i-1, so block j is the nibble at bits 4j-4..4j-1).  Each
# permutes the five blocks, swaps inside an even number of them or scales
# every symbol, so they generate a subgroup of the order-5760 monomial group
# (5! block permutations x 16 even swap patterns x 3 scalars).
GENERATORS = {
    "(12)(34)": lambda b: (b & ~0xFF) | (b & 0x33) << 2 | (b >> 2) & 0x33,
    "(13)(24)": lambda b: (b & ~0xFF) | (b & 0xF) << 4 | (b >> 4) & 0xF,
    "(13579)(2468 10)": lambda b: (b << 4 | b >> 16) & 0xFFFFF,
    "w": lambda b: word_times_w(b, N),
}


def orbit(word: int) -> set[int]:
    """The orbit of a packed 10-symbol word under the generated group: the
    closure of the word under the four generators (a finite group holds the
    inverse of each generator as one of its powers)."""
    seen = {packed(word, N)}
    todo = list(seen)
    while todo:
        bits = todo.pop()
        for image in [g(bits) for g in GENERATORS.values()]:
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


@dataclass(frozen=True)
class OrbitType:
    """One of the eight codeword types, with its printed representative."""

    type_id: int
    representative: int  # packed
    expected_count: int
    weight: int


_TYPE_DATA = (
    (1, "1111000000", 30, 4),
    (2, "10101010wW", 240, 6),
    (3, "wwWW110000", 60, 6),
    (4, "1111111100", 15, 8),
    (5, "1111wwww00", 90, 8),
    (6, "WwWw1010wW", 480, 8),
    (7, "WwWwwWwWwW", 48, 10),
    (8, "111111WWww", 60, 10),
)

ORBIT_TYPES: tuple[OrbitType, ...] = tuple(
    OrbitType(tid, parse_symbols(rep, N), count, weight)
    for tid, rep, count, weight in _TYPE_DATA
)


@functools.lru_cache(maxsize=None)
def orbit_lookup() -> dict[int, int]:
    """Packed codeword -> type id, built from the orbit of every printed
    representative under the generators.

    The expansion must tile the 1023 nonzero E10 codewords exactly once:
    an orbit whose size is not its printed count, an image outside E10, or
    a union or a sum of the counts other than 1023 (two types that meet,
    or a missing type) is a hard error, so a successful build verifies the
    paper's eight types.
    """
    codewords = e10_table().word_set
    lookup: dict[int, int] = {}
    for typ in ORBIT_TYPES:
        words = orbit(typ.representative)
        if len(words) != typ.expected_count:
            raise InternalInvariantError(
                f"type {typ.type_id} has {len(words)} words, want {typ.expected_count}")
        if not words <= codewords:
            raise InternalInvariantError(
                f"type {typ.type_id} reaches {min(words - codewords):#x}, not in E10")
        lookup.update(dict.fromkeys(words, typ.type_id))
    if not len(lookup) == CODE_SIZE - 1 == sum(t.expected_count for t in ORBIT_TYPES):
        raise InternalInvariantError(f"orbits cover {len(lookup)} words, want 1023 each once")
    return lookup


def classify_type(word: int) -> OrbitType:
    """The unique type whose orbit contains the given packed nonzero
    codeword."""
    bits = packed(word, N)
    if bits == 0:
        raise ValueError("the zero word has no type")
    tid = orbit_lookup().get(bits)
    if tid is None:
        raise ValueError(f"{format_symbols(bits, N)} is not a codeword of E10")
    return ORBIT_TYPES[tid - 1]


def orbit_census() -> dict[int, int]:
    """Codewords per type; building orbit_lookup checks that they tile E10."""
    return dict(Counter(orbit_lookup().values()))
