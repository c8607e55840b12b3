"""The two Hermitian self-dual (10, 2^10, 4) codes over GF(4).

Provides their GF(2)-basis generator matrices, full 1024-codeword tables
with weight distributions, the order-5760 monomial symmetry group of the
first code (block permutations x even intra-block swaps x nonzero
scalars), and the classification of its 1023 nonzero codewords into
eight orbit types.

Coordinates are grouped into five blocks (1,2) (3,4) (5,6) (7,8) (9,10);
block indices and column indices in the public API are 1-based to match
the printed matrices.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .gf4 import MUL, Gf4Word, InternalInvariantError, packed, trace_inner, word_weight, xor_span

N = 10
CODE_SIZE = 1 << N  # 2^10 GF(2)-linear combinations

# GF(2)-basis rows: the first five generate the code over GF(4), rows
# 6..10 are their w-multiples.  Symbols 0,1,2,3 = 0,1,w,W.
_E10_ROWS = (
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 1, 1, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
    (1, 0, 1, 0, 1, 0, 1, 0, 2, 3),
    (2, 2, 2, 2, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 2, 2, 2, 0, 0, 0, 0),
    (0, 0, 0, 0, 2, 2, 2, 2, 0, 0),
    (0, 0, 0, 0, 0, 0, 2, 2, 2, 2),
    (2, 0, 2, 0, 2, 0, 2, 0, 3, 1),
)

_B10_ROWS = (
    (1, 1, 1, 1, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 1, 2, 3, 1),
    (0, 1, 3, 2, 0, 0, 1, 3, 2, 0),
    (2, 2, 2, 2, 0, 0, 0, 0, 0, 0),
    (0, 2, 3, 1, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 2, 2, 2, 0),
    (0, 0, 0, 0, 0, 0, 2, 3, 1, 2),
    (0, 2, 1, 3, 0, 0, 2, 1, 3, 0),
)


@dataclass(frozen=True)
class QuaternaryGeneratorMatrix:
    """GF(2)-basis of a self-dual additive (10, 2^10) code over GF(4)."""

    name: str
    rows: tuple[Gf4Word, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != N:
            raise ValueError(f"expected {N} rows, got {len(self.rows)}")
        for i in range(5):
            if self.rows[5 + i].bits != self.rows[i].scaled(2).bits:
                raise ValueError(f"row {6 + i} is not w times row {i + 1}")
        for i, x in enumerate(self.rows):
            for y in self.rows[i:]:
                if trace_inner(x, y):
                    raise ValueError(f"{self.name}: rows not self-orthogonal")

    @property
    def linear_rows(self) -> tuple[Gf4Word, ...]:
        """The first five rows: a GF(4)-basis of the underlying linear code."""
        return self.rows[:5]


@dataclass(frozen=True)
class CodeTable:
    """All codewords of an enumerated (10, 2^10) code, packed as ints."""

    name: str
    words: tuple[int, ...]
    word_set: frozenset[int]
    weight_distribution: dict[int, int]


def enumerate_code(matrix: QuaternaryGeneratorMatrix) -> CodeTable:
    """All 2^10 GF(2)-linear combinations of the rows; words[i] is the XOR
    of the rows at the set bits of i (bit j selects row j + 1).

    Raises ValueError if the rows are dependent over GF(2) (span < 2^10).
    """
    words = tuple(xor_span([r.bits for r in matrix.rows]))
    word_set = frozenset(words)
    if len(word_set) != CODE_SIZE:
        raise ValueError(f"{matrix.name}: rows are GF(2)-dependent")
    dist: dict[int, int] = {}
    for bits in words:
        wt = word_weight(bits, N)
        dist[wt] = dist.get(wt, 0) + 1
    return CodeTable(matrix.name, words, word_set, dist)


@functools.lru_cache(maxsize=None)
def e10_matrix() -> QuaternaryGeneratorMatrix:
    return QuaternaryGeneratorMatrix("E10", tuple(Gf4Word.from_symbols(r) for r in _E10_ROWS))


@functools.lru_cache(maxsize=None)
def b10_matrix() -> QuaternaryGeneratorMatrix:
    return QuaternaryGeneratorMatrix("B10", tuple(Gf4Word.from_symbols(r) for r in _B10_ROWS))


@functools.lru_cache(maxsize=None)
def e10_table() -> CodeTable:
    return enumerate_code(e10_matrix())


@functools.lru_cache(maxsize=None)
def b10_table() -> CodeTable:
    return enumerate_code(b10_matrix())


# ---------------------------------------------------------------------------
# Monomial symmetries and orbit types
# ---------------------------------------------------------------------------

NUM_BLOCKS = 5
GROUP_ORDER = 5760  # 5! block permutations x 16 even swap patterns x 3 scalars


@dataclass(frozen=True)
class MonomialSymmetry:
    """One symmetry: permute the five blocks, swap inside an even number
    of blocks, multiply every symbol by a nonzero scalar.

    ``block_perm[j]`` is the 0-based source block written to output block
    j; ``swaps[b]`` says whether source block b has its two coordinates
    interchanged before being moved.
    """

    block_perm: tuple[int, int, int, int, int]
    swaps: tuple[bool, bool, bool, bool, bool]
    scalar: int

    def __post_init__(self) -> None:
        if sorted(self.block_perm) != list(range(NUM_BLOCKS)):
            raise ValueError(f"bad block permutation {self.block_perm}")
        if len(self.swaps) != NUM_BLOCKS or not set(self.swaps) <= {0, 1} or sum(self.swaps) % 2:
            raise ValueError(f"swaps must be {NUM_BLOCKS} booleans, an even number of them true")
        if self.scalar not in (1, 2, 3):
            raise ValueError(f"scalar must be nonzero, got {self.scalar}")

    def apply_bits(self, bits: int) -> int:
        mulrow = MUL[self.scalar]
        out = 0
        for j in range(NUM_BLOCKS):
            src = self.block_perm[j]
            lo = (bits >> (4 * src)) & 3
            hi = (bits >> (4 * src + 2)) & 3
            if self.swaps[src]:
                lo, hi = hi, lo
            out |= mulrow[lo] << (4 * j)
            out |= mulrow[hi] << (4 * j + 2)
        return out

    def apply(self, word: Gf4Word) -> Gf4Word:
        if word.n != N:
            raise ValueError(f"expected length {N}, got {word.n}")
        return Gf4Word(self.apply_bits(word.bits), N)


@functools.lru_cache(maxsize=None)
def full_symmetry_group() -> tuple[MonomialSymmetry, ...]:
    """All 5760 monomial symmetries."""
    perms = list(itertools.permutations(range(NUM_BLOCKS)))
    swap_patterns = [
        p for p in itertools.product((False, True), repeat=NUM_BLOCKS)
        if sum(p) % 2 == 0
    ]
    group = tuple(
        MonomialSymmetry(perm, swaps, scalar)
        for perm in perms
        for swaps in swap_patterns
        for scalar in (1, 2, 3)
    )
    if len(group) != GROUP_ORDER:
        raise InternalInvariantError(f"{len(group)} symmetries, want {GROUP_ORDER}")
    return group


@dataclass(frozen=True)
class OrbitType:
    """One of the eight codeword types, with its printed representative."""

    type_id: int
    representative: Gf4Word
    expected_count: int
    weight: int


_TYPE_DATA = (
    (1, (1, 1, 1, 1, 0, 0, 0, 0, 0, 0), 30, 4),
    (2, (1, 0, 1, 0, 1, 0, 1, 0, 2, 3), 240, 6),
    (3, (2, 2, 3, 3, 1, 1, 0, 0, 0, 0), 60, 6),
    (4, (1, 1, 1, 1, 1, 1, 1, 1, 0, 0), 15, 8),
    (5, (1, 1, 1, 1, 2, 2, 2, 2, 0, 0), 90, 8),
    (6, (3, 2, 3, 2, 1, 0, 1, 0, 2, 3), 480, 8),
    (7, (3, 2, 3, 2, 2, 3, 2, 3, 2, 3), 48, 10),
    (8, (1, 1, 1, 1, 1, 1, 3, 3, 2, 2), 60, 10),
)

ORBIT_TYPES: tuple[OrbitType, ...] = tuple(
    OrbitType(tid, Gf4Word.from_symbols(rep), count, weight)
    for tid, rep, count, weight in _TYPE_DATA
)


@functools.lru_cache(maxsize=None)
def orbit_lookup() -> dict[int, int]:
    """Packed codeword -> type id, built by expanding every representative
    under the full symmetry group.

    The expansion must tile the 1023 nonzero E10 codewords exactly once:
    an image outside E10, an overlap between types or a shortfall in the
    total is a hard error, so a successful build verifies the paper's
    eight types.
    """
    codewords = e10_table().word_set
    lookup: dict[int, int] = {}
    for typ in ORBIT_TYPES:
        rep = typ.representative.bits
        for sym in full_symmetry_group():
            image = sym.apply_bits(rep)
            if image not in codewords:
                raise InternalInvariantError(f"type {typ.type_id} reaches {image:#x}, not in E10")
            prev = lookup.setdefault(image, typ.type_id)
            if prev != typ.type_id:
                raise InternalInvariantError(
                    f"orbit overlap: word in types {prev} and {typ.type_id}"
                )
    if len(lookup) != CODE_SIZE - 1:
        raise InternalInvariantError(f"orbits cover {len(lookup)} words, want 1023")
    return lookup


def classify_type(word: Gf4Word | int) -> OrbitType:
    """The unique type whose orbit contains the given nonzero codeword."""
    bits = packed(word, N)
    if bits == 0:
        raise ValueError("the zero word has no type")
    tid = orbit_lookup().get(bits)
    if tid is None:
        raise ValueError(f"{Gf4Word(bits, N).to_string()} is not a codeword of E10")
    return ORBIT_TYPES[tid - 1]


def orbit_census() -> dict[int, int]:
    """Codewords per type; building orbit_lookup checks that they tile E10."""
    return dict(Counter(orbit_lookup().values()))
