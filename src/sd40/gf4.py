"""Arithmetic in GF(4) and packed fixed-length words over it.

Field elements are the ints 0..3 standing for {0, 1, w, W} where W = w^2
= w + 1.  The two-bit encoding (0=00, 1=01, w=10, W=11) makes addition a
plain XOR; multiplication, conjugation and trace are the lookup tables
MUL, CONJ and TRACE.

A word of n symbols is packed into a single int, two bits per symbol,
position i (0-based, leftmost symbol first) at bits 2i..2i+1.  Packing
keeps codeword tables small and makes vector addition one XOR.  Every
layer passes words packed; `Gf4Word` only prints and parses them.

Every linear structure in the package (codeword tables of GF(2)-spans and
lookup tables of GF(2)-linear maps) is built by `xor_span`, as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

ZERO, ONE, OMEGA, OMEGA_BAR = 0, 1, 2, 3

# w*w = W, w*W = 1: the nonzero elements are the cube roots of unity.
MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
CONJ = (0, 1, 3, 2)   # a -> a^2
TRACE = (0, 0, 1, 1)  # a + a^2, lands in {0, 1}

# Text alphabet used by the CLI and test fixtures.
ALPHABET = "01wW"
_VALUE_OF_CHAR = {c: v for v, c in enumerate(ALPHABET)}


class InternalInvariantError(RuntimeError):
    """A state the decoding theory rules out; indicates a bug, not input."""


def xor_span(rows: Sequence[int]) -> list[int]:
    """All 2^k GF(2)-combinations of k rows: entry i is the XOR of the rows
    at the set bits of i (bit j selects rows[j]).

    Over the basis images of a GF(2)-linear map this is the map's lookup
    table.  The list doubles once per row.
    """
    words = [0]
    for row in rows:
        words += [w ^ row for w in words]
    return words


def byte_tables(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Lookup tables of a GF(2)-linear map, given the image of every input
    bit p (images[p]): entry b of table k is the image of byte k holding b
    (the last table has 2^(len(images) - 8k) entries).  A word's image is
    the XOR of its bytes' entries."""
    return tuple(tuple(xor_span(images[p:p + 8])) for p in range(0, len(images), 8))


def leader_table(leaders: Iterable[int], syndrome: Callable[[int], int]) -> dict[int, int]:
    """Syndrome -> leader, for coset leaders whose syndromes the code's
    distance makes distinct; InternalInvariantError when two share one."""
    table: dict[int, int] = {}
    for e in leaders:
        s = syndrome(e)
        if s in table:
            raise InternalInvariantError(
                f"coset leaders {table[s]:#x} and {e:#x} share syndrome {s:#x}")
        table[s] = e
    return table


def nonzero_mask(n: int) -> int:
    """Mask with bit pattern 01 repeated n times (low bit of each field)."""
    return int("01" * n, 2)


def word_weight(bits: int, n: int) -> int:
    """Number of nonzero symbols in a packed n-symbol word."""
    return ((bits | (bits >> 1)) & nonzero_mask(n)).bit_count()


def word_times_w(bits: int, n: int) -> int:
    """w times a packed n-symbol word: a0 + a1 w becomes a1 + (a0 + a1) w,
    so each symbol's new low bit is its high bit and its new high bit the
    XOR of the two."""
    hi = (packed(bits, n) >> 1) & nonzero_mask(n)
    return hi | ((bits ^ hi) & nonzero_mask(n)) << 1


@dataclass(frozen=True, slots=True)
class Gf4Word:
    """Immutable length-n vector over GF(4), packed two bits per symbol."""

    bits: int
    n: int = 10

    def __post_init__(self) -> None:
        # Bits above 2n would be invisible to printing yet count for
        # equality, so a word holds exactly n symbols.
        if (type(self.bits) is not int or type(self.n) is not int or self.n < 0
                or not 0 <= self.bits < 1 << (2 * self.n)):
            raise ValueError(f"bits {self.bits!r} do not pack {self.n} GF(4) symbols")

    @classmethod
    def from_symbols(cls, symbols: Iterable[int], n: int | None = None) -> "Gf4Word":
        syms = tuple(symbols)
        if n is not None and (type(n) is not int or len(syms) != n):
            raise ValueError(f"expected {n!r} symbols, got {len(syms)}")
        bits = 0
        for i, s in enumerate(syms):
            if type(s) is not int or not 0 <= s <= 3:
                raise ValueError(f"symbol {s!r} at position {i + 1} is not in GF(4)")
            bits |= s << (2 * i)
        return cls(bits, len(syms))

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> "Gf4Word":
        try:
            symbols = [_VALUE_OF_CHAR[c] for c in text]
        except KeyError as exc:
            raise ValueError(
                f"bad symbol {exc.args[0]!r}; alphabet is {ALPHABET!r}"
            ) from None
        return cls.from_symbols(symbols, n)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        for _ in range(self.n):
            yield bits & 3
            bits >>= 2

    def to_string(self) -> str:
        return "".join(ALPHABET[s] for s in self)

    def __repr__(self) -> str:
        return f"Gf4Word({self.to_string()!r})"


def packed(word: int, n: int) -> int:
    """The bits of a packed n-symbol word, checked: anything but an int
    in [0, 4^n), a Gf4Word included, is a ValueError."""
    # A length is an int >= 0, not True (== 1) or 10.0 (== 10).
    if type(n) is int and n >= 0 and type(word) is int and 0 <= word < 1 << (2 * n):
        return word
    raise ValueError(f"{word!r} is not a packed {n!r}-symbol word")


def hermitian_inner(x: int, y: int, n: int) -> int:
    """Hermitian inner product sum_i x_i * conj(y_i), in GF(4), of two
    packed n-symbol words."""
    x, y = packed(x, n), packed(y, n)
    acc = 0
    for i in range(0, 2 * n, 2):
        acc ^= MUL[(x >> i) & 3][CONJ[(y >> i) & 3]]
    return acc


def trace_inner(x: int, y: int, n: int) -> int:
    """Trace inner product sum_i Tr(x_i * conj(y_i)), in GF(2): the trace
    of the Hermitian product, since the trace is additive.

    A position contributes 1 exactly when the two symbols there are
    distinct nonzero elements.
    """
    return TRACE[hermitian_inner(x, y, n)]
