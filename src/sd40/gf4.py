"""Arithmetic in GF(4) and packed fixed-length words over it.

Field elements are the ints 0..3 standing for {0, 1, w, W} where W = w^2
= w + 1.  The two-bit encoding (0=00, 1=01, w=10, W=11) makes addition a
plain XOR; multiplication, conjugation and trace are the lookup tables
MUL, CONJ and TRACE.

A word of n symbols is packed into a single int, two bits per symbol,
position i (0-based, leftmost symbol first) at bits 2i..2i+1.  Packing
keeps codeword tables small and makes vector addition one XOR.  Every
layer passes words packed; `format_symbols` and `parse_symbols` print and
parse them.

Every linear structure in the package (codeword tables of GF(2)-spans and
lookup tables of GF(2)-linear maps) is built by `xor_span`, as a list.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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
    return (4 ** n - 1) // 3


def word_weight(bits: int, n: int) -> int:
    """Number of nonzero symbols in a packed n-symbol word."""
    bits = packed(bits, n)
    return ((bits | (bits >> 1)) & nonzero_mask(n)).bit_count()


def word_times_w(bits: int, n: int) -> int:
    """w times a packed n-symbol word: a0 + a1 w becomes a1 + (a0 + a1) w,
    so each symbol's new low bit is its high bit and its new high bit the
    XOR of the two."""
    hi = (packed(bits, n) >> 1) & nonzero_mask(n)
    return hi | ((bits ^ hi) & nonzero_mask(n)) << 1


def packed(word: int, n: int) -> int:
    """The bits of a packed n-symbol word, checked: anything but an int
    in [0, 4^n) is a ValueError."""
    # A length is an int >= 0, not True (== 1) or 10.0 (== 10).
    if type(n) is int and n >= 0 and type(word) is int and 0 <= word < 1 << (2 * n):
        return word
    raise ValueError(f"{word!r} is not a packed {n!r}-symbol word")


def format_symbols(word: int, n: int) -> str:
    """The text of a packed n-symbol word over ALPHABET, leftmost symbol
    first."""
    bits = packed(word, n)
    return "".join(ALPHABET[(bits >> i) & 3] for i in range(0, 2 * n, 2))


def parse_symbols(text: str, n: int) -> int:
    """The packed word written as text: exactly n symbols over ALPHABET."""
    if type(n) is not int or len(text) != n or not set(text) <= set(ALPHABET):
        raise ValueError(f"{text!r} is not {n!r} symbols over {ALPHABET!r}")
    return sum(ALPHABET.index(c) << 2 * i for i, c in enumerate(text))


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
