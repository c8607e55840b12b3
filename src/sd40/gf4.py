"""Arithmetic in GF(4) and packed fixed-length words over it.

Field elements are the ints 0..3 standing for {0, 1, w, W} where W = w^2
= w + 1.  The two-bit encoding (0=00, 1=01, w=10, W=11) makes addition a
plain XOR; multiplication, conjugation and trace are table lookups.

A word of n symbols is packed into a single int, two bits per symbol,
position i (0-based, leftmost symbol first) at bits 2i..2i+1.  Packing
keeps codeword tables small and makes vector addition one XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


def add(a: int, b: int) -> int:
    """Sum in GF(4); XOR under the two-bit encoding."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Product in GF(4)."""
    return MUL[a][b]


def conj(a: int) -> int:
    """Conjugate a -> a^2 (swaps w and W, fixes 0 and 1)."""
    return CONJ[a]


def trace(a: int) -> int:
    """Trace a + a^2 onto GF(2)."""
    return TRACE[a]


def word_symbol(bits: int, i: int) -> int:
    """Symbol at 0-based position i of a packed word."""
    return (bits >> (2 * i)) & 3


def nonzero_mask(n: int) -> int:
    """Mask with bit pattern 01 repeated n times (low bit of each field)."""
    return int("01" * n, 2)


def word_weight(bits: int, n: int) -> int:
    """Number of nonzero symbols in a packed n-symbol word."""
    return ((bits | (bits >> 1)) & nonzero_mask(n)).bit_count()


def word_scale(bits: int, k: int, n: int) -> int:
    """Packed word with every symbol multiplied by the scalar k."""
    row = MUL[k]
    out = 0
    for i in range(n):
        out |= row[(bits >> (2 * i)) & 3] << (2 * i)
    return out


@dataclass(frozen=True, slots=True)
class Gf4Word:
    """Immutable length-n vector over GF(4), packed two bits per symbol."""

    bits: int
    n: int = 10

    @classmethod
    def from_symbols(cls, symbols: Iterable[int], n: int | None = None) -> "Gf4Word":
        syms = tuple(symbols)
        if n is not None and len(syms) != n:
            raise ValueError(f"expected {n} symbols, got {len(syms)}")
        bits = 0
        for i, s in enumerate(syms):
            if not 0 <= s <= 3:
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

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return word_symbol(self.bits, i)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        for _ in range(self.n):
            yield bits & 3
            bits >>= 2

    def __add__(self, other: "Gf4Word") -> "Gf4Word":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return Gf4Word(self.bits ^ other.bits, self.n)

    def scaled(self, k: int) -> "Gf4Word":
        return Gf4Word(word_scale(self.bits, k, self.n), self.n)

    def conjugated(self) -> "Gf4Word":
        return Gf4Word.from_symbols((CONJ[s] for s in self), self.n)

    def weight(self) -> int:
        return word_weight(self.bits, self.n)

    def to_string(self) -> str:
        return "".join(ALPHABET[s] for s in self)

    def symbols(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Gf4Word({self.to_string()!r})"


def hermitian_inner(x: Gf4Word, y: Gf4Word) -> int:
    """Hermitian inner product sum_i x_i * conj(y_i), in GF(4)."""
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    acc = 0
    for a, b in zip(x, y):
        acc ^= MUL[a][CONJ[b]]
    return acc


def trace_inner(x: Gf4Word, y: Gf4Word) -> int:
    """Trace inner product sum_i Tr(x_i * conj(y_i)), in GF(2).

    A position contributes 1 exactly when the two symbols there are
    distinct nonzero elements.
    """
    if x.n != y.n:
        raise ValueError(f"length mismatch: {x.n} vs {y.n}")
    acc = 0
    for a, b in zip(x, y):
        acc ^= TRACE[MUL[a][CONJ[b]]]
    return acc
