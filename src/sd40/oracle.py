"""Independent ground-truth decoders for the binary [40,20,8] codes.

`oracle_decode` is an information-set search over the reduced basis
(Prange, 1962).  An `OracleTable` is the generator matrix whose rows are
that basis: its constructor checks them as any `BinaryGeneratorMatrix`
(20 rows of 40-bit words, rank 20), then that they are reduced.  Each
reduced row's pivot, its leading bit, is in no other row, so "bit p ->
the row whose pivot is p, else 0" is GF(2)-linear and maps a word v to
`base`, the one codeword that agrees with v on the 20 pivot positions.
A codeword c within distance 3 of v differs from v, and so from base,
in at most 3 pivot positions, and a codeword is fixed by its pivot
bits: c = base ^ u for u one of the 1,351 XORs of at most
three reduced rows (1 + 20 + 190 + 1140).  The search tries them in
turn and returns the first within radius 3; minimum distance 8 makes
that hit the only one.  The argument reads nothing but the table's
rows: neither the projection decoders nor the coset-leader index.

The certified-distance shortcut `indexed_decode` answers the same query
through a table of the 10701 coset leaders of weight at most 3 (their
binary syndromes are pairwise distinct exactly because d = 8).  The
syndrome is GF(2)-linear in the received bits, so it is five lookups in
256-entry byte tables, XORed.  The index exists so that million-query
agreement sweeps finish in seconds; tests prove it identical to the search.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations

from .constructions import BinaryGeneratorMatrix
from .gf4 import byte_tables, leader_table
from .projection import N_BITS, RADIUS


@dataclass(frozen=True)
class OracleTable(BinaryGeneratorMatrix):
    """The oracle of a [40,20] code: a generator matrix whose rows are its
    reduced basis.  Every lookup table is built from the rows on first use."""

    def __post_init__(self) -> None:
        super().__post_init__()
        # The search reads each row's leading bit as a pivot in no other row.
        if self.reduced != tuple(sorted(self.rows, reverse=True)):
            raise ValueError(f"{self.name}: rows are not a reduced basis")

    @functools.cached_property
    def leader_index(self) -> dict[int, int]:
        """Binary syndrome -> unique error word of weight <= 3."""
        positions = [1 << (N_BITS - 1 - i) for i in range(N_BITS)]
        return leader_table((sum(combo) for r in range(RADIUS + 1)
                             for combo in combinations(positions, r)), self._syndrome)

    @functools.cached_property
    def _syndrome_bytes(self) -> tuple[tuple[int, ...], ...]:
        # Bit p of a word toggles syndrome bit r exactly when row r has bit p.
        return byte_tables([sum(((row >> p) & 1) << r for r, row in enumerate(self.rows))
                            for p in range(N_BITS)])

    @functools.cached_property
    def _pivot_bytes(self) -> tuple[tuple[int, ...], ...]:
        # Bit p of a word maps to the row whose pivot is p, else to 0.
        pivot_rows = {row.bit_length() - 1: row for row in self.rows}
        return byte_tables([pivot_rows.get(p, 0) for p in range(N_BITS)])

    @functools.cached_property
    def _near_codewords(self) -> tuple[int, ...]:
        """The XORs of at most RADIUS reduced rows, zero first."""
        return tuple(functools.reduce(operator.xor, combo, 0)
                     for r in range(RADIUS + 1) for combo in combinations(self.rows, r))

    def _syndrome(self, v: int) -> int:
        """Bit r is the parity of v & rows[r].  v must lie in [0, 2^40): a
        negative v would index the last table from its end, silently."""
        s0, s1, s2, s3, s4 = self._syndrome_bytes
        return (s0[v & 0xFF] ^ s1[(v >> 8) & 0xFF] ^ s2[(v >> 16) & 0xFF]
                ^ s3[(v >> 24) & 0xFF] ^ s4[v >> 32])


def build_oracle(matrix: BinaryGeneratorMatrix) -> OracleTable:
    """The oracle of a matrix, over its reduced basis; nothing is
    enumerated until a table is read."""
    return OracleTable(matrix.name, matrix.reduced)


def oracle_decode(v: int, table: OracleTable) -> int | None:
    """Nearest codeword by information-set search, or None beyond
    radius 3: `base` agrees with v on the pivot positions, and the answer
    is base ^ u for the near codeword u within the radius of v ^ base."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    p0, p1, p2, p3, p4 = table._pivot_bytes
    base = (p0[v & 0xFF] ^ p1[(v >> 8) & 0xFF] ^ p2[(v >> 16) & 0xFF]
            ^ p3[(v >> 24) & 0xFF] ^ p4[v >> 32])
    d = v ^ base
    for u in table._near_codewords:
        if (d ^ u).bit_count() <= RADIUS:
            return base ^ u
    return None


def indexed_decode(v: int, table: OracleTable) -> int | None:
    """Search-equivalent fast path via the weight-<=3 coset-leader index."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    s0, s1, s2, s3, s4 = table._syndrome_bytes
    e = table.leader_index.get(s0[v & 0xFF] ^ s1[(v >> 8) & 0xFF] ^ s2[(v >> 16) & 0xFF]
                               ^ s3[(v >> 24) & 0xFF] ^ s4[v >> 32])
    return None if e is None else v ^ e
