"""Independent ground-truth decoder for the binary [40,20,8] codes.

The linear scan enumerates all 2^20 codewords on first use and answers
nearest-codeword queries by scanning them; minimum distance 8 makes any codeword
within radius 3 unique, so a scan may stop at the first hit.  That scan
is the trust anchor: it assumes nothing but the table.

The certified-distance shortcut `indexed_decode` answers the same query
through a table of the 10701 coset leaders of weight at most 3 (their
binary syndromes are pairwise distinct exactly because d = 8).  The
syndrome is GF(2)-linear in the received bits, so it is five lookups in
256-entry byte tables, XORed.  The index exists so that million-query
agreement sweeps finish in seconds; tests prove it identical to the scan.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import combinations

from .constructions import BinaryGeneratorMatrix
from .gf4 import byte_tables, leader_table, xor_span_array
from .projection import N_BITS, RADIUS


@dataclass(frozen=True)
class OracleTable:
    """The oracle of a [40,20] code, held as its reduced basis.  Every
    lookup table is built from the rows on first use, and so is `words`,
    the codeword array that only the linear scan reads."""

    name: str
    rows: tuple[int, ...]  # reduced basis used for enumeration and syndromes

    @functools.cached_property
    def words(self):
        """All 2^20 codewords as a uint64 array: words[i] is the XOR of the
        rows at the set bits of i, the order `certify` reads."""
        return xor_span_array(self.rows)

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
    """Nearest codeword by linear scan of `table.words`, or None beyond
    radius 3.

    Scans in chunks and exits at the first codeword within the radius,
    which is the unique nearest one because the distance is 8.
    """
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    import numpy as np

    target = np.uint64(v)
    chunk = 1 << 16
    words = table.words
    for start in range(0, words.size, chunk):
        block = words[start:start + chunk]
        dists = np.bitwise_count(block ^ target)
        pos = int(dists.argmin())
        if dists[pos] <= RADIUS:
            return int(block[pos])
    return None


def indexed_decode(v: int, table: OracleTable) -> int | None:
    """Scan-equivalent fast path via the weight-<=3 coset-leader index."""
    if type(v) is not int or v >> N_BITS:  # v >> N_BITS is -1 for every negative v
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")
    e = table.leader_index.get(table._syndrome(v))
    return None if e is None else v ^ e


def words_sha256(table: OracleTable) -> str:
    return hashlib.sha256(table.words.astype("<u8").tobytes()).hexdigest()
