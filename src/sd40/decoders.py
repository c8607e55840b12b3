"""Projection decoding of the binary [40,20,8] codes, radius 3.

Both decoders share the same skeleton.  Column parities of the received
array split the columns into a majority and at most three minority
columns; minority columns are erasures of the projected word, and the
error budget per case is

    case I   [10;0]  up to 1 unknown error, 0 erasures
    case II  [9;1]   up to 1 unknown error, 1 erasure
    case III [8;2]   0 unknown errors,      2 erasures
    case IV  [7;3]   0 unknown errors,      3 erasures

since unique decoding of the projected word needs 2*errors + erasures
< 4.  The case is one lookup indexed by the 10-bit column parity vector.

E10 is GF(4)-linear, so the projection search depends on the budget
(erasure columns, max_errors) and not on the word.  Each of the 187 valid
budgets gets one lazily built list of the projection error words inside
it (9,592 in all), and the decoders differ only in how they search it.
The representation decoder stops at the first listed e with y + e in
E10: two listed words differ in at most len(erasures) + 2*max_errors <= 3
symbols and E10 has minimum distance 4, so no second e fits.  The
syndrome decoder looks s = H conj(y)^T up in a per-budget table from
syndrome to listed error word, H being the five GF(4)-basis rows of the
code's generator matrix; building that table checks that no two listed
words share a syndrome, the uniqueness the budget bound promises.

The corrected projection is then written back into the array by the
column-rewrite lift; a received word is decodable exactly when the lift
stays within three bit flips, so every outcome here coincides with
exhaustive nearest-codeword search at radius 3.  Four or more minority
columns, a failed projection search, or an over-budget lift all yield
the declaration that more than three errors occurred.

Both decoders commute with translation by a codeword c of the decoded
code: v + c gets the same verdict and flipped bits as v, and codeword + c
when decoding succeeds.  Every codeword has uniform column parity, so c
keeps every column parity or flips them all; the minority columns, and
with them the case and its budget, stay put.  The projection is
GF(2)-linear and c projects into E10, which is linear, so the search on
y + proj(c) finds the corrected projection moved by proj(c), or nothing
both times.  Within a column the nibble -> (symbol, parity) map is
GF(2)-linear with kernel {0000, 1111}, so the two candidate nibbles and
their distances move with c's column and the flip count is unchanged: a
distance-2 tie picks one of two complements, but a tied column also
makes the top-row fix free.  Finally c's top-row parity equals its
column parity (DE, projection O) or is even (SE, projection E), so v + c
meets the top-row rule exactly when v does.  A success is the unique
codeword within three flips, so it moves by c and the flips stay put.

Every stage hands out projections, syndromes and error words as packed
ints (and takes a Gf4Word or its bits), so a decode builds no Gf4Word.
A case carries the parity vector it was looked up by, and the lift takes
it and the projection from the decode instead of reading v again.  A
DecodeOutcome stores four facts and derives ok, reason and the corrected
projection, which the lift writes into the codeword.  A declared failure
is one shared outcome per (algorithm, case), 2 x 353.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .gf4 import CONJ, Gf4Word, InternalInvariantError, byte_tables, packed, xor_span
from .projection import N_COLS, LiftError, lift, parity_profile, proj_bits
from .quaternary import e10_matrix, e10_table

FAILURE_REASON = "more than three errors occurred"


@dataclass(frozen=True)
class CaseLabel:
    """Parity case of a received array and its error/erasure budget."""

    case_id: str  # "I".."IV"
    majority_parity: int
    erasure_columns: tuple[int, ...]  # 1-based minority columns
    max_errors: int  # unknown-position errors allowed on top of erasures
    parities: int = field(compare=False, repr=False)  # the vector classified

    @property
    def parity_split(self) -> str:
        k = len(self.erasure_columns)
        return f"[{N_COLS - k}; {k}]"


_CASE_IDS = ("I", "II", "III", "IV")


def _case_table() -> tuple[CaseLabel | None, ...]:
    """Column parity vector -> case.  The columns off the majority parity
    are the erasures; a vector with four or more of them has no case."""
    table: list[CaseLabel | None] = [None] * (1 << N_COLS)
    for k, case_id in enumerate(_CASE_IDS):
        for minority in itertools.combinations(range(1, N_COLS + 1), k):
            mask = sum(1 << (c - 1) for c in minority)
            # The minority columns are the odd ones under an even majority
            # and the even ones under an odd majority.
            for majority, parities in ((0, mask), (1, mask ^ ((1 << N_COLS) - 1))):
                table[parities] = CaseLabel(case_id, majority, minority,
                                            1 if k <= 1 else 0, parities)
    return tuple(table)


_CASES = _case_table()


def classify_case(v: int) -> CaseLabel | None:
    """The case of the column parities of v, or None when four or more
    columns disagree with the majority.  ValueError: v is no 40-bit word."""
    return _CASES[parity_profile(v)]


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a corrected codeword with its diagnosis, or a declared failure."""

    algorithm: str
    codeword: int | None
    flipped_bits: tuple[int, ...]
    case: CaseLabel | None

    @property
    def ok(self) -> bool:
        return self.codeword is not None

    @property
    def reason(self) -> str | None:
        return None if self.codeword is not None else FAILURE_REASON

    @property
    def corrected_projection(self) -> int | None:  # packed
        return None if self.codeword is None else proj_bits(self.codeword)


# ---------------------------------------------------------------------------
# The erasure budgets and the representation search
# ---------------------------------------------------------------------------


# Typed, here and in _syndrome_table, so that an erasure 1.0 cannot hit column 1.
@functools.lru_cache(maxsize=None, typed=True)
def _budget_patterns(max_errors: int, *erasures: int) -> tuple[int, ...]:
    """Every projection error word inside the budget: any value (zero
    included) on each erasure column plus at most max_errors nonzero
    symbols on the other columns.  An erased position may keep its value
    because a flipped top-row bit changes a column's parity but not its
    projection."""
    if max_errors not in (0, 1) or 2 * max_errors + len(erasures) >= 4:
        raise ValueError("budget violates unique-decoding bound")
    if len(set(erasures)) != len(erasures) or not all(
            type(c) is int and 1 <= c <= N_COLS for c in erasures):
        raise ValueError(f"erasures must be distinct int columns 1..{N_COLS}: {erasures}")
    fills = xor_span([val << (2 * (c - 1)) for c in erasures for val in (1, 2)])
    patterns = list(fills)
    if max_errors:  # the bound leaves room for one error at most
        for c in range(1, N_COLS + 1):
            if c not in erasures:
                patterns += [f | val << (2 * (c - 1)) for val in (1, 2, 3) for f in fills]
    return tuple(patterns)


@functools.lru_cache(maxsize=None)
def _e10_words() -> frozenset[int]:
    """The packed E10 codewords.  Building the set checks the minimum
    distance 4 that makes a budget's first hit its only one."""
    table = e10_table()
    if min(w for w in table.weight_distribution if w) < 4:
        raise InternalInvariantError(f"{table.name} has a nonzero word of weight below 4")
    return table.word_set


def find_closest_in_e10(
    y: Gf4Word | int,
    erasures: tuple[int, ...] = (),
    max_errors: int = 0,
) -> int | None:
    """The unique codeword within the (erasures, max_errors) budget of y,
    or None.  ValueError: y is no 10-symbol projection, max_errors is not
    0 or 1, an erasure is no int column 1..10, or the budget breaks
    2*max_errors + len(erasures) < 4.  InternalInvariantError: E10 has a
    nonzero word of weight below 4."""
    patterns = _budget_patterns(max_errors, *erasures)
    codewords = _e10_words()
    y = packed(y, N_COLS)
    for e in patterns:
        if y ^ e in codewords:  # the only hit (see the module doc)
            return y ^ e
    return None


# ---------------------------------------------------------------------------
# Finding the corrected projection: syndromes over GF(4)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def parity_check_matrix() -> tuple[Gf4Word, ...]:
    """H: the five GF(4)-basis rows of the generator matrix.  Hermitian
    self-duality makes them parity checks: H conj(y)^T = 0 iff y is a
    codeword."""
    return e10_matrix().linear_rows


def h_column(col: int) -> Gf4Word:
    """Column col (1-based) of H as a 5-symbol word."""
    if not 1 <= col <= N_COLS:
        raise ValueError(f"column must lie in 1..{N_COLS}, got {col}")
    h = parity_check_matrix()
    return Gf4Word.from_symbols((row[col - 1] for row in h), 5)


@functools.lru_cache(maxsize=None)
def _syndrome_bytes() -> tuple[tuple[int, ...], ...]:
    """Byte tables: entry b of table k is the syndrome of the symbols at
    0-based positions 4k..4k+3 packed in byte b of a word (the last table
    covers positions 8 and 9 only).  The syndrome is GF(2)-linear, so a
    word's is the XOR of its three byte syndromes; value val at column c
    contributes conj(val) times column c of H."""
    return byte_tables([h_column(c).scaled(CONJ[val]).bits
                        for c in range(1, N_COLS + 1) for val in (1, 2)])


def _syndrome_bits(y: int) -> int:
    """Packed syndrome of a packed projection."""
    s0, s1, s2 = _syndrome_bytes()
    return s0[y & 0xFF] ^ s1[(y >> 8) & 0xFF] ^ s2[y >> 16]


def syndrome(y: Gf4Word | int) -> int:
    """H conj(y)^T as a packed 5-symbol word; zero exactly on codewords."""
    return _syndrome_bits(packed(y, N_COLS))


@functools.lru_cache(maxsize=None, typed=True)
def _syndrome_table(max_errors: int, *erasures: int) -> dict[int, int]:
    """Packed syndrome -> the packed error word inside the budget that has it."""
    table: dict[int, int] = {}
    for e in _budget_patterns(max_errors, *erasures):
        s = _syndrome_bits(e)
        if s in table:
            raise InternalInvariantError(
                f"error words {table[s]:#x} and {e:#x} share syndrome {s:#x}"
            )
        table[s] = e
    return table


def solve_syndrome(
    s: Gf4Word | int,
    erasures: tuple[int, ...] = (),
    max_errors: int = 0,
) -> int | None:
    """The unique packed error word e with s = H conj(e)^T supported on the
    erasure columns plus at most max_errors further positions, or None.
    An erased column may carry no projection error."""
    return _syndrome_table(max_errors, *erasures).get(packed(s, 5))


# ---------------------------------------------------------------------------
# The two decoders
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _failure(algorithm: str, case: CaseLabel | None) -> DecodeOutcome:
    """The shared declared-failure outcome of an algorithm and case."""
    return DecodeOutcome(algorithm, None, (), case)


def _decode(v: int, algorithm: str, code: str) -> DecodeOutcome:
    if code not in ("DE", "SE"):
        raise ValueError(f"code must be DE or SE, got {code!r}")
    if algorithm not in ("representation", "syndrome"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    case = classify_case(v)  # rejects v outside [0, 2^40)
    if case is None:
        return _failure(algorithm, None)
    y = proj_bits(v)
    if algorithm == "representation":
        corrected = find_closest_in_e10(y, case.erasure_columns, case.max_errors)
    else:
        err = solve_syndrome(syndrome(y), case.erasure_columns, case.max_errors)
        # y + e has syndrome zero, so it is an E10 codeword.
        corrected = None if err is None else y ^ err
    if corrected is None:
        return _failure(algorithm, case)
    # Projection O ties the top row to the column parity; projection E
    # wants it even regardless.
    top_parity = case.majority_parity if code == "DE" else 0
    try:  # the front in the layout lift documents, so lift reads v once
        word, flips = lift(v, corrected, case.majority_parity, top_parity,
                           front=y | case.parities << 20)
    except LiftError:
        return _failure(algorithm, case)
    return DecodeOutcome(algorithm, word, flips, case)


def represent_decode(v: int, code: str = "DE", members: None = None) -> DecodeOutcome:
    """Representation decoding: correct the projection by matching E10
    codewords, then rewrite the flagged columns.  `members` takes only None;
    it stays while the benchmark's gate test passes it (ROADMAP.md item 1)."""
    if members is not None:
        raise ValueError("represent_decode searches E10 only; members must be None")
    return _decode(v, "representation", code)


def syndrome_decode(v: int, code: str = "DE") -> DecodeOutcome:
    """Syndrome decoding: solve the GF(4) syndrome equation for the
    projection error, then rewrite the flagged columns."""
    return _decode(v, "syndrome", code)

