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

The erasure set fixes the budget: k erasures leave room for (3 - k) // 2
unknown errors.  E10 is GF(4)-linear, so the projection search depends
on the erasure set and not on the word.  Each of the 176 erasure sets a
case can give gets one lazily built list of the projection error words
inside its budget (9,551 in all), and the decoders differ only in how
they search it.  The representation decoder clears y's first erasure
column and probes the listed e zero there (31, 28, 4, 16 in cases I-IV)
in E10 keyed with that column cleared, which finds a budget's codeword
whatever it holds there.  Two probes differ in at most 2 symbols
(k - 1 + 2*errors, or 2 if k = 0) and E10 keeps distance 3 with a column
cleared (4 if k = 0), so no second hit fits.  The syndrome decoder looks
s = H conj(y)^T up in a per-budget table from syndrome to listed error
word, H being the five GF(4)-basis rows of the code's generator matrix;
building that table checks that no two listed words share a syndrome.

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
both times: the error word stays put.  The lift maps the error word,
the erasure set and off, v's top-row parity XOR the one the code wants,
to the flips or a LiftError.  Under DE c's top-row parity equals its
column parity (projection O), so c moves v's top-row parity exactly when
it moves the majority parity that DE wants; under SE it is even
(projection E), as SE wants.  So off and the lift's answer stay put, and
(v + c) ^ flips is the codeword moved by c.

A decode checks its input once: _decode the code, and its first read of
the word.  The searches and the lift, like proj_bits, check nothing:
they take the packed ints that _decode built.  _decode reads v for its
parities and projection (classify_case and proj_bits, or one
read_columns for syndrome decoding), its top-row parity, and to apply
the flips; the lift, given the error word either search gives, the
case's erasure nibbles and off, returns the flips and never sees v.  A
DecodeOutcome stores four facts, the flips as the one 40-bit mask
received ^ codeword, and derives ok, reason, the flipped bits and the
corrected projection, which the lift writes into the codeword.  It is a
frozen dataclass over SimpleNamespace, whose C __init__ writes the four
fields, by keyword, in one call; equality, hashing, repr and replace are
the dataclass's.  A declared failure is one shared outcome per
(algorithm, case), 2 x 353.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace

from .gf4 import InternalInvariantError, byte_tables, hermitian_inner, leader_table, xor_span
from .projection import (N_BITS, N_COLS, TOP_ROW_MASK, LiftError, lift, parity_profile, proj_bits,
                         read_columns)
from .quaternary import e10_table

FAILURE_REASON = "more than three errors occurred"


@dataclass(frozen=True, eq=False)
class CaseLabel:
    """Parity case of a received array, equal only to itself; its erasure columns fix the budget."""

    case_id: str  # "I".."IV"
    majority_parity: int
    erasure_columns: tuple[int, ...]  # 1-based minority columns
    erasure_nibbles: int = field(repr=False)  # 0xF at each erasure column of v, for lift

    @property
    def parity_split(self) -> str:
        k = len(self.erasure_columns)
        return f"[{N_COLS - k}; {k}]"

    def __reduce__(self) -> tuple:  # pickle and deepcopy give back the table's own label
        return _case_label, (_CASES.index(self),)


_CASE_IDS = ("I", "II", "III", "IV")


def _case_table() -> tuple[CaseLabel | None, ...]:
    """Column parity vector -> case, one label object each.  The columns off
    the majority parity are the erasures; four or more of them make no case."""
    table: list[CaseLabel | None] = [None] * (1 << N_COLS)
    for k, case_id in enumerate(_CASE_IDS):
        for minority in itertools.combinations(range(1, N_COLS + 1), k):
            mask = sum(1 << (c - 1) for c in minority)
            # The minority columns are the odd ones under an even majority
            # and the even ones under an odd majority.
            for majority, parities in ((0, mask), (1, mask ^ ((1 << N_COLS) - 1))):
                table[parities] = CaseLabel(case_id, majority, minority,
                                            sum(0xF << 4 * (N_COLS - c) for c in minority))
    return tuple(table)


_CASES = _case_table()


def _case_label(parities: int) -> CaseLabel | None:
    return _CASES[parities]


def classify_case(v: int) -> CaseLabel | None:
    """The case of the column parities of v, or None when four or more
    columns disagree with the majority.  ValueError: v is no 40-bit word."""
    return _CASES[parity_profile(v)]


@dataclass(frozen=True, init=False)
class DecodeOutcome(SimpleNamespace):
    """Either a corrected codeword with its diagnosis, or a declared failure."""

    algorithm: str
    codeword: int | None
    flips: int  # received ^ codeword, 0 for a declared failure
    case: CaseLabel | None

    @property
    def ok(self) -> bool:
        return self.codeword is not None

    @property
    def flipped_bits(self) -> tuple[int, ...]:
        """The 1-based flipped coordinates, in increasing order."""
        return tuple(i for i in range(1, N_BITS + 1) if self.flips >> (N_BITS - i) & 1)

    @property
    def reason(self) -> str | None:
        return None if self.codeword is not None else FAILURE_REASON

    @property
    def corrected_projection(self) -> int | None:  # packed
        return None if self.codeword is None else proj_bits(self.codeword)


# ---------------------------------------------------------------------------
# The erasure budgets and the representation search
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _budget_patterns(*erasures: int) -> tuple[int, ...]:
    """Every projection error word inside the budget of an erasure set:
    any value (zero included) on each erasure column plus, with fewer
    than two erasures, at most one nonzero symbol on the other columns.
    An erased position may keep its value because a flipped top-row bit
    changes a column's parity but not its projection."""
    fills = xor_span([val << (2 * (c - 1)) for c in erasures for val in (1, 2)])
    patterns = list(fills)
    if len(erasures) < 2:  # 2*errors + erasures < 4 leaves room for one error
        for c in range(1, N_COLS + 1):
            if c not in erasures:
                patterns += [f | val << (2 * (c - 1)) for val in (1, 2, 3) for f in fills]
    return tuple(patterns)


@functools.lru_cache(maxsize=None)
def _e10_index(keep: int) -> dict[int, int]:
    """E10 keyed by its codewords masked by keep, which clears at most one
    column.  Building it checks the minimum distance 4 that makes a
    budget's first hit its only one."""
    table = e10_table()
    if min(w for w in table.weight_distribution if w) < 4:
        raise InternalInvariantError(f"{table.name} has a nonzero word of weight below 4")
    return {w & keep: w for w in table.word_set}


@functools.lru_cache(maxsize=None)
def _probes(*erasures: int) -> tuple[int, dict[int, int], tuple[int, ...]]:
    """The mask clearing the first erasure column, its index, and the budget zero there."""
    keep = ~(3 << 2 * (erasures[0] - 1)) if erasures else -1
    return keep, _e10_index(keep), tuple(e for e in _budget_patterns(*erasures) if e & keep == e)


def find_closest_in_e10(y: int, erasures: tuple[int, ...]) -> int | None:
    """The unique codeword within the budget of the erasure set from y, or
    None.  A decode stage: y is the packed projection of the received word
    and erasures the erasure columns of its case, and neither is checked.
    InternalInvariantError: E10 has a nonzero word of weight below 4,
    found as _e10_index builds the index that _probes hands it."""
    keep, index, probes = _probes(*erasures)
    y &= keep
    for e in probes:
        if y ^ e in index:  # the only hit (see the module doc)
            return index[y ^ e]
    return None


# ---------------------------------------------------------------------------
# Finding the corrected projection: syndromes over GF(4)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _syndrome_bytes() -> tuple[tuple[int, ...], ...]:
    """Byte tables: entry b of table k is the syndrome of the symbols at
    0-based positions 4k..4k+3 packed in byte b of a word (the last table
    covers positions 8 and 9 only).  H is E10's five GF(4)-basis rows,
    parity checks by Hermitian self-duality, so symbol k of H conj(y)^T
    is hermitian_inner(row k, y).  It is GF(2)-linear: a word's syndrome
    is the XOR of its three byte syndromes."""
    rows = e10_table().linear_rows
    return byte_tables([sum(hermitian_inner(row, val << (2 * c), N_COLS) << (2 * k)
                            for k, row in enumerate(rows))
                        for c in range(N_COLS) for val in (1, 2)])


def syndrome(y: int) -> int:
    """H conj(y)^T, packed, zero exactly on codewords; ValueError: y is no 10-symbol word."""
    if type(y) is not int or y >> 2 * N_COLS:  # y >> 20 is -1 for every negative y
        raise ValueError(f"{y!r} is not a packed {N_COLS}-symbol word")
    s0, s1, s2 = _syndrome_bytes()
    return s0[y & 0xFF] ^ s1[(y >> 8) & 0xFF] ^ s2[y >> 16]


@functools.lru_cache(maxsize=None)
def _syndrome_table(*erasures: int) -> dict[int, int]:
    """Packed syndrome -> the packed error word inside the budget that has it."""
    return leader_table(_budget_patterns(*erasures), syndrome)


def solve_syndrome(s: int, erasures: tuple[int, ...]) -> int | None:
    """The unique packed error word e with s = H conj(e)^T inside the
    budget of the erasure set, or None; an erased column may carry no
    projection error.  An unchecked decode stage, like find_closest_in_e10."""
    return _syndrome_table(*erasures).get(s)


# ---------------------------------------------------------------------------
# The two decoders
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _failure(algorithm: str, case: CaseLabel | None) -> DecodeOutcome:
    """The shared declared-failure outcome of an algorithm and case."""
    return DecodeOutcome(algorithm=algorithm, codeword=None, flips=0, case=case)


def _decode(v: int, algorithm: str, code: str) -> DecodeOutcome:
    if code not in ("DE", "SE"):
        raise ValueError(f"code must be DE or SE, got {code!r}")
    if algorithm == "representation":
        case = classify_case(v)  # rejects v outside [0, 2^40)
        if case is None:
            return _failure(algorithm, None)
        y = proj_bits(v)
        corrected = find_closest_in_e10(y, case.erasure_columns)
        error = None if corrected is None else y ^ corrected
    else:
        columns = read_columns(v)  # the parities and the projection; rejects v likewise
        case = _CASES[columns >> 20]
        if case is None:
            return _failure(algorithm, None)
        error = solve_syndrome(syndrome(columns & 0xFFFFF), case.erasure_columns)
    if error is None:
        return _failure(algorithm, case)
    # Projection O ties the top row to the column parity; projection E
    # wants it even regardless.
    off = (v & TOP_ROW_MASK).bit_count() & 1 ^ (case.majority_parity if code == "DE" else 0)
    try:
        flips = lift(error, case.erasure_nibbles, off)
    except LiftError:
        return _failure(algorithm, case)
    return DecodeOutcome(algorithm=algorithm, codeword=v ^ flips, flips=flips, case=case)


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

