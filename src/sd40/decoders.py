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
The representation decoder probes codeword membership of y + e for every
listed e (against the enumerated table or the orbit-type expansion).  The
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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gf4 import CONJ, MUL, Gf4Word, InternalInvariantError
# parity_profile is not called here but stays a name of this module:
# perfbench/spans.py wraps it along with the decoder stages.
from .projection import (N_BITS, N_COLS, LiftError, lift, parity_profile,  # noqa: F401
                         parity_vector, proj_bits)
from .quaternary import e10_matrix, e10_table, orbit_lookup

FAILURE_REASON = "more than three errors occurred"


@dataclass(frozen=True)
class CaseLabel:
    """Parity case of a received array and its error/erasure budget."""

    case_id: str  # "I".."IV"
    majority_parity: int
    erasure_columns: tuple[int, ...]  # 1-based minority columns
    max_errors: int  # unknown-position errors allowed on top of erasures

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
                table[parities] = CaseLabel(case_id, majority, minority, 1 if k <= 1 else 0)
    return tuple(table)


_CASES = _case_table()


def classify_case(v: int) -> CaseLabel | None:
    """Map the column parities to a case, or None when four or more
    columns disagree with the majority (undecodable)."""
    return _CASES[parity_vector(v)]


@dataclass(frozen=True)
class DecodeOutcome:
    """Either a corrected codeword with its diagnosis, or a declared failure."""

    algorithm: str
    ok: bool
    codeword: int | None
    corrected_projection: Gf4Word | None
    flipped_bits: tuple[int, ...]
    case: CaseLabel | None
    reason: str | None = None


# ---------------------------------------------------------------------------
# The erasure budgets and the representation search
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _budget_patterns(erasures: tuple[int, ...], max_errors: int) -> tuple[int, ...]:
    """Every projection error word inside the budget: any value (zero
    included) on each erasure column plus at most max_errors nonzero
    symbols on the other columns.  An erased position may keep its value
    because a flipped top-row bit changes a column's parity but not its
    projection."""
    if max_errors < 0 or 2 * max_errors + len(erasures) >= 4:
        raise ValueError("budget violates unique-decoding bound")
    if len(set(erasures)) != len(erasures) or not set(erasures) <= set(range(1, N_COLS + 1)):
        raise ValueError(f"erasures must be distinct columns 1..{N_COLS}: {erasures}")
    fills = [0]
    for c in erasures:
        fills = [f | val << (2 * (c - 1)) for f in fills for val in range(4)]
    patterns = list(fills)
    if max_errors:  # the bound leaves room for one error at most
        for c in range(1, N_COLS + 1):
            if c not in erasures:
                patterns += [f | val << (2 * (c - 1)) for val in (1, 2, 3) for f in fills]
    return tuple(patterns)


def find_closest_in_e10(
    y: Gf4Word,
    erasures: tuple[int, ...] = (),
    max_errors: int = 0,
    members: frozenset[int] | None = None,
) -> Gf4Word | None:
    """The unique codeword within the (erasures, max_errors) budget of y,
    or None.  Raises InternalInvariantError if two candidates fit, which
    the budget bound 2*max_errors + len(erasures) < 4 rules out."""
    patterns = _budget_patterns(tuple(erasures), max_errors)
    if members is None:
        members = e10_table().word_set
    found = members.intersection(map(y.bits.__xor__, patterns))
    if len(found) > 1:
        raise InternalInvariantError(f"{len(found)} codewords inside budget")
    return Gf4Word(next(iter(found)), N_COLS) if found else None


@functools.lru_cache(maxsize=None)
def orbit_members() -> frozenset[int]:
    """E10 membership derived from the eight type representatives and the
    symmetry group instead of the generator matrix."""
    return frozenset(orbit_lookup()) | {0}


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
    h = parity_check_matrix()
    return Gf4Word.from_symbols((row[col - 1] for row in h), 5)


@functools.lru_cache(maxsize=None)
def _syndrome_contrib() -> tuple[tuple[int, ...], ...]:
    """contrib[pos][val]: packed 5-symbol syndrome of value val at 1-based
    position pos+1, i.e. conj(val) times the corresponding column of H."""
    h = parity_check_matrix()
    table = []
    for pos in range(N_COLS):
        per_val = []
        for val in range(4):
            packed = 0
            for r in range(5):
                packed |= MUL[CONJ[val]][h[r][pos]] << (2 * r)
            per_val.append(packed)
        table.append(tuple(per_val))
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _syndrome_bytes() -> tuple[tuple[int, ...], ...]:
    """Byte tables: entry b of table k is the syndrome of the symbols at
    0-based positions 4k..4k+3 packed in byte b of a word (the last table
    covers positions 8 and 9 only).  The syndrome is GF(2)-linear, so a
    word's is the XOR of its three byte syndromes."""
    contrib = _syndrome_contrib()
    tables = []
    for k in range(3):
        table = [0]
        for pos in range(4 * k, min(4 * k + 4, N_COLS)):
            table = [s ^ c for c in contrib[pos] for s in table]
        tables.append(tuple(table))
    return tuple(tables)


def syndrome(y: Gf4Word) -> Gf4Word:
    """H conj(y)^T as a 5-symbol word; zero exactly on codewords."""
    s0, s1, s2 = _syndrome_bytes()
    bits = y.bits
    return Gf4Word(s0[bits & 0xFF] ^ s1[(bits >> 8) & 0xFF] ^ s2[bits >> 16], 5)


@functools.lru_cache(maxsize=None)
def _syndrome_table(erasures: tuple[int, ...], max_errors: int) -> dict[int, int]:
    """Packed syndrome -> the error word inside the budget that has it."""
    table: dict[int, int] = {}
    for e in _budget_patterns(erasures, max_errors):
        s = syndrome(Gf4Word(e, N_COLS)).bits
        if table.setdefault(s, e) != e:
            raise InternalInvariantError(
                f"error words {table[s]:#x} and {e:#x} share syndrome {s:#x}"
            )
    return table


def solve_syndrome(
    s: Gf4Word,
    erasures: tuple[int, ...] = (),
    max_errors: int = 0,
) -> Gf4Word | None:
    """The unique error word e with s = H conj(e)^T supported on the
    erasure columns plus at most max_errors further positions, or None.
    An erased column may carry no projection error."""
    e = _syndrome_table(tuple(erasures), max_errors).get(s.bits)
    return None if e is None else Gf4Word(e, N_COLS)


# ---------------------------------------------------------------------------
# The two decoders
# ---------------------------------------------------------------------------


def _decode(v: int, algorithm: str, code: str,
             members: frozenset[int] | None = None) -> DecodeOutcome:
    if code not in ("DE", "SE"):
        raise ValueError(f"code must be DE or SE, got {code!r}")
    if not 0 <= v < 1 << N_BITS:
        raise ValueError(f"received word {v} is not a {N_BITS}-bit word")

    def failure(case: CaseLabel | None) -> DecodeOutcome:
        return DecodeOutcome(algorithm, False, None, None, (), case, FAILURE_REASON)

    case = classify_case(v)
    if case is None:
        return failure(None)
    y = proj_bits(v)
    if algorithm == "representation":
        corrected = find_closest_in_e10(
            Gf4Word(y, N_COLS), case.erasure_columns, case.max_errors, members
        )
    elif algorithm == "syndrome":
        err = solve_syndrome(syndrome(Gf4Word(y, N_COLS)),
                             case.erasure_columns, case.max_errors)
        corrected = None if err is None else Gf4Word(y ^ err.bits, N_COLS)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if corrected is None:
        return failure(case)
    # Projection O ties the top row to the column parity; projection E
    # wants it even regardless.
    top_parity = case.majority_parity if code == "DE" else 0
    try:
        word, flips = lift(v, corrected, case.majority_parity, top_parity)
    except LiftError:
        return failure(case)
    return DecodeOutcome(algorithm, True, word, corrected, flips, case)


def represent_decode(v: int, code: str = "DE",
                     members: frozenset[int] | None = None) -> DecodeOutcome:
    """Representation decoding: correct the projection by codeword-pattern
    matching, then rewrite the flagged columns."""
    return _decode(v, "representation", code, members)


def syndrome_decode(v: int, code: str = "DE") -> DecodeOutcome:
    """Syndrome decoding: solve the GF(4) syndrome equation for the
    projection error, then rewrite the flagged columns."""
    return _decode(v, "syndrome", code)


def decode_se(v: int, algorithm: str = "representation") -> DecodeOutcome:
    """Decode against the singly-even code (top row always even)."""
    if algorithm == "representation":
        return represent_decode(v, "SE")
    if algorithm == "syndrome":
        return syndrome_decode(v, "SE")
    raise ValueError(f"unknown algorithm {algorithm!r}")
