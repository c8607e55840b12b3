import ast
import copy
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import conftest
import pytest

import sd40
from sd40 import decoders as dc
from sd40 import cli, gf4, projection, quaternary
from sd40.constructions import printed_de_matrix, printed_se_matrix, row_reduce
from sd40.gf4 import ALPHABET, CONJ, MUL, format_symbols, parse_symbols, xor_span
from sd40.oracle import indexed_decode
from sd40.projection import (N_COLS, TOP_ROW_MASK, LiftError, format_array_text,
                             has_projection_e, has_projection_o, lift, parity_profile,
                             parse_array_text, proj_bits, read_columns)
from sd40.quaternary import classify_type, e10_matrix

# The four worked examples: received array, corrected projection,
# syndrome of the received projection, flipped coordinates, case.
EXAMPLES = {
    1: (
        "0110111110\n1001000010\n0011100101\n0011100110",
        "10101001Ww", "0001w", (35, 36), "I",
    ),
    2: (
        "1011101110\n0110000010\n1111111000\n1101001011",
        "10WwWw10wW", "wW101", (14, 15, 18), "II",
    ),
    3: (
        "1110011110\n1110100001\n0010011101\n1101101101",
        "wwWW001100", "0000W", (19, 23), "III",
    ),
    4: (
        "1111111111\n1011111111\n1110010101\n0001011010",
        "WwWwwWwWwW", "0000w", (5, 20, 24), "IV",
    ),
}

CORRECTED_ARRAYS = {
    1: "0110111110\n1001000010\n0011100111\n0011100100",
    2: "1011101110\n0111100010\n1110111000\n1101001011",
    3: "1110011110\n1110100001\n0010101101\n1101101101",
    4: "1011111111\n1011111111\n1110010101\n0001101010",
}


def _decoders():
    return (dc.represent_decode, dc.syndrome_decode)


@pytest.mark.parametrize("k", sorted(EXAMPLES))
def test_golden_examples(k):
    array, yprime, syn, flips, case_id = EXAMPLES[k]
    v = parse_array_text(array)
    assert dc.syndrome(proj_bits(v)) == parse_symbols(syn, 5)
    expected_word = parse_array_text(CORRECTED_ARRAYS[k])
    for decode in _decoders():
        out = decode(v)
        assert out.ok
        assert out.case.case_id == case_id
        assert out.corrected_projection == parse_symbols(yprime, 10)
        assert out.flipped_bits == flips
        assert out.codeword == expected_word


def test_classify_case():
    for k, (array, *_rest) in EXAMPLES.items():
        case = dc.classify_case(parse_array_text(array))
        assert case.case_id == _rest[-1]
    # Five against five or four minority columns: no case.
    v54 = parse_array_text("1000000000\n0100000000\n0010000000\n0001100000")
    assert dc.classify_case(v54) is None
    v64 = parse_array_text("1111000000\n0000000000\n0000000000\n0000000000")
    assert dc.classify_case(v64) is None


def test_case_table_matches_parity_profile():
    for parities in range(1 << 10):
        # One bottom-row bit in every odd column.
        v = int("".join(f"000{(parities >> i) & 1}" for i in range(10)), 2)
        assert parity_profile(v) == parities
        case = dc.classify_case(v)
        # Reference: the majority parity holds in more than half of the
        # columns (a 5-5 tie leaves five minority columns either way), and
        # the other columns are the minority.
        odd = parities.bit_count()
        majority = 1 if odd > 10 - odd else 0
        minority = tuple(c for c in range(1, 11) if (parities >> (c - 1)) & 1 != majority)
        if len(minority) > 3:
            assert case is None
            continue
        assert case.case_id == ("I", "II", "III", "IV")[len(minority)]
        assert case.majority_parity == majority
        assert case.erasure_columns == minority


def _errors_allowed(erasures):
    """The most nonzero symbols off the erasures in any error word of the
    erasure set's budget."""
    off = sum(3 << 2 * (c - 1) for c in range(1, 11) if c not in erasures)
    return max(gf4.word_weight(e & off, 10) for e in dc._budget_patterns(*erasures))


def test_case_budgets():
    # The erasure count alone fixes the budget: 2*errors + erasures < 4.
    case = dc.classify_case(0)
    assert case.case_id == "I" and _errors_allowed(case.erasure_columns) == 1
    one = 1 << 39
    case = dc.classify_case(one)
    assert case.case_id == "II" and _errors_allowed(case.erasure_columns) == 1
    assert case.erasure_columns == (1,)
    three = (1 << 39) | (1 << 35) | (1 << 31)
    case = dc.classify_case(three)
    assert case.case_id == "IV" and _errors_allowed(case.erasure_columns) == 0
    assert case.erasure_columns == (1, 2, 3)


def test_find_closest_examples(e10):
    y1 = parse_symbols("10101001ww", 10)
    assert dc.find_closest_in_e10(y1, ()) == parse_symbols("10101001Ww", 10)
    row = e10_matrix().rows[4]
    assert dc.find_closest_in_e10(row, ()) == row
    y3 = parse_symbols("wwWWww1100", 10)
    assert dc.find_closest_in_e10(y3, (5, 6)) == parse_symbols("wwWW001100", 10)
    # Distance 2 from the code with no erasures: nothing inside the budget.
    y_far = parse_symbols("WW11000000", 10)
    assert dc.find_closest_in_e10(y_far, ()) is None


def test_syndrome_examples(e10):
    assert dc.syndrome(parse_symbols("10101001ww", 10)) == parse_symbols("0001w", 5)
    assert dc.syndrome(parse_symbols("wwWWww1100", 10)) == parse_symbols("0000W", 5)
    for bits in e10.word_set:
        assert dc.syndrome(bits) == 0


# H: the five printed GF(4)-basis rows of E10.
H_ROWS = ("1111000000", "0011110000", "0000111100", "0000001111", "10101010wW")


def test_syndrome_byte_tables_match_h():
    # Entry b of table k is H conj(y)^T for the projection y holding b in
    # byte k, symbol r of the syndrome at bits 2r, 2r+1.  The reference
    # multiplies the printed rows out with the field tables alone.
    assert [format_symbols(r, 10) for r in e10_matrix().linear_rows] == list(H_ROWS)
    # Columns 9 and 5 of H, read down the printed rows.
    assert "".join(r[8] for r in H_ROWS) == "0001w" and "".join(r[4] for r in H_ROWS) == "01101"
    h = [[ALPHABET.index(c) for c in row] for row in H_ROWS]
    tables = dc._syndrome_bytes()
    assert [len(t) for t in tables] == [256, 256, 16]
    for k, table in enumerate(tables):
        for b, s in enumerate(table):
            y = [(b << 8 * k) >> i & 3 for i in range(0, 20, 2)]
            want = 0
            for r, row in enumerate(h):
                for a, c in zip(row, y):
                    want ^= MUL[a][CONJ[c]] << 2 * r
            assert s == want


def test_parity_check_matrix_columns():
    # Column c of H is the syndrome of the word with a 1 at column c alone.
    assert format_symbols(dc.syndrome(1 << 2 * 8), 5) == "0001w"
    assert format_symbols(dc.syndrome(1 << 2 * 4), 5) == "01101"


def test_solve_syndrome_examples():
    s1 = parse_symbols("0001w", 5)
    assert dc.solve_syndrome(s1, ()) == parse_symbols("0000000010", 10)
    s2 = parse_symbols("wW101", 5)
    assert dc.solve_syndrome(s2, (5,)) == parse_symbols("000W100000", 10)
    s4 = parse_symbols("0000w", 5)
    assert dc.solve_syndrome(s4, (2, 5, 6)) == parse_symbols("0000WW0000", 10)
    assert dc.solve_syndrome(0, ()) == 0
    # Two-column syndrome with a no-erasure budget is unsolvable.
    two = dc.syndrome(parse_symbols("1w00000000", 10))
    assert dc.solve_syndrome(two, ()) is None


def _coord(col, row):
    return 4 * (col - 1) + row + 1


def _corrupt(word, pattern):
    for col, row in pattern:
        word ^= 1 << (40 - _coord(col, row))
    return word


# Error patterns realizing every row of the case table, as (column, row)
# bit flips.  Decodable rows carry at most three flips; the rest must be
# refused (the chosen instances are oracle-checked to have no codeword
# within distance 3 -- with four or more flips that is instance-specific,
# not guaranteed, which is why the patterns are pinned).
CASE_TABLE = [
    ("I-(i)", [], True),
    ("I-(ii)", [(3, 1), (3, 2)], True),
    ("I-(iii)", [(3, 0), (3, 1), (3, 2), (3, 3)], False),
    ("I-(iv)", [(2, 0), (2, 1), (7, 2), (7, 3)], False),
    ("I-(v)", [(1, 0), (1, 1), (4, 1), (4, 2), (8, 0), (8, 3)], False),
    ("II-(i)", [(5, 2)], True),
    ("II-(i) top row", [(5, 0)], True),
    ("II-(ii)", [(5, 1), (5, 2), (5, 3)], True),
    ("II-(ii) with top row", [(5, 0), (5, 1), (5, 2)], True),
    ("II-(iii)", [(5, 2), (8, 1), (8, 3)], True),
    ("II-(iv)", [(5, 2), (2, 0), (2, 1), (8, 2), (8, 3)], False),
    ("II-(v)", [(5, 2), (1, 0), (1, 2), (4, 1), (4, 3), (9, 0), (9, 1)], False),
    ("III-(i)", [(4, 1), (6, 3)], True),
    ("III-(ii)", [(4, 1), (6, 0), (6, 2), (6, 3)], False),
    ("III-(iii)", [(4, 1), (6, 3), (9, 0), (9, 2)], False),
    ("III-(iv)", [(4, 1), (6, 0), (6, 1), (6, 2), (9, 1), (9, 3)], False),
    ("III-(v)", [(4, 1), (6, 3), (1, 0), (1, 1), (8, 2), (8, 3)], False),
    ("IV-(i)", [(2, 3), (5, 1), (9, 0)], True),
    ("IV-(ii)", [(2, 3), (5, 1), (9, 0), (9, 2), (9, 3)], False),
    ("IV-(iii)", [(2, 3), (5, 1), (9, 0), (7, 1), (7, 2)], False),
    ("IV-(iv)", [(2, 3), (5, 0), (5, 1), (5, 2), (9, 0), (9, 2), (9, 3),
                 (7, 1), (7, 2)], False),
    ("IV-(v)", [(2, 3), (5, 1), (9, 0), (9, 2), (9, 3), (7, 1), (7, 2)], False),
    ("IV-(vi)", [(2, 3), (5, 1), (9, 0), (1, 0), (1, 3), (8, 1), (8, 2)], False),
]

CASE_TABLE_MESSAGE = 0b10110111010001101001


@pytest.mark.parametrize("name,pattern,expect_ok",
                         CASE_TABLE, ids=[c[0] for c in CASE_TABLE])
def test_case_table_rows(name, pattern, expect_ok, de_oracle):
    cw = printed_de_matrix().encode(CASE_TABLE_MESSAGE)
    v = _corrupt(cw, pattern)
    nearest = indexed_decode(v, de_oracle)
    for decode in _decoders():
        out = decode(v)
        assert out.ok == expect_ok, name
        if expect_ok:
            assert out.codeword == cw
            assert len(out.flipped_bits) == len(pattern)
            assert out.codeword == nearest
        else:
            assert out.reason == dc.FAILURE_REASON
            assert nearest is None  # refusal is honest


def test_zero_errors_any_codeword(de_oracle, span_entry):
    rng = random.Random(31)
    for _ in range(50):
        cw = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        for decode in _decoders():
            out = decode(cw)
            assert out.ok and out.codeword == cw and out.flipped_bits == ()
    # The zero codeword is falsy, so a verdict read from bool(codeword)
    # would refuse it.
    for code in ("DE", "SE"):
        for name, decode in cli._decoders().items():
            out = decode(0, code)
            assert (out.ok, out.codeword, out.flipped_bits) == (True, 0, ()), (name, code)
            assert (out.corrected_projection, out.reason) == (0, None), (name, code)


def test_se_decoding(se_oracle):
    rng = random.Random(37)
    m = printed_se_matrix()
    for _ in range(200):
        cw = m.encode(rng.getrandbits(20))
        out = dc.represent_decode(cw, "SE")
        assert out.ok and out.codeword == cw and out.flipped_bits == ()
        weight = rng.randint(1, 3)
        v = cw
        for pos in rng.sample(range(40), weight):
            v ^= 1 << pos
        for decode in (dc.represent_decode, dc.syndrome_decode):
            out = decode(v, "SE")
            assert out.ok and out.codeword == cw, decode.__name__
    # Paired errors in two columns preserve every parity: refused.
    cw = m.encode(1)
    v = _corrupt(cw, [(1, 1), (1, 2), (4, 0), (4, 3)])
    for decode in (dc.represent_decode, dc.syndrome_decode):
        out = decode(v, "SE")
        assert not out.ok
    assert indexed_decode(v, se_oracle) is None


def test_de_se_codes_disagree_on_glue_vector():
    # e_C is singly-even but not doubly-even aligned: decoding it against
    # the wrong variant must not return it unchanged.
    ec = printed_se_matrix().rows[19]
    assert dc.represent_decode(ec, "SE").codeword == ec
    out = dc.represent_decode(ec, "DE")
    assert not (out.ok and out.codeword == ec)


def test_random_word_agreement(de_oracle):
    rng = random.Random(41)
    for _ in range(20_000):
        v = rng.getrandbits(40)
        r = dc.represent_decode(v)
        s = dc.syndrome_decode(v)
        o = indexed_decode(v, de_oracle)
        assert (r.codeword if r.ok else None) == (s.codeword if s.ok else None) == o


# SHA-256 of every outcome field, both decoders, over seeded uniform words
# and codewords with 0-4 flips of each code.  It was taken from outcomes
# that stored all seven fields, so the derived ones must reproduce them.
BEHAVIOUR_SHA256 = "3faf2b5fced7acdd21fdea905982e0268b72485308e408b1eb3145d83948d4af"


def test_outcomes_match_the_pinned_behaviour_hash():
    digest = hashlib.sha256()
    decoded = 0
    for code, m in (("DE", printed_de_matrix()), ("SE", printed_se_matrix())):
        rng = random.Random(f"behaviour:{code}")
        words = [rng.getrandbits(40) for _ in range(5_000)]
        for _ in range(5_000):
            v = m.encode(rng.getrandbits(20))
            for pos in rng.sample(range(40), rng.randint(0, 4)):
                v ^= 1 << pos
            words.append(v)
        for v in words:
            for decode in _decoders():
                o = decode(v, code)
                assert o.flips == (v ^ o.codeword if o.ok else 0)
                case = (None, ()) if o.case is None else (o.case.case_id, o.case.erasure_columns)
                digest.update(f"{o.algorithm} {o.ok} {o.codeword} {o.flipped_bits} "
                              f"{o.corrected_projection} {o.reason} {case}\n".encode())
                decoded += o.ok
    assert decoded == 16_298
    assert digest.hexdigest() == BEHAVIOUR_SHA256


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_decoders_commute_with_codeword_translation(code):
    # The argument is in the sd40.decoders docstring.  Noisy words reach
    # every case and the lift's ties; uniform words mostly fail.
    rng = random.Random(47 if code == "DE" else 53)
    m = printed_de_matrix() if code == "DE" else printed_se_matrix()
    corrected = 0
    for trial in range(20_000):
        c = m.encode(rng.getrandbits(20))
        if trial % 4 == 0:
            v = rng.getrandbits(40)
        else:
            v = m.encode(rng.getrandbits(20))
            for pos in rng.sample(range(40), rng.randint(0, 4)):
                v ^= 1 << pos
        for decode in (dc.represent_decode, dc.syndrome_decode):
            a, b = decode(v, code), decode(v ^ c, code)
            assert (a.ok, a.flipped_bits) == (b.ok, b.flipped_bits), (hex(v), hex(c))
            if a.ok:
                assert b.codeword == a.codeword ^ c
                corrected += 1
    assert corrected > 20_000


def test_case_table_is_invariant_under_complementing_the_parities():
    # Exhaustive check of the sd40.decoders docstring sentence: "Every
    # codeword has uniform column parity, so c keeps every column parity or
    # flips them all; the minority columns, and with them the case and its
    # budget, stay put."
    for parities in range(1 << 10):
        case, flipped = dc._CASES[parities], dc._CASES[parities ^ 0x3FF]
        if case is None:
            assert flipped is None, parities
            continue
        assert (flipped.case_id, flipped.erasure_columns) == (
            case.case_id, case.erasure_columns), parities
        assert flipped.majority_parity == 1 - case.majority_parity


def _lift_flips(v, error, case, top_row_parity):
    """The flip mask lift gives v for the error word, case's erasures and
    the top-row parity wanted, or its LiftError text."""
    try:
        off = (v & TOP_ROW_MASK).bit_count() & 1 ^ top_row_parity
        return lift(error, case.erasure_nibbles, off)
    except LiftError as exc:
        return str(exc)


def test_lift_flips_move_with_a_translating_column():
    # Exhaustive check of the sd40.decoders docstring sentence: "So off and
    # the lift's answer stay put."  Column 1 of v holds any nibble and the
    # others 0000 or 0001.  A translating word holds any t in column 1 and a
    # column of t's parity in the others, so the erasure set stays put, and
    # the top-row parity it wants moves by t's top bit, as v's does.
    others = int("0001" * (N_COLS - 1), 2)
    for nibble, t, symbol, parity, top in itertools.product(
            range(16), range(16), range(4), (0, 1), (0, 1)):
        v = nibble << 36 | parity * others
        u = v ^ (t << 36 | (t.bit_count() & 1) * others)
        case, moved = dc.classify_case(v), dc.classify_case(u)
        assert moved.erasure_columns == case.erasure_columns
        assert _lift_flips(u, symbol, moved, top ^ t >> 3) == _lift_flips(v, symbol, case, top), (
            nibble, t, symbol, parity, top)


def _linear_read(v):
    """L(v): the column parities, the syndrome of the projection and the
    top-row parity of v, 21 bits."""
    top = (v & TOP_ROW_MASK).bit_count() & 1
    return parity_profile(v) << 11 | dc.syndrome(proj_bits(v)) << 1 | top


def test_kernel_of_the_linear_read_lies_in_both_codes():
    # L is GF(2)-linear, so the rows L(e_p) << 40 | e_p span its graph.
    # Their reduced basis has rank L rows with a nonzero image, and the rest,
    # below 2^40, are a basis of ker L.  A word moved by a kernel vector keeps
    # its case, its syndrome and its top-row parity, and the kernel lies in
    # DE and in SE.
    rng = random.Random(16)
    for _ in range(200):
        u, v = rng.getrandbits(40), rng.getrandbits(40)
        assert _linear_read(u ^ v) == _linear_read(u) ^ _linear_read(v)
    basis = row_reduce([_linear_read(1 << p) << 40 | 1 << p for p in range(40)])
    kernel = [row for row in basis if not row >> 40]
    assert (len(basis) - len(kernel), len(kernel)) == (21, 19)
    for matrix in (printed_de_matrix(), printed_se_matrix()):
        assert all(matrix.contains(k) for k in kernel), matrix.name


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_glue_row_moves_no_verdict(code):
    # The glue row g, row 20 of the matrix, is a codeword outside ker L: it
    # complements every column parity and keeps the syndrome 0.  Under DE
    # its top row is odd, and the top-row parity a DE word needs follows the
    # majority parity that g complements; under SE its top row is even, and
    # the parity needed is always even.  So off stays put, the case keeps its
    # erasure set, and v and v ^ g get the same verdict and flips.
    m = printed_de_matrix() if code == "DE" else printed_se_matrix()
    g = m.rows[19]
    assert parity_profile(g) == 0x3FF
    assert dc.syndrome(proj_bits(g)) == 0
    assert (g & TOP_ROW_MASK).bit_count() & 1 == (1 if code == "DE" else 0)
    rng = random.Random(f"glue:{code}")
    words = [parse_array_text(array) for array, *_ in EXAMPLES.values()]
    for _ in range(200):
        v = m.encode(rng.getrandbits(20))
        for pos in rng.sample(range(40), rng.randint(0, 5)):
            v ^= 1 << pos
        words.append(v)
    verdicts = set()
    for v in words:
        for decode in _decoders():
            a, b = decode(v, code), decode(v ^ g, code)
            assert (a.ok, a.flips) == (b.ok, b.flips), hex(v)
            verdicts.add(a.ok)
    assert verdicts == {True, False}


def test_each_case_label_equals_only_itself():
    # The case table builds each label once, so a label's identity is its
    # value, and _failure's cache hashes a label by its identity.
    labels = [c for c in dc._CASES if c is not None]
    assert len({id(c) for c in labels}) == 352
    for label in labels:
        assert [other for other in labels if other == label] == [label]
        assert dataclasses.replace(label) != label
        assert hash(label) == object.__hash__(label)


def _coset_words(table):
    """One received word per binary syndrome coset of the table's code, 2^20
    in all.  The unit vectors at the reduced rows' pivot bits have syndromes
    1, 2, 4, ..., so entry i of their span has syndrome i."""
    return xor_span([1 << (row.bit_length() - 1) for row in table.rows])


E10_INDEX = dc._e10_index  # the coset pass swaps in a counting copy


@pytest.fixture(scope="module")
def coset_pass(de_oracle, se_oracle):
    """Per code: its 2^20 coset words by (case, verdict, flip count), the
    representation search's probes by case, counted by a copy of each E10
    index, and the first words whose syndrome is not their index or where
    the two decoders and the coset-leader oracle disagree."""
    probes = [0]

    class CountingIndex(dict):
        def __contains__(self, key):
            probes[0] += 1
            return dict.__contains__(self, key)

    record = {}
    dc._probes.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dc, "_e10_index", lambda keep: CountingIndex(E10_INDEX(keep)))
            represent, solve = dc.represent_decode, dc.syndrome_decode
            for code, table in (("DE", de_oracle), ("SE", se_oracle)):
                leader, syndrome = table.leader_index.get, table._syndrome
                words, by_case, wrong = record[code] = Counter(), Counter(), []
                for i, v in enumerate(_coset_words(table)):
                    before = probes[0]
                    r, s = represent(v, code), solve(v, code)
                    case = r.case and r.case.case_id
                    by_case[case] += probes[0] - before
                    words[case, r.ok, r.flips.bit_count()] += 1
                    want = None if (e := leader(i)) is None else v ^ e
                    if len(wrong) < 5 and (syndrome(v) != i or r.codeword != want
                                           or s.codeword != want):
                        wrong.append(hex(v))
    finally:
        dc._probes.cache_clear()
    return record


def test_only_sweep_tests_read_the_coset_pass():
    item = SimpleNamespace(nodeid="t", fixturenames=["coset_pass"],
                           get_closest_marker=lambda mark: None)
    with pytest.raises(pytest.UsageError, match="sweep"):
        conftest.pytest_collection_modifyitems([item])


@pytest.mark.sweep
def test_coset_pass_restores_the_search(coset_pass):
    # The first reader of the pass, so no later cache_clear hides a counting
    # copy left in the search's cache.
    assert dc._e10_index is E10_INDEX and type(dc._probes(1)[1]) is dict


# Each code's coset words by case, verdict and flip count; DE and SE agree.
COSET_OUTCOMES = {
    ("I", True, 0): 1, ("I", True, 2): 60, ("II", True, 1): 40, ("II", True, 3): 2_200,
    ("III", True, 2): 720, ("IV", True, 3): 7_680, ("I", False, 0): 1_987,
    ("II", False, 0): 18_240, ("III", False, 0): 91_440, ("IV", False, 0): 238_080,
    (None, False, 0): 688_128,
}


@pytest.mark.sweep
@pytest.mark.parametrize("code", ["DE", "SE"])
def test_every_syndrome_coset_matches_the_oracle(code, coset_pass):
    # Every coset word has the syndrome of its index, and both decoders give
    # the oracle's verdict.  With the translation invariance above, one word
    # per coset covers all 2^40 received words.
    words, _, wrong = coset_pass[code]
    assert wrong == []
    assert sum(n for (_, ok, _), n in words.items() if ok) == 10_701
    assert words == COSET_OUTCOMES
    # The corrected words of w flips are the cosets of the C(40, w) leaders.
    assert [sum(n for (_, ok, f), n in words.items() if ok and f == w) for w in range(4)] == [
        math.comb(40, w) for w in range(4)]


def test_bad_arguments():
    with pytest.raises(ValueError):
        dc.represent_decode(0, code="XX")


@pytest.mark.parametrize("v", [1 << 40, -1, (1 << 40) + 5, -(1 << 40), True, 1.0])
def test_received_word_domain(v, de_oracle, de_matrix):
    # Only the five low bytes reach the table lookups; the rest must not
    # be dropped silently.  The stages reject such words as the decoders
    # do: read by their low 40 bits, 2^40 and -2^40 are the zero codeword,
    # which every membership test would accept.  A bool is no word either,
    # though True decodes as 1, and a float is refused as a word, not with
    # the TypeError of its first shift.  test_public_domain's table gives
    # the exported functions 2^40, -1, True and 1.0.
    stages = [read_columns, format_array_text, de_matrix.contains,
              lambda w: dc.syndrome_decode(w, "SE")]
    if v in ((1 << 40) + 5, -(1 << 40)):
        e10_words = quaternary.e10_table().word_set
        stages += [dc.represent_decode, dc.syndrome_decode, dc.classify_case, parity_profile,
                   lambda w: indexed_decode(w, de_oracle), lambda w: has_projection_o(w, e10_words),
                   lambda w: has_projection_e(w, e10_words)]
    for stage in stages:
        with pytest.raises(ValueError, match="40-bit"):
            stage(v)
    assert dc.represent_decode((1 << 40) - 1).algorithm == "representation"


# Calls a stage on one word in a fresh interpreter and prints the
# ValueError it raises, if any.  A stage that loops forever on a word
# outside [0, 2^40) then fails on the timeout instead of stalling the suite.
_DOMAIN_PROBE = """\
import sys
from sd40 import decoders as dc, projection as pj
from sd40.constructions import printed_de_matrix
from sd40.oracle import build_oracle, indexed_decode
stage = {
    "classify_case": dc.classify_case,
    "parity_profile": pj.parity_profile,
    "read_columns": pj.read_columns,
    "format_array_text": pj.format_array_text,
    "represent_decode": dc.represent_decode,
    "syndrome_decode": dc.syndrome_decode,
    "indexed_decode": lambda v: indexed_decode(v, build_oracle(printed_de_matrix())),
}[sys.argv[1]]
try:
    stage(int(sys.argv[2]))
except ValueError as exc:
    print("ValueError:", exc)
"""
DOMAIN_STAGES = ("classify_case", "parity_profile", "read_columns", "format_array_text",
                 "represent_decode", "syndrome_decode", "indexed_decode")


@pytest.mark.parametrize("v", [-1, 1 << 40])
@pytest.mark.parametrize("stage", DOMAIN_STAGES)
def test_every_word_stage_rejects_words_outside_40_bits(stage, v):
    src = str(Path(sd40.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _DOMAIN_PROBE, stage, str(v)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ValueError:") and "40-bit" in done.stdout, done.stdout


def test_internal_invariant_error_is_one_class():
    assert dc.InternalInvariantError is gf4.InternalInvariantError
    assert sd40.InternalInvariantError is gf4.InternalInvariantError
    assert quaternary.InternalInvariantError is gf4.InternalInvariantError


def _case_erasure_sets():
    """The erasure sets the case table hands the search, in a fixed order."""
    return sorted({case.erasure_columns for case in dc._CASES if case is not None},
                  key=lambda erasures: (len(erasures), erasures))


def test_search_budgets_are_the_case_erasure_sets():
    # The case table gives the search every set of at most three distinct
    # columns and no other, and each set's budget is any values on its k erasures plus at most (3 - k) // 2
    # nonzero symbols elsewhere.  Such a word has weight at most 3, so the
    # brute force filters the words of weight at most 3 by that rule.
    sets = _case_erasure_sets()
    assert sets == [erasures for k in range(4)
                    for erasures in itertools.combinations(range(1, 11), k)]
    assert len(sets) == 176
    light = {}  # word -> its support, bit c-1 for column c
    for support in range(1 << 10):
        if support.bit_count() <= 3:
            cols = [c for c in range(10) if support >> c & 1]
            for vals in itertools.product((1, 2, 3), repeat=len(cols)):
                light[sum(v << 2 * c for v, c in zip(vals, cols))] = support
    assert len(light) == 3_676
    for erasures in sets:
        off = (1 << 10) - 1 - sum(1 << (c - 1) for c in erasures)
        errors = (3 - len(erasures)) // 2
        brute = sorted(e for e, support in light.items() if (support & off).bit_count() <= errors)
        assert sorted(dc._budget_patterns(*erasures)) == brute, erasures
    # No caller sets an error count: the erasure set is the whole budget.
    for search in (dc.find_closest_in_e10, dc.solve_syndrome):
        with pytest.raises(TypeError):
            search(0, (), 0)


@pytest.mark.sweep
def test_budget_tables_agree_on_every_syndrome(e10):
    # One received projection per syndrome coset: every y is a codeword
    # plus one of these, and both searches commute with adding codewords,
    # so agreeing here means agreeing on all 2^20 projections.
    reps = {}
    for y in range(1 << 20):
        reps.setdefault(dc.syndrome(y), y)
        if len(reps) == 1024:
            break
    assert len(reps) == 1024
    assert dc._e10_words() == e10.word_set
    budgets = _case_erasure_sets()
    assert len(budgets) == 176
    assert sum(len(dc._budget_patterns(*erasures)) for erasures in budgets) == 9_551
    for erasures in budgets:
        patterns = dc._budget_patterns(*erasures)
        assert dc._syndrome_table(*erasures) == {
            dc.syndrome(e): e for e in patterns}
        for s, y in reps.items():
            closest = dc.find_closest_in_e10(y, erasures)
            err = dc.solve_syndrome(s, erasures)
            if closest is None:
                assert err is None, (erasures, s)
            else:
                assert closest == y ^ err, (erasures, s)
                assert closest in e10.word_set


def test_search_checks_the_minimum_distance_it_relies_on(monkeypatch, e10):
    # The search stops at its first hit because E10 has no nonzero word of
    # weight below 4.  A code table with a weight-3 word breaks that premise.
    weights = {**e10.weight_distribution, 3: 1}
    monkeypatch.setattr(dc, "e10_table", lambda: quaternary.CodeTable(
        e10.name, e10.word_set, weights))
    # The indexes and the probe lists that hold them are built from the
    # checked set, so they are cleared with it.
    caches = (dc._e10_words, dc._e10_index, dc._probes)
    for cache in caches:
        cache.cache_clear()
    try:
        with pytest.raises(dc.InternalInvariantError):
            dc.find_closest_in_e10(0, ())
        with pytest.raises(dc.InternalInvariantError):
            dc.represent_decode(0)
    finally:
        for cache in caches:
            cache.cache_clear()
    monkeypatch.undo()
    assert dc.find_closest_in_e10(0, ()) == 0


def test_punctured_indexes_and_probe_lists():
    # The representation search clears y's first erasure column (none in
    # case I) and probes, in E10 keyed with that column cleared, the budget
    # words that are zero there, in budget order.  One index serves every
    # erasure set with that first column: 11 in all, each keeping the 1,024
    # codewords apart.
    full = (1 << 20) - 1
    lengths, indexes = Counter(), {}
    for erasures in _case_erasure_sets():
        keep, index, probes = dc._probes(*erasures)
        cleared = 3 << 2 * (erasures[0] - 1) if erasures else 0
        assert keep & full == full ^ cleared, erasures
        assert probes == tuple(e for e in dc._budget_patterns(*erasures) if not e & cleared)
        assert indexes.setdefault(cleared, index) is index
        lengths[len(erasures), len(probes)] += 1
    assert lengths == {(0, 31): 1, (1, 28): 10, (2, 4): 45, (3, 16): 120}
    assert len(indexes) == 11
    for cleared, index in indexes.items():
        assert len(index) == 1_024
        assert set(index.values()) == dc._e10_words()
        assert all(key == word & ~cleared for key, word in index.items())


@pytest.mark.sweep
def test_representation_probes_over_every_coset(coset_pass):
    # The work of the representation search on one word of each of the 2^20
    # syndrome cosets of each code, counted as membership tests in its E10
    # indexes by the coset pass, so the count is the real search's.
    assert sum(sum(coset_pass[code][1].values()) for code in ("DE", "SE")) == 2 * 4_789_198
    # Per case, at most 31, 28, 4 and 16 probes a call.  The search reads
    # only the case and the projection, and SE's cosets give DE's counts.
    calls = {None: 688_128, "IV": 245_760, "III": 92_160, "II": 20_480, "I": 2_048}
    by_case = {None: 0, "IV": 3_816_960, "III": 366_480, "II": 543_200, "I": 62_558}
    for code in ("DE", "SE"):
        words, probes, _ = coset_pass[code]
        called = Counter()
        for (case, _, _), n in words.items():
            called[case] += n
        assert (called, probes) == (calls, by_case), code


def test_represent_decode_reads_only_e10():
    # The third slot takes None alone, so no caller can swap in another set.
    rng = random.Random(61)
    for v in [parse_array_text(array) for array, *_ in EXAMPLES.values()] + [
            rng.getrandbits(40) for _ in range(200)]:
        for code in ("DE", "SE"):
            assert dc.represent_decode(v, code, None) == dc.represent_decode(v, code)
    with pytest.raises(ValueError):
        dc.represent_decode(0, "DE", frozenset())


@pytest.mark.parametrize("y", [-1, 1 << 20, 1 << 24])
def test_projection_domain(y):
    with pytest.raises(ValueError):
        dc.syndrome(y)
    # The last word of the domain is a projection.
    assert 0 <= dc.syndrome((1 << 20) - 1) < 1 << 10


# A public function takes a 10-symbol word as its packed bits, and a word
# of another length is an error, not a shorter or longer word read as one.
# gf4.packed makes that check for each of them, and refuses a word's text
# as it refuses any other non-int.  A float is no word either, even one
# equal to an int: packed(1.0, 10) must not hand 1.0 on to the first XOR.
# The searches and the lift are unchecked decode stages that only _decode
# calls (see test_hygiene), so they have no rows here.  test_public_domain's
# table also gives each exported function 1 << 20 and 1.0.
WRONG_LENGTH = {
    "syndrome-11": (dc.syndrome, 1 << 20),
    # An E10 codeword with an eleventh symbol is no codeword.
    "classify_type-11": (classify_type, e10_matrix().rows[0] | 1 << 20),
    "classify_type-int": (classify_type, 1 << 20),
    "orbit-int": (quaternary.orbit, 1 << 20),
    "orbit-negative": (quaternary.orbit, -1),
    "orbit-word": (quaternary.orbit, "0" * 10),
    "packed-5-word": (gf4.packed, "0" * 10, 5),
    "packed-5-int": (gf4.packed, 1 << 10, 5),
    "packed-10-word": (gf4.packed, "0" * 5, 10),
    "packed-10-int": (gf4.packed, 1 << 20, 10),
    "packed-float": (gf4.packed, 1.0, 10),
    "syndrome-float": (dc.syndrome, 2.0),
    "format_symbols-float": (gf4.format_symbols, 1.0, 10),
    "word_weight-int": (gf4.word_weight, 1 << 20, 10),
    "word_weight-negative": (gf4.word_weight, -1, 10),
    # Nor is a bool or a float a length: True == 1 and 10.0 == 10.
    "format_symbols-n-bool": (gf4.format_symbols, 3, True),
    "format_symbols-n-float": (gf4.format_symbols, 0, 10.0),
    "packed-n-bool": (gf4.packed, 0, True),
    "packed-n-float": (gf4.packed, 0, 10.0),
    "packed-n-negative": (gf4.packed, 0, -1),
    "parse_symbols-n-float": (gf4.parse_symbols, "0", 1.0),
    "parse_symbols-n-bool": (gf4.parse_symbols, "0", True),
}


@pytest.mark.parametrize("name", WRONG_LENGTH)
def test_stages_reject_words_of_the_wrong_length(name):
    fn, *args = WRONG_LENGTH[name]
    with pytest.raises(ValueError, match="symbol"):
        fn(*args)


@pytest.mark.parametrize("algorithm", ["representation", "syndrome"])
def test_declared_failures_share_one_outcome_per_case(algorithm):
    labels = [c for c in dc._CASES if c is not None]
    assert len(set(labels)) == 352
    for case in [None, *labels]:
        shared = dc._failure(algorithm, case)
        built = dc.DecodeOutcome(algorithm=algorithm, codeword=None, flips=0, case=case)
        assert shared == built
        assert (built.ok, built.flipped_bits, built.corrected_projection, built.reason) == (
            False, (), None, dc.FAILURE_REASON)
        assert dc._failure(algorithm, case) is shared
    decode = dc.represent_decode if algorithm == "representation" else dc.syndrome_decode
    cw = printed_de_matrix().encode(CASE_TABLE_MESSAGE)
    for _, pattern, expect_ok in CASE_TABLE:
        if not expect_ok:
            out = decode(_corrupt(cw, pattern))
            assert out is dc._failure(algorithm, out.case)


def test_decoders_agree_across_threads():
    # The README's concurrency sentence.  Four threads decode one word list
    # on cold caches, each in its own order of decoder and code, and get
    # the verdicts and flip masks of a single-threaded run.  _failure's
    # miss path takes no lock, so two threads may each build an equal
    # failure for one key: the outcomes are compared by value only.
    rng = random.Random(67)
    words = [rng.getrandbits(40) for _ in range(200)]
    for matrix in (printed_de_matrix(), printed_se_matrix()):
        for _ in range(200):
            flips = sum(1 << pos for pos in rng.sample(range(40), rng.randint(0, 4)))
            words.append(matrix.encode(rng.getrandbits(20)) ^ flips)
    jobs = [(decode, code) for decode in _decoders() for code in ("DE", "SE")]

    def verdicts(order):
        return {(decode.__name__, code): [(out.ok, out.flips) for out in
                                          (decode(v, code) for v in words)]
                for decode, code in order}

    want = verdicts(jobs)
    assert {ok for outs in want.values() for ok, _ in outs} == {False, True}
    for cached in vars(dc).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    start, got = threading.Barrier(4, timeout=60), [None] * 4

    def worker(k):
        start.wait()
        got[k] = verdicts(jobs[k:] + jobs[:k])

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == [want] * 4


def test_flipped_bits_reads_any_mask_in_bounded_time():
    # The property reads 40 bit positions, so even a negative mask (all
    # ones to the left) gives a tuple instead of looping forever.
    outcome = dc.DecodeOutcome(algorithm="x", codeword=None, flips=-1, case=None)
    assert outcome.flipped_bits == tuple(range(1, 41))


def test_outcome_contract():
    # DecodeOutcome is a frozen dataclass over SimpleNamespace, whose C
    # __init__ takes the four fields by keyword; equality, hashing, repr,
    # the frozen fields and dataclasses.replace are the dataclass's own.
    cw = printed_de_matrix().encode(CASE_TABLE_MESSAGE)
    outcomes = [decode(cw ^ 0b1001 << 20) for decode in _decoders()]
    outcomes.append(cli._oracle_decode(cw ^ 0b1001 << 20, "DE"))
    for out in outcomes:
        assert out.ok and out.flips == 0b1001 << 20
        fields = {name: getattr(out, name) for name in ("algorithm", "codeword", "flips", "case")}
        assert [f.name for f in dataclasses.fields(out)] == list(fields)
        built = dc.DecodeOutcome(**fields)
        assert built == out and hash(built) == hash(out) and repr(built) == repr(out)
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.flips = 0
        # The benchmark's gate test builds a wrong outcome this way.
        wrong = dataclasses.replace(out, codeword=out.codeword ^ 1)
        assert type(wrong) is dc.DecodeOutcome and wrong != out
        assert (wrong.algorithm, wrong.flips, wrong.case) == (out.algorithm, out.flips, out.case)
        assert copy.copy(out) == out
        with pytest.raises(TypeError):
            dc.DecodeOutcome(*fields.values())
    # pickle and deepcopy give back the case table's own label (CaseLabel is
    # equal only to itself), so an outcome survives both: one per case, a
    # declared failure with a case (two flips in each of columns 1 and 2) and
    # one without.
    flips = (0, 1 << 39, 1 << 39 | 1 << 35, 1 << 39 | 1 << 35 | 1 << 31,
             0b11 << 36 | 0b11 << 32, 1 << 39 | 1 << 35 | 1 << 31 | 1 << 27)
    outcomes += [decode(cw ^ f) for decode in _decoders() for f in flips]
    assert {out.case.case_id for out in outcomes if out.case} == {"I", "II", "III", "IV"}
    assert {(out.ok, out.case is None) for out in outcomes} == {
        (True, False), (False, False), (False, True)}
    for out in outcomes:
        for twin in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
            assert twin == out and hash(twin) == hash(out) and twin.case is out.case
    for label in filter(None, dc._CASES):
        assert pickle.loads(pickle.dumps(label)) is label and copy.deepcopy(label) is label


# The stages _decode looks up in the module namespace on every call, per
# decoder.  Tracing wraps these names, so a decoder that bypasses one
# leaves its spans incomplete.
STAGE_NAMES = {
    dc.represent_decode: ("classify_case", "parity_profile", "proj_bits",
                          "find_closest_in_e10", "lift"),
    dc.syndrome_decode: ("syndrome", "solve_syndrome", "lift"),
}
# What each decoder calls on a word with no case: only the representation
# decoder reads its case through classify_case.
NO_CASE_STAGES = {
    dc.represent_decode: ("classify_case", "parity_profile"),
    dc.syndrome_decode: (),
}


def _counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_decoders_call_each_stage_through_the_module(monkeypatch):
    calls = Counter()
    for name in {n for names in STAGE_NAMES.values() for n in names}:
        monkeypatch.setattr(dc, name, _counting(calls, name, getattr(dc, name)))
    noisy = parse_array_text(EXAMPLES[2][0])
    no_case = parse_array_text("1111000000\n0000000000\n0000000000\n0000000000")
    for decode, names in STAGE_NAMES.items():
        for code in ("DE", "SE"):
            calls.clear()
            assert decode(noisy, code).ok
            assert calls == Counter(names), (decode.__name__, code)
        calls.clear()
        assert not decode(no_case).ok
        assert calls == Counter(NO_CASE_STAGES[decode]), decode.__name__


def test_lift_reads_neither_the_projection_nor_the_parities(monkeypatch):
    # classify_case and proj_bits, or read_columns, read the parities and
    # the projection; lift takes the error word and the case from _decode
    # instead of reading the word again.  The counters wrap the names the
    # projection module reads through, not the ones _decode uses.
    received = [(parse_array_text(array), "DE") for array, *_ in EXAMPLES.values()]
    received += [(matrix.encode(0xABCDE) ^ 0b1011 << 9, code)
                 for code, matrix in (("DE", printed_de_matrix()), ("SE", printed_se_matrix()))]
    calls = Counter()
    for name in ("proj_bits", "parity_profile", "read_columns"):
        monkeypatch.setattr(projection, name, _counting(calls, name, getattr(projection, name)))
    for v, code in received:
        for decode in _decoders():
            out = decode(v, code)
            assert out.ok and out.flipped_bits
    assert calls == Counter()
    assert has_projection_o(0, frozenset({0}))  # the counters do see a read
    assert calls == Counter({"read_columns": 1})


def test_every_traced_stage_is_a_decode_stage():
    # perfbench/spans.py wraps these names in sd40.decoders.  A name it
    # wraps that no decode calls would time nothing and read 0.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    children = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "CHILDREN")
    assert set(children) == {n for names in STAGE_NAMES.values() for n in names}
