import ast
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sd40
from sd40 import decoders as dc
from sd40 import cli, gf4, projection, quaternary
from sd40.constructions import printed_de_matrix, printed_se_matrix
from sd40.gf4 import Gf4Word, xor_span
from sd40.oracle import indexed_decode
from sd40.projection import (_LIFT_PICKS, has_projection_e, has_projection_o, lift,
                             parity_profile, parse_array_text, proj, proj_bits)
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
    assert dc.syndrome(proj(v)) == Gf4Word.from_string(syn).bits
    expected_word = parse_array_text(CORRECTED_ARRAYS[k])
    for decode in _decoders():
        out = decode(v)
        assert out.ok
        assert out.case.case_id == case_id
        assert out.corrected_projection == Gf4Word.from_string(yprime).bits
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
        assert case.max_errors == (1 if len(minority) <= 1 else 0)


def test_case_budgets():
    assert dc.classify_case(0).max_errors == 1  # case I
    one = 1 << 39
    case = dc.classify_case(one)
    assert case.case_id == "II" and case.max_errors == 1
    assert case.erasure_columns == (1,)
    three = (1 << 39) | (1 << 35) | (1 << 31)
    case = dc.classify_case(three)
    assert case.case_id == "IV" and case.max_errors == 0
    assert case.erasure_columns == (1, 2, 3)


def test_find_closest_examples(e10):
    y1 = Gf4Word.from_string("10101001ww")
    assert dc.find_closest_in_e10(y1, (), 1) == Gf4Word.from_string("10101001Ww").bits
    row = e10_matrix().rows[4]
    assert dc.find_closest_in_e10(row, (), 0) == row.bits
    y3 = Gf4Word.from_string("wwWWww1100")
    assert dc.find_closest_in_e10(y3, (5, 6), 0) == Gf4Word.from_string("wwWW001100").bits
    # Distance 2 from the code with no erasures: nothing inside the budget.
    y_far = Gf4Word.from_string("WW11000000")
    assert dc.find_closest_in_e10(y_far, (), 1) is None
    with pytest.raises(ValueError):
        dc.find_closest_in_e10(y1, (1, 2), 1)


def test_syndrome_examples(e10):
    assert dc.syndrome(Gf4Word.from_string("10101001ww")) == Gf4Word.from_string("0001w").bits
    assert dc.syndrome(Gf4Word.from_string("wwWWww1100")) == Gf4Word.from_string("0000W").bits
    for bits in e10.words:
        assert dc.syndrome(Gf4Word(bits, 10)) == 0


def test_syndrome_byte_tables_match_h():
    # Entry b of table k is H conj(y)^T for the projection y holding b in
    # byte k, symbol r of the syndrome at bits 2r, 2r+1.
    h = dc.parity_check_matrix()
    tables = dc._syndrome_bytes()
    assert [len(t) for t in tables] == [256, 256, 16]
    for k, table in enumerate(tables):
        for b, s in enumerate(table):
            y = Gf4Word(b << 8 * k, 10)
            assert s == sum(gf4.hermitian_inner(row, y) << 2 * r for r, row in enumerate(h))


def test_parity_check_matrix_columns():
    h = dc.parity_check_matrix()
    assert len(h) == 5
    assert dc.h_column(9).to_string() == "0001w"
    assert dc.h_column(5).to_string() == "01101"
    for col in (0, 11):
        with pytest.raises(ValueError, match=f"column must lie in 1..10, got {col}"):
            dc.h_column(col)


def test_solve_syndrome_examples():
    s1 = Gf4Word.from_string("0001w", 5)
    assert dc.solve_syndrome(s1, (), 1) == Gf4Word.from_string("0000000010").bits
    s2 = Gf4Word.from_string("wW101", 5)
    assert dc.solve_syndrome(s2, (5,), 1) == Gf4Word.from_string("000W100000").bits
    s4 = Gf4Word.from_string("0000w", 5)
    assert dc.solve_syndrome(s4, (2, 5, 6), 0) == Gf4Word.from_string("0000WW0000").bits
    assert dc.solve_syndrome(Gf4Word(0, 5), (), 1) == 0
    # Two-column syndrome with a no-erasure budget is unsolvable.
    two = dc.syndrome(Gf4Word.from_string("1w00000000"))
    assert dc.solve_syndrome(two, (), 1) is None
    with pytest.raises(ValueError):
        dc.solve_syndrome(s1, (1, 2, 3), 1)


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


def test_zero_errors_any_codeword(de_oracle):
    rng = random.Random(31)
    for _ in range(50):
        cw = int(de_oracle.words[rng.randrange(de_oracle.size)])
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
        assert (flipped.case_id, flipped.erasure_columns, flipped.max_errors) == (
            case.case_id, case.erasure_columns, case.max_errors), parities
        assert flipped.majority_parity == 1 - case.majority_parity


def test_lift_picks_move_with_a_translating_column():
    # Exhaustive check of the sd40.decoders docstring sentence: "Within a
    # column the nibble -> (symbol, parity) map is GF(2)-linear with kernel
    # {0000, 1111}, so the two candidate nibbles and their distances move
    # with c's column and the flip count is unchanged: a distance-2 tie
    # picks one of two complements".  Column t of a codeword translates a
    # column nibble, the symbol it must take and the parity it must have.
    moved = complemented = 0
    for nibble, t, value, parity in itertools.product(range(16), range(16), range(4), (0, 1)):
        pick, dist = _LIFT_PICKS[nibble | value << 4 | parity << 6]
        key = (nibble ^ t) | (value ^ proj_bits(t << 36)) << 4 | (parity ^ t.bit_count() & 1) << 6
        moved_pick, moved_dist = _LIFT_PICKS[key]
        assert moved_dist == dist, (nibble, t, value, parity)
        if moved_pick == pick ^ t:
            moved += 1
        else:
            assert (moved_pick, dist) == (pick ^ t ^ 0xF, 2), (nibble, t, value, parity)
            complemented += 1
    assert (moved, complemented) == (1_664, 384)


@pytest.mark.sweep
@pytest.mark.parametrize("code", ["DE", "SE"])
def test_every_syndrome_coset_matches_the_oracle(code, de_oracle, se_oracle):
    # One received word per binary syndrome coset, 2^20 in all.  The unit
    # vectors at the reduced rows' pivot bits have syndromes 1, 2, 4, ...,
    # so entry i of their span has syndrome i.  With the translation
    # invariance above, this covers all 2^40 received words.
    table = de_oracle if code == "DE" else se_oracle
    leaders = table.leader_index
    correctable = 0
    for i, v in enumerate(xor_span([1 << (row.bit_length() - 1) for row in table.rows])):
        assert table._syndrome(v) == i
        e = leaders.get(i)
        want = None if e is None else v ^ e
        r, s = dc.represent_decode(v, code), dc.syndrome_decode(v, code)
        assert (r.codeword if r.ok else None) == (s.codeword if s.ok else None) == want, hex(v)
        correctable += want is not None
    assert correctable == 10_701


def test_bad_arguments():
    with pytest.raises(ValueError):
        dc.represent_decode(0, code="XX")


@pytest.mark.parametrize("v", [1 << 40, -1, (1 << 40) + 5, -(1 << 40)])
def test_received_word_domain(v):
    # Only the five low bytes reach the table lookups; the rest must not
    # be dropped silently.  The public stages reject such words as the
    # decoders do: read by their low 40 bits, 2^40 and -2^40 are the zero
    # codeword, which every membership test and the lift would accept.
    with pytest.raises(ValueError, match="40-bit"):
        dc.represent_decode(v)
    with pytest.raises(ValueError):
        dc.syndrome_decode(v)
    with pytest.raises(ValueError):
        dc.syndrome_decode(v, "SE")
    e10_words = quaternary.e10_table().word_set
    stages = [dc.classify_case, proj, parity_profile, lambda w: lift(w, 0, 0, 0),
              lambda w: has_projection_o(w, e10_words), lambda w: has_projection_e(w, e10_words)]
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
from sd40.constructions import c40_de
from sd40.oracle import build_oracle, indexed_decode
stage = {
    "classify_case": dc.classify_case,
    "parity_profile": pj.parity_profile,
    "proj": pj.proj,
    "lift": lambda v: pj.lift(v, 0, 0, 0),
    "flip_positions": pj.flip_positions,
    "column_nibble": lambda v: pj.column_nibble(v, 1),
    "format_array_text": pj.format_array_text,
    "represent_decode": dc.represent_decode,
    "syndrome_decode": dc.syndrome_decode,
    "indexed_decode": lambda v: indexed_decode(v, build_oracle(c40_de())),
}[sys.argv[1]]
try:
    stage(int(sys.argv[2]))
except ValueError as exc:
    print("ValueError:", exc)
"""
DOMAIN_STAGES = ("classify_case", "parity_profile", "proj", "lift", "flip_positions",
                 "column_nibble", "format_array_text", "represent_decode", "syndrome_decode",
                 "indexed_decode")


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


def _valid_budgets():
    for max_errors, largest in ((0, 3), (1, 1)):
        for k in range(largest + 1):
            for erasures in itertools.combinations(range(1, 11), k):
                yield erasures, max_errors


@pytest.mark.sweep
def test_budget_tables_agree_on_every_syndrome(e10):
    # One received projection per syndrome coset: every y is a codeword
    # plus one of these, and both searches commute with adding codewords,
    # so agreeing here means agreeing on all 2^20 projections.  The packed
    # int form of each projection must give the same words.
    reps = {}
    for y in range(1 << 20):
        s = dc.syndrome(Gf4Word(y, 10))
        assert dc.syndrome(y) == s
        reps.setdefault(s, y)
        if len(reps) == 1024:
            break
    assert len(reps) == 1024
    assert dc._e10_words() == e10.word_set
    budgets = list(_valid_budgets())
    assert len(budgets) == 187
    assert sum(len(dc._budget_patterns(max_errors, *erasures))
               for erasures, max_errors in budgets) == 9_592
    for erasures, max_errors in budgets:
        patterns = dc._budget_patterns(max_errors, *erasures)
        assert dc._syndrome_table(max_errors, *erasures) == {
            dc.syndrome(e): e for e in patterns}
        for s, y in reps.items():
            closest = dc.find_closest_in_e10(Gf4Word(y, 10), erasures, max_errors)
            assert dc.find_closest_in_e10(y, erasures, max_errors) == closest
            err = dc.solve_syndrome(Gf4Word(s, 5), erasures, max_errors)
            assert dc.solve_syndrome(dc.syndrome(y), erasures, max_errors) == err
            if closest is None:
                assert err is None, (erasures, max_errors, s)
            else:
                assert closest == y ^ err, (erasures, max_errors, s)
                assert closest in e10.word_set


def test_search_checks_the_minimum_distance_it_relies_on(monkeypatch, e10):
    # The search stops at its first hit because E10 has no nonzero word of
    # weight below 4.  A code table with a weight-3 word breaks that premise.
    weights = {**e10.weight_distribution, 3: 1}
    monkeypatch.setattr(dc, "e10_table", lambda: quaternary.CodeTable(
        e10.name, e10.words, e10.word_set, weights))
    dc._e10_words.cache_clear()
    try:
        with pytest.raises(dc.InternalInvariantError):
            dc.find_closest_in_e10(0, (), 1)
        with pytest.raises(dc.InternalInvariantError):
            dc.represent_decode(0)
    finally:
        dc._e10_words.cache_clear()
    monkeypatch.undo()
    assert dc.find_closest_in_e10(0, (), 1) == 0


def test_budget_argument_checks():
    y = Gf4Word(0, 10)
    # Half an error would add the one-error words to a two-erasure budget;
    # the erasure 1.0 equals column 1, so it must not reach that budget's cache.
    dc.find_closest_in_e10(y, (1,), 0)
    for erasures, max_errors in (((1, 1), 0), ((0,), 0), ((11,), 1), ((), -1),
                                 ((1, 2), 0.5), ((1.0,), 0)):
        with pytest.raises(ValueError):
            dc.find_closest_in_e10(y, erasures, max_errors)
        with pytest.raises(ValueError):
            dc.solve_syndrome(Gf4Word(0, 5), erasures, max_errors)
    # A list of erasure columns is accepted like a tuple.
    assert dc.find_closest_in_e10(y, [3, 7], 0) == y.bits


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
    with pytest.raises(ValueError):
        dc.find_closest_in_e10(y, (), 1)
    with pytest.raises(ValueError):
        dc.syndrome(Gf4Word(y, 10))
    top = (1 << 20) - 1
    assert dc.syndrome(top) == dc.syndrome(Gf4Word(top, 10))


# A stage takes a 10-symbol projection or a 5-symbol syndrome, as a word
# or as its bits, and a word of another length is an error, not a shorter
# or longer word read as one.  gf4.packed makes that check for every stage.
WRONG_LENGTH = {
    "syndrome-1": (dc.syndrome, Gf4Word.from_string("1")),
    "syndrome-11": (dc.syndrome, Gf4Word(0, 11)),
    "solve_syndrome-10": (dc.solve_syndrome, Gf4Word(1, 10), (), 1),
    "solve_syndrome-4": (dc.solve_syndrome, Gf4Word(0, 4)),
    "solve_syndrome-int": (dc.solve_syndrome, 1 << 10),
    "find_closest_in_e10-5": (dc.find_closest_in_e10, Gf4Word.from_string("11110")),
    "find_closest_in_e10-int": (dc.find_closest_in_e10, 1 << 20),
    "lift-3": (lift, 0, Gf4Word(0, 3), 0, 0),
    "lift-11": (lift, 0, Gf4Word(0, 11), 0, 0),
    "lift-int": (lift, 0, 1 << 20, 0, 0),
    # The bits of an E10 codeword, read as 11 symbols, are no codeword.
    "classify_type-11": (classify_type, Gf4Word(e10_matrix().rows[0].bits, 11)),
    "classify_type-int": (classify_type, 1 << 20),
    "packed-5-word": (gf4.packed, Gf4Word(0, 10), 5),
    "packed-5-int": (gf4.packed, 1 << 10, 5),
    "packed-10-word": (gf4.packed, Gf4Word(0, 5), 10),
    "packed-10-int": (gf4.packed, 1 << 20, 10),
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
        shared, built = dc._failure(algorithm, case), dc.DecodeOutcome(algorithm, None, (), case)
        assert shared == built
        assert (built.ok, built.corrected_projection, built.reason) == (
            False, None, dc.FAILURE_REASON)
        assert dc._failure(algorithm, case) is shared
    decode = dc.represent_decode if algorithm == "representation" else dc.syndrome_decode
    cw = printed_de_matrix().encode(CASE_TABLE_MESSAGE)
    for _, pattern, expect_ok in CASE_TABLE:
        if not expect_ok:
            out = decode(_corrupt(cw, pattern))
            assert out is dc._failure(algorithm, out.case)


def test_warm_corrected_decode_builds_no_gf4word(monkeypatch):
    words = [parse_array_text(array) for array, *_ in EXAMPLES.values()]
    decoders = (dc.represent_decode, dc.syndrome_decode)
    for v in words:  # builds the lazy tables
        for decode in decoders:
            decode(v)
    built = []
    init = Gf4Word.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gf4Word, "__init__", counting_init)
    for v in words:
        for decode in decoders:
            out = decode(v)
            assert out.ok and out.flipped_bits
    assert built == []
    Gf4Word(0, 10)  # the counter does see a construction
    assert built == [(0, 10)]


# The stages _decode looks up in the module namespace on every call, per
# decoder.  Tracing wraps these names, so a decoder that bypasses one
# leaves its spans incomplete.
STAGE_NAMES = {
    dc.represent_decode: ("classify_case", "parity_profile", "proj_bits",
                          "find_closest_in_e10", "lift"),
    dc.syndrome_decode: ("classify_case", "parity_profile", "proj_bits", "syndrome",
                         "solve_syndrome", "lift"),
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
        assert calls == Counter({"classify_case": 1, "parity_profile": 1})


def test_corrected_decodes_read_the_front_once(monkeypatch):
    # classify_case and proj_bits read the parities and the projection;
    # lift takes both from _decode instead of reading the word again.  The
    # counters wrap the names lift reads through, not the ones _decode uses.
    received = [(parse_array_text(array), "DE") for array, *_ in EXAMPLES.values()]
    received += [(matrix.encode(0xABCDE) ^ 0b1011 << 9, code)
                 for code, matrix in (("DE", printed_de_matrix()), ("SE", printed_se_matrix()))]
    calls = Counter()
    for name in ("proj_bits", "parity_profile"):
        monkeypatch.setattr(projection, name, _counting(calls, name, getattr(projection, name)))
    for v, code in received:
        for decode in _decoders():
            out = decode(v, code)
            assert out.ok and out.flipped_bits
    assert calls == Counter()
    assert lift(0, 0, 0, 0) == (0, ())  # the counters do see a read
    assert calls == Counter({"proj_bits": 1, "parity_profile": 1})


def test_every_traced_stage_is_a_decode_stage():
    # perfbench/spans.py wraps these names in sd40.decoders.  A name it
    # wraps that no decode calls would time nothing and read 0.
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tree = ast.parse(spans.read_text())
    children = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "CHILDREN")
    assert set(children) == {n for names in STAGE_NAMES.values() for n in names}
