import itertools
import random

import pytest

import sd40
from sd40 import decoders as dc
from sd40 import gf4, quaternary
from sd40.constructions import printed_de_matrix, printed_se_matrix
from sd40.gf4 import Gf4Word
from sd40.oracle import indexed_decode
from sd40.projection import parity_profile, parse_array_text, proj
from sd40.quaternary import e10_matrix

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
    assert dc.syndrome(proj(v)).to_string() == syn
    expected_word = parse_array_text(CORRECTED_ARRAYS[k])
    for decode in _decoders():
        out = decode(v)
        assert out.ok
        assert out.case.case_id == case_id
        assert out.corrected_projection.to_string() == yprime
        assert out.flipped_bits == flips
        assert out.codeword == expected_word


def test_membership_paths_agree(e10):
    # The orbit-expansion membership set is the enumerated code.
    orbit = dc.orbit_members()
    assert orbit == e10.word_set
    for array, *_ in EXAMPLES.values():
        v = parse_array_text(array)
        assert dc.represent_decode(v) == dc.represent_decode(v, members=orbit)
    rng = random.Random(53)
    for _ in range(2_000):
        v = rng.getrandbits(40)
        assert dc.represent_decode(v) == dc.represent_decode(v, members=orbit)


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
        profile = parity_profile(v)
        case = dc.classify_case(v)
        minority = profile.minority_columns
        if len(minority) > 3:
            assert case is None
            continue
        assert case.case_id == ("I", "II", "III", "IV")[len(minority)]
        assert case.majority_parity == profile.majority_parity
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
    assert dc.find_closest_in_e10(y1, (), 1).to_string() == "10101001Ww"
    row = e10_matrix().rows[4]
    assert dc.find_closest_in_e10(row, (), 0) == row
    y3 = Gf4Word.from_string("wwWWww1100")
    assert dc.find_closest_in_e10(y3, (5, 6), 0).to_string() == "wwWW001100"
    # Distance 2 from the code with no erasures: nothing inside the budget.
    y_far = Gf4Word.from_string("WW11000000")
    assert dc.find_closest_in_e10(y_far, (), 1) is None
    with pytest.raises(ValueError):
        dc.find_closest_in_e10(y1, (1, 2), 1)


def test_syndrome_examples(e10):
    assert dc.syndrome(Gf4Word.from_string("10101001ww")).to_string() == "0001w"
    assert dc.syndrome(Gf4Word.from_string("wwWWww1100")).to_string() == "0000W"
    for bits in list(e10.words)[:64]:
        assert dc.syndrome(Gf4Word(bits, 10)).bits == 0


def test_parity_check_matrix_columns():
    h = dc.parity_check_matrix()
    assert len(h) == 5
    assert dc.h_column(9).to_string() == "0001w"
    assert dc.h_column(5).to_string() == "01101"


def test_solve_syndrome_examples():
    s1 = Gf4Word.from_string("0001w", 5)
    assert dc.solve_syndrome(s1, (), 1).to_string() == "0000000010"
    s2 = Gf4Word.from_string("wW101", 5)
    assert dc.solve_syndrome(s2, (5,), 1).to_string() == "000W100000"
    s4 = Gf4Word.from_string("0000w", 5)
    assert dc.solve_syndrome(s4, (2, 5, 6), 0).to_string() == "0000WW0000"
    assert dc.solve_syndrome(Gf4Word(0, 5), (), 1).bits == 0
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


def test_se_decoding(se_oracle):
    rng = random.Random(37)
    m = printed_se_matrix()
    for _ in range(200):
        cw = m.encode(rng.getrandbits(20))
        out = dc.decode_se(cw)
        assert out.ok and out.codeword == cw and out.flipped_bits == ()
        weight = rng.randint(1, 3)
        v = cw
        for pos in rng.sample(range(40), weight):
            v ^= 1 << pos
        for algo in ("representation", "syndrome"):
            out = dc.decode_se(v, algo)
            assert out.ok and out.codeword == cw, algo
    # Paired errors in two columns preserve every parity: refused.
    cw = m.encode(1)
    v = _corrupt(cw, [(1, 1), (1, 2), (4, 0), (4, 3)])
    for algo in ("representation", "syndrome"):
        out = dc.decode_se(v, algo)
        assert not out.ok
    assert indexed_decode(v, se_oracle) is None


def test_de_se_codes_disagree_on_glue_vector():
    # e_C is singly-even but not doubly-even aligned: decoding it against
    # the wrong variant must not return it unchanged.
    ec = printed_se_matrix().rows[19]
    assert dc.decode_se(ec).codeword == ec
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


def test_bad_arguments():
    with pytest.raises(ValueError):
        dc.represent_decode(0, code="XX")
    with pytest.raises(ValueError):
        dc.decode_se(0, algorithm="nope")


@pytest.mark.parametrize("v", [1 << 40, -1, (1 << 40) + 5, -(1 << 40)])
def test_received_word_domain(v):
    # Only the five low bytes reach the table lookups; the rest must not
    # be dropped silently.
    with pytest.raises(ValueError):
        dc.represent_decode(v)
    with pytest.raises(ValueError):
        dc.syndrome_decode(v)
    with pytest.raises(ValueError):
        dc.decode_se(v, "syndrome")
    assert dc.represent_decode((1 << 40) - 1).algorithm == "representation"


def test_internal_invariant_error_is_one_class():
    assert dc.InternalInvariantError is gf4.InternalInvariantError
    assert sd40.InternalInvariantError is gf4.InternalInvariantError
    assert quaternary.InternalInvariantError is gf4.InternalInvariantError


def _valid_budgets():
    for max_errors, largest in ((0, 3), (1, 1)):
        for k in range(largest + 1):
            for erasures in itertools.combinations(range(1, 11), k):
                yield erasures, max_errors


def test_budget_tables_agree_on_every_syndrome():
    # One received projection per syndrome coset: every y is a codeword
    # plus one of these, and both searches commute with adding codewords,
    # so agreeing here means agreeing on all 2^20 projections.
    reps = {}
    for y in range(1 << 20):
        reps.setdefault(dc.syndrome(Gf4Word(y, 10)).bits, y)
        if len(reps) == 1024:
            break
    assert len(reps) == 1024
    budgets = list(_valid_budgets())
    assert len(budgets) == 187
    assert sum(len(dc._budget_patterns(*b)) for b in budgets) == 9_592
    for erasures, max_errors in budgets:
        for s, y in reps.items():
            closest = dc.find_closest_in_e10(Gf4Word(y, 10), erasures, max_errors)
            err = dc.solve_syndrome(Gf4Word(s, 5), erasures, max_errors)
            if closest is None:
                assert err is None, (erasures, max_errors, s)
            else:
                assert closest.bits == y ^ err.bits, (erasures, max_errors, s)


def test_budget_argument_checks():
    y = Gf4Word(0, 10)
    for erasures, max_errors in (((1, 1), 0), ((0,), 0), ((11,), 1), ((), -1)):
        with pytest.raises(ValueError):
            dc.find_closest_in_e10(y, erasures, max_errors)
        with pytest.raises(ValueError):
            dc.solve_syndrome(Gf4Word(0, 5), erasures, max_errors)
    # A list of erasure columns is accepted like a tuple.
    assert dc.find_closest_in_e10(y, [3, 7], 0) == y
