import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sd40.constructions import binmap, build_e_b, build_e_c, printed_de_matrix
from sd40.decoders import classify_case
from sd40.projection import (
    _PARITY_BYTES,
    _PROJ_BYTES,
    COLUMN_PATTERNS,
    TOP_ROW_MASK,
    LiftError,
    candidates_for,
    column_nibble,
    format_array_text,
    has_projection_e,
    has_projection_o,
    lift,
    parity_profile,
    parse_array_text,
    proj,
    proj_bits,
)
from sd40.quaternary import e10_matrix

SECTION3_ARRAY = """
1110110010
1011010111
1000001011
0001100010
"""


def test_proj_section3_example():
    v = parse_array_text(SECTION3_ARRAY)
    assert proj(v).to_string() == "W01wW1w10W"


def test_proj_trivial_cases():
    assert proj(0).bits == 0
    # Column 0110 in rows (0, 1, w, W) projects to 1 + w = W.
    v = parse_array_text("0000000000\n1000000000\n1000000000\n0000000000")
    assert proj(v)[0] == 3


def test_proj_linearity(de_matrix):
    rng = random.Random(5)
    for _ in range(10_000):
        u, v = rng.getrandbits(40), rng.getrandbits(40)
        assert proj_bits(u ^ v) == proj_bits(u) ^ proj_bits(v)


def _column_reference(v):
    """Projection and column parities read column by column, as in the paper."""
    y = parities = 0
    for c in range(1, 11):
        nib = column_nibble(v, c)
        value = ((nib >> 2) & 1) ^ (2 if nib & 2 else 0) ^ (3 if nib & 1 else 0)
        y |= value << (2 * (c - 1))
        parities |= (nib.bit_count() & 1) << (c - 1)
    return y, parities


def test_byte_tables_match_column_definitions():
    rng = random.Random(9)
    for v in [0, (1 << 40) - 1] + [rng.getrandbits(40) for _ in range(5_000)]:
        y, parities = _column_reference(v)
        assert proj_bits(v) == y
        assert parity_profile(v) == parities
    # Entry b of table k is the image of byte k holding b.
    for k in range(5):
        for b in range(256):
            y, parities = _column_reference(b << 8 * k)
            assert _PROJ_BYTES[k][b] == y
            assert _PARITY_BYTES[k][b] == parities


def test_lift_tie_rules():
    # Column 1 = 0110 must become symbol 0 with even parity: candidates
    # 0000 and 1111 are both at distance 2, and the first one is taken.
    v = 0x6 << 36
    word, flips = lift(v, 0, 0, 0)
    assert word == 0 and flips == (2, 3)
    # Same column, top row wanted odd: the only rewritten column is
    # swapped to its complement, costing 4 - 2*2 = 0 extra flips.
    word, flips = lift(v, 0, 0, 1)
    assert word == 0xF << 36 and flips == (1, 4)
    # Two columns at distance 2 and one at distance 1: the swap goes to
    # the lowest-index column among the farthest.
    v = (0x6 << 36) | (0x6 << 28) | (0x1 << 20)
    word, flips = lift(v, 0, 0, 1, max_flips=5)
    assert word == 0xF << 36 and flips == (1, 4, 10, 11, 20)


def _reference_lift(v, target, column_parity, top_row_parity, max_flips=3):
    """The column-by-column rewrite: visit all ten columns, take the nearer
    candidate (the first on a tie), then swap the farthest, lowest-index
    rewritten column if the top row is off."""
    picks, dists, out = {}, {}, v
    for col in range(1, 11):
        cur = column_nibble(v, col)
        want = (target >> (2 * (col - 1))) & 3
        if proj(cur << 36)[0] == want and cur.bit_count() % 2 == column_parity:
            continue
        a, b = candidates_for(want, column_parity)
        da = (cur ^ a).bit_count()
        picks[col], dists[col] = (a, da) if da <= 4 - da else (b, 4 - da)
        out ^= (cur ^ picks[col]) << (4 * (10 - col))
    total = sum(dists.values())
    if bin(out & int("1000" * 10, 2)).count("1") % 2 != top_row_parity:
        if not picks:
            return None
        col = max(picks, key=lambda c: (dists[c], -c))
        out ^= 0xF << (4 * (10 - col))
        total += 4 - 2 * dists[col]
    if total > max_flips:
        return None
    return out, tuple(i for i in range(1, 41) if (v ^ out) >> (40 - i) & 1)


@pytest.mark.sweep
def test_lift_matches_column_loop():
    rng = random.Random(29)
    for _ in range(20_000):
        v = rng.getrandbits(40)
        # Targets near proj(v) reach the accepting branch, random ones the
        # rejecting one.
        target = proj_bits(v) ^ rng.choice([0, rng.getrandbits(20), 1 << 2 * rng.randrange(10)])
        args = (v, target, rng.randrange(2), rng.randrange(2), rng.choice([3, 40]))
        want = _reference_lift(*args)
        # A decoder hands lift the front it has read; both forms must agree.
        for front in ({}, {"front": proj_bits(v) | parity_profile(v) << 20}):
            if want is None:
                with pytest.raises(LiftError):
                    lift(*args, **front)
            else:
                assert lift(*args, **front) == want
        if want is not None:
            assert proj_bits(want[0]) == target


def _top_row_parity(v):
    return (v & TOP_ROW_MASK).bit_count() & 1


def test_parity_profile_section3_example():
    v = parse_array_text(SECTION3_ARRAY)
    parities = parity_profile(v)
    odd = [c for c in range(1, 11) if (parities >> (c - 1)) & 1]
    assert odd == [1, 2, 7, 8]
    assert _top_row_parity(v) == 0
    # Four minority columns under the even majority: undecodable.
    assert classify_case(v) is None


def test_parity_profile_zero():
    assert parity_profile(0) == 0
    assert _top_row_parity(0) == 0
    assert classify_case(0).erasure_columns == ()


def test_column_patterns_are_proj_fibers():
    seen = set()
    for value, pats in enumerate(COLUMN_PATTERNS):
        for n in pats:
            v = n << 36  # place in column 1
            assert proj(v)[0] == value
        assert pats[0].bit_count() % 2 == 0
        assert pats[1].bit_count() % 2 == 0
        assert pats[2].bit_count() % 2 == 1
        assert pats[3].bit_count() % 2 == 1
        seen.update(pats)
    assert seen == set(range(16))
    for value, parity in itertools.product(range(4), (0, 1)):
        a, b = candidates_for(value, parity)
        assert a ^ b == 0xF  # complements


def test_projection_o_membership(e10, de_matrix, de_oracle):
    words = e10.word_set
    for row in de_matrix.rows + printed_de_matrix().rows:
        assert has_projection_o(row, words)
    assert has_projection_o(build_e_b(), words)
    assert not has_projection_e(build_e_b(), words)
    rng = random.Random(17)
    # Random codewords satisfy it; random non-codewords fail it.
    code = de_oracle.word_set
    for _ in range(2_000):
        w = int(de_oracle.words[rng.randrange(de_oracle.size)])
        assert has_projection_o(w, words)
        v = rng.getrandbits(40)
        assert has_projection_o(v, words) == (v in code)


def test_projection_e_membership(e10, se_matrix, se_oracle):
    words = e10.word_set
    for row in se_matrix.rows:
        assert has_projection_e(row, words)
    assert has_projection_e(build_e_c(), words)
    rng = random.Random(18)
    code = se_oracle.word_set
    for _ in range(2_000):
        v = rng.getrandbits(40)
        assert has_projection_e(v, words) == (v in code)


def test_binmap_images_have_projection_o(e10):
    for row in e10_matrix().rows:
        v = binmap(row)
        assert has_projection_o(v, e10.word_set)
        assert parity_profile(v) == 0


def test_even_fiber_of_fixed_codeword_has_512_members(de_matrix):
    # All 2^10 all-even-column realizations of one projection codeword;
    # exactly half satisfy the top-row rule and land in the code.
    w = e10_matrix().rows[4]
    cols = [candidates_for(s, 0) for s in w]
    members = 0
    for combo in itertools.product(*cols):
        word = 0
        for nib in combo:
            word = (word << 4) | nib
        if de_matrix.contains(word):
            members += 1
    assert members == 512


def test_lift_identity_on_codewords(de_matrix):
    for row in de_matrix.rows[:5]:
        parities = parity_profile(row)
        assert parities in (0, (1 << 10) - 1)
        word, flips = lift(row, proj(row), parities & 1, _top_row_parity(row))
        assert word == row and flips == ()


def test_lift_reverses_small_corruptions(de_matrix, de_oracle):
    rng = random.Random(23)
    for _ in range(500):
        cw = int(de_oracle.words[rng.randrange(de_oracle.size)])
        weight = rng.randint(1, 3)
        v = cw
        for pos in rng.sample(range(40), weight):
            v ^= 1 << pos
        majority = classify_case(v).majority_parity
        word, flips = lift(v, proj(cw), majority, majority)
        assert word == cw
        assert len(flips) <= 3


def test_lift_budget_exceeded():
    # A codeword with one whole column complemented: the projection and
    # parities still match, only the top row is off; fixing it costs 4.
    cw = printed_de_matrix().rows[0]
    v = cw ^ (0xF << 36)
    parities = parity_profile(v)
    assert parities in (0, (1 << 10) - 1)
    majority = parities & 1
    assert _top_row_parity(v) != majority
    with pytest.raises(LiftError):
        lift(v, proj(v), majority, majority)


# Array-layer calls with a symbol, parity or column outside its range, and
# the message that names it.
BAD_ARRAY_ARGUMENTS = {
    "candidates_for-parity-2": (candidates_for, 1, 2, "parity must be 0 or 1, got 2"),
    "candidates_for-parity--1": (candidates_for, 1, -1, "parity must be 0 or 1, got -1"),
    "candidates_for-symbol-4": (candidates_for, 4, 0, "symbol must lie in 0..3, got 4"),
    "candidates_for-symbol--1": (candidates_for, -1, 0, "symbol must lie in 0..3, got -1"),
    "column_nibble-0": (column_nibble, 1, 0, "column must lie in 1..10, got 0"),
    "column_nibble-11": (column_nibble, 1, 11, "column must lie in 1..10, got 11"),
}


@pytest.mark.parametrize("name", BAD_ARRAY_ARGUMENTS)
def test_array_layer_rejects_arguments_out_of_range(name):
    fn, a, b, message = BAD_ARRAY_ARGUMENTS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(a, b)


@pytest.mark.parametrize("column_parity,top_row_parity", [(2, 0), (0, 2), (-1, 0)])
def test_lift_rejects_parities_other_than_0_or_1(column_parity, top_row_parity):
    with pytest.raises(ValueError, match="parities"):
        lift(0, 0, column_parity, top_row_parity)


def test_array_text_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        v = rng.getrandbits(40)
        assert parse_array_text(format_array_text(v)) == v
    with pytest.raises(ValueError):
        parse_array_text("101\n010")
    with pytest.raises(ValueError):
        parse_array_text("2222222222\n" * 4)


@given(st.integers(0, (1 << 40) - 1))
def test_parse_array_text_inverts_format(v):
    assert parse_array_text(format_array_text(v)) == v


@given(st.lists(st.text(alphabet="01", min_size=10, max_size=10), min_size=4, max_size=4))
def test_format_array_text_inverts_parse(rows):
    text = "\n".join(rows) + "\n"
    assert format_array_text(parse_array_text(text)) == text


def test_column_nibble_layout():
    v = int("0011" + "0000" * 9, 2)
    assert column_nibble(v, 1) == 0b0011
    assert column_nibble(v, 2) == 0
