import itertools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sd40.constructions import E_B, E_C, binmap, printed_de_matrix
from sd40.decoders import classify_case
from sd40.gf4 import format_symbols
from sd40.projection import (
    _COLUMN_BYTES,
    _MAJORITY_FLIPS,
    COLUMN_PATTERNS,
    N_COLS,
    RADIUS,
    TOP_ROW_MASK,
    LiftError,
    candidates_for,
    format_array_text,
    has_projection_e,
    has_projection_o,
    lift,
    parity_profile,
    parse_array_text,
    proj_bits,
    read_columns,
)
from sd40.quaternary import e10_table

SECTION3_ARRAY = """
1110110010
1011010111
1000001011
0001100010
"""


def test_proj_section3_example():
    v = parse_array_text(SECTION3_ARRAY)
    assert format_symbols(proj_bits(v), 10) == "W01wW1w10W"


def test_proj_trivial_cases():
    assert proj_bits(0) == 0
    # Column 0110 in rows (0, 1, w, W) projects to 1 + w = W.
    v = parse_array_text("0000000000\n1000000000\n1000000000\n0000000000")
    assert proj_bits(v) & 3 == 3


def test_proj_linearity(de_matrix):
    rng = random.Random(5)
    for _ in range(10_000):
        u, v = rng.getrandbits(40), rng.getrandbits(40)
        assert proj_bits(u ^ v) == proj_bits(u) ^ proj_bits(v)


def _column_reference(v):
    """Projection and column parities read column by column, as in the paper."""
    y = parities = 0
    for c in range(1, 11):
        nib = v >> 4 * (10 - c) & 0xF
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
    # Entry b of table k is the image of byte k holding b, the parities
    # above the projection.
    for k in range(5):
        for b in range(256):
            y, parities = _column_reference(b << 8 * k)
            assert _COLUMN_BYTES[k][b] == parities << 20 | y


def test_read_columns_is_the_parities_above_the_projection():
    rng = random.Random(31)
    words = [0, (1 << 40) - 1] + [1 << p for p in range(40)]
    for v in words + [rng.getrandbits(40) for _ in range(2_000)]:
        assert read_columns(v) == parity_profile(v) << 20 | proj_bits(v)


def _lift_word(v, error, case, top_row_parity):
    """The word lift rewrites v into: v ^ its flips for the error word,
    case's erasures and the top-row parity wanted."""
    return v ^ lift(error, case.erasure_nibbles, _top_row_parity(v) ^ top_row_parity)


def _lift_to(v, target, top_row_parity):
    """_lift_word with the error word that takes v's projection to target."""
    return _lift_word(v, proj_bits(v) ^ target, classify_case(v), top_row_parity)


def test_lift_tie_rules():
    # Column 1 = 0110 must become symbol 0 with even parity: candidates
    # 0000 and 1111 are both at distance 2.  The top row wanted even
    # picks 0000.
    v = 0x6 << 36
    assert _lift_to(v, 0, 0) == 0
    # Same column, top row wanted odd: 1111, which costs no extra flip.
    assert _lift_to(v, 0, 1) == 0xF << 36
    # Two columns at distance 2 and one at distance 1, with the swap: 5
    # flips, over the radius.  Within 3 flips a swap never has two farthest
    # columns to choose between (see the test below).
    v = (0x6 << 36) | (0x6 << 28) | (0x1 << 20)
    with pytest.raises(LiftError, match="5 flips needed"):
        _lift_to(v, 0, 1)


def test_a_top_row_swap_within_the_radius_meets_no_tie():
    # A finite model of lift's swap.  A touched column takes one flip (an
    # erasure) or two (a majority column with a nonzero error symbol), and
    # complementing it costs 4 - 2d more, so lift complements a two-flip
    # column if there is one and an erasure otherwise.  Wherever two touched
    # columns share the largest cost, the swap takes the flips past RADIUS,
    # so which of them lift complements never shows in a result.
    touched = {(flips ^ 8 * erasure).bit_count()
               for flips, erasure in itertools.product(_MAJORITY_FLIPS, (0, 1)) if flips or erasure}
    assert touched == {1, 2}
    for k in range(2, N_COLS + 1):
        for dists in itertools.combinations_with_replacement(sorted(touched), k):
            if dists.count(max(dists)) > 1:
                assert sum(dists) + 4 - 2 * max(dists) > RADIUS, dists


@pytest.mark.parametrize("col", range(1, N_COLS + 1))
def test_lift_flips_of_one_column(col):
    # Every nibble, error symbol s, majority parity and wanted top-row
    # parity, in column col of a word whose other columns are 0000 or 0001.
    # An erasure takes one flip, in the row labelled s (nibble bit 8 >> s,
    # the top row for s = 0).  A majority column with s != 0 takes the top
    # row and row s, or the complement of those two; with s = 0 it takes
    # nothing.  When the top row needs the other choice, an erasure is
    # complemented to three flips, and an untouched column cannot help.
    shift = 4 * (N_COLS - col)
    others = int("0001" * N_COLS, 2) & ~(0xF << shift)
    for nibble, s, parity, top in itertools.product(range(16), range(4), (0, 1), (0, 1)):
        v = nibble << shift | parity * others
        case, error = classify_case(v), s << 2 * (col - 1)
        erasure = nibble.bit_count() & 1 != parity
        assert case.erasure_columns == ((col,) if erasure else ())
        out = nibble ^ (8 >> s if erasure else 8 | 8 >> s if s else 0)
        if out >> 3 != top:
            if not erasure and s == 0:
                with pytest.raises(LiftError, match="no column to rewrite"):
                    _lift_word(v, error, case, top)
                continue
            out ^= 0xF
        word = _lift_word(v, error, case, top)
        assert word == v ^ (nibble ^ out) << shift, (nibble, s, parity, top)
        assert proj_bits(word) == proj_bits(v) ^ error
        assert parity_profile(word) == parity * 0x3FF


def _reference_lift(v, target, column_parity, top_row_parity):
    """The column-by-column rewrite: visit all ten columns, take the nearer
    candidate (the first on a tie), then swap a farthest rewritten column
    if the top row is off."""
    picks, dists, out = {}, {}, v
    for col in range(1, 11):
        cur = v >> 4 * (10 - col) & 0xF
        want = (target >> (2 * (col - 1))) & 3
        if proj_bits(cur << 36) & 3 == want and cur.bit_count() % 2 == column_parity:
            continue
        a, b = candidates_for(want, column_parity)
        da = (cur ^ a).bit_count()
        picks[col], dists[col] = (a, da) if da <= 4 - da else (b, 4 - da)
        out ^= (cur ^ picks[col]) << (4 * (10 - col))
    total = sum(dists.values())
    if bin(out & int("1000" * 10, 2)).count("1") % 2 != top_row_parity:
        if not picks:
            return None
        col = max(picks, key=dists.__getitem__)
        out ^= 0xF << (4 * (10 - col))
        total += 4 - 2 * dists[col]
    if total > 3:
        return None
    # The flips counted column by column are the bits v ^ out sets, so a
    # lift that returns out flips exactly the reference's count.
    assert (v ^ out).bit_count() == total
    return out


@pytest.mark.sweep
def test_lift_matches_column_loop():
    rng = random.Random(29)
    for _ in range(20_000):
        v = rng.getrandbits(40)
        while classify_case(v) is None:  # lift rewrites to the case's parity
            v = rng.getrandbits(40)
        # Targets near proj_bits(v) reach the accepting branch, random ones the
        # rejecting one.
        target = proj_bits(v) ^ rng.choice([0, rng.getrandbits(20), 1 << 2 * rng.randrange(10)])
        top_row_parity = rng.randrange(2)
        want = _reference_lift(v, target, classify_case(v).majority_parity, top_row_parity)
        if want is None:
            with pytest.raises(LiftError):
                _lift_to(v, target, top_row_parity)
        else:
            assert _lift_to(v, target, top_row_parity) == want
            assert proj_bits(want) == target


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
            assert proj_bits(v) & 3 == value
        assert pats[0].bit_count() % 2 == 0
        assert pats[1].bit_count() % 2 == 0
        assert pats[2].bit_count() % 2 == 1
        assert pats[3].bit_count() % 2 == 1
        seen.update(pats)
    assert seen == set(range(16))
    for value, parity in itertools.product(range(4), (0, 1)):
        a, b = candidates_for(value, parity)
        assert a ^ b == 0xF  # complements


def test_projection_o_membership(de_matrix, de_oracle, span_entry):
    for row in de_matrix.rows:
        assert has_projection_o(row)
    assert has_projection_o(E_B)
    assert not has_projection_e(E_B)
    rng = random.Random(17)
    # Random codewords satisfy it; random non-codewords fail it.
    for _ in range(2_000):
        w = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        assert has_projection_o(w)
        v = rng.getrandbits(40)
        assert has_projection_o(v) == de_matrix.contains(v)


def test_projection_e_membership(se_matrix):
    for row in se_matrix.rows:
        assert has_projection_e(row)
    assert has_projection_e(E_C)
    rng = random.Random(18)
    for _ in range(2_000):
        v = rng.getrandbits(40)
        assert has_projection_e(v) == se_matrix.contains(v)


def test_binmap_images_have_projection_o(e10):
    for row in e10.rows:
        v = binmap(row)
        assert has_projection_o(v)
        assert parity_profile(v) == 0


def test_even_fiber_of_fixed_codeword_has_512_members(de_matrix):
    # All 2^10 all-even-column realizations of one projection codeword;
    # exactly half satisfy the top-row rule and land in the code.
    w = e10_table().rows[4]
    cols = [candidates_for((w >> i) & 3, 0) for i in range(0, 20, 2)]
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
        assert _lift_to(row, proj_bits(row), _top_row_parity(row)) == row


def test_lift_reverses_small_corruptions(de_matrix, de_oracle, span_entry):
    rng = random.Random(23)
    for _ in range(500):
        cw = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        weight = rng.randint(1, 3)
        v = cw
        for pos in rng.sample(range(40), weight):
            v ^= 1 << pos
        majority = classify_case(v).majority_parity
        assert _lift_to(v, proj_bits(cw), majority) == cw


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
        _lift_to(v, proj_bits(v), majority)


# Array-layer calls with a symbol or parity outside its range, and
# the message that names it.
BAD_ARRAY_ARGUMENTS = {
    "candidates_for-parity-2": (candidates_for, 1, 2, "parity must be 0 or 1, got 2"),
    "candidates_for-parity--1": (candidates_for, 1, -1, "parity must be 0 or 1, got -1"),
    "candidates_for-parity-1.0": (candidates_for, 1, 1.0, "parity must be 0 or 1, got 1.0"),
    "candidates_for-symbol-4": (candidates_for, 4, 0, "symbol must lie in 0..3, got 4"),
    "candidates_for-symbol--1": (candidates_for, -1, 0, "symbol must lie in 0..3, got -1"),
    "candidates_for-symbol-1.0": (candidates_for, 1.0, 0, "symbol must lie in 0..3, got 1.0"),
}


@pytest.mark.parametrize("name", BAD_ARRAY_ARGUMENTS)
def test_array_layer_rejects_arguments_out_of_range(name):
    fn, a, b, message = BAD_ARRAY_ARGUMENTS[name]
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(a, b)


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


def test_array_layout():
    # Coordinates 1-4 are column 1, top to bottom.
    v = int("0011" + "0000" * 9, 2)
    assert format_array_text(v) == "0000000000\n0000000000\n1000000000\n1000000000\n"
