import hashlib
import random
import struct
from itertools import combinations

import pytest

from sd40.constructions import d4_block, printed_de_matrix
from sd40.gf4 import InternalInvariantError, xor_span
from sd40.oracle import (
    OracleTable,
    build_oracle,
    indexed_decode,
    oracle_decode,
)
from sd40.projection import RADIUS, parse_array_text

EXAMPLE1_RECEIVED = "0110111110\n1001000010\n0011100101\n0011100110"
EXAMPLE1_CORRECTED = "0110111110\n1001000010\n0011100111\n0011100100"


def test_table_basics(de_oracle):
    span = xor_span(de_oracle.rows)
    assert len(span) == 1 << 20 and span[0] == 0
    assert len(set(span)) == 1 << 20
    assert min(w.bit_count() for w in span[1:]) == 8


def test_table_is_its_rows(de_matrix):
    # Two oracles of one matrix are equal and hash alike: the table's
    # fields are its name and rows, and every lookup table, the search's
    # pivot tables and near codewords included, is built from them on
    # first read.
    table, again = build_oracle(de_matrix), build_oracle(de_matrix)
    assert table == again and hash(table) == hash(again)
    assert table.rows == de_matrix.reduced and len(table.rows) == 20
    assert indexed_decode(de_matrix.encode(5) ^ 1, table) == de_matrix.encode(5)
    assert "_pivot_bytes" not in vars(table) and "_near_codewords" not in vars(table)
    assert oracle_decode(de_matrix.encode(5) ^ 1, table) == de_matrix.encode(5)
    assert "_pivot_bytes" in vars(table) and "_near_codewords" in vars(table)
    assert table == again


def test_table_refuses_an_unreduced_basis(de_matrix):
    # The construction rows span the code but are not reduced: their
    # leading bits are no pivot map, and a search over them misses
    # codewords.  A 21st row is refused first, as by any generator matrix.
    assert de_matrix.rows != de_matrix.reduced
    with pytest.raises(ValueError, match="not a reduced basis"):
        OracleTable("rows", de_matrix.rows)
    with pytest.raises(ValueError, match="20 rows"):
        OracleTable("twice", de_matrix.reduced + de_matrix.reduced[:1])


def test_leader_index_size(de_oracle):
    # 1 + C(40,1) + C(40,2) + C(40,3) distinct syndromes.
    assert len(de_oracle.leader_index) == 10_701


def _reference_syndrome(v, rows):
    """The row-parity loop: bit r is the parity of v & rows[r]."""
    return sum(((v & row).bit_count() & 1) << r for r, row in enumerate(rows))


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_syndrome_matches_row_parity_loop(code, de_oracle, se_oracle):
    table = de_oracle if code == "DE" else se_oracle
    rng = random.Random(61)
    units = [1 << p for p in range(40)]
    for v in units + [rng.getrandbits(40) for _ in range(20_000)]:
        assert table._syndrome(v) == _reference_syndrome(v, table.rows), hex(v)
    want = {}
    for r in range(4):
        for combo in combinations(units, r):
            e = sum(combo)
            want[_reference_syndrome(e, table.rows)] = e
    assert len(want) == 10_701
    assert table.leader_index == want


def test_leader_index_rejects_low_distance_code():
    # The self-dual code spanned by the twenty pairs 11 at bits 2i, 2i+1
    # has distance 2: the unit errors at bits 0 and 1 share a syndrome.
    rows = tuple(0b11 << (2 * i) for i in range(20))
    table = OracleTable("pairs", rows)
    with pytest.raises(InternalInvariantError, match="share syndrome"):
        table.leader_index


def test_decode_codeword_is_identity(de_oracle, span_entry):
    rng = random.Random(1)
    for _ in range(20):
        cw = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        assert oracle_decode(cw, de_oracle) == cw
        assert indexed_decode(cw, de_oracle) == cw


def test_decode_example1(de_oracle):
    v = parse_array_text(EXAMPLE1_RECEIVED)
    expected = parse_array_text(EXAMPLE1_CORRECTED)
    assert oracle_decode(v, de_oracle) == expected
    assert indexed_decode(v, de_oracle) == expected
    assert (v ^ expected).bit_count() == 2


def test_weight_four_column_error_is_undecodable(de_oracle):
    cw = printed_de_matrix().encode(0xBEEF5)
    v = cw ^ d4_block(4)
    assert oracle_decode(v, de_oracle) is None
    assert indexed_decode(v, de_oracle) is None


@pytest.mark.sweep
def test_indexed_equals_scan_on_random_words(de_oracle):
    # The coset-leader index against the information-set search.
    rng = random.Random(4096)
    for _ in range(10_000):
        v = rng.getrandbits(40)
        assert indexed_decode(v, de_oracle) == oracle_decode(v, de_oracle)


@pytest.mark.parametrize("v", [1 << 40, -1, (1 << 40) + 5, -(1 << 40), True, 1.0])
def test_received_word_domain(de_oracle, v):
    # Words outside [0, 2^40) are not received words: no "codeword" comes
    # back, and no lookup reads a table from its end.  Nor is a bool or a
    # float.
    with pytest.raises(ValueError, match="40-bit"):
        oracle_decode(v, de_oracle)
    with pytest.raises(ValueError, match="40-bit"):
        indexed_decode(v, de_oracle)


def _pivots(table):
    """Bit positions of the reduced rows' pivots, their leading bits."""
    return [row.bit_length() - 1 for row in table.rows]


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_three_pivot_flips_decode_back(code, de_oracle, se_oracle, span_entry):
    # The edge of the information-set argument: the received word and its
    # codeword differ in three pivot positions, so the search must reach
    # a near codeword of three rows.
    table = de_oracle if code == "DE" else se_oracle
    rng = random.Random(62)
    for combo in combinations(_pivots(table), 3):
        cw = span_entry(table.rows, rng.getrandbits(20))
        v = cw ^ sum(1 << p for p in combo)
        assert oracle_decode(v, table) == cw, hex(v)


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_four_pivot_flips_match_the_index(code, de_oracle, se_oracle, span_entry):
    table = de_oracle if code == "DE" else se_oracle
    rng = random.Random(63)
    pivots = _pivots(table)
    for _ in range(500):
        cw = span_entry(table.rows, rng.getrandbits(20))
        v = cw ^ sum(1 << p for p in rng.sample(pivots, 4))
        assert oracle_decode(v, table) == indexed_decode(v, table), hex(v)


def _scan_decode(v, span):
    """The linear scan over all 2^20 codewords: the reference that assumes
    nothing but the table.  About 70 ms a word."""
    return next((c for c in span if (v ^ c).bit_count() <= RADIUS), None)


@pytest.mark.parametrize("code", ["DE", "SE"])
def test_search_equals_linear_scan(code, de_oracle, se_oracle):
    table = de_oracle if code == "DE" else se_oracle
    span = xor_span(table.rows)
    rng = random.Random(64)
    words = [rng.getrandbits(40) for _ in range(12)]
    for _ in range(12):
        v = span[rng.randrange(1 << 20)]
        for p in rng.sample(range(40), rng.randint(0, 4)):
            v ^= 1 << p
        words.append(v)
    for v in words:
        assert oracle_decode(v, table) == _scan_decode(v, span), hex(v)


# Content hashes of the tables in their enumeration order, each codeword
# packed in 8 bytes little-endian: entry i is the XOR of the reduced rows at
# the set bits of i.
DE_TABLE_SHA256 = "664b67315872cb26b3d51374155333dfc1a977eb4d2223e03cc6ac1c1f6c8395"
SE_TABLE_SHA256 = "15b0affe1f9d34f816a7a44428a0957e039ddf1e88d8b087ed3489033057f023"
# Hashes of the sorted tables, pinned when the tables were in Gray-code
# order: the order changed, the codewords did not.
DE_SORTED_SHA256 = "a6eca4c9d4f859e1d794da9fc4833686d4e93be4e59f727d8f6d1a560d665f7c"
SE_SORTED_SHA256 = "70461fa7befb74707141e601a65bbfda7a2c8a4ba73836d9f189f3f18ba7e60e"


def _sha256(words):
    return hashlib.sha256(struct.pack(f"<{len(words)}Q", *words)).hexdigest()


def test_enumeration_order_reproducible(de_matrix, de_oracle, se_oracle):
    de_span, se_span = xor_span(de_oracle.rows), xor_span(se_oracle.rows)
    assert _sha256(xor_span(build_oracle(de_matrix).rows)) == _sha256(de_span) == DE_TABLE_SHA256
    assert _sha256(se_span) == SE_TABLE_SHA256
    assert _sha256(sorted(de_span)) == DE_SORTED_SHA256
    assert _sha256(sorted(se_span)) == SE_SORTED_SHA256
