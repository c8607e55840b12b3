import random
from itertools import combinations

import numpy as np
import pytest

from sd40.constructions import d4_block, printed_de_matrix
from sd40.gf4 import InternalInvariantError
from sd40.oracle import (
    OracleTable,
    build_oracle,
    indexed_decode,
    oracle_decode,
    words_sha256,
)
from sd40.projection import parse_array_text

EXAMPLE1_RECEIVED = "0110111110\n1001000010\n0011100101\n0011100110"
EXAMPLE1_CORRECTED = "0110111110\n1001000010\n0011100111\n0011100100"


def test_table_basics(de_oracle):
    assert de_oracle.size == 1 << 20
    assert int(de_oracle.words[0]) == 0
    assert len(de_oracle.word_set) == 1 << 20
    nonzero = de_oracle.words[de_oracle.words != 0]
    assert int(np.bitwise_count(nonzero).min()) == 8


def test_table_is_its_rows(de_matrix):
    # Two oracles of one matrix are equal and hash alike: the table's
    # fields are its name and rows, and every lookup table, the codeword
    # array included, is built from them on first read.
    table, again = build_oracle(de_matrix), build_oracle(de_matrix)
    assert table == again and hash(table) == hash(again)
    assert table.rows == de_matrix.reduced and table.size == 1 << 20
    assert indexed_decode(de_matrix.encode(5) ^ 1, table) == de_matrix.encode(5)
    assert "words" not in vars(table)
    assert oracle_decode(de_matrix.encode(5) ^ 1, table) == de_matrix.encode(5)
    assert "words" in vars(table)
    assert table == again


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
    with pytest.raises(InternalInvariantError, match="minimum distance below 8"):
        table.leader_index


def test_decode_codeword_is_identity(de_oracle):
    rng = random.Random(1)
    for _ in range(20):
        cw = int(de_oracle.words[rng.randrange(de_oracle.size)])
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
    rng = random.Random(4096)
    for _ in range(10_000):
        v = rng.getrandbits(40)
        assert indexed_decode(v, de_oracle) == oracle_decode(v, de_oracle)


@pytest.mark.parametrize("v", [1 << 40, -1, (1 << 40) + 5, -(1 << 40)])
def test_received_word_domain(de_oracle, v):
    # Words outside [0, 2^40) are not received words: neither a
    # "codeword" nor a numpy overflow comes back.
    with pytest.raises(ValueError):
        oracle_decode(v, de_oracle)
    with pytest.raises(ValueError):
        indexed_decode(v, de_oracle)


# Content hashes of the tables in their deterministic enumeration order.
DE_TABLE_SHA256 = "75583c445563603ba027372573bf37afd5a482b24eac4ad35bd88902041e12cc"
SE_TABLE_SHA256 = "276683b715a6f35bc90f93d4de3f3f2df3dee17c68a3b435d530ef869a61b77e"


def test_enumeration_order_reproducible(de_matrix, de_oracle, se_oracle):
    again = build_oracle(de_matrix)
    assert words_sha256(again) == words_sha256(de_oracle) == DE_TABLE_SHA256
    assert words_sha256(se_oracle) == SE_TABLE_SHA256
