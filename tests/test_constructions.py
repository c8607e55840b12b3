import random
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sd40 import constructions
from sd40.constructions import (
    D4N0,
    E_B,
    E_C,
    BinaryGeneratorMatrix,
    binmap,
    certify,
    d4_block,
    parse_matrix_text,
    printed_de_matrix,
    printed_se_matrix,
    rho_a,
    rho_b,
    rho_c,
    row_reduce,
)
from sd40.gf4 import format_symbols, parse_symbols, xor_span
from sd40.quaternary import b10_table, e10_table

FIXTURES = Path(__file__).parent / "fixtures"

DE_DISTRIBUTION = {
    0: 1, 8: 285, 12: 21280, 16: 239970, 20: 525504,
    24: 239970, 28: 21280, 32: 285, 40: 1,
}
SE_DISTRIBUTION = {
    0: 1, 8: 285, 10: 1024, 12: 11040, 14: 46080, 16: 117090,
    18: 215040, 20: 267456, 22: 215040, 24: 117090, 26: 46080,
    28: 11040, 30: 1024, 32: 285, 40: 1,
}


def test_binmap_examples():
    w = parse_symbols("1111000000", 10)
    assert format(binmap(w), "040b") == "0011" * 4 + "0000" * 6
    assert binmap(0) == 0
    w2 = parse_symbols("wW00000000", 10)
    assert format(binmap(w2), "040b") == "01010110" + "0000" * 8
    # An 11-symbol word, a negative int, and a word's text, which is no packed word.
    for bad in (1 << 20, -1, format_symbols(0, 10)):
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            binmap(bad)


def test_d4n0_generators():
    gens = D4N0
    assert len(gens) == 9
    assert format(gens[0], "040b") == "1" * 8 + "0" * 32
    assert format(gens[8], "040b") == "1" * 4 + "0" * 32 + "1" * 4  # blocks 1 and 10
    span = {0}
    for g in gens:
        span |= {w ^ g for w in span}
    assert len(span) == 512
    assert all(w.bit_count() % 8 == 0 for w in span)


def test_glue_vectors():
    eb, ec = E_B, E_C
    assert format(eb, "040b") == "1000" * 9 + "0111"
    assert format(ec, "040b") == "1000" * 10
    assert eb.bit_count() == 12
    assert ec.bit_count() == 10
    assert (eb >> 39) & 1 == 1  # coordinate 1
    assert format(eb, "040b")[36:] == "0111"  # coordinates 37..40


def test_row_reduce_deterministic_and_idempotent():
    rows = printed_de_matrix().rows
    basis = row_reduce(rows)
    assert len(basis) == 20
    assert row_reduce(basis) == basis
    assert row_reduce(reversed(rows)) == basis


@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=16), st.randoms(use_true_random=False))
def test_row_reduce_is_the_reduced_basis_of_the_span(rows, rnd):
    basis = row_reduce(rows)
    pivots = [b.bit_length() - 1 for b in basis]
    # Pivots strictly decrease, and each one is set in its own row only.
    assert all(p > q >= 0 for p, q in zip(pivots, pivots[1:]))
    assert all((b >> p) & 1 == (i == j) for i, p in enumerate(pivots) for j, b in enumerate(basis))
    # Every input row lies in the span of the basis.
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        assert row == 0
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert row_reduce(shuffled) == basis


def _printed_rows(code):
    """The generator matrix the paper prints, as the fixture holds its text."""
    return parse_matrix_text((FIXTURES / f"g40_{code}.txt").read_text())


def test_rho_b_is_the_printed_code(de_matrix):
    # Row for row: the images of E10's ten GF(2)-basis rows, block 1
    # paired with blocks 2..10, then e_B.
    assert de_matrix.rows == _printed_rows("de")


def test_a_lift_is_reduced_once(monkeypatch):
    calls = []
    real = constructions.row_reduce
    monkeypatch.setattr(constructions, "row_reduce", lambda rows: calls.append(1) or real(rows))
    lifted = rho_b(e10_table())
    assert len(calls) == 1  # the rank check; `reduced` is then cached
    assert lifted.reduced == row_reduce(lifted.rows)
    # The generator rows are kept in construction order: the images of
    # E10's ten GF(2)-basis rows come first.
    assert lifted.rows[:10] == tuple(binmap(r) for r in e10_table().rows)


def test_rho_c_is_the_printed_se_code(se_matrix):
    # The DE rows with e_C in place of e_B.
    assert se_matrix.rows == _printed_rows("se")
    assert rho_c(e10_table()).rows == _printed_rows("se")


def test_lifts_are_self_dual():
    for m in (e10_table(), b10_table()):
        for construct in (rho_a, rho_b, rho_c):
            lifted = construct(m)
            assert len(lifted.rows) == 20
            assert lifted.is_self_dual()


def test_rho_a_contains_d4(de_matrix):
    ra = rho_a(e10_table())
    assert ra.contains(d4_block(1))
    # d4 blocks have weight 4, so construction A is not distance 8.
    assert not de_matrix.contains(d4_block(1))


@pytest.mark.parametrize("col", [0, 11, 1.0, True])
def test_d4_block_refuses_a_column_outside_1_to_10(col):
    # 1.0 would fail later, as a shift, and True would read column 1.
    with pytest.raises(ValueError, match=f"column {col!r} out of range"):
        d4_block(col)


def test_certify_de(de_matrix):
    report = certify(de_matrix)
    assert report.self_dual
    assert report.minimum_distance == 8
    assert report.parity_type == "doubly-even"
    assert report.weight_distribution == DE_DISTRIBUTION


def test_certify_se(se_matrix):
    report = certify(se_matrix)
    assert report.self_dual
    assert report.minimum_distance == 8
    assert report.parity_type == "singly-even"
    assert report.weight_distribution == SE_DISTRIBUTION


def test_certify_b10_lift_same_distribution():
    report = certify(rho_b(b10_table()))
    assert report.weight_distribution == DE_DISTRIBUTION
    assert report.parity_type == "doubly-even"


def test_printed_matrix_spot_rows():
    rows = printed_de_matrix().rows
    assert format(rows[0], "040b") == "0011" * 4 + "0" * 24
    assert format(rows[4], "040b") == (
        "0011000000110000001100000011000001010110"
    )
    assert rows[19] == E_B
    assert printed_se_matrix().rows[19] == E_C


def test_encode_unit_vectors():
    m = printed_de_matrix()
    assert m.encode(1 << 19) == m.rows[0]
    assert m.encode(0) == 0
    assert m.encode(0b11 << 18) == m.rows[0] ^ m.rows[1]
    # A message is an int of 20 bits: not a bool, a float or a negative int.
    for bad in (1 << 20, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"message {bad!r} is not a 20-bit int"):
            m.encode(bad)


def test_matrix_text_roundtrip():
    text = printed_de_matrix().to_text()
    assert parse_matrix_text(text) == printed_de_matrix().rows
    with pytest.raises(ValueError):
        parse_matrix_text(text.replace("0", "2", 1))
    with pytest.raises(ValueError):
        parse_matrix_text("\n".join(text.splitlines()[:5]))
    # A short row, a long row, and full-width rows that int(row, 2) reads but
    # that are not 0/1 strings: each is refused by the row it sits in.
    for k, edit in ((3, lambda r: r[:-1]), (7, lambda r: r + "0"),
                    (12, lambda r: "1_" + r[2:]), (20, lambda r: "+" + r[1:])):
        lines = text.splitlines()
        lines[k - 1] = edit(lines[k - 1])
        with pytest.raises(ValueError, match=f"row {k} is not a 40-character bit string"):
            parse_matrix_text("\n".join(lines))


def test_rank_deficient_matrix_rejected():
    rows = printed_de_matrix().rows
    for count in (19, 21):
        with pytest.raises(ValueError, match=f"expected 20 rows, got {count}"):
            BinaryGeneratorMatrix("bad", (rows * 2)[:count])
    with pytest.raises(ValueError):
        BinaryGeneratorMatrix("bad", rows[:19] + (rows[0] ^ rows[1],))
    for bad in (1 << 40, -5, True, 1.0):
        with pytest.raises(ValueError, match=f"row {bad!r} is not a 40-bit word"):
            BinaryGeneratorMatrix("bad", rows[:19] + (bad,))


def test_non_self_dual_matrix_flagged():
    rows = tuple(1 << (39 - i) for i in range(20))
    m = BinaryGeneratorMatrix("identity-padded", rows)
    assert not m.is_self_dual()
    report = certify(m)
    assert not report.self_dual
    assert report.parity_type == "odd"
    assert report.minimum_distance == 1


def _count_weights(matrix):
    # One codeword per iteration, over the given rows rather than the
    # reduced basis: the reference that certify's byte lanes must match.
    counts = [0] * 41
    for h in xor_span(matrix.rows[10:]):
        for w in xor_span(matrix.rows[:10]):
            counts[(h ^ w).bit_count()] += 1
    return {w: c for w, c in enumerate(counts) if c}


def test_certify_weights_of_the_identity_padded_code():
    # Every weight 0..20 occurs, odd ones included, once per subset of rows.
    m = BinaryGeneratorMatrix("identity-padded", tuple(1 << (39 - i) for i in range(20)))
    assert certify(m).weight_distribution == {w: comb(20, w) for w in range(21)}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_certify_weights_match_a_per_codeword_count(seed):
    rng = random.Random(seed)
    m = BinaryGeneratorMatrix(f"random-{seed}", tuple(rng.getrandbits(40) for _ in range(20)))
    report = certify(m)
    assert report.weight_distribution == _count_weights(m)
    assert report.parity_type == "odd" and sum(report.weight_distribution.values()) == 1 << 20
