import random

import pytest

from sd40 import quaternary
from sd40.gf4 import Gf4Word, InternalInvariantError, trace_inner
from sd40.quaternary import (
    GROUP_ORDER,
    ORBIT_TYPES,
    MonomialSymmetry,
    OrbitType,
    b10_matrix,
    classify_type,
    e10_matrix,
    enumerate_code,
    full_symmetry_group,
    orbit_census,
    orbit_lookup,
)

EXPECTED_W10 = {0: 1, 4: 30, 6: 300, 8: 585, 10: 108}
EXPECTED_CENSUS = {1: 30, 2: 240, 3: 60, 4: 15, 5: 90, 6: 480, 7: 48, 8: 60}


def test_e10_printed_rows():
    rows = e10_matrix().rows
    assert rows[0].to_string() == "1111000000"
    assert rows[4].to_string() == "10101010wW"
    assert rows[9].to_string() == "w0w0w0w0W1"


def test_b10_printed_rows():
    rows = b10_matrix().rows
    assert rows[1].to_string() == "01wW100000"
    assert rows[4].to_string() == "01Ww001Ww0"


def test_rows_pairwise_trace_orthogonal():
    for m in (e10_matrix(), b10_matrix()):
        for x in m.rows:
            for y in m.rows:
                assert trace_inner(x, y) == 0


def test_omega_rows():
    for m in (e10_matrix(), b10_matrix()):
        for i in range(5):
            assert m.rows[5 + i] == m.rows[i].scaled(2)


def test_weight_enumerator(e10, b10):
    assert e10.weight_distribution == EXPECTED_W10
    assert b10.weight_distribution == EXPECTED_W10
    assert len(e10.words) == 1024
    assert 0 in e10.word_set


def test_minimum_weight_exactly_four(e10, b10):
    for table in (e10, b10):
        assert min(w for w in table.weight_distribution if w) == 4


def test_closure_under_addition(e10):
    rng = random.Random(2024)
    words = e10.words
    for _ in range(10_000):
        a, b = rng.choice(words), rng.choice(words)
        assert a ^ b in e10.word_set


def test_rank_deficiency_rejected():
    # Structurally valid rows whose GF(2)-span is smaller than 2^10.
    m = e10_matrix()
    lin = m.rows[:4] + (m.rows[0] + m.rows[1],)
    bad = type(m)("bad", lin + tuple(r.scaled(2) for r in lin))
    with pytest.raises(ValueError):
        enumerate_code(bad)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        MonomialSymmetry((0, 1, 2, 3, 4), (True, False, False, False, False), 1)
    with pytest.raises(ValueError):
        MonomialSymmetry((0, 1, 2, 3, 4), (False,) * 5, 0)
    with pytest.raises(ValueError):
        MonomialSymmetry((0, 0, 2, 3, 4), (False,) * 5, 1)
    # Swaps are five booleans: a sum of 2 is not two swapped blocks.
    for swaps in ((2, 0, 0, 0, 0), (0.5, 0.5, 1, 0, 0), (True, True)):
        with pytest.raises(ValueError):
            MonomialSymmetry((0, 1, 2, 3, 4), swaps, 1)


def test_symmetry_actions():
    ident = MonomialSymmetry((0, 1, 2, 3, 4), (False,) * 5, 1)
    w = Gf4Word.from_string("1111000000")
    assert ident.apply(w) == w
    scale = MonomialSymmetry((0, 1, 2, 3, 4), (False,) * 5, 2)
    assert scale.apply(w).to_string() == "wwww000000"
    swap12 = MonomialSymmetry((1, 0, 2, 3, 4), (False,) * 5, 1)
    assert swap12.apply(Gf4Word.from_string("1100000000")).to_string() == "0011000000"


# The three printed group generators: (12)(34), (13)(24), (13579)(2468 10).
PRINTED_GENERATORS = (
    MonomialSymmetry((0, 1, 2, 3, 4), (True, True, False, False, False), 1),
    MonomialSymmetry((1, 0, 2, 3, 4), (False,) * 5, 1),
    MonomialSymmetry((4, 0, 1, 2, 3), (False,) * 5, 1),
)


def test_printed_generators_preserve_code(e10):
    for sym in PRINTED_GENERATORS:
        assert {sym.apply_bits(w) for w in e10.words} == e10.word_set


def test_random_group_elements_preserve_code(e10):
    rng = random.Random(99)
    group = full_symmetry_group()
    assert len(group) == GROUP_ORDER
    for sym in rng.sample(group, 100):
        assert {sym.apply_bits(w) for w in e10.words} == e10.word_set


def test_block_cycle_matches_coordinate_cycle():
    # (13579)(2468 10) sends coordinate 1 -> 3, 3 -> 5, ..., 9 -> 1.
    sym = PRINTED_GENERATORS[2]
    w = Gf4Word.from_symbols((1, 2, 0, 0, 0, 0, 0, 0, 0, 0))
    out = sym.apply(w)
    assert out.symbols() == (0, 0, 1, 2, 0, 0, 0, 0, 0, 0)


def test_orbit_census_matches_table(e10):
    census = orbit_census()
    assert census == EXPECTED_CENSUS
    assert sum(census.values()) == 1023
    assert set(orbit_lookup()) == e10.word_set - {0}


def test_orbit_lookup_rejects_an_image_outside_e10(monkeypatch):
    # 0001000000 is no codeword, yet its orbit has 30 words like type 1's,
    # so only the membership check of the build can see the bad type.
    bad = OrbitType(1, Gf4Word.from_string("0001000000"), 30, 1)
    monkeypatch.setattr(quaternary, "ORBIT_TYPES", (bad, *ORBIT_TYPES[1:]))
    orbit_lookup.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="type 1"):
            orbit_lookup()
    finally:
        monkeypatch.undo()
        orbit_lookup.cache_clear()
    assert orbit_census() == EXPECTED_CENSUS


def test_orbit_type_weights():
    lookup = orbit_lookup()
    by_type = {t.type_id: set() for t in ORBIT_TYPES}
    for bits, tid in lookup.items():
        by_type[tid].add(Gf4Word(bits, 10).weight())
    for t in ORBIT_TYPES:
        assert by_type[t.type_id] == {t.weight}


def test_classify_examples():
    # Weight-8 word with three distinct nonzero symbols: the sixth type.
    w = Gf4Word.from_string("0Ww1w1W0w1")
    assert classify_type(w).type_id == 6
    assert classify_type(Gf4Word.from_string("1111000000")).type_id == 1
    assert classify_type(Gf4Word.from_string("WwWwwWwWwW")).type_id == 7


def test_classify_rejects_non_codewords():
    with pytest.raises(ValueError):
        classify_type(Gf4Word(0, 10))
    with pytest.raises(ValueError):
        classify_type(Gf4Word.from_string("1000000000"))

