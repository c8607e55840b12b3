import random

import pytest

from sd40 import quaternary
from sd40.gf4 import (InternalInvariantError, format_symbols, parse_symbols, trace_inner,
                      word_times_w, word_weight)
from sd40.quaternary import (
    GENERATORS,
    ORBIT_TYPES,
    OrbitType,
    QuaternaryGeneratorMatrix,
    b10_table,
    classify_type,
    e10_table,
    orbit,
    orbit_census,
    orbit_lookup,
)

EXPECTED_W10 = {0: 1, 4: 30, 6: 300, 8: 585, 10: 108}
EXPECTED_CENSUS = {1: 30, 2: 240, 3: 60, 4: 15, 5: 90, 6: 480, 7: 48, 8: 60}


def test_e10_printed_rows():
    rows = e10_table().rows
    assert format_symbols(rows[0], 10) == "1111000000"
    assert format_symbols(rows[4], 10) == "10101010wW"
    assert format_symbols(rows[9], 10) == "w0w0w0w0W1"


def test_b10_printed_rows():
    rows = b10_table().rows
    assert format_symbols(rows[1], 10) == "01wW100000"
    assert format_symbols(rows[4], 10) == "01Ww001Ww0"


def test_rows_pairwise_trace_orthogonal():
    for m in (e10_table(), b10_table()):
        for x in m.rows:
            for y in m.rows:
                assert trace_inner(x, y, 10) == 0


def test_omega_rows():
    for m in (e10_table(), b10_table()):
        for i in range(5):
            assert m.rows[5 + i] == word_times_w(m.rows[i], 10)


def test_weight_enumerator(e10, b10):
    assert e10.weight_distribution == EXPECTED_W10
    assert b10.weight_distribution == EXPECTED_W10
    assert len(e10.word_set) == 1024
    assert 0 in e10.word_set


def test_minimum_weight_exactly_four(e10, b10):
    for table in (e10, b10):
        assert min(w for w in table.weight_distribution if w) == 4


def test_closure_under_addition(e10):
    rng = random.Random(2024)
    words = sorted(e10.word_set)
    for _ in range(10_000):
        a, b = rng.choice(words), rng.choice(words)
        assert a ^ b in e10.word_set


def test_rank_deficiency_rejected():
    # Self-orthogonal rows whose GF(2)-span is smaller than 2^10.
    lin = e10_table().linear_rows
    with pytest.raises(ValueError, match=r"bad: rows are GF\(2\)-dependent"):
        QuaternaryGeneratorMatrix("bad", lin[:4] + (lin[0] ^ lin[1],))


def test_rows_that_are_not_self_orthogonal_rejected():
    # 1000000000 has Hermitian product 1 with itself and with row 1.
    lin = e10_table().linear_rows[:4] + (parse_symbols("1000000000", 10),)
    with pytest.raises(ValueError, match="not self-orthogonal"):
        QuaternaryGeneratorMatrix("bad", lin)


def test_generator_rows_are_five_words_of_length_ten():
    # Longer rows would span a code, with weights counted over 10 symbols.
    lin = e10_table().linear_rows
    for rows in (lin[:4], lin + lin[:1]):
        with pytest.raises(ValueError, match="expected 5 rows"):
            QuaternaryGeneratorMatrix("bad", rows)
    # 12-symbol rows, and the rows as printed text rather than packed words.
    for rows in (tuple(r | 1 << 22 for r in lin), tuple(format_symbols(r, 10) for r in lin)):
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            QuaternaryGeneratorMatrix("bad", rows)


def apply(name, text):
    return format_symbols(GENERATORS[name](parse_symbols(text, 10)), 10)


def test_symmetry_actions():
    # Each word moves every symbol its map touches, so a mask that kept or
    # dropped a wrong bit pair would change the image.
    assert apply("(12)(34)", "1wWww1W01w") == "w1wWw1W01w"
    assert apply("(12)(34)", "01w0000W00") == "100w000W00"
    assert apply("(13)(24)", "1wW0w1W01w") == "W01ww1W01w"
    assert apply("w", "0W1w01w0W0") == "01wW0wW010"
    # Each generator has the order of its cycle type; w has order 3.
    word = parse_symbols("1wW0w1W01w", 10)
    for name, order in (("(12)(34)", 2), ("(13)(24)", 2), ("(13579)(2468 10)", 5), ("w", 3)):
        images = [word]
        for _ in range(order):
            images.append(GENERATORS[name](images[-1]))
        assert images[-1] == word and len(set(images)) == order


def test_printed_generators_preserve_code(e10):
    assert set(GENERATORS) == {"(12)(34)", "(13)(24)", "(13579)(2468 10)", "w"}
    for g in GENERATORS.values():
        assert {g(w) for w in e10.word_set} == e10.word_set


def test_generators_reach_the_whole_monomial_group():
    # Each generator permutes blocks, swaps inside an even number of them or
    # scales, so it lies in the monomial group of order 5! x 16 x 3 = 5760.
    # An orbit of 5760 words then shows that the four generate all of it.
    assert len(orbit(0x91B75)) == 5 * 4 * 3 * 2 * 16 * 3 == 5760
    assert format_symbols(0x91B75, 10) == "11W1Ww101w"


def test_block_cycle_matches_coordinate_cycle():
    # (13579)(2468 10) sends coordinate 1 -> 3, 3 -> 5, ..., 9 -> 1.
    assert apply("(13579)(2468 10)", "1w00000000") == "001w000000"
    assert apply("(13579)(2468 10)", "1w0W01w0Ww") == "Ww1w0W01w0"


def test_orbit_census_matches_table(e10):
    census = orbit_census()
    assert census == EXPECTED_CENSUS
    assert sum(census.values()) == 1023
    assert set(orbit_lookup()) == e10.word_set - {0}


def test_orbit_lookup_rejects_an_image_outside_e10(monkeypatch):
    # 0001000000 is no codeword, yet its orbit has 30 words like type 1's,
    # so only the membership check of the build can see the bad type.
    bad = OrbitType(1, parse_symbols("0001000000", 10), 30, 1)
    monkeypatch.setattr(quaternary, "ORBIT_TYPES", (bad, *ORBIT_TYPES[1:]))
    orbit_lookup.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="type 1"):
            orbit_lookup()
    finally:
        monkeypatch.undo()
        orbit_lookup.cache_clear()
    assert orbit_census() == EXPECTED_CENSUS


def test_orbit_lookup_checks_the_printed_orbit_sizes(monkeypatch):
    # The true type-1 orbit has 30 words; a count of 31 must be refused
    # even though every image is an E10 codeword.
    bad = OrbitType(1, ORBIT_TYPES[0].representative, 31, 4)
    monkeypatch.setattr(quaternary, "ORBIT_TYPES", (bad, *ORBIT_TYPES[1:]))
    orbit_lookup.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="type 1 has 30 words, want 31"):
            orbit_lookup()
    finally:
        monkeypatch.undo()
        orbit_lookup.cache_clear()
    assert orbit_census() == EXPECTED_CENSUS


@pytest.mark.parametrize("types", [
    # Type 1's words again in place of type 4's: the orbits cover 1008.
    ORBIT_TYPES[:3] + (OrbitType(4, ORBIT_TYPES[0].representative, 30, 4),) + ORBIT_TYPES[4:],
    # A ninth type repeating type 1: the orbits cover 1023, the counts sum to 1053.
    ORBIT_TYPES + (OrbitType(9, ORBIT_TYPES[0].representative, 30, 4),),
])
def test_orbit_lookup_rejects_types_that_meet(monkeypatch, types):
    monkeypatch.setattr(quaternary, "ORBIT_TYPES", types)
    orbit_lookup.cache_clear()
    try:
        with pytest.raises(InternalInvariantError):
            orbit_lookup()
    finally:
        monkeypatch.undo()
        orbit_lookup.cache_clear()
    assert orbit_census() == EXPECTED_CENSUS


def test_orbit_type_weights():
    lookup = orbit_lookup()
    by_type = {t.type_id: set() for t in ORBIT_TYPES}
    for bits, tid in lookup.items():
        by_type[tid].add(word_weight(bits, 10))
    for t in ORBIT_TYPES:
        assert by_type[t.type_id] == {t.weight}


def test_classify_examples():
    # Weight-8 word with three distinct nonzero symbols: the sixth type.
    w = parse_symbols("0Ww1w1W0w1", 10)
    assert classify_type(w).type_id == 6
    assert classify_type(parse_symbols("1111000000", 10)).type_id == 1
    assert classify_type(parse_symbols("WwWwwWwWwW", 10)).type_id == 7


def test_classify_rejects_non_codewords():
    with pytest.raises(ValueError, match="the zero word has no type"):
        classify_type(0)
    with pytest.raises(ValueError, match="1000000000 is not a codeword of E10"):
        classify_type(parse_symbols("1000000000", 10))

