import functools
import itertools
import operator

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sd40.gf4 import (
    CONJ,
    MUL,
    OMEGA,
    OMEGA_BAR,
    ONE,
    TRACE,
    ZERO,
    byte_tables,
    format_symbols,
    hermitian_inner,
    packed,
    parse_symbols,
    trace_inner,
    word_times_w,
    word_weight,
    xor_span,
)

ELEMENTS = (ZERO, ONE, OMEGA, OMEGA_BAR)


# Addition is XOR; multiplication, conjugation and trace are the tables.
def test_defining_relations():
    assert OMEGA ^ ONE == OMEGA_BAR              # W = w + 1
    assert MUL[OMEGA][OMEGA] == OMEGA_BAR        # W = w^2
    assert MUL[OMEGA][OMEGA_BAR] == ONE          # w^3 = 1
    assert OMEGA ^ OMEGA_BAR == ONE


def test_field_axioms_exhaustive():
    for a, b in itertools.product(ELEMENTS, repeat=2):
        assert a ^ b == b ^ a
        assert MUL[a][b] == MUL[b][a]
        assert a ^ a == ZERO
        assert a ^ ZERO == a
        assert MUL[a][ONE] == a
        assert MUL[a][ZERO] == ZERO
    for a, b, c in itertools.product(ELEMENTS, repeat=3):
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert MUL[MUL[a][b]][c] == MUL[a][MUL[b][c]]
        assert MUL[a][b ^ c] == MUL[a][b] ^ MUL[a][c]


def test_nonzero_elements_invertible():
    for a in (ONE, OMEGA, OMEGA_BAR):
        assert any(MUL[a][b] == ONE for b in ELEMENTS)


def test_conjugation():
    assert CONJ[ZERO] == ZERO
    assert CONJ[ONE] == ONE
    assert CONJ[OMEGA] == OMEGA_BAR
    assert CONJ[OMEGA_BAR] == OMEGA
    for a in ELEMENTS:
        assert CONJ[CONJ[a]] == a
        assert CONJ[a] == MUL[a][a]
    for a, b in itertools.product(ELEMENTS, repeat=2):
        assert CONJ[a ^ b] == CONJ[a] ^ CONJ[b]
        assert CONJ[MUL[a][b]] == MUL[CONJ[a]][CONJ[b]]


def test_trace():
    assert TRACE[ZERO] == 0
    assert TRACE[ONE] == 0
    assert TRACE[OMEGA] == 1
    assert TRACE[OMEGA_BAR] == 1
    for a in ELEMENTS:
        assert TRACE[a] == (a ^ MUL[a][a]) & 1


def test_trace_inner_single_position_characterization():
    # Tr(a * conj(b)) = 1 exactly when a, b are distinct nonzero elements.
    for a, b in itertools.product(ELEMENTS, repeat=2):
        expect = 1 if (a != b and a != ZERO and b != ZERO) else 0
        assert trace_inner(a, b, 1) == expect


def test_trace_inner_self_and_zero():
    for bits in range(256):
        assert trace_inner(bits, bits, 4) == 0
        assert trace_inner(bits, 0, 4) == 0


def test_hermitian_inner_examples():
    x = parse_symbols("1111000000", 10)
    y = parse_symbols("0011110000", 10)
    assert hermitian_inner(x, y, 10) == ZERO
    assert hermitian_inner(x, x, 10) == ZERO  # weight 4, each position gives 1
    assert hermitian_inner(x, 0, 10) == ZERO
    # w * conj(1) + 1 * conj(w) = w + W = 1
    assert hermitian_inner(parse_symbols("w1", 2), parse_symbols("1w", 2), 2) == ONE


def test_inner_product_length_mismatch():
    # Either word may be the one that does not pack n symbols; a word's
    # text is no packed word.
    for x, y in ((0, 1 << 20), (1 << 20, 0), (-1, 0), ("0" * 10, 0)):
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            hermitian_inner(x, y, 10)
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            trace_inner(x, y, 10)


def symbols(word, n):
    return tuple((word >> i) & 3 for i in range(0, 2 * n, 2))


def test_word_parsing_and_formatting():
    w = parse_symbols("10101001wW", 10)
    assert format_symbols(w, 10) == "10101001wW"
    assert symbols(w, 10) == (1, 0, 1, 0, 1, 0, 0, 1, 2, 3)
    assert word_weight(w, 10) == 6


def test_parse_symbols_inverts_format_symbols(e10):
    words = [(w, 10) for w in e10.word_set] + [(w, 5) for w in range(4 ** 5)] + [(0, 0)]
    for w, n in words:
        assert parse_symbols(format_symbols(w, n), n) == w
    assert format_symbols(0, 0) == ""
    for text, n in (("10101001wX", 10), ("101", 10), ("0", True), ("0" * 10, 10.0)):
        with pytest.raises(ValueError, match="symbol"):
            parse_symbols(text, n)


def test_word_addition_and_scaling():
    a = parse_symbols("ww00000000", 10)
    b = parse_symbols("W100000000", 10)
    assert format_symbols(a ^ b, 10) == "1W00000000"
    assert format_symbols(word_times_w(a, 10), 10) == "WW00000000"
    # w^3 = 1, so three w-multiples give the word back.
    assert word_times_w(word_times_w(word_times_w(a, 10), 10), 10) == a
    assert word_times_w(0, 10) == 0


def test_packed_helpers_match_word_api():
    w = parse_symbols("0W1w01w0W0", 10)
    assert word_weight(w, 10) == sum(s != ZERO for s in symbols(w, 10)) == 6
    scaled = word_times_w(word_times_w(w, 10), 10)
    assert symbols(scaled, 10) == tuple(MUL[OMEGA_BAR][s] for s in symbols(w, 10))


def test_word_times_w_is_mul_by_omega_on_every_5_symbol_word():
    for word in range(4 ** 5):
        assert symbols(word_times_w(word, 5), 5) == tuple(MUL[OMEGA][s] for s in symbols(word, 5))


@pytest.mark.parametrize("bits", [1 << 20, -1, 1.0, "0" * 10],
                         ids=["1048576", "-1", "1.0", "text"])
def test_word_times_w_refuses_a_bad_word(bits):
    # 1 << 20 would drop its eleventh symbol and -1 would read as all W;
    # 1.0 and a word's text would fail later, as a shift.
    with pytest.raises(ValueError, match="not a packed 10-symbol word"):
        word_times_w(bits, 10)


@pytest.mark.parametrize("bits,n", [(-1, 10), (1 << 20, 10), (1 << 24, 10), (5, 1),
                                    (1, 0), (0, -1)])
def test_word_bits_fit_its_length(bits, n):
    # A word out of range would print as n symbols of some other word.
    with pytest.raises(ValueError, match="symbol"):
        format_symbols(bits, n)


def test_packed_refuses_a_gf4word():
    # A GF(4) word crosses the package packed: its text and its symbol
    # tuple are refused, as a negative int is.  Out-of-range and
    # wrong-length cases are in test_decoders' WRONG_LENGTH.
    for n in (5, 10):
        top = (1 << 2 * n) - 1
        assert packed(top, n) == top
        assert packed(0, n) == 0
        for word in (format_symbols(top, n), symbols(0, n), -1):
            with pytest.raises(ValueError, match=f"is not a packed {n}-symbol word"):
                packed(word, n)


def test_word_range_edges():
    assert format_symbols((1 << 20) - 1, 10) == "W" * 10
    assert format_symbols(3, 1) == "W"
    # n = 0 packs one word, 0.
    assert word_weight(0, 0) == word_times_w(0, 0) == 0


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(st.integers(0, 4**n - 1), st.just(n))))
def test_word_string_roundtrip(word):
    bits, n = word
    text = format_symbols(bits, n)
    assert len(text) == n and set(text) <= set("01wW")
    assert parse_symbols(text, n) == bits


@given(st.text(alphabet="01wW", max_size=12))
def test_string_word_roundtrip(text):
    assert format_symbols(parse_symbols(text, len(text)), len(text)) == text


ROWS = st.lists(st.integers(0, (1 << 64) - 1), max_size=8)


@given(ROWS)
@example([])
@example([(1 << 64) - 1])
@example([3, 5, 1 << 63])
def test_xor_span_entry_is_xor_of_selected_rows(rows):
    span = xor_span(rows)
    assert type(span) is list and len(span) == 1 << len(rows)
    for i, word in enumerate(span):
        picked = (r for j, r in enumerate(rows) if i >> j & 1)
        assert type(word) is int and word == functools.reduce(operator.xor, picked, 0)


@given(ROWS)
def test_span_of_row_differences_is_gray_order(rows):
    span = xor_span(rows)
    gray = xor_span([r ^ prev for r, prev in zip(rows, [0] + rows)])
    assert gray == [span[i ^ (i >> 1)] for i in range(len(span))]


@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=20), st.integers(0, (1 << 20) - 1))
def test_byte_tables_answer_the_linear_map(images, v):
    v &= (1 << len(images)) - 1
    tables = byte_tables(images)
    assert [len(t) for t in tables] == [1 << len(images[p:p + 8]) for p in range(0, len(images), 8)]
    got = functools.reduce(operator.xor, (t[(v >> 8 * k) & 0xFF] for k, t in enumerate(tables)), 0)
    assert got == functools.reduce(operator.xor, (im for p, im in enumerate(images) if v >> p & 1), 0)
