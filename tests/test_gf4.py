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
    Gf4Word,
    byte_tables,
    hermitian_inner,
    packed,
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
    x = Gf4Word.from_string("1111000000").bits
    y = Gf4Word.from_string("0011110000").bits
    assert hermitian_inner(x, y, 10) == ZERO
    assert hermitian_inner(x, x, 10) == ZERO  # weight 4, each position gives 1
    assert hermitian_inner(x, 0, 10) == ZERO
    # w * conj(1) + 1 * conj(w) = w + W = 1
    assert hermitian_inner(Gf4Word.from_string("w1").bits, Gf4Word.from_string("1w").bits, 2) == ONE


def test_inner_product_length_mismatch():
    # Either word may be the one that does not pack n symbols; a Gf4Word
    # is no packed word.
    for x, y in ((0, 1 << 20), (1 << 20, 0), (-1, 0), (Gf4Word(0, 10), 0)):
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            hermitian_inner(x, y, 10)
        with pytest.raises(ValueError, match="not a packed 10-symbol word"):
            trace_inner(x, y, 10)


def test_word_parsing_and_formatting():
    w = Gf4Word.from_string("10101001wW")
    assert w.to_string() == "10101001wW"
    assert tuple(w) == (1, 0, 1, 0, 1, 0, 0, 1, 2, 3)
    assert word_weight(w.bits, w.n) == 6
    assert w.n == 10
    with pytest.raises(ValueError):
        Gf4Word.from_string("10101001wX")
    with pytest.raises(ValueError):
        Gf4Word.from_string("101", 10)
    # A float equal to a symbol would fail later, as a shift.
    with pytest.raises(ValueError, match="not in GF"):
        Gf4Word.from_symbols([1.0])


def test_word_addition_and_scaling():
    a = Gf4Word.from_string("ww00000000")
    b = Gf4Word.from_string("W100000000")
    assert Gf4Word(a.bits ^ b.bits, a.n).to_string() == "1W00000000"
    assert Gf4Word(word_times_w(a.bits, 10), 10).to_string() == "WW00000000"
    # w^3 = 1, so three w-multiples give the word back.
    assert word_times_w(word_times_w(word_times_w(a.bits, 10), 10), 10) == a.bits
    assert word_times_w(0, 10) == 0


def test_packed_helpers_match_word_api():
    w = Gf4Word.from_string("0W1w01w0W0")
    assert word_weight(w.bits, w.n) == sum(s != ZERO for s in w) == 6
    scaled = Gf4Word(word_times_w(word_times_w(w.bits, 10), 10), 10)
    assert tuple(scaled) == tuple(MUL[OMEGA_BAR][s] for s in w)


def test_word_times_w_is_mul_by_omega_on_every_5_symbol_word():
    for symbols in itertools.product(ELEMENTS, repeat=5):
        word = Gf4Word.from_symbols(symbols)
        assert tuple(Gf4Word(word_times_w(word.bits, 5), 5)) == tuple(
            MUL[OMEGA][s] for s in symbols)


@pytest.mark.parametrize("bits", [1 << 20, -1, 1.0, Gf4Word(0, 10)],
                         ids=["1048576", "-1", "1.0", "Gf4Word"])
def test_word_times_w_refuses_a_bad_word(bits):
    # 1 << 20 would drop its eleventh symbol and -1 would read as all W;
    # 1.0 and a Gf4Word would fail later, as a shift.
    with pytest.raises(ValueError, match="not a packed 10-symbol word"):
        word_times_w(bits, 10)


@pytest.mark.parametrize("bits,n", [(-1, 10), (1 << 20, 10), (1 << 24, 10), (5, 1),
                                    (1, 0), (0, -1)])
def test_word_bits_fit_its_length(bits, n):
    # A word out of range would print like an in-range one and still
    # compare unequal to it.
    with pytest.raises(ValueError):
        Gf4Word(bits, n)


def test_packed_refuses_a_gf4word():
    # Out-of-range and wrong-length cases are in test_decoders' WRONG_LENGTH.
    for n in (5, 10):
        top = (1 << 2 * n) - 1
        assert packed(top, n) == top
        assert packed(0, n) == 0
        for word in (Gf4Word(top, n), Gf4Word(0, n), -1):
            with pytest.raises(ValueError, match=f"is not a packed {n}-symbol word"):
                packed(word, n)


def test_word_range_edges():
    assert Gf4Word((1 << 20) - 1, 10).to_string() == "W" * 10
    assert Gf4Word(3, 1).to_string() == "W"
    assert Gf4Word(0, 0).to_string() == ""


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(st.integers(0, 4**n - 1), st.just(n))))
def test_word_string_roundtrip(word):
    bits, n = word
    w = Gf4Word(bits, n)
    text = w.to_string()
    assert len(text) == n and set(text) <= set("01wW")
    assert Gf4Word.from_string(text, n) == w


@given(st.text(alphabet="01wW", max_size=12))
def test_string_word_roundtrip(text):
    assert Gf4Word.from_string(text).to_string() == text


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
