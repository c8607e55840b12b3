"""The public input domain, stated once.

Every function that `sd40` exports and that takes a word is a row below,
with the word's length: 40 for a received binary word, 10 for a packed
GF(4) word.  Each row gets a bool, a float, a negative int, a word one bit
or one symbol too long, and a valid word's text, and must raise a
ValueError that names what it got and says "40-bit" or "symbol".  Every
other exported callable is on the no-word list, so a new function of a
word fails the census until it gets its row.
"""

import inspect

import pytest

import sd40
from sd40.gf4 import format_symbols
from sd40.quaternary import e10_matrix, e10_table

E10_WORDS = e10_table().word_set
DE = sd40.printed_de_matrix()
ORACLE = sd40.build_oracle(DE)
Y0 = e10_matrix().rows[0]  # a nonzero codeword of E10, for the other argument

# name -> (word length, the call with the word in the slot under test)
WORD_FUNCTIONS = {
    "binmap": (10, sd40.binmap),
    "classify_case": (40, sd40.classify_case),
    "classify_type": (10, sd40.classify_type),
    "format_symbols": (10, lambda w: sd40.format_symbols(w, 10)),
    "has_projection_e": (40, lambda v: sd40.has_projection_e(v, E10_WORDS)),
    "has_projection_o": (40, lambda v: sd40.has_projection_o(v, E10_WORDS)),
    "hermitian_inner(x)": (10, lambda w: sd40.hermitian_inner(w, Y0, 10)),
    "hermitian_inner(y)": (10, lambda w: sd40.hermitian_inner(Y0, w, 10)),
    "indexed_decode": (40, lambda v: sd40.indexed_decode(v, ORACLE)),
    "oracle_decode": (40, lambda v: sd40.oracle_decode(v, ORACLE)),
    "parity_profile": (40, sd40.parity_profile),
    "represent_decode": (40, sd40.represent_decode),
    "syndrome": (10, sd40.syndrome),
    "syndrome_decode": (40, sd40.syndrome_decode),
    "trace_inner(x)": (10, lambda w: sd40.trace_inner(w, Y0, 10)),
    "trace_inner(y)": (10, lambda w: sd40.trace_inner(Y0, w, 10)),
}

# Exported callables that take no word, each with what it takes instead.
NO_WORD = {
    "BinaryGeneratorMatrix": "a class; its rows are checked by its constructor",
    "CaseLabel": "a class, built by the case table alone",
    "CertificationReport": "a class, built by certify",
    "CodeTable": "a class, built by enumerate_code",
    "DecodeOutcome": "a class, built by the decoders",
    "InternalInvariantError": "an exception",
    "OracleTable": "a class; its rows are checked by its constructor",
    "OrbitType": "a class, the paper's eight types",
    "QuaternaryGeneratorMatrix": "a class; its rows are checked by its constructor",
    "build_oracle": "a binary generator matrix",
    "certify": "a binary generator matrix",
    "enumerate_code": "a quaternary generator matrix",
    "orbit_census": "nothing",
    "parse_symbols": "a word's text, which it reads into a word",
    "printed_de_matrix": "nothing",
    "printed_se_matrix": "nothing",
    "rho_a": "a quaternary generator matrix",
    "rho_b": "a quaternary generator matrix",
    "rho_c": "a quaternary generator matrix",
}


def _exported_callables():
    return {name for name, value in vars(sd40).items()
            if not name.startswith("_") and callable(value) and not inspect.ismodule(value)}


def test_every_exported_callable_is_listed_once():
    listed = [name.split("(")[0] for name in WORD_FUNCTIONS] + list(NO_WORD)
    assert not set(WORD_FUNCTIONS) & set(NO_WORD)
    assert set(listed) == _exported_callables()


def _bad_words(n):
    """What each row must refuse, and the valid word whose text is the last."""
    good = DE.rows[0] if n == 40 else Y0
    text = format(good, "040b") if n == 40 else format_symbols(good, 10)
    too_long = 1 << (40 if n == 40 else 20)
    return good, (True, 1.0, -1, too_long, text)


@pytest.mark.parametrize("name", WORD_FUNCTIONS)
def test_each_word_function_refuses_what_is_no_word(name):
    n, call = WORD_FUNCTIONS[name]
    good, bad_words = _bad_words(n)
    call(good)  # the control: the row's other arguments are valid
    for bad in bad_words:
        with pytest.raises(ValueError, match="40-bit" if n == 40 else "symbol") as refused:
            call(bad)
        assert str(bad) in str(refused.value), (bad, refused.value)


# (row, word) pairs that test_decoders and test_oracle also give, so the
# table keeps each of them should a module's own case go.
FOLDED = [(name, bad) for bad in (True, 1.0, -1, 1 << 40) for name in (
    "represent_decode", "syndrome_decode", "indexed_decode", "oracle_decode", "classify_case",
    "parity_profile", "has_projection_e", "has_projection_o")] + [
    ("syndrome", 1 << 20), ("classify_type", 1 << 20), ("format_symbols", 1.0)]


def test_folded_rows_are_in_the_table():
    for name, word in FOLDED:
        bad_words = _bad_words(WORD_FUNCTIONS[name][0])[1]
        assert any(type(bad) is type(word) and bad == word for bad in bad_words), (name, word)
