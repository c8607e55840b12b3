"""The public input domain, stated once.

Every function that `sd40` exports and that takes a word is a row below,
with the word's length: 40 for a received binary word, 10 for a packed
GF(4) word.  Each row gets a bool, a float, a negative int, a word one bit
or one symbol too long, and a valid word's text, and must raise a
ValueError that names what it got and says "40-bit" or "symbol".  Every
other exported callable is on the no-word list, so a new function of a
word fails the census until it gets its row.
"""

import dataclasses
import inspect

import pytest

import sd40
from sd40 import cli
from sd40.gf4 import format_symbols
from sd40.quaternary import ORBIT_TYPES, e10_table

DE = sd40.printed_de_matrix()
ORACLE = sd40.build_oracle(DE)
Y0 = e10_table().rows[0]  # a nonzero codeword of E10, for the other argument

# name -> (word length, the call with the word in the slot under test)
WORD_FUNCTIONS = {
    "binmap": (10, sd40.binmap),
    "classify_case": (40, sd40.classify_case),
    "classify_type": (10, sd40.classify_type),
    "format_symbols": (10, lambda w: sd40.format_symbols(w, 10)),
    "has_projection_e": (40, sd40.has_projection_e),
    "has_projection_o": (40, sd40.has_projection_o),
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
    "DecodeOutcome": "a class, built by the decoders",
    "InternalInvariantError": "an exception",
    "OracleTable": "a class; its rows are checked by its constructor",
    "OrbitType": "a class, the paper's eight types",
    "QuaternaryGeneratorMatrix": "a class; its rows are checked by its constructor",
    "build_oracle": "a binary generator matrix",
    "certify": "a binary generator matrix",
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


# Each class whose rows NO_WORD says its constructor checks: a row's length
# and a valid tuple of rows.  A class listed so without an entry here fails.
ROW_CLASSES = {
    "BinaryGeneratorMatrix": (40, DE.rows),
    "OracleTable": (40, ORACLE.rows),
    "QuaternaryGeneratorMatrix": (10, e10_table().linear_rows),
}


@pytest.mark.parametrize("name", [name for name, takes in NO_WORD.items()
                                  if takes.endswith("its rows are checked by its constructor")])
def test_each_matrix_class_refuses_a_row_that_is_no_word(name):
    n, rows = ROW_CLASSES[name]
    cls = getattr(sd40, name)
    cls("control", rows)
    for bad in _bad_words(n)[1]:
        with pytest.raises(ValueError, match="40-bit" if n == 40 else "symbol") as refused:
            cls("bad row", rows[:-1] + (bad,))
        assert str(bad) in str(refused.value), (bad, refused.value)
    if n == 40:
        for count in (19, 21):
            with pytest.raises(ValueError, match=f"expected 20 rows, got {count}"):
                cls("bad count", (rows * 2)[:count])


def test_shared_records_are_frozen():
    # e10_table() is one cached object that every layer reads, and the
    # others are handed to every caller: none may change in place.
    records = [e10_table(), ORBIT_TYPES[0], DE, ORACLE, sd40.classify_case(0),
               sd40.represent_decode(0), cli.decode_transcript(0, "repr", "DE"),
               sd40.CertificationReport("C", True, 8, {0: 1, 8: 1}, "doubly-even")]
    for record in records:
        for name in (f.name for f in dataclasses.fields(record)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, getattr(record, name))
