import json
import re
from pathlib import Path

import pytest

from sd40 import decoders as dc
from sd40 import oracle, quaternary
from sd40.constructions import printed_de_matrix
from sd40.oracle import build_oracle
from sd40.quaternary import b10_table, e10_table, orbit, orbit_census, orbit_lookup

README = Path(__file__).resolve().parents[1] / "README.md"


def _erasure_sets():
    return {case.erasure_columns for case in filter(None, dc._CASES)}


def _budgets():
    """The erasure sets the case table gives and the error words of their budgets."""
    sets = _erasure_sets()
    return [len(sets), sum(len(dc._budget_patterns(*erasures)) for erasures in sets)]


def _probes_per_case():
    """The representation search's probes per call, case by case; a case
    whose erasure sets disagree gives more than one number."""
    counts = {}
    for case in filter(None, dc._CASES):
        counts.setdefault(case.case_id, set()).add(len(dc._probes(*case.erasure_columns)[2]))
    return [n for case_id in ("I", "II", "III", "IV") for n in sorted(counts[case_id])]


def _coset_leaders():
    return [len(build_oracle(printed_de_matrix()).leader_index)]


def _near_codewords():
    return [len(build_oracle(printed_de_matrix())._near_codewords)]


def _shared_failures():
    """The decoders that share their declared failures, and the cases, None
    included, that each shares one for."""
    algorithms = {decode(0).algorithm for decode in (dc.represent_decode, dc.syndrome_decode)}
    return [len(algorithms), len(set(dc._CASES))]


# A pattern that finds a count in README.md, each number a group, and the
# code that owns it.  The pattern must match somewhere, and every match
# must read the owner's numbers.
COUNTS = {
    r"\(([\d,]+) sets, ([\d,]+) words\)": _budgets,
    r"all ([\d,]+) error patterns of weight <= 3": _coset_leaders,
    r"the ([\d,]+)-entry\s+coset-leader index": _coset_leaders,
    r"one of the ([\d,]+) XORs of at most\s+three reduced rows": _near_codewords,
    r"(\d+), (\d+), (\d+) and (\d+) in cases I-IV": _probes_per_case,
    r"one of (\d+) indexes of E10": lambda: [len({dc._probes(*e)[0] for e in _erasure_sets()})],
    r"each index's ([\d,]+) keys": lambda: sorted({len(dc._probes(*e)[1]) for e in _erasure_sets()}),
    r"tile the ([\d,]+) nonzero E10 codewords": lambda: [len(orbit_lookup())],
    r"cover the ([\d,]+) words, each once": lambda: [len(orbit_lookup())],
    r"(\d+), (\d+), (\d+), (\d+), (\d+), (\d+), (\d+) and (\d+) words in types 1-8":
        lambda: [orbit_census()[t] for t in range(1, 9)],
    # 11W1Ww101w has no nontrivial stabiliser, so its orbit is the group.
    r"an orbit of ([\d,]+) words under the\s+four generators": lambda: [len(orbit(0x91B75))],
}

# The same for the sd40.decoders docstring.
DECODERS_DOC_COUNTS = {
    r"Each of the ([\d,]+) erasure\s+sets": lambda: _budgets()[:1],
    r"inside\s+its\s+budget\s+\(([\d,]+) in all\)": lambda: _budgets()[1:],
    r"\((\d+), (\d+), (\d+), (\d+) in\s+cases I-IV\)": _probes_per_case,
    r"\(algorithm,\s+case\),\s+(\d+) x (\d+)": _shared_failures,
}


def _nonzero_e10_words():
    return [len(orbit_lookup())]


# The same for the other docstrings that state a count: the docstring and
# its counts.
DOC_COUNTS = {
    "sd40.oracle": (oracle.__doc__, {
        r"the ([\d,]+) coset leaders of weight at most 3": _coset_leaders,
        r"one of the ([\d,]+) XORs of at most\s+three reduced rows": _near_codewords,
    }),
    "sd40.quaternary": (quaternary.__doc__, {
        r"([\d,]+)-codeword tables": lambda: sorted(
            {len(e10_table().word_set), len(b10_table().word_set)}),
        r"first code's\s+([\d,]+) nonzero codewords": _nonzero_e10_words,
    }),
    "orbit_lookup": (orbit_lookup.__doc__, {
        r"tile the ([\d,]+) nonzero E10 codewords": _nonzero_e10_words,
        r"sum of the counts other than ([\d,]+)": _nonzero_e10_words,
    }),
}


def _count_mismatches(text, counts):
    """Patterns of counts that text lacks, or that it states with numbers
    other than the owner's."""
    found = []
    for pattern, owner in counts.items():
        stated = [[int(g.replace(",", "")) for g in m.groups()] for m in re.finditer(pattern, text)]
        want = owner()
        if not stated or any(numbers != want for numbers in stated):
            found.append(f"{pattern}: text {stated or 'has no match'}, code {want}")
    return found


def test_readme_counts_match_the_code():
    found = _count_mismatches(README.read_text(), COUNTS)
    assert not found, found


def test_decoders_docstring_counts_match_the_code():
    found = _count_mismatches(dc.__doc__, DECODERS_DOC_COUNTS)
    assert not found, found


@pytest.mark.parametrize("name", DOC_COUNTS)
def test_docstring_counts_match_the_code(name):
    doc, counts = DOC_COUNTS[name]
    found = _count_mismatches(doc, counts)
    assert not found, found


def test_readme_count_check_sees_an_edited_number():
    text = README.read_text()
    assert "10,701-entry" in text and "(176 sets" in text
    edited = text.replace("10,701-entry", "10,702-entry").replace("(176 sets", "(175 sets")
    found = _count_mismatches(edited, COUNTS)
    assert [entry.split(":")[0] for entry in found] == [
        r"\(([\d,]+) sets, ([\d,]+) words\)", r"the ([\d,]+)-entry\s+coset-leader index"]
    assert _count_mismatches(text.replace("all 10,701 error", "all error"), COUNTS) == [
        r"all ([\d,]+) error patterns of weight <= 3: text has no match, code [10701]"]
    assert "2 x 353" in dc.__doc__
    assert _count_mismatches(dc.__doc__.replace("2 x 353", "2 x 352"), DECODERS_DOC_COUNTS) == [
        r"\(algorithm,\s+case\),\s+(\d+) x (\d+): text [[2, 352]], code [2, 353]"]
    doc, counts = DOC_COUNTS["orbit_lookup"]
    assert "other than 1023" in doc
    assert _count_mismatches(doc.replace("other than 1023", "other than 1024"), counts) == [
        r"sum of the counts other than ([\d,]+): text [[1024]], code [1023]"]


# The decoders in the README's rate table and the metric each row states.
RATE_METRICS = {
    "syndrome_decode": "synd_words_per_s",
    "represent_decode": "repr_words_per_s",
    "indexed_decode": "indexed_words_per_s",
}


def _within_rounding(stated, value):
    """Whether a figure such as 196k or 1.02M rounds value to its last digit."""
    m = re.fullmatch(r"(\d+(?:\.(\d+))?)([kM])", stated)
    if m is None:
        return False
    scale = {"k": 1e3, "M": 1e6}[m[3]]
    return abs(value - float(m[1]) * scale) <= 0.5 * scale / 10 ** len(m[2] or "")


def _rate_mismatches(text):
    """Rates in text's table that the change medians of the BENCH record it
    names do not round to, or rows the table lacks."""
    record = re.search(r"the change medians of\s+`(BENCH_\d+\.json)`", text)[1]
    summary = json.loads((README.parent / record).read_text())["summary"]
    workloads = re.findall(r"`(\w+)`", re.search(r"^\| decoder \|(.*)\|$", text, re.M)[1])
    found = []
    for name, metric in RATE_METRICS.items():
        row = re.search(rf"^\| `{name}`[^|]*\|(.*)\|$", text, re.M)
        cells = [] if row is None else [cell.strip() for cell in row[1].split("|")]
        if len(cells) != len(workloads):
            found.append(f"{name}: no row of {len(workloads)} rates")
        for workload, stated in zip(workloads, cells):
            median = summary[workload][metric]["change_median"]
            if not _within_rounding(stated, median):
                found.append(f"{name} on {workload}: text {stated}, {record} {median:.0f}")
    return found


def test_readme_rates_match_the_named_record():
    found = _rate_mismatches(README.read_text())
    assert not found, found


def test_readme_rate_check_sees_an_edited_rate():
    text = README.read_text()
    row = re.search(r"^\| `represent_decode`[^|]*\| (\S+) \|", text, re.M)
    stated = row[1]
    number = re.fullmatch(r"(\d+)k", stated)[1]
    edited = text.replace(row[0], row[0].replace(stated, f"{int(number) + 1}k"))
    found = _rate_mismatches(edited)
    assert len(found) == 1 and found[0].startswith("represent_decode on noisy: text"), found
    assert _within_rounding("1.02M", 1_024_999) and not _within_rounding("1.02M", 1_025_001)
    assert _within_rounding("196k", 195_500) and not _within_rounding("196k", 196_501)
