"""Acceptance suite.

Each test pins one acceptance criterion at its exact tolerance and prints
a single PASS line (visible with `pytest -s` or in the failure report).
Criterion 6 runs at the CI sample size of 100 codewords; the pass
requirement stays exact (zero misses over all ~1.07M trials).
"""

import itertools
import random
import time
from pathlib import Path

import pytest

from sd40 import cli
from sd40 import decoders as dc
from sd40.constructions import certify, parse_matrix_text, printed_de_matrix, rho_b
from sd40.gf4 import xor_span
from sd40.oracle import indexed_decode
from sd40.projection import has_projection_e, has_projection_o, parse_array_text, proj_bits
from sd40.quaternary import b10_table, e10_table, orbit_census

FIXTURES = Path(__file__).parent / "fixtures"

W10 = {0: 1, 4: 30, 6: 300, 8: 585, 10: 108}
TYPE_COUNTS = {1: 30, 2: 240, 3: 60, 4: 15, 5: 90, 6: 480, 7: 48, 8: 60}
DE_DISTRIBUTION = {
    0: 1, 8: 285, 12: 21280, 16: 239970, 20: 525504,
    24: 239970, 28: 21280, 32: 285, 40: 1,
}


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_weight_enumerators():
    t0 = time.perf_counter()
    assert e10_table().weight_distribution == W10
    assert b10_table().weight_distribution == W10
    report(1, f"E10/B10 weight enumerator 1+30y^4+300y^6+585y^8+108y^10 "
              f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_2_type_census():
    t0 = time.perf_counter()
    census = orbit_census()
    assert census == TYPE_COUNTS
    assert sum(census.values()) == 1023
    report(2, f"orbit census (30,240,60,15,90,480,48,60) over 1023 words "
              f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_3_binary_certification(de_matrix, se_matrix):
    t0 = time.perf_counter()
    de = certify(de_matrix)
    assert de.self_dual and de.parity_type == "doubly-even"
    assert de.minimum_distance == 8
    assert de.weight_distribution == DE_DISTRIBUTION
    se = certify(se_matrix)
    assert se.self_dual and se.parity_type == "singly-even"
    assert se.minimum_distance == 8
    assert se.weight_distribution[8] == 285
    assert se.weight_distribution[10] == 1024
    report(3, f"DE doubly-even d=8 A8=285 A12=21280 A16=239970 A20=525504; "
              f"SE singly-even d=8 A10=1024 ({time.perf_counter() - t0:.2f}s)")


def test_criterion_4_span_equality():
    # The printed matrix is the lift itself, so its rows must be the
    # paper's text row for row, which implies that they span its code.
    t0 = time.perf_counter()
    printed = parse_matrix_text((FIXTURES / "g40_de.txt").read_text())
    assert printed_de_matrix().rows == printed
    assert rho_b(e10_table()).rows == printed
    report(4, f"rho_B(E10) is the printed generator matrix, row for row "
              f"({time.perf_counter() - t0:.2f}s)")


def test_criterion_5_golden_examples(capsys):
    expected_projections = {
        1: "10101001Ww", 2: "10WwWw10wW", 3: "wwWW001100", 4: "WwWwwWwWwW",
    }
    for k in (1, 2, 3, 4):
        received = parse_array_text((FIXTURES / f"example{k}_received.txt").read_text())
        for algo in ("repr", "synd"):
            code = cli.main([
                "decode", format(received, "040b"), "--algorithm", algo, "--verbose",
            ])
            out = capsys.readouterr().out
            assert code == 0
            golden = (FIXTURES / f"example{k}_{algo}.txt").read_text()
            assert out == golden, f"example {k} {algo} transcript drifted"
            assert f"corrected projection y': {expected_projections[k]}" in out
    with capsys.disabled():
        report(5, "four worked examples, both algorithms, byte-identical transcripts")


@pytest.mark.sweep
def test_criterion_6_bounded_distance_completeness():
    t0 = time.perf_counter()
    patterns = [0]
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(40), r):
            e = 0
            for i in combo:
                e |= 1 << i
            patterns.append(e)
    assert len(patterns) == 10_701
    rng = random.Random(20260810)
    matrix = printed_de_matrix()
    trials = 0
    for _ in range(100):
        cw = matrix.encode(rng.getrandbits(20))
        for e in patterns:
            v = cw ^ e
            r = dc.represent_decode(v)
            s = dc.syndrome_decode(v)
            assert r.ok and r.codeword == cw
            assert s.ok and s.codeword == cw
            trials += 1
    report(6, f"{trials} corruptions of 100 codewords recovered by both "
              f"decoders ({time.perf_counter() - t0:.0f}s)")


@pytest.mark.sweep
def test_criterion_7_oracle_agreement(de_oracle):
    t0 = time.perf_counter()
    rng = random.Random(427)
    for _ in range(1_000_000):
        v = rng.getrandbits(40)
        r = dc.represent_decode(v)
        s = dc.syndrome_decode(v)
        o = indexed_decode(v, de_oracle)
        rc = r.codeword if r.ok else None
        sc = s.codeword if s.ok else None
        assert rc == sc == o
    report(7, f"representation, syndrome and oracle verdicts identical on "
              f"10^6 random words ({time.perf_counter() - t0:.0f}s)")


def test_criterion_8_syndrome_characterization(e10):
    t0 = time.perf_counter()
    # The syndrome is GF(2)-linear in the 20 bits of a packed word, so
    # syn[y], the XOR of the unit syndromes at the set bits of y, is the
    # syndrome of every one of the 4^10 words.
    syn = xor_span([dc.syndrome(1 << bit) for bit in range(20)])
    zero = [y for y, s in enumerate(syn) if s == 0]
    assert len(zero) == 1024
    assert frozenset(zero) == e10.word_set
    # Spot-check the linear sweep against the scalar syndrome.
    rng = random.Random(8)
    for _ in range(1000):
        y = rng.getrandbits(20)
        assert dc.syndrome(y) == syn[y]
    report(8, f"syndrome vanishes exactly on the 1024 codewords across all "
              f"4^10 words ({time.perf_counter() - t0:.1f}s)")


def test_criterion_9_proj_linearity_and_membership(e10, de_matrix, se_matrix, de_oracle,
                                                   span_entry):
    t0 = time.perf_counter()
    rng = random.Random(9)
    for _ in range(10_000):
        u = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        v = span_entry(de_oracle.rows, rng.randrange(1 << 20))
        assert proj_bits(u ^ v) == proj_bits(u) ^ proj_bits(v)
        assert proj_bits(u) in e10.word_set
    for row in de_matrix.rows:
        assert has_projection_o(row)
    for row in se_matrix.rows:
        assert has_projection_e(row)
    report(9, f"projection additivity on 10^4 codeword pairs; projection-O/E "
              f"membership of all generator rows ({time.perf_counter() - t0:.1f}s)")
