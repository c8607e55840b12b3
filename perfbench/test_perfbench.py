"""Tests of the benchmark's own parts: the input generators, the output
check, the traced counts and the refusal to run without the program.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import CASES, STAGES  # noqa: E402
from workloads import Checker, check_range  # noqa: E402

DEFAULT_SEED = 1

# Counts of the traced run at the default seed.  They depend on the inputs
# alone, so a change to any decoder layer that alters its behaviour shows
# here as a count difference.
# Uniform words: 64.9% stop at the parity stage, 33.5% in the projection
# search and 0.8% in the lift; 69 (0.84%) are corrected, close to the
# 10,701 / 2^20 = 1.02% of words within distance 3 of a codeword.
PINNED = {
    "uniform": {
        "decoders.case.I": 16, "decoders.case.II": 145, "decoders.case.III": 705,
        "decoders.case.IV": 2013, "decoders.case.none": 5313,
        "decoders.find_closest_in_e10.calls": 2879, "decoders.find_closest_in_e10.found": 133,
        "decoders.solve_syndrome.calls": 2879, "decoders.solve_syndrome.found": 133,
        "decoders.stage.parity": 5313, "decoders.stage.projection": 2746,
        "decoders.stage.lift": 64,
        "projection.lift.calls": 266, "projection.lift.rejects": 128,
    },
    "noisy": {
        "decoders.case.I": 2183, "decoders.case.II": 2524, "decoders.case.III": 1954,
        "decoders.case.IV": 1531, "decoders.case.none": 0,
        "decoders.find_closest_in_e10.calls": 8192, "decoders.find_closest_in_e10.found": 8192,
        "decoders.solve_syndrome.calls": 8192, "decoders.solve_syndrome.found": 8192,
        "decoders.stage.parity": 0, "decoders.stage.projection": 0, "decoders.stage.lift": 0,
        "projection.lift.calls": 16384, "projection.lift.rejects": 0,
    },
    "cli": {
        "decoders.case.I": 1107, "decoders.case.II": 1267, "decoders.case.III": 963,
        "decoders.case.IV": 759, "decoders.case.none": 0,
        "decoders.find_closest_in_e10.calls": 4096, "decoders.find_closest_in_e10.found": 4096,
        "decoders.solve_syndrome.calls": 4096, "decoders.solve_syndrome.found": 4096,
        "decoders.stage.parity": 0, "decoders.stage.projection": 0, "decoders.stage.lift": 0,
        "projection.lift.calls": 8192, "projection.lift.rejects": 0,
    },
}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def traced_counts(program, name: str, seed: int) -> dict:
    words = run.make_words(name, seed, program)
    tables, _ = run.prepare(words, program, seed, Checker())
    tracer, _, _ = run.trace_words(program, words, tables)
    return run.layer_counts(tracer.summary())


def test_checker_counts_one_wrong_verdict():
    checker = Checker()
    checker.verdicts("repr", [5, None, 7], [5, None, 8])
    assert (checker.attempted, checker.failed, checker.correct) == (3, 1, False)
    assert checker.examples == ["repr: word 2: got 7, want 8"]


def test_checker_counts_an_exception_as_a_failure():
    checker = Checker()
    checker.verdicts("synd", [ValueError("boom")], [None])
    assert checker.failed == 1


@pytest.mark.parametrize("bad", [1 << 40, -1])
def test_range_check_rejects_words_outside_40_bits(bad):
    check_range([0, (1 << 40) - 1])
    with pytest.raises(ValueError):
        check_range([0, bad])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(program, name):
    a = run.make_words(name, DEFAULT_SEED, program)
    assert a == run.make_words(name, DEFAULT_SEED, program)
    assert a.values != run.make_words(name, DEFAULT_SEED + 1, program).values
    assert len(a.values) == run.WORKLOADS[name].n_words
    check_range(a.values)


def test_noisy_words_are_sent_codewords_with_at_most_three_flips(program):
    words = run.make_words("noisy", DEFAULT_SEED, program)
    assert words.codes[:2] == ("DE", "SE")
    assert words.codes.count("DE") == words.codes.count("SE")
    assert {(v ^ s).bit_count() for v, s in zip(words.values, words.sent)} == {0, 1, 2, 3}


def test_traced_counts_repeat_for_a_seed(program):
    assert (traced_counts(program, "uniform", DEFAULT_SEED)
            == traced_counts(program, "uniform", DEFAULT_SEED))


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_counts_are_pinned(program, name):
    counts = traced_counts(program, name, DEFAULT_SEED)
    assert counts == PINNED[name]
    n = run.WORKLOADS[name].n_words
    assert sum(counts[f"decoders.case.{c}"] for c in CASES) == n
    assert sum(counts[f"decoders.stage.{s}"] for s in STAGES) <= n


def test_wrong_verdict_trips_the_gate(program, monkeypatch, capsys):
    """One wrong codeword from represent_decode makes the run fail, with
    the failure counted in the result line."""
    real = program.decoders.represent_decode
    words = run.make_words("cli", DEFAULT_SEED, program)
    victim = words.values[3]

    def wrong(v, code="DE", members=None):
        out = real(v, code, members)
        if v == victim and out.ok:
            out = dataclasses.replace(out, codeword=out.codeword ^ 1)
        return out

    monkeypatch.setattr(program.decoders, "represent_decode", wrong)
    rc = run.main(["--workload", "cli", "--seed", str(DEFAULT_SEED), "--seconds", "0.5",
                   "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]


def test_memory_probe_reports_its_own_peak_not_the_callers(program):
    """The probe's peak excludes the calling process, even one far larger:
    a vfork child takes its parent's peak into ru_maxrss."""
    run.OUT.mkdir(exist_ok=True)
    ballast = b"\x01" * (96 << 20)
    checker = Checker()
    words = run.make_words("uniform", DEFAULT_SEED, program)
    peak = run.memory_probe(run.Words(words.values[:64], words.codes[:64], None), checker)
    assert checker.correct
    assert 20 < peak < len(ballast) >> 20


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
