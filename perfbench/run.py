#!/usr/bin/env python3
"""The sd40 benchmark: decode throughput and latency, CLI start-up and
per-module spans.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload uniform|noisy|cli --seed N \\
        --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics from a separate traced run, which does a
fixed amount of work so that its counts repeat and ignores --seconds.  It prints one
line per metric, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  It exits 1 when any output of the
program was wrong, and 2 without a result when ./src holds no sd40.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

import reference
from spans import CASES, STAGES, Tracer
from workloads import Checker, Words, cli_mix, noisy_words, uniform_words

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FAILURE_TEXT = "more than three errors occurred"

SETUP_REPS = 5        # fresh interpreters per start-up figure, median reported
SEGMENTS = 4          # segments of the CLI phase, one set-up probe in each
MIN_ROUNDS = 3        # library rounds, even when --seconds is short
CHUNK = 256           # words per timed slice of a library round
FUZZ_TRIALS = 1000
ORACLE_SAMPLE = 64    # uniform words checked against the linear scan
BUILD_REPS = 3        # cold table builds per per-layer build figure
OVERHEAD_ROUNDS = 3   # untraced and traced pass pairs for trace.overhead_ratio
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    n_words: int
    noisy: bool
    cli_share: float  # share of --seconds given to CLI processes
    setup: str        # "lib": build the decoders' tables; "cli": import the CLI


# Every workload reports every metric; the workload fixes the words and how
# the run's time is split between in-process decoding and CLI processes.
WORKLOADS = {
    # The parity stage rejects most words and the projection search runs
    # mainly down its failing, exhaustive path.
    "uniform": Workload(8192, noisy=False, cli_share=0.0, setup="lib"),
    # Every word takes the succeeding search path and the lift.
    "noisy": Workload(8192, noisy=True, cli_share=0.0, setup="lib"),
    # Interpreter start, the numpy import and table builds dominate.
    "cli": Workload(4096, noisy=True, cli_share=0.6, setup="cli"),
}


# ---------------------------------------------------------------------------
# The program under test
# ---------------------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Keep this process and every child on the highest-numbered CPU it may
    use.  Both are single-threaded, one at a time.  On a 2-CPU host each
    process otherwise lands on either CPU, whose speeds differed by up to a
    third under other load, and numpy starts an OpenBLAS thread per CPU;
    a reference process then need not share the state of the process it
    scales."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_program() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import sd40
    import sd40.cli

    if Path(sd40.__file__).resolve().parent != SRC / "sd40":
        raise RuntimeError(f"sd40 imported from {sd40.__file__}, not from {SRC}")
    return SimpleNamespace(
        cli=sd40.cli,
        decoders=sd40.decoders,
        oracle=sd40.oracle,
        constructions=sd40.constructions,
        quaternary=sd40.quaternary,
        matrices={"DE": sd40.printed_de_matrix(), "SE": sd40.printed_se_matrix()},
    )


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_child(args: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
    """Wall time of one child process and its result (None on timeout)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    return perf_counter() - t0, proc


def run_cli(args: list[str]):
    return run_child(["-m", "sd40.cli", *args])


class ProcessClock:
    """Scales the wall times of child processes run in segments: a reference
    process runs before the first segment and after each one, and a
    segment's times are scaled by the mean of the two around it (see
    reference.py)."""

    def __init__(self) -> None:
        self.env = child_env()
        self.last = reference.process_seconds(self.env)
        self.factors: list[float] = []

    def close_segment(self, raw: dict) -> dict:
        """raw: kind -> wall times of the segment; returns them scaled."""
        ref = reference.process_seconds(self.env)
        f = reference.process_scale((self.last + ref) / 2)
        self.last = ref
        self.factors.append(f)
        return {kind: [t * f for t in ts] for kind, ts in raw.items()}


def scaled(step):
    """Run step() between two timings of the reference unit; return its
    result and the factor to the nominal machine (see reference.py)."""
    before = reference.unit_seconds()
    result = step()
    return result, reference.unit_scale((before + reference.unit_seconds()) / 2)


def make_words(name: str, seed: int, program) -> Words:
    wl = WORKLOADS[name]
    if wl.noisy:
        return noisy_words(seed, wl.n_words, program.matrices)
    return uniform_words(seed, wl.n_words)


def prepare(words, program, seed: int, checker: Checker):
    """Oracle tables for the codes in use, and the expected verdict per
    word: the sent codeword, or for uniform words the oracle's verdict,
    itself checked against the linear scan on a seeded sample."""
    oc = program.oracle
    tables = {}
    for code in sorted(set(words.codes)):
        tables[code] = oc.build_oracle(program.matrices[code])
        tables[code].leader_index
    if words.sent is not None:
        return tables, list(words.sent)
    ref = [oc.indexed_decode(v, tables[c]) for v, c in zip(words.values, words.codes)]
    rng = random.Random(f"oracle-sample:{seed}")
    sample = rng.sample(range(len(ref)), ORACLE_SAMPLE)
    sample += [i for i, r in enumerate(ref) if r is not None][:ORACLE_SAMPLE // 4]
    for i in sample:
        want = oc.oracle_decode(words.values[i], tables[words.codes[i]])
        checker.record("indexed_decode vs oracle_decode", ref[i] == want,
                       f"word {i}: {ref[i]!r} vs {want!r}")
    return tables, ref


def outcome_verdict(o):
    """Codeword, None for a declared failure, or the exception raised."""
    return o if isinstance(o, BaseException) else (o.codeword if o.ok else None)


def decoder_calls(program, words, tables) -> dict:
    """name -> (function, second argument per word, verdict of a result).
    Functions are looked up now, so a tracer installed before takes effect."""
    dc, oc = program.decoders, program.oracle
    same = lambda r: r  # noqa: E731
    return {
        "repr": (dc.represent_decode, words.codes, outcome_verdict),
        "synd": (dc.syndrome_decode, words.codes, outcome_verdict),
        "indexed": (oc.indexed_decode, [tables[c] for c in words.codes], same),
    }


def timed_pass(fn, values, args, marker=None) -> tuple[float, list]:
    """One closed-loop pass: each call starts when the previous returns."""
    out = []
    append = out.append
    t0 = perf_counter()
    for i, (v, a) in enumerate(zip(values, args)):
        if marker is not None:
            marker.word = i
        try:
            append(fn(v, a))
        except Exception as exc:  # counted as a failure by the check
            append(exc)
    return perf_counter() - t0, out


def latency_pass(fn, values, args) -> tuple[list, list[int]]:
    """Like timed_pass, but times each call on its own (ns)."""
    out, times = [], []
    for v, a in zip(values, args):
        t0 = perf_counter_ns()
        try:
            r = fn(v, a)
        except Exception as exc:
            r = exc
        times.append(perf_counter_ns() - t0)
        out.append(r)
    return out, times


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------


def setup_probe(wl: Workload, words) -> float:
    """Wall time of one set-up probe in a fresh interpreter (see
    setup_child.py)."""
    if wl.setup == "cli":
        args = ["cli"]
    else:
        args = [str(words.values[0]), *sorted(set(words.codes))]
    dt, proc = run_child([str(ROOT / "perfbench" / "setup_child.py"), *args])
    if proc is None or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc and proc.stderr}")
    return dt


def memory_probe(words, checker: Checker) -> float:
    """Peak RSS (MiB) of a fresh interpreter that sets up and decodes every
    word once with each decoder (see setup_child.py).  The benchmark's own
    process is not measured: it also holds its timing samples, whose number
    grows with the rounds a run fits in."""
    words_file = OUT / "words.txt"
    words_file.write_text("".join(f"{v} {c}\n" for v, c in zip(words.values, words.codes)))
    _, proc = run_child([str(ROOT / "perfbench" / "setup_child.py"), "--decode-all",
                         str(words_file)])
    last = proc.stdout.split() if proc is not None and proc.returncode == 0 else []
    ok = last[-2:-1] == ["peak_rss_kib"]
    checker.record("memory probe", ok, proc and proc.stderr)
    return int(last[-1]) / 1024 if ok else 0.0


def library_phase(program, words, tables, ref, budget: float, checker: Checker):
    """Rounds over the word list until the budget is spent.  Each round
    walks the list in chunks and, per chunk, times a closed-loop pass of
    each decoder and then a per-call pass of repr and synd.

    Each chunk's times are scaled to the nominal machine by the reference
    unit timed on either side of it.  Load that comes in bursts of seconds
    still hits some rounds harder than others, so each chunk keeps its
    median pass time and each word its median call time: throughput is the
    word count over the sum of chunk medians, and latency percentiles are
    taken over the word medians.  The percentiles over every call are
    returned too, for the printed diagnostics."""
    calls = decoder_calls(program, words, tables)
    n = len(words.values)
    bounds = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    chunk_s = {name: [[] for _ in bounds] for name in calls}
    word_ns = {"repr": [[] for _ in range(n)], "synd": [[] for _ in range(n)]}
    for fn, args, _ in calls.values():  # warm-up, untimed
        timed_pass(fn, words.values[:64], args[:64])
    deadline = perf_counter() + budget
    rounds = 0
    factors = []
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for c, (lo, hi) in enumerate(bounds):
            values, want = words.values[lo:hi], ref[lo:hi]
            (passes, per_call), f = scaled(lambda: chunk_passes(calls, values, lo, hi))
            factors.append(f)
            for name, (elapsed, out) in passes.items():
                chunk_s[name][c].append(elapsed * f)
                checker.verdicts(name, [calls[name][2](r) for r in out], want)
            for name, (out, times) in per_call.items():
                for samples, t in zip(word_ns[name][lo:hi], times):
                    samples.append(t * f)
                checker.verdicts(f"{name} (timed per call)",
                                 [calls[name][2](r) for r in out], want)
        rounds += 1
    rates = {name: n / sum(statistics.median(ts) for ts in per_chunk)
             for name, per_chunk in chunk_s.items()}
    latency = {name: sorted(statistics.median(ts) for ts in per_word)
               for name, per_word in word_ns.items()}
    all_calls = {name: sorted(t for ts in per_word for t in ts)
                 for name, per_word in word_ns.items()}
    return rounds, rates, latency, all_calls, statistics.median(factors)


def chunk_passes(calls, values, lo: int, hi: int):
    """A closed-loop pass of every decoder over one chunk, then a per-call
    pass of repr and synd."""
    passes = {name: timed_pass(fn, values, args[lo:hi])
              for name, (fn, args, _) in calls.items()}
    per_call = {name: latency_pass(calls[name][0], values, calls[name][1][lo:hi])
                for name in ("repr", "synd")}
    return passes, per_call


def check_decode_cmd(checker, what, proc, want) -> None:
    if proc is None:
        checker.record(what, False, "timed out")
    elif want is None:
        checker.record(what, proc.returncode == 1 and proc.stdout.strip() == FAILURE_TEXT,
                       f"exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        lines = proc.stdout.splitlines()
        checker.record(what, proc.returncode == 0 and lines[:1] == [format(want, "040b")],
                       f"exit {proc.returncode}, stdout {proc.stdout!r}")


def cli_phase(wl: Workload, words, ref, seed: int, budget: float, checker: Checker):
    """Processes, one at a time, in SEGMENTS segments.  Each segment runs a
    set-up probe, one fuzz and one certify, and then decode processes from
    the seeded mix for an equal share of the budget, and until it has had
    at least one repr/synd and one oracle process.  Spreading each kind over
    the phase keeps a burst of other load from hitting all its samples at
    once."""
    _, proc = run_cli(["tables", "--which", "de"])
    checker.record("tables --which de", proc is not None and proc.returncode == 0,
                   proc and proc.stderr)
    matrix_file = OUT / "de_matrix.txt"
    matrix_file.write_text(proc.stdout if proc else "")
    times = {kind: [] for kind in ("setup", "decode", "oracle", "fuzz", "certify")}
    clock = ProcessClock()
    mix = cli_mix(seed)
    k = 0
    for _ in range(SEGMENTS):
        raw = {kind: [] for kind in times}
        raw["setup"].append(setup_probe(wl, words))
        dt, proc = run_cli(["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(seed)])
        raw["fuzz"].append(dt)
        checker.record("fuzz", proc is not None and proc.returncode == 0
                       and "mismatches: 0" in proc.stdout, proc and proc.stdout)
        dt, proc = run_cli(["certify", str(matrix_file.relative_to(ROOT))])
        raw["certify"].append(dt)
        out = proc.stdout if proc else ""
        checker.record("certify", proc is not None and proc.returncode == 0
                       and "minimum distance: 8\n" in out and "type: doubly-even\n" in out
                       and "self-dual (GG^T = 0): yes\n" in out, out)
        deadline = perf_counter() + budget / SEGMENTS
        while perf_counter() < deadline or not (raw["decode"] and raw["oracle"]):
            algorithm = next(mix)
            i = k % len(words.values)
            k += 1
            dt, proc = run_cli(["decode", format(words.values[i], "040b"),
                                "--algorithm", algorithm, "--code", words.codes[i]])
            raw["oracle" if algorithm == "oracle" else "decode"].append(dt)
            check_decode_cmd(checker, f"decode --algorithm {algorithm}", proc, ref[i])
        for kind, ts in clock.close_segment(raw).items():
            times[kind] += ts
    return times, statistics.median(clock.factors)


def end_to_end(name: str, seed: int, seconds: float, program, checker: Checker) -> dict:
    wl = WORKLOADS[name]
    words = make_words(name, seed, program)
    tables, ref = prepare(words, program, seed, checker)
    rounds, rates, latency, all_calls, factor = library_phase(
        program, words, tables, ref, seconds * (1 - wl.cli_share), checker)
    cmd, process_factor = cli_phase(wl, words, ref, seed, seconds * wl.cli_share, checker)
    rss_mib = memory_probe(words, checker)
    metrics = {
        "setup_s": statistics.median(cmd["setup"]),
        "peak_rss_mib": rss_mib,
        "repr_words_per_s": rates["repr"],
        "synd_words_per_s": rates["synd"],
        "indexed_words_per_s": rates["indexed"],
        "decode_cmd_p50_s": statistics.median(cmd["decode"]),
        "oracle_cmd_p50_s": statistics.median(cmd["oracle"]),
        "fuzz_s": statistics.median(cmd["fuzz"]),
        "certify_s": statistics.median(cmd["certify"]),
    }
    for dec, samples in latency.items():
        metrics[f"{dec}_p50_us"] = percentile(samples, 0.50) / 1000
        metrics[f"{dec}_p99_us"] = percentile(samples, 0.99) / 1000
    n = len(words.values)
    print(f"# {name}: {n} words, {rounds} library rounds; latency from {n} word medians "
          f"of {rounds} calls each ({n // 100} beyond p99); processes: "
          + ", ".join(f"{len(ts)} {kind}" for kind, ts in cmd.items()))
    for dec, samples in all_calls.items():
        print(f"# {dec} over all {len(samples)} calls, not word medians: "
              f"p50 {percentile(samples, 0.50) / 1000:.4g} us, "
              f"p99 {percentile(samples, 0.99) / 1000:.4g} us")
    print(f"# median factor to the nominal machine: {factor:.3f} in process, "
          f"{process_factor:.3f} for processes")
    return metrics


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced_passes(program, words, tables, marker=None) -> tuple[float, dict]:
    """repr then synd over every word; total seconds and results."""
    calls = decoder_calls(program, words, tables)
    total, outs = 0.0, {}
    for name in ("repr", "synd"):
        fn, args, _ = calls[name]
        elapsed, outs[name] = timed_pass(fn, words.values, args, marker)
        total += elapsed
    return total, outs


def trace_words(program, words, tables) -> tuple[Tracer, float, dict]:
    with Tracer(program.decoders) as tracer:
        elapsed, outs = traced_passes(program, words, tables, tracer)
    return tracer, elapsed, outs


def layer_counts(summary: dict) -> dict:
    """The per-layer counts; they depend on the inputs alone."""
    calls, tags = summary["calls"], summary["tags"]
    counts = {f"decoders.case.{c}": summary["cases"][c] for c in CASES}
    counts.update({f"decoders.stage.{s}": summary["stages"][s] for s in STAGES})
    for name in ("find_closest_in_e10", "solve_syndrome"):
        counts[f"decoders.{name}.calls"] = calls[name]
        counts[f"decoders.{name}.found"] = tags[name, "ok"]
    counts["projection.lift.calls"] = calls["lift"]
    counts["projection.lift.rejects"] = tags["lift", "raised"]
    return counts


def nominal_seconds(fn) -> float:
    """Seconds of one call of fn on the nominal machine (see reference.py)."""
    def timed():
        t0 = perf_counter()
        fn()
        return perf_counter() - t0

    dt, f = scaled(timed)
    return dt * f


def nominal_median(fn, reps: int) -> float:
    return statistics.median(nominal_seconds(fn) for _ in range(reps))


def uncached(fn):
    """The function behind a functools cache, so that a call builds anew."""
    return getattr(fn, "__wrapped__", fn)


def traced(name: str, seed: int, program, checker: Checker) -> dict:
    """The per-layer metrics.  Counts come from the spans of one traced
    pass; times are on the nominal machine, like the end-to-end ones."""
    words = make_words(name, seed, program)
    tables, ref = prepare(words, program, seed, checker)
    qt, cn, oc = program.quaternary, program.constructions, program.oracle
    de = program.matrices["DE"]
    n = len(words.values)
    metrics = {}

    # Decoders: untraced and traced passes over the same words, in turn.
    # Spans and counts come from the first traced pass.
    traced_passes(program, Words(words.values[:64], words.codes[:64], None), tables)
    # The overhead is a ratio of raw times: the passes alternate, so they
    # share the machine's state, and scaling each on its own would only add
    # the reference unit's noise.
    untraced_s, traced_s, runs = [], [], []
    for _ in range(OVERHEAD_ROUNDS):
        untraced_s.append(traced_passes(program, words, tables)[0])
        (tracer, elapsed, outs), f = scaled(lambda: trace_words(program, words, tables))
        traced_s.append(elapsed)
        runs.append((tracer, f))
        for dec, out in outs.items():
            checker.verdicts(f"{dec} (traced)", [outcome_verdict(r) for r in out], ref)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    tracer, span_f = runs[0]
    tracer.write_csv(OUT / f"spans-{name}-{seed}.csv")
    summary = tracer.summary()
    calls = summary["calls"]

    def mean_us(table, fn):
        return table[fn] * span_f / max(calls[fn], 1) / 1000

    for fn in ("parity_profile", "proj_bits", "lift"):
        metrics[f"projection.{fn}.us"] = mean_us(summary["total_ns"], fn)
    for fn in ("find_closest_in_e10", "syndrome", "solve_syndrome"):
        metrics[f"decoders.{fn}.us"] = mean_us(summary["total_ns"], fn)
    for fn in ("classify_case", "represent_decode", "syndrome_decode"):
        metrics[f"decoders.{fn}.self_us"] = mean_us(summary["self_ns"], fn)
    metrics.update(layer_counts(summary))

    # Oracle, quaternary and constructions: cold builds and per-call costs.
    fresh = []
    metrics["oracle.build_oracle.s"] = nominal_median(
        lambda: fresh.append(oc.build_oracle(de)), BUILD_REPS)
    metrics["oracle.leader_index.s"] = statistics.median(
        nominal_seconds(lambda: t.leader_index) for t in fresh)
    fn, args, _ = decoder_calls(program, words, tables)["indexed"]
    (elapsed, out), f = scaled(lambda: timed_pass(fn, words.values, args))
    checker.verdicts("indexed", out, ref)
    metrics["oracle.indexed_decode.us"] = elapsed * f / n * 1e6
    metrics["quaternary.e10_table.s"] = nominal_median(uncached(qt.e10_table), SETUP_REPS)
    metrics["constructions.printed_matrices.s"] = nominal_median(
        lambda: (uncached(cn.printed_de_matrix)(), uncached(cn.printed_se_matrix)()),
        SETUP_REPS)
    reports = []
    metrics["constructions.certify.s"] = nominal_median(
        lambda: reports.append(cn.certify(de)), BUILD_REPS)
    for report in reports:
        checker.record("certify", report.minimum_distance == 8
                       and report.parity_type == "doubly-even", repr(report))
    rng = random.Random(f"messages:{seed}")
    messages = [rng.getrandbits(20) for _ in range(n)]
    metrics["constructions.encode.us"] = nominal_seconds(
        lambda: [de.encode(m) for m in messages]) / n * 1e6

    metrics.update(cli_layer(program, words, ref, seed, checker))
    print(f"# {name}: {n} words traced through repr and synd, {len(tracer.names)} spans "
          f"written to {OUT.name}/spans-{name}-{seed}.csv")
    return metrics


def cli_layer(program, words, ref, seed: int, checker: Checker) -> dict:
    """The interpreter floor and the CLI import, in fresh processes scaled by
    the reference process; a decode transcript and a fuzz run in process."""
    clock = ProcessClock()
    raw = {"startup": [run_child(["-c", "pass"])[0] for _ in range(SETUP_REPS)],
           "import": [setup_probe(WORKLOADS["cli"], words) for _ in range(SETUP_REPS)]}
    nominal = clock.close_segment(raw)
    metrics = {"cli.python_startup.s": statistics.median(nominal["startup"]),
               "cli.import.s": statistics.median(nominal["import"])}

    cli = program.cli
    for code in sorted(set(words.codes)):  # builds the command's oracle table
        cli.decode_transcript(words.values[0], "oracle", code)
    mix = cli_mix(seed)
    n = min(512, len(words.values))
    transcripts = []
    metrics["cli.decode_transcript.us"] = nominal_seconds(lambda: transcripts.extend(
        cli.decode_transcript(words.values[i], next(mix), words.codes[i])
        for i in range(n))) / n * 1e6
    checker.verdicts("decode_transcript", [outcome_verdict(t.outcome) for t in transcripts],
                     ref[:n])
    out = io.StringIO()
    rc = []
    with contextlib.redirect_stdout(out):
        metrics["cli.cmd_fuzz_warm.s"] = nominal_seconds(lambda: rc.append(
            cli.main(["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(seed)])))
    checker.record("fuzz (in process)", rc == [0] and "mismatches: 0" in out.getvalue(),
                   out.getvalue())
    return metrics


# ---------------------------------------------------------------------------


def emit(kind: str, metrics: dict, checker: Checker) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for name, unit in units.items():
        print(f"{name:36} {metrics[name]:>14.6g} {unit}")
    print(f"{'failed_ratio':36} {checker.failed_ratio:>14.6g} fraction "
          f"({checker.failed} of {checker.attempted})")
    for line in checker.examples:
        print(f"# failed: {line}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "sd40" / "__init__.py").is_file():
        print(f"error: no sd40 package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    program = load_program()
    checker = Checker()
    if args.trace:
        emit("per_layer", traced(args.workload, args.seed, program, checker), checker)
    else:
        emit("end_to_end", end_to_end(args.workload, args.seed, args.seconds, program,
                                      checker), checker)
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
