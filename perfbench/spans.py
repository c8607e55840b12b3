"""Spans around the calls into sd40.decoders, recorded from outside.

`_decode` looks up classify_case, proj_bits, find_closest_in_e10,
syndrome, solve_syndrome and lift in the module's namespace at call time,
and classify_case looks up parity_profile the same way, so replacing those
names in `sd40.decoders` puts a span around every call without touching
the program.  The two public decoders are wrapped too and become the
parent span of each word.
"""

from __future__ import annotations

import csv
from collections import Counter, defaultdict
from time import perf_counter_ns

ROOTS = ("represent_decode", "syndrome_decode")
CHILDREN = (
    "classify_case",
    "parity_profile",
    "proj_bits",
    "find_closest_in_e10",
    "syndrome",
    "solve_syndrome",
    "lift",
)
CASES = ("I", "II", "III", "IV", "none")
STAGES = ("parity", "projection", "lift")


def _tag(name: str, result) -> str:
    if name == "classify_case":
        return "none" if result is None else result.case_id
    if name in ROOTS:
        return "ok" if result.ok else "fail"
    return "none" if result is None else "ok"


class Tracer:
    """Keeps spans in memory as parallel lists: name, start and end (ns),
    parent span index (-1 for none), word id and a result tag ("raised"
    when the call raised)."""

    def __init__(self, module) -> None:
        self.module = module
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.words: list[int] = []
        self.tags: list[str] = []
        self.word = -1
        self._stack: list[int] = []
        self._saved: dict[str, object] = {}

    def __enter__(self) -> "Tracer":
        for name in ROOTS + CHILDREN:
            fn = getattr(self.module, name)
            self._saved[name] = fn
            setattr(self.module, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(self.module, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.words.append(self.word)
            self.tags.append("")
            self.ends.append(0)
            self._stack.append(i)
            self.starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.ends[i] = perf_counter_ns()
                self.tags[i] = "raised"
                raise
            else:
                self.ends[i] = perf_counter_ns()
                self.tags[i] = _tag(name, result)
                return result
            finally:
                self._stack.pop()

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start_ns", "end_ns", "parent", "word", "tag"))
            out.writerows(zip(range(len(self.names)), self.names, self.starts,
                              self.ends, self.parents, self.words, self.tags))

    def summary(self) -> dict:
        """Per name: calls, total and self time (ns) and result tags; per
        word of the representation pass: the parity case and, for declared
        failures, the stage where decoding stopped.

        Self time is a span's duration minus the time its children cover.
        Calls are single-threaded and nested, so children never overlap and
        the time they cover is the sum of their durations."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_ns = [0] * n
        children = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_ns[p] += dur[i]
                children[p].append(i)
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        tags: Counter = Counter()
        cases: Counter = Counter({c: 0 for c in CASES})
        stages: Counter = Counter({s: 0 for s in STAGES})
        for i, name in enumerate(self.names):
            calls[name] += 1
            total_ns[name] += dur[i]
            self_ns[name] += dur[i] - child_ns[i]
            tags[name, self.tags[i]] += 1
            if name != "represent_decode":
                continue
            kids = {self.names[k]: self.tags[k] for k in children[i]}
            cases[kids["classify_case"]] += 1
            if self.tags[i] == "fail":
                if kids["classify_case"] == "none":
                    stages["parity"] += 1
                elif kids.get("lift") == "raised":
                    stages["lift"] += 1
                else:
                    stages["projection"] += 1
        return {"calls": calls, "total_ns": total_ns, "self_ns": self_ns,
                "tags": tags, "cases": cases, "stages": stages}
