"""Fixed reference work, timed next to every measured step so that times
can be stated at one nominal machine speed.

The benchmark's machine is shared with other load that comes and goes over
seconds to minutes and slows every process on it by up to a half.  Raw
times of the same code taken a minute apart then disagree by far more than
a change to the program moves them.  Fixed reference work timed next to the
program's slows down with it, so each time figure is reported as

    measured time * NOMINAL / time of the reference measured next to it,

the time the step would take on a machine where the reference takes
NOMINAL.  There are two references, each built like the work it stands
next to:

* the unit, in process: it churns dicts, tuples and strings, the same
  kind of work as the decoders' own.  Interleaved with decode passes,
  their ratio stayed within a few per cent while raw times swung by 40%;
* the reference process (this file run as a script): a fresh interpreter
  that imports numpy and then runs the unit, as every sd40 process starts
  an interpreter, imports numpy and then computes.  Interleaved with sd40
  decode, certify and fuzz processes, medians of six ratios stayed within
  2-6% of each other while medians of six raw times spread by 15-29%.

Neither reference touches the program, so a change to the program moves
the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

NOMINAL_UNIT_S = 0.0006     # about the unit on a quiet 2-core x86-64 host, Python 3.11
NOMINAL_PROCESS_S = 0.35    # the reference process on the same host
_SIZE = 3000
_PROCESS_UNITS = 200


def _unit() -> int:
    d = {}
    for i in range(_SIZE):
        d[i] = (i, str(i))
    return len(d)


def unit_seconds() -> float:
    """Median of three timings of the unit."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _unit()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def unit_scale(unit_s: float) -> float:
    """Factor to the nominal machine for a time taken next to a unit of
    unit_s seconds."""
    return NOMINAL_UNIT_S / unit_s


def process_seconds(env: dict) -> float:
    """Wall time of one reference process."""
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], env=env, check=True, timeout=60)
    return perf_counter() - t0


def process_scale(process_s: float) -> float:
    """Factor to the nominal machine for a process time taken next to a
    reference process of process_s seconds."""
    return NOMINAL_PROCESS_S / process_s


if __name__ == "__main__":
    import numpy  # noqa: F401

    for _ in range(_PROCESS_UNITS):
        _unit()
