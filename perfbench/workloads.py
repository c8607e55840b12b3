"""Seeded inputs for the sd40 benchmark and the check on the program's outputs.

Every input is made here, from the seed alone, before the program sees it:
the program receives only the generated 40-bit words.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORD_LIMIT = 1 << 40
CODES = ("DE", "SE")
MAX_FLIPS = 3


@dataclass(frozen=True)
class Words:
    """A word list: the received words, the code each is decoded with, and
    the codeword that was sent (None throughout for uniform words, whose
    expected verdicts come from the oracle)."""

    values: tuple[int, ...]
    codes: tuple[str, ...]
    sent: tuple[int, ...] | None


def check_range(values) -> None:
    """Refuse any word outside [0, 2^40).  The decoders accept such words
    without complaint, so a generator bug would otherwise go unnoticed."""
    for v in values:
        if not 0 <= v < WORD_LIMIT:
            raise ValueError(f"generated word {v} lies outside [0, 2^40)")


def uniform_words(seed: int, n: int) -> Words:
    """Uniform random 40-bit words, all decoded with code DE."""
    rng = random.Random(f"uniform:{seed}")
    values = tuple(rng.getrandbits(40) for _ in range(n))
    check_range(values)
    return Words(values, ("DE",) * n, None)


def noisy_words(seed: int, n: int, matrices) -> Words:
    """Codewords, alternately DE and SE, each with 0 to 3 flipped bits: the
    flip count is uniform and so are the flipped positions.  matrices maps
    a code name to its generator matrix, whose encode makes the codeword."""
    rng = random.Random(f"noisy:{seed}")
    values, codes, sent = [], [], []
    for i in range(n):
        code = CODES[i % 2]
        cw = matrices[code].encode(rng.getrandbits(20))
        v = cw
        for p in rng.sample(range(40), rng.randint(0, MAX_FLIPS)):
            v ^= 1 << p
        values.append(v)
        codes.append(code)
        sent.append(cw)
    check_range(values)
    check_range(sent)
    return Words(tuple(values), tuple(codes), tuple(sent))


def cli_mix(seed: int):
    """Endless seeded choice of the decode algorithm for one CLI process:
    repr and synd three times in eight each, oracle twice in eight."""
    rng = random.Random(f"cli:{seed}")
    while True:
        yield rng.choices(("repr", "synd", "oracle"), weights=(3, 3, 2))[0]


class Checker:
    """Counts operations attempted and failed.  A failure is a wrong
    verdict, an exception or an unexpected exit code; a declared "more than
    three errors" is a verdict like any other (None) and is correct when
    the expected verdict is None too."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, what: str, good: bool, detail: str = "") -> None:
        self.attempted += 1
        if not good:
            self.failed += 1
            if len(self.examples) < 10:
                self.examples.append(f"{what}: {detail}")

    def verdicts(self, what: str, got, want) -> None:
        """Compare two equally long verdict lists element by element."""
        if len(got) != len(want):
            raise ValueError(f"{what}: {len(got)} verdicts for {len(want)} words")
        for i, (g, w) in enumerate(zip(got, want)):
            self.record(what, g == w, f"word {i}: got {g!r}, want {w!r}")

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
