"""Command-line interface: encode, corrupt, decode, certify, fuzz,
census, tables.

Words travel as 40-character bit strings (coordinate 1 leftmost) or as
10-hex-digit values; the two are told apart by length.  Exit codes:
0 success or corrected, 1 declared decode failure, 2 usage error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import random
import string
import sys
from dataclasses import dataclass

from . import constructions as cn
from . import decoders as dc
from . import oracle as oc
from . import projection as pj
from . import quaternary as qt
from .gf4 import ALPHABET, Gf4Word

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

_ALGORITHMS = {"repr": "representation", "synd": "syndrome", "oracle": "oracle"}


def parse_word(text: str) -> int:
    """40-bit word from a bit string (40 chars) or hex string (10 chars)."""
    text = text.strip()
    if len(text) == 40 and not set(text) - set("01"):
        return int(text, 2)
    if len(text) == 10 and not set(text) - set(string.hexdigits):
        return int(text, 16)
    raise ValueError(
        f"cannot parse {text!r}: need 40 bits over 01 or 10 hex digits"
    )


def format_word(v: int, hex_out: bool = False) -> str:
    return format(v, "010x") if hex_out else format(v, "040b")


def _matrix_for(code: str) -> cn.BinaryGeneratorMatrix:
    return cn.printed_de_matrix() if code == "DE" else cn.printed_se_matrix()


@functools.lru_cache(maxsize=None)
def _oracle_for(code: str) -> oc.OracleTable:
    return oc.build_oracle(_matrix_for(code))


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """Everything a verbose decode prints, fields mutually consistent."""

    algorithm: str
    code: str
    received: int
    case_label: dc.CaseLabel | None
    projection: Gf4Word
    syndrome: Gf4Word | None
    error_word: Gf4Word | None
    corrected_projection: Gf4Word | None
    outcome: dc.DecodeOutcome

    def render(self) -> str:
        lines = [
            f"algorithm: {self.algorithm}",
            f"code: {self.code}",
            f"received: {format_word(self.received)}",
        ]
        lines += _array_block(self.received, self.projection, "y")
        prof = pj.parity_profile(self.received)
        par = "".join("o" if p else "e" for p in prof.column_parities)
        top = "o" if prof.top_row_parity else "e"
        lines.append(f"column parities: {par}  top row: {top}")
        if self.case_label is None:
            lines.append("case: none (four or more minority columns)")
        else:
            c = self.case_label
            erased = " ".join(map(str, c.erasure_columns)) or "none"
            lines.append(f"case: {c.case_id}  {c.parity_split}  erasure columns: {erased}")
        lines.append(f"projection y: {self.projection.to_string()}")
        if self.syndrome is not None:
            lines.append(f"syndrome H conj(y)^T: {self.syndrome.to_string()}")
        if self.error_word is not None:
            lines.append(f"error word e: {self.error_word.to_string()}")
        if self.outcome.ok:
            y2 = self.corrected_projection
            lines.append(f"corrected projection y': {y2.to_string()}")
            lines += _array_block(self.outcome.codeword, y2, "y'")
            flips = " ".join(map(str, self.outcome.flipped_bits)) or "none"
            lines.append(f"flipped bits: {flips}")
            lines.append(f"decoded: codeword of C40,1-{self.code}")
            lines.append(f"codeword: {format_word(self.outcome.codeword)}")
        else:
            lines.append(f"decoded: {self.outcome.reason}")
        return "\n".join(lines) + "\n"


def _array_block(v: int, y: Gf4Word, label: str) -> list[str]:
    head = "      " + "".join(f"{i:>3}" for i in range(1, 11))
    lines = [head]
    for row in range(4):
        bit = 3 - row
        cells = "".join(
            f"{(pj.column_nibble(v, c) >> bit) & 1:>3}" for c in range(1, 11)
        )
        lines.append(f"{ALPHABET[row]:>4} |" + cells)
    cells = "".join(f"{ALPHABET[s]:>3}" for s in y)
    lines.append(f"{label:>4} |" + cells)
    return lines


def decode_transcript(v: int, algorithm: str, code: str) -> Transcript:
    """Run one decoder and collect the full diagnostic trail."""
    name = _ALGORITHMS[algorithm]
    y = pj.proj(v)
    syn = err = None
    if name == "oracle":
        cw = oc.indexed_decode(v, _oracle_for(code))
        case = dc.classify_case(v)
        if cw is None:
            outcome = dc.DecodeOutcome(
                "oracle", False, None, None, (), case, dc.FAILURE_REASON
            )
            corrected = None
        else:
            diff = v ^ cw
            flips = tuple(i for i in range(1, 41) if (diff >> (40 - i)) & 1)
            corrected = pj.proj(cw)
            outcome = dc.DecodeOutcome("oracle", True, cw, corrected, flips, case)
    else:
        if name == "syndrome":
            syn = dc.syndrome(y)
            outcome = dc.syndrome_decode(v, code)
            if outcome.ok:
                err = Gf4Word(y.bits ^ outcome.corrected_projection.bits, 10)
        else:
            outcome = dc.represent_decode(v, code)
        corrected = outcome.corrected_projection
    return Transcript(name, code, v, outcome.case, y, syn, err, corrected, outcome)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_encode(args) -> int:
    msg = args.message.strip()
    if len(msg) != 20 or set(msg) - {"0", "1"}:
        raise ValueError("message must be 20 bits over 01")
    word = _matrix_for(args.code).encode(int(msg, 2))
    print(format_word(word, args.hex))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    word = parse_word(args.word)
    if args.flip is not None:
        positions = []
        for part in args.flip.split(","):
            part = part.strip()
            if part:
                positions.append(int(part))
        if len(set(positions)) != len(positions):
            raise ValueError("positions must be distinct")
        if any(not 1 <= p <= 40 for p in positions):
            raise ValueError("positions must lie in 1..40")
    else:
        rng = random.Random(args.seed)
        weight = rng.randint(0, args.random_weight)
        positions = rng.sample(range(1, 41), weight)
    for p in positions:
        word ^= 1 << (40 - p)
    print(format_word(word, args.hex))
    return EXIT_OK


def cmd_decode(args) -> int:
    v = parse_word(args.word)
    t = decode_transcript(v, args.algorithm, args.code)
    if args.verbose:
        sys.stdout.write(t.render())
    elif t.outcome.ok:
        print(format_word(t.outcome.codeword))
        flips = " ".join(map(str, t.outcome.flipped_bits)) or "none"
        print(f"flipped bits: {flips}")
    else:
        print(t.outcome.reason)
    return EXIT_OK if t.outcome.ok else EXIT_FAILURE


def cmd_certify(args) -> int:
    with open(args.matrix_file) as fh:
        rows = cn.parse_matrix_text(fh.read())
    matrix = cn.BinaryGeneratorMatrix(args.matrix_file, rows)
    sys.stdout.write(cn.certify(matrix).format_text())
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.trials <= 0:
        raise ValueError("trials must be positive")
    rng = random.Random(args.seed)
    matrix = _matrix_for(args.code)
    table = _oracle_for(args.code)
    corrected = failures = mismatches = 0
    for _ in range(args.trials):
        cw = matrix.encode(rng.getrandbits(20))
        weight = rng.randint(0, args.max_weight)
        v = cw
        for p in rng.sample(range(40), weight):
            v ^= 1 << p
        r = dc.represent_decode(v, args.code)
        s = dc.syndrome_decode(v, args.code)
        o = oc.indexed_decode(v, table)
        rc = r.codeword if r.ok else None
        sc = s.codeword if s.ok else None
        if rc == sc == o:
            if o is None:
                failures += 1
            else:
                corrected += 1
        else:
            mismatches += 1
    print(
        f"trials: {args.trials}  seed: {args.seed}  max weight: {args.max_weight}"
    )
    print(f"corrected: {corrected}  declared failures: {failures}  mismatches: {mismatches}")
    return EXIT_OK if mismatches == 0 else EXIT_INTERNAL


def cmd_census(args) -> int:
    census = qt.orbit_census()
    print("type  representative  weight  count")
    for t in qt.ORBIT_TYPES:
        print(
            f"{t.type_id:>4}  {t.representative.to_string()}      "
            f"{t.weight:>2}  {census[t.type_id]:>5}"
        )
    print(f"total nonzero codewords: {sum(census.values())}")
    return EXIT_OK


def cmd_tables(args) -> int:
    which = args.which
    if which == "e10":
        for row in qt.e10_matrix().rows:
            print(row.to_string())
    elif which == "b10":
        for row in qt.b10_matrix().rows:
            print(row.to_string())
    elif which == "de":
        sys.stdout.write(cn.printed_de_matrix().to_text())
    elif which == "se":
        sys.stdout.write(cn.printed_se_matrix().to_text())
    else:
        for name, rows in (
            ("E10", [r.to_string() for r in qt.e10_matrix().rows]),
            ("B10", [r.to_string() for r in qt.b10_matrix().rows]),
            ("C40,1-DE", cn.printed_de_matrix().to_text().splitlines()),
            ("C40,1-SE", cn.printed_se_matrix().to_text().splitlines()),
        ):
            print(f"# {name}")
            for row in rows:
                print(row)
            print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sd40",
        description="Projection decoding of binary self-dual [40,20,8] codes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a 20-bit message")
    enc.add_argument("message")
    enc.add_argument("--code", choices=("DE", "SE"), default="DE")
    enc.add_argument("--hex", action="store_true", help="emit hex instead of bits")
    enc.set_defaults(func=cmd_encode)

    cor = sub.add_parser("corrupt", help="flip bits of a 40-bit word")
    cor.add_argument("word")
    cor.add_argument("--flip", help="comma-separated 1-based positions")
    cor.add_argument("--random-weight", type=int, default=3,
                     help="flip a random number of bits up to this weight")
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--hex", action="store_true")
    cor.set_defaults(func=cmd_corrupt)

    dec = sub.add_parser("decode", help="decode a 40-bit word")
    dec.add_argument("word")
    dec.add_argument("--algorithm", choices=tuple(_ALGORITHMS), default="repr")
    dec.add_argument("--code", choices=("DE", "SE"), default="DE")
    dec.add_argument("--verbose", action="store_true")
    dec.set_defaults(func=cmd_decode)

    cert = sub.add_parser("certify", help="exhaustively certify a 20x40 matrix")
    cert.add_argument("matrix_file")
    cert.set_defaults(func=cmd_certify)

    fz = sub.add_parser("fuzz", help="random agreement sweep of both decoders")
    fz.add_argument("--trials", type=int, default=10000)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--max-weight", type=int, default=3)
    fz.add_argument("--code", choices=("DE", "SE"), default="DE")
    fz.set_defaults(func=cmd_fuzz)

    cen = sub.add_parser("census", help="orbit-type counts of the quaternary code")
    cen.set_defaults(func=cmd_census)

    tab = sub.add_parser("tables", help="dump generator matrices")
    tab.add_argument("--which", choices=("e10", "b10", "de", "se", "all"),
                     default="all")
    tab.set_defaults(func=cmd_tables)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except dc.InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
