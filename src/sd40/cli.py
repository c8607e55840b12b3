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
from .gf4 import ALPHABET, format_symbols
from .projection import N_BITS, N_COLS

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

def parse_word(text: str) -> int:
    """40-bit word from a bit string (40 chars) or hex string (10 chars)."""
    text = text.strip()
    if len(text) == N_BITS and not set(text) - set("01"):
        return int(text, 2)
    if len(text) == N_BITS // 4 and not set(text) - set(string.hexdigits):
        return int(text, 16)
    raise ValueError(
        f"cannot parse {text!r}: need 40 bits over 01 or 10 hex digits"
    )


def format_word(v: int, hex_out: bool = False) -> str:
    return format(v, f"0{N_BITS // 4}x") if hex_out else format(v, f"0{N_BITS}b")


def _flip_weight(option: str, weight: int) -> int:
    """A bound on random bit flips, which a 40-bit word keeps in 0..40."""
    if not 0 <= weight <= N_BITS:
        raise ValueError(f"{option} must lie in 0..{N_BITS}, got {weight}")
    return weight


def _random_flips(rng: random.Random, bound: int) -> int:
    """A 40-bit mask of rng.randint(0, bound) distinct bits, drawn in one sample."""
    return sum(1 << p for p in rng.sample(range(N_BITS), rng.randint(0, bound)))


def _matrix_for(code: str) -> cn.BinaryGeneratorMatrix:
    if code not in ("DE", "SE"):
        raise ValueError(f"code must be DE or SE, got {code!r}")
    return cn.printed_de_matrix() if code == "DE" else cn.printed_se_matrix()


@functools.lru_cache(maxsize=None)
def _oracle_for(code: str) -> oc.OracleTable:
    return oc.build_oracle(_matrix_for(code))


# ---------------------------------------------------------------------------
# Transcript
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """A verbose decode: the received word and the decoder's outcome.
    `render` reads every decode fact from the outcome; the projection
    and, for the syndrome algorithm, the syndrome and the error word are
    computed only for printing."""

    code: str
    received: int
    outcome: dc.DecodeOutcome

    def render(self) -> str:
        v, out = self.received, self.outcome
        parities, y = divmod(pj.read_columns(v), 1 << 20)
        lines = [
            f"algorithm: {out.algorithm}",
            f"code: {self.code}",
            f"received: {format_word(v)}",
        ]
        lines += _array_block(v, y, "y")
        par = "".join("eo"[(parities >> i) & 1] for i in range(N_COLS))
        top = "eo"[(v & pj.TOP_ROW_MASK).bit_count() & 1]
        lines.append(f"column parities: {par}  top row: {top}")
        if out.case is None:
            lines.append("case: none (four or more minority columns)")
        else:
            c = out.case
            erased = " ".join(map(str, c.erasure_columns)) or "none"
            lines.append(f"case: {c.case_id}  {c.parity_split}  erasure columns: {erased}")
        lines.append(f"projection y: {format_symbols(y, N_COLS)}")
        if out.algorithm == "syndrome":
            lines.append(f"syndrome H conj(y)^T: {format_symbols(dc.syndrome(y), 5)}")
            if out.ok:
                e = y ^ out.corrected_projection
                lines.append(f"error word e: {format_symbols(e, N_COLS)}")
        if out.ok:
            y2 = out.corrected_projection
            lines.append(f"corrected projection y': {format_symbols(y2, N_COLS)}")
            lines += _array_block(out.codeword, y2, "y'")
            flips = " ".join(map(str, out.flipped_bits)) or "none"
            lines.append(f"flipped bits: {flips}")
            lines.append(f"decoded: codeword of C40,1-{self.code}")
            lines.append(f"codeword: {format_word(out.codeword)}")
        else:
            lines.append(f"decoded: {out.reason}")
        return "\n".join(lines) + "\n"


def _array_block(v: int, y: int, label: str) -> list[str]:
    head = "      " + "".join(f"{i:>3}" for i in range(1, N_COLS + 1))
    lines = [head]
    for name, row in zip(ALPHABET, pj.format_array_text(v).splitlines()):
        lines.append(f"{name:>4} |" + "".join(f"{bit:>3}" for bit in row))
    cells = "".join(f"{c:>3}" for c in format_symbols(y, N_COLS))
    lines.append(f"{label:>4} |" + cells)
    return lines


def _oracle_decode(v: int, code: str) -> dc.DecodeOutcome:
    """The coset-leader oracle's verdict as an outcome of the parity case."""
    cw = oc.indexed_decode(v, _oracle_for(code))
    return dc.DecodeOutcome(algorithm="oracle", codeword=cw, flips=0 if cw is None else v ^ cw,
                            case=dc.classify_case(v))


def _decoders() -> dict:
    """Algorithm name -> decoder, read from the modules at call time."""
    return {"repr": dc.represent_decode, "synd": dc.syndrome_decode, "oracle": _oracle_decode}


def decode_transcript(v: int, algorithm: str, code: str) -> Transcript:
    """Run one decoder and keep its outcome for printing."""
    return Transcript(code, v, _decoders()[algorithm](v, code))


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
    if args.flip is None:
        rng = random.Random(args.seed)
        word ^= _random_flips(rng, _flip_weight("--random-weight", args.random_weight))
    else:
        parts = [part.strip() for part in args.flip.split(",")]
        if any(part and not (part.isascii() and part.isdigit()) for part in parts):
            raise ValueError(f"positions must be comma-separated decimals: {args.flip!r}")
        positions = [int(part) for part in parts if part]
        if len(set(positions)) != len(positions):
            raise ValueError("positions must be distinct")
        if any(not 1 <= p <= N_BITS for p in positions):
            raise ValueError(f"positions must lie in 1..{N_BITS}")
        word ^= sum(1 << (N_BITS - p) for p in positions)
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
    max_weight = _flip_weight("--max-weight", args.max_weight)
    rng = random.Random(args.seed)
    matrix = _matrix_for(args.code)
    table = _oracle_for(args.code)
    corrected = failures = mismatches = 0
    for _ in range(args.trials):
        v = matrix.encode(rng.getrandbits(20)) ^ _random_flips(rng, max_weight)
        r = dc.represent_decode(v, args.code)
        s = dc.syndrome_decode(v, args.code)
        o = oc.indexed_decode(v, table)
        if r.codeword == s.codeword == o:
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
            f"{t.type_id:>4}  {format_symbols(t.representative, N_COLS)}      "
            f"{t.weight:>2}  {census[t.type_id]:>5}"
        )
    print(f"total nonzero codewords: {sum(census.values())}")
    return EXIT_OK


def cmd_tables(args) -> int:
    tables = {
        "e10": ("E10", [format_symbols(r, N_COLS) for r in qt.e10_table().rows]),
        "b10": ("B10", [format_symbols(r, N_COLS) for r in qt.b10_table().rows]),
        "de": ("C40,1-DE", cn.printed_de_matrix().to_text().splitlines()),
        "se": ("C40,1-SE", cn.printed_se_matrix().to_text().splitlines()),
    }
    for which, (name, rows) in tables.items():
        if args.which == which:
            print("\n".join(rows))
        elif args.which == "all":
            print("\n".join([f"# {name}", *rows, ""]))
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
    dec.add_argument("--algorithm", choices=tuple(_decoders()), default="repr")
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
