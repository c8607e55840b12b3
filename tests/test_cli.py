from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sd40 import cli
from sd40 import decoders as dc
from sd40.constructions import d4_block, printed_de_matrix, printed_se_matrix
from sd40.gf4 import InternalInvariantError
from sd40.projection import parse_array_text

FIXTURES = Path(__file__).parent / "fixtures"

RECEIVED = {
    k: (FIXTURES / f"example{k}_received.txt").read_text()
    for k in (1, 2, 3, 4)
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def word_str(v):
    return format(v, "040b")


def test_parse_word_forms():
    bits = "0" * 39 + "1"
    assert cli.parse_word(bits) == 1
    assert cli.parse_word("00000000ff") == 0xFF
    with pytest.raises(ValueError):
        cli.parse_word("10")
    with pytest.raises(ValueError):
        cli.parse_word("x" * 40)
    assert cli.parse_word("ABCDEF0123") == 0xABCDEF0123
    # Ten characters that int(text, 16) would take, but not 10 hex digits.
    for text in ("-123456789", "0x12345678", "12_345_678", "+123456789"):
        with pytest.raises(ValueError):
            cli.parse_word(text)
    with pytest.raises(ValueError):
        cli.parse_word("1" * 39 + "2")
    # Surrounding whitespace, as a shell argument or a file line may carry.
    assert cli.parse_word(f" {bits}\n") == 1
    assert cli.parse_word("\t00000000ff ") == 0xFF


@given(st.integers(0, (1 << 40) - 1), st.booleans())
def test_parse_word_inverts_format_word(v, hex_out):
    text = cli.format_word(v, hex_out)
    assert len(text) == (10 if hex_out else 40)
    assert cli.parse_word(text) == v


@given(st.text(alphabet="01", min_size=40, max_size=40))
def test_format_word_inverts_parse_word_bits(text):
    assert cli.format_word(cli.parse_word(text)) == text


@given(st.text(alphabet="0123456789abcdefABCDEF", min_size=10, max_size=10))
def test_format_word_inverts_parse_word_hex(text):
    assert cli.format_word(cli.parse_word(text), hex_out=True) == text.lower()


def test_internal_invariant_exit_code(capsys, monkeypatch):
    def broken(v, code="DE"):
        raise InternalInvariantError("two codewords inside budget")

    monkeypatch.setattr(cli.dc, "represent_decode", broken)
    code, out, err = run(capsys, "decode", "0" * 40)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == "" and "internal error" in err


def test_encode_first_unit_vector(capsys):
    code, out, _ = run(capsys, "encode", "1" + "0" * 19)
    assert code == cli.EXIT_OK == 0
    assert out.strip() == word_str(printed_de_matrix().rows[0])


def test_encode_zero_and_sum(capsys):
    code, out, _ = run(capsys, "encode", "0" * 20)
    assert code == 0 and out.strip() == "0" * 40
    code, out, _ = run(capsys, "encode", "11" + "0" * 18)
    m = printed_de_matrix()
    assert out.strip() == word_str(m.rows[0] ^ m.rows[1])


def test_encode_se(capsys):
    code, out, _ = run(capsys, "encode", "0" * 19 + "1", "--code", "SE")
    assert out.strip() == word_str(printed_se_matrix().rows[19])


def test_encode_bad_message(capsys):
    code, _, err = run(capsys, "encode", "101")
    assert code == cli.EXIT_USAGE == 2
    assert "error" in err


def test_corrupt_positions(capsys):
    zero = "0" * 40
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "1")
    assert out.strip() == "1" + "0" * 39
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "40")
    assert code == cli.EXIT_OK and out.strip() == "0" * 39 + "1"
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "1,40")
    assert out.strip() == "1" + "0" * 38 + "1"
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "")
    assert out.strip() == zero
    code, _, err = run(capsys, "corrupt", zero, "--flip", "3,3")
    assert code == cli.EXIT_USAGE
    # Position 0 would set a 41st bit, and 41 would shift by -1.
    for flip in ("0", "41", "2,41"):
        code, out, err = run(capsys, "corrupt", zero, "--flip", flip)
        assert code == cli.EXIT_USAGE
        assert out == "" and "positions must lie in 1..40" in err


@pytest.mark.parametrize("flip", ["1_0", " +3", "\u0663"])
def test_corrupt_positions_are_ascii_decimals(capsys, flip):
    # int() reads these as 10, 3 and 3 (an Arabic-Indic digit); a position
    # is plain ASCII digits, as parse_word demands of a word.
    code, out, err = run(capsys, "corrupt", "0" * 40, "--flip", flip)
    assert code == cli.EXIT_USAGE
    assert out == "" and "error" in err


def test_corrupt_example4_bold_bits(capsys):
    # Flipping the three corrected positions of example 4 reproduces its
    # received word.
    corrected = parse_array_text(
        "1011111111\n1011111111\n1110010101\n0001101010"
    )
    code, out, _ = run(
        capsys, "corrupt", word_str(corrected), "--flip", "5,20,24"
    )
    assert out.strip() == word_str(parse_array_text(RECEIVED[4]))


def test_corrupt_random_reproducible(capsys):
    zero = "0" * 40
    _, out1, _ = run(capsys, "corrupt", zero, "--random-weight", "3", "--seed", "9")
    _, out2, _ = run(capsys, "corrupt", zero, "--random-weight", "3", "--seed", "9")
    assert out1 == out2


def test_corrupt_random_draw_covers_the_word(capsys):
    zero = "0" * 40
    # Weight 0 draws no flip, whatever the seed.
    for seed in range(5):
        assert run(capsys, "corrupt", zero, "--random-weight", "0", "--seed", str(seed)) == (
            cli.EXIT_OK, zero + "\n", "")
    # Each draw stays a 40-bit word, and the draws reach every coordinate,
    # 1 and 40 included.
    reached = set()
    for seed in range(20):
        code, out, _ = run(capsys, "corrupt", zero, "--random-weight", "40", "--seed", str(seed))
        assert code == cli.EXIT_OK and len(out) == 41 and not set(out.strip()) - {"0", "1"}
        reached |= {k for k, bit in enumerate(out.strip(), 1) if bit == "1"}
    assert reached == set(range(1, 41))


def _as_oracle(transcript):
    """A representation transcript as the oracle prints it: the same
    trail under the oracle's name."""
    first, rest = transcript.split("\n", 1)
    assert first == "algorithm: representation"
    return "algorithm: oracle\n" + rest


@pytest.mark.parametrize("k", (1, 2, 3, 4))
@pytest.mark.parametrize("algo", ("repr", "synd", "oracle"))
def test_golden_transcripts(capsys, k, algo):
    v = parse_array_text(RECEIVED[k])
    code, out, _ = run(
        capsys, "decode", word_str(v), "--algorithm", algo, "--verbose"
    )
    assert code == 0
    if algo == "oracle":
        golden = _as_oracle((FIXTURES / f"example{k}_repr.txt").read_text())
    else:
        golden = (FIXTURES / f"example{k}_{algo}.txt").read_text()
    assert out == golden


def test_verbose_oracle_failure(capsys):
    # A whole column flipped keeps every column parity: case I, and more
    # than three errors for every decoder.
    v = word_str(printed_de_matrix().encode(0xBEEF5) ^ d4_block(4))
    code, out, _ = run(capsys, "decode", v, "--algorithm", "oracle", "--verbose")
    assert code == cli.EXIT_FAILURE
    lines = out.splitlines()
    assert "case: I  [10; 0]  erasure columns: none" in lines
    assert lines[-1] == "decoded: more than three errors occurred"
    code, repr_out, _ = run(capsys, "decode", v, "--verbose")
    assert code == cli.EXIT_FAILURE
    assert out == _as_oracle(repr_out)


def test_verbose_transcript_of_a_word_with_no_case(capsys):
    # Columns 1-4 odd under an even majority: four minority columns.
    v = word_str(parse_array_text("1111000000\n0000000000\n0000000000\n0000000000"))
    for algo in ("repr", "synd", "oracle"):
        code, out, _ = run(capsys, "decode", v, "--algorithm", algo, "--verbose")
        assert code == cli.EXIT_FAILURE
        lines = out.splitlines()
        assert "case: none (four or more minority columns)" in lines
        assert lines[-1] == "decoded: more than three errors occurred"


def test_oracle_failure_shares_no_decoder_outcome(monkeypatch):
    # The decoders share one declared failure per (algorithm, case), 2 x
    # 353; the oracle's failure is an outcome of its own.
    calls = []
    monkeypatch.setattr(dc, "_failure", lambda *args: calls.append(args))
    v = printed_de_matrix().encode(0xBEEF5) ^ d4_block(4)
    assert cli._oracle_decode(v, "DE") == dc.DecodeOutcome(
        algorithm="oracle", codeword=None, flips=0, case=dc.classify_case(v))
    assert calls == []


def test_verbose_syndrome_failure(capsys):
    # The word of test_verbose_oracle_failure: the transcript shows the
    # syndrome, but no error word was found.
    v = word_str(printed_de_matrix().encode(0xBEEF5) ^ d4_block(4))
    code, out, _ = run(capsys, "decode", v, "--algorithm", "synd", "--verbose")
    assert code == cli.EXIT_FAILURE
    lines = out.splitlines()
    assert any(line.startswith("syndrome H conj(y)^T: ") for line in lines)
    assert not any(line.startswith("error word e:") for line in lines)
    assert lines[-1] == "decoded: more than three errors occurred"


def test_oracle_commands_leave_the_codeword_array_unbuilt(capsys):
    # decode --algorithm oracle and fuzz answer from the coset-leader
    # index; only oracle_decode reads the pivot tables and the 1,351 near
    # codewords.
    v = word_str(parse_array_text(RECEIVED[2]))
    assert run(capsys, "decode", v, "--algorithm", "oracle")[0] == cli.EXIT_OK
    assert run(capsys, "fuzz", "--trials", "200")[0] == cli.EXIT_OK
    table = vars(cli._oracle_for("DE"))
    assert "leader_index" in table
    assert "_pivot_bytes" not in table and "_near_codewords" not in table


def test_decode_codeword_short_output(capsys):
    cw = word_str(printed_de_matrix().encode(0x12345))
    code, out, _ = run(capsys, "decode", cw)
    assert code == 0
    assert out.splitlines()[0] == cw
    assert "flipped bits: none" in out


def test_decode_failure_exit_code(capsys):
    # Distance 4 or more from every codeword: a whole column of ones on
    # top of a codeword.
    cw = printed_de_matrix().encode(0x54321)
    v = cw ^ (0xF << 20)
    for algo in ("repr", "synd", "oracle"):
        code, out, _ = run(capsys, "decode", word_str(v), "--algorithm", algo)
        assert code == cli.EXIT_FAILURE == 1
        assert out.strip() == "more than three errors occurred"


def test_decode_oracle_matches_projection_decoders(capsys):
    v = parse_array_text(RECEIVED[2])
    code, out, _ = run(capsys, "decode", word_str(v), "--algorithm", "oracle")
    assert code == 0
    code2, out2, _ = run(capsys, "decode", word_str(v), "--algorithm", "repr")
    # Same codeword and the same flipped coordinates.
    assert out == out2
    assert out.splitlines()[1] == "flipped bits: 14 15 18"


def test_decode_se_roundtrip(capsys):
    cw = word_str(printed_se_matrix().encode(0xABCDE))
    code, out, _ = run(capsys, "decode", cw, "--code", "SE")
    assert code == 0 and out.splitlines()[0] == cw


def test_certify_fixture_matrices(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", str(FIXTURES / "g40_de.txt"))
    assert code == 0
    assert "minimum distance: 8" in out
    assert "type: doubly-even" in out
    assert "A_8 = 285" in out
    code, out, _ = run(capsys, "certify", str(FIXTURES / "g40_se.txt"))
    assert "type: singly-even" in out
    assert "A_10 = 1024" in out


def test_certify_flags_non_self_dual(capsys, tmp_path):
    rows = ["0" * i + "1" + "0" * (39 - i) for i in range(20)]
    path = tmp_path / "identity.txt"
    path.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 0
    assert "self-dual (GG^T = 0): NO" in out


def test_certify_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("grid\n")
    code, _, err = run(capsys, "certify", str(path))
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "certify", str(tmp_path / "missing.txt"))
    assert code == cli.EXIT_USAGE


def test_fuzz_agreement(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "500", "--seed", "13", "--max-weight", "5"
    )
    # Weights up to 5 give both corrected words and declared failures.
    assert code == 0
    assert out.splitlines() == [
        "trials: 500  seed: 13  max weight: 5",
        "corrected: 325  declared failures: 175  mismatches: 0",
    ]
    code2, out2, _ = run(
        capsys, "fuzz", "--trials", "500", "--seed", "13", "--max-weight", "5"
    )
    assert out2 == out


def test_fuzz_weight_zero_all_clean(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--trials", "200", "--seed", "1", "--max-weight", "0"
    )
    assert code == 0
    assert "corrected: 200  declared failures: 0  mismatches: 0" in out


def test_fuzz_counts_a_disagreement(capsys, monkeypatch):
    # A representation decoder that declares every word a failure
    # disagrees with the other two on every codeword.
    monkeypatch.setattr(cli.dc, "represent_decode",
                        lambda v, code="DE": dc._failure("representation", dc.classify_case(v)))
    code, out, _ = run(capsys, "fuzz", "--trials", "50", "--seed", "1", "--max-weight", "0")
    assert code == cli.EXIT_INTERNAL == 3
    assert "corrected: 0  declared failures: 0  mismatches: 50" in out.splitlines()


def test_fuzz_bad_trials(capsys):
    code, _, err = run(capsys, "fuzz", "--trials", "0")
    assert code == cli.EXIT_USAGE


def test_fuzz_one_trial(capsys):
    code, out, _ = run(capsys, "fuzz", "--trials", "1")
    assert code == cli.EXIT_OK
    assert out.splitlines()[0] == "trials: 1  seed: 0  max weight: 3"


def test_no_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main([])
    assert exited.value.code == cli.EXIT_USAGE == 2
    assert capsys.readouterr().err.startswith("usage: sd40")


# Each command parsed with no options.  The benchmark runs
# `fuzz --trials 1000 --seed S`, so it reads --max-weight's default.
@pytest.mark.parametrize("argv, options", [
    (["encode", "0" * 20], {"message": "0" * 20, "code": "DE", "hex": False}),
    (["corrupt", "0" * 10], {"word": "0" * 10, "flip": None, "random_weight": 3, "seed": 0,
                             "hex": False}),
    (["decode", "0" * 10], {"word": "0" * 10, "algorithm": "repr", "code": "DE",
                            "verbose": False}),
    (["certify", "g.txt"], {"matrix_file": "g.txt"}),
    (["fuzz"], {"trials": 10000, "seed": 0, "max_weight": 3, "code": "DE"}),
    (["census"], {}),
    (["tables"], {"which": "all"}),
])
def test_option_defaults(argv, options):
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("command") == argv[0]
    assert args.pop("func") is getattr(cli, f"cmd_{argv[0]}")
    assert args == options


@pytest.mark.parametrize("weight", ["41", "-1"])
@pytest.mark.parametrize("option, command", [
    ("--random-weight", ("corrupt", "0" * 10, "--seed", "27")),
    ("--max-weight", ("fuzz", "--trials", "20")),
])
def test_flip_weight_bounds(capsys, option, command, weight):
    # A 40-bit word has 0..40 bits to flip: a bound outside that range is
    # a usage error that names its option, whatever the seed draws.
    code, out, err = run(capsys, *command, option, weight)
    assert code == cli.EXIT_USAGE and not out
    assert err == f"error: {option} must lie in 0..40, got {weight}\n"
    assert run(capsys, *command, option, "40")[0] == cli.EXIT_OK


CENSUS_OUTPUT = """\
type  representative  weight  count
   1  1111000000       4     30
   2  10101010wW       6    240
   3  wwWW110000       6     60
   4  1111111100       8     15
   5  1111wwww00       8     90
   6  WwWw1010wW       8    480
   7  WwWwwWwWwW      10     48
   8  111111WWww      10     60
total nonzero codewords: 1023
"""


def test_census_output(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    assert out == CENSUS_OUTPUT


def test_tables_sections(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    for name in ("# E10", "# B10", "# C40,1-DE", "# C40,1-SE"):
        assert name in out
    code, out, _ = run(capsys, "tables", "--which", "de")
    rows = out.strip().splitlines()
    assert len(rows) == 20 and all(len(r) == 40 for r in rows)


def test_tables_pipe_into_certify(capsys, tmp_path):
    _, out, _ = run(capsys, "tables", "--which", "se")
    path = tmp_path / "se.txt"
    path.write_text(out)
    code, out, _ = run(capsys, "certify", str(path))
    assert code == 0 and "singly-even" in out


def test_decode_transcript_holds_the_outcome():
    v = parse_array_text(RECEIVED[3])
    t = cli.decode_transcript(v, "synd", "DE")
    assert list(vars(t)) == ["code", "received", "outcome"]
    assert t.outcome == cli.dc.syndrome_decode(v, "DE")
    with pytest.raises(KeyError):
        cli.decode_transcript(v, "scan", "DE")


@pytest.mark.parametrize("algorithm", ["repr", "synd", "oracle"])
def test_decode_transcript_rejects_an_unknown_code(algorithm):
    with pytest.raises(ValueError, match="code must be DE or SE, got 'XX'"):
        cli.decode_transcript(0, algorithm, "XX")


@pytest.mark.parametrize("v", [-1, 1 << 40])
def test_transcript_refuses_a_word_outside_40_bits(v):
    # render reads the parities first, which checks the word; the
    # projection it prints is read unchecked.
    outcome = cli.dc.represent_decode(0)
    with pytest.raises(ValueError, match="40-bit"):
        cli.Transcript("DE", v, outcome).render()
