from pathlib import Path

import pytest

from sd40 import cli
from sd40.constructions import printed_de_matrix, printed_se_matrix
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


def test_internal_invariant_exit_code(capsys, monkeypatch):
    def broken(v, code="DE"):
        raise InternalInvariantError("two codewords inside budget")

    monkeypatch.setattr(cli.dc, "represent_decode", broken)
    code, out, err = run(capsys, "decode", "0" * 40)
    assert code == cli.EXIT_INTERNAL == 3
    assert out == "" and "internal error" in err


def test_encode_first_unit_vector(capsys):
    code, out, _ = run(capsys, "encode", "1" + "0" * 19)
    assert code == 0
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
    assert code == cli.EXIT_USAGE
    assert "error" in err


def test_corrupt_positions(capsys):
    zero = "0" * 40
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "1")
    assert out.strip() == "1" + "0" * 39
    code, out, _ = run(capsys, "corrupt", zero, "--flip", "")
    assert out.strip() == zero
    code, _, err = run(capsys, "corrupt", zero, "--flip", "3,3")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "corrupt", zero, "--flip", "41")
    assert code == cli.EXIT_USAGE


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


@pytest.mark.parametrize("k", (1, 2, 3, 4))
@pytest.mark.parametrize("algo", ("repr", "synd"))
def test_golden_transcripts(capsys, k, algo):
    v = parse_array_text(RECEIVED[k])
    code, out, _ = run(
        capsys, "decode", word_str(v), "--algorithm", algo, "--verbose"
    )
    assert code == 0
    golden = (FIXTURES / f"example{k}_{algo}.txt").read_text()
    assert out == golden


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
        assert code == cli.EXIT_FAILURE
        assert out.strip() == "more than three errors occurred"


def test_decode_oracle_matches_projection_decoders(capsys):
    v = parse_array_text(RECEIVED[2])
    code, out, _ = run(capsys, "decode", word_str(v), "--algorithm", "oracle")
    assert code == 0
    code2, out2, _ = run(capsys, "decode", word_str(v), "--algorithm", "repr")
    assert out.splitlines()[0] == out2.splitlines()[0]


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
    assert code == 0
    assert "mismatches: 0" in out
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


def test_fuzz_bad_trials(capsys):
    code, _, err = run(capsys, "fuzz", "--trials", "0")
    assert code == cli.EXIT_USAGE


def test_census_output(capsys):
    code, out, _ = run(capsys, "census")
    assert code == 0
    assert "total nonzero codewords: 1023" in out
    assert "480" in out


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
