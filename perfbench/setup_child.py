"""Set-up and memory probes, run in a fresh interpreter.

    python3 perfbench/setup_child.py cli
        import the command-line module, as every `sd40` process does;
    python3 perfbench/setup_child.py WORD CODE [CODE ...]
        import sd40, build the quaternary table, the printed matrices and,
        for each code, the oracle and its coset-leader index, then decode
        WORD once with each of the three decoders;
    python3 perfbench/setup_child.py --decode-all FILE
        the same set-up for the codes named in FILE, whose lines are
        "WORD CODE", then decode every word of FILE with each decoder and
        print "peak_rss_kib N", the peak resident set of this process.

The caller times the first two as processes.  The third does what the
benchmark's own process does with the program and holds nothing else.
"""

import sys


def set_up(codes):
    """Build every table the decoders use for these codes; return the
    oracle table per code."""
    import sd40
    from sd40.quaternary import e10_table

    e10_table()
    matrices = {"DE": sd40.printed_de_matrix(), "SE": sd40.printed_se_matrix()}
    tables = {}
    for code in codes:
        tables[code] = sd40.build_oracle(matrices[code])
        tables[code].leader_index
    return tables


def decode_all(words, tables) -> None:
    import sd40

    for decode in (sd40.represent_decode, sd40.syndrome_decode):
        for v, code in words:
            decode(v, code)
    for v, code in words:
        sd40.indexed_decode(v, tables[code])


def peak_rss_kib() -> int:
    """Peak resident set of this process image.  It is read from VmHWM, not
    from ru_maxrss: a child started by vfork, as subprocess starts it,
    takes its parent's peak into its own ru_maxrss when it calls exec."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> None:
    if argv == ["cli"]:
        import sd40.cli  # noqa: F401
        return
    if argv[0] == "--decode-all":
        with open(argv[1]) as f:
            words = [(int(v), code) for v, code in (line.split() for line in f)]
        decode_all(words, set_up(sorted({code for _, code in words})))
        print("peak_rss_kib", peak_rss_kib())
        return
    word, codes = int(argv[0]), argv[1:]
    decode_all([(word, code) for code in codes], set_up(codes))


if __name__ == "__main__":
    main(sys.argv[1:])
