import re
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snpmux.cli import main


def _run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def _data_lines(path):
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")]


def test_probes_size_and_roster(tmp_path):
    out = tmp_path / "probes.txt"
    assert main(["probes", "--probes", "ctoken:2", "--roster", "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "size\t10"
    assert lines[1] == "0\tAA"
    assert len(lines) == 11
    text = out.read_text()
    assert text.startswith("# snpmux probes\n")
    assert "# probes=ctoken:2" in text


def test_probes_stdout(capsys):
    code, cap = _run(["probes", "--probes", "kmer:3"], capsys)
    assert code == 0
    assert "size\t64" in cap.out


def test_gen_is_deterministic(tmp_path, monkeypatch):
    argv = ["gen", "--pools", "12", "--primer-length", "9", "--primers-per-pool", "2",
            "--extensions", "pair", "--seed", "17", "--out", "inst.txt"]
    texts = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        assert main(list(argv)) == 0
        texts.append((d / "inst.txt").read_bytes())
    assert texts[0] == texts[1]
    assert len(_data_lines(tmp_path / "a" / "inst.txt")) == 24


def test_solve_verify_roundtrip(tmp_path):
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    report = tmp_path / "verify.txt"
    assert main(["gen", "--pools", "30", "--primer-length", "10",
                 "--seed", "3", "--out", str(inst)]) == 0
    assert main(["solve", "--in", str(inst), "--probes", "kmer:5",
                 "--redundancy", "2", "--algorithm", "minprobe",
                 "--out", str(design)]) == 0
    text = design.read_text()
    assert "# probes=kmer:5" in text
    assert "# redundancy=2" in text
    assert "# selected=" in text
    # the verifier picks probes and redundancy out of the manifest
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 0
    assert "# violations=0" in report.read_text()


def test_verify_flags_tampered_design(tmp_path):
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    main(["gen", "--pools", "10", "--primer-length", "8", "--seed", "5", "--out", str(inst)])
    main(["solve", "--in", str(inst), "--probes", "kmer:4", "--out", str(design)])
    lines = design.read_text().splitlines()
    data_idx = [i for i, l in enumerate(lines) if l and not l.startswith("#")]
    assert len(data_idx) >= 2
    first, second = data_idx[0], data_idx[1]
    pool_id, idx, _ = lines[first].split("\t")
    stolen = lines[second].split("\t")[2]
    # claim another pool's witness: cross-hybridized or foreign either way
    lines[first] = "%s\t%s\t%s" % (pool_id, idx, stolen)
    design.write_text("\n".join(lines) + "\n")
    report = tmp_path / "verify.txt"
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 1
    assert "# violations=0" not in report.read_text()


def test_verify_checks_manifest_counts(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    assert main(["gen", "--pools", "300", "--primers-per-pool", "2", "--primer-length", "20",
                 "--extensions", "all4", "--seed", "3", "--out", str(inst)]) == 0
    assert main(["solve", "--in", str(inst), "--probes", "kmer:5", "--redundancy", "1",
                 "--out", str(design)]) == 0
    lines = design.read_text().splitlines()
    assert "# selected=146" in lines
    report = tmp_path / "verify.txt"
    # cut to its manifest and 29 entries, the body no longer holds the selected pools
    head = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    design.write_text("\n".join(lines[:head + 29]) + "\n")
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 1
    assert "-1\tstructure\tmanifest states selected='146' but the body has 29 entries" \
        in report.read_text().splitlines()
    # a pool count that is not the instance's is a violation too
    design.write_text("\n".join(l.replace("# pools=300", "# pools=301") for l in lines) + "\n")
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 1
    assert "-1\tstructure\tmanifest states pools='301' but the instance has 300 pools" \
        in report.read_text().splitlines()
    # without a fingerprint the report still verifies, with one note on stderr
    capsys.readouterr()
    design.write_text("\n".join(l for l in lines if not l.startswith("# instance_sha256=")) + "\n")
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 0
    assert capsys.readouterr().err.count("fingerprint check skipped") == 1


@pytest.mark.parametrize("mode", ["total", "positive"])
def test_verify_accepts_an_older_report_with_a_degree_line(tmp_path, mode):
    # earlier versions wrote '# degree=' after '# algorithm='; verify ignores it
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    old = tmp_path / "old.txt"
    assert main(["gen", "--pools", "60", "--primers-per-pool", "2", "--primer-length", "10",
                 "--seed", "4", "--out", str(inst)]) == 0
    assert main(["solve", "--in", str(inst), "--probes", "kmer:5", "--redundancy", "2",
                 "--algorithm", "minprobe", "--out", str(design)]) == 0
    lines = design.read_text().splitlines()
    at = lines.index("# algorithm=minprobe") + 1
    old.write_text("\n".join(lines[:at] + ["# degree=" + mode] + lines[at:]) + "\n")
    reports = []
    for path in (design, old):
        report = tmp_path / ("verify_" + path.name)
        assert main(["verify", "--in", str(path), "--instance", str(inst),
                     "--out", str(report)]) == 0
        reports.append([l for l in report.read_text().splitlines() if not l.startswith("# args=")])
    assert reports[0] == reports[1]


def test_verify_needs_probe_space(tmp_path):
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    main(["gen", "--pools", "4", "--primer-length", "6", "--seed", "1", "--out", str(inst)])
    design.write_text("0\t0\t3\n")  # bare design, no manifest
    assert main(["verify", "--in", str(design), "--instance", str(inst)]) == 2
    # explicit flags replace the missing manifest
    code = main(["verify", "--in", str(design), "--instance", str(inst),
                 "--probes", "kmer:3", "--redundancy", "1",
                 "--out", str(tmp_path / "v.txt")])
    assert code in (0, 1)  # depends on whether probe 3 really witnesses pool 0


def test_verify_reads_an_empty_witness_list_as_a_violation(tmp_path):
    # "0<TAB>0<TAB>" is what a design report writes for a pool without
    # witnesses: three fields, the last one empty, not a malformed line
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    report = tmp_path / "verify.txt"
    main(["gen", "--pools", "4", "--primer-length", "6", "--seed", "1", "--out", str(inst)])
    design.write_text("0\t0\t\n")
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--probes", "kmer:3", "--redundancy", "2", "--out", str(report)]) == 1
    assert _data_lines(report) == ["0\twitness-count\t0 witness(es), need 2"]


def test_verify_flags_a_repeated_witness_id(tmp_path):
    # two distinct ids meet r=2, but a list that names one of them twice
    # is not a certificate a solver writes
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    report = tmp_path / "verify.txt"
    main(["gen", "--pools", "30", "--primer-length", "10", "--seed", "3", "--out", str(inst)])
    main(["solve", "--in", str(inst), "--probes", "kmer:5", "--redundancy", "2",
          "--out", str(design)])
    text = design.read_text()
    assert "\n0\t0\t74,298\n" in text
    design.write_text(text.replace("\n0\t0\t74,298\n", "\n0\t0\t74,74,298\n"))
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(report)]) == 1
    assert _data_lines(report) == ["0\twitness-count\twitness 74 listed more than once"]


def test_verify_checks_an_empty_override(tmp_path, capsys):
    # an override that is given replaces the manifest value, even when empty
    inst = tmp_path / "inst.txt"
    design = tmp_path / "design.txt"
    main(["gen", "--pools", "50", "--primer-length", "10", "--seed", "3", "--out", str(inst)])
    main(["solve", "--in", str(inst), "--probes", "kmer:5", "--redundancy", "2",
          "--out", str(design)])
    capsys.readouterr()
    assert main(["verify", "--in", str(design), "--instance", str(inst), "--probes", ""]) == 2
    assert capsys.readouterr().err == (
        "snpmux: error: probe space descriptor must look like kind:arg, got ''\n")


def test_exit_codes_for_bad_input(tmp_path, capsys):
    # unknown probe descriptor
    inst = tmp_path / "inst.txt"
    main(["gen", "--pools", "2", "--primer-length", "6", "--seed", "1", "--out", str(inst)])
    assert main(["solve", "--in", str(inst), "--probes", "wat:3"]) == 2
    # missing file
    assert main(["solve", "--in", str(tmp_path / "nope.txt"), "--probes", "kmer:3"]) == 2
    # malformed instance text
    bad = tmp_path / "bad.txt"
    bad.write_text("not an instance\n")
    assert main(["solve", "--in", str(bad), "--probes", "kmer:3"]) == 2
    # a bench grid with no replicates has no mean to report
    assert main(["bench", "--pools", "2", "--redundancy", "1", "--probes", "kmer:3",
                 "--algorithm", "seq", "--replicates", "0"]) == 2
    # argparse rejects unknown algorithms with a usage error
    with pytest.raises(SystemExit):
        main(["solve", "--in", str(inst), "--probes", "kmer:3", "--algorithm", "wat"])
    # a byte that is not UTF-8 is reported with its line, in every reader
    capsys.readouterr()
    bad.write_bytes(b"0\t.\tACGT\tA\n1\t.\tAC\xffT\tA\n")
    assert main(["solve", "--in", str(bad), "--probes", "kmer:3"]) == 2
    assert capsys.readouterr().err == (
        "snpmux: error: line 2: cannot decode byte 0xff as utf-8: invalid start byte\n")
    table = tmp_path / "snps.tsv"
    table.write_bytes(b"rs1\tACGTACGTAC\tAG\tTTTTGGGGCC\r\nrs2\tAC\xc3GT\tCT\tGGGG\n")
    assert main(["ingest", "--in", str(table), "--primer-length", "4"]) == 2
    assert capsys.readouterr().err.startswith("snpmux: error: line 2: cannot decode byte 0xc3")
    design = tmp_path / "design.txt"
    design.write_bytes(b"# probes=kmer:3\r# redundancy=1\r\xfe\n")
    assert main(["verify", "--in", str(design), "--instance", str(inst)]) == 2
    assert capsys.readouterr().err.startswith("snpmux: error: line 3: cannot decode byte 0xfe")
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(b"0\t1\n" * 5000 + b"1\t\x80\n")
    assert main(["reduce", "--in", str(edges), "--probes-out", str(tmp_path / "p.txt")]) == 2
    assert capsys.readouterr().err.startswith("snpmux: error: line 5001: cannot decode byte 0x80")
    # a probe list names the file line of a bad byte and of a bad probe
    probes = tmp_path / "probes.txt"
    probes.write_bytes(b"# probes\nACGT\n\xff\nGQ\n")
    assert main(["probes", "--probes", "list:%s" % probes]) == 2
    assert capsys.readouterr().err.startswith("snpmux: error: line 3: cannot decode byte 0xff")
    probes.write_bytes(b"# probes\nACGT\n\nGQ\n")
    assert main(["probes", "--probes", "list:%s" % probes]) == 2
    assert capsys.readouterr().err == (
        "snpmux: error: line 4: invalid character 'Q' at position 1 in probe 'GQ'\n")
    # a bad manifest value is reported at its line; an override as it is
    for manifest, err in (
            ("# probes=kmer:3\n# redundancy=abc\n", "line 2: redundancy must be an integer"
             " >= 1, got 'abc'"),
            ("# redundancy=1\n\n# probes=kmer:99\n", "line 3: k must be in [1, 16], got 99"),
            ("# redundancy=1\n# probes=\n", "line 2: probe space descriptor must look like"
             " kind:arg, got ''"),
            ("# probes=kmer:3\n# redundancy=0\n", "line 2: redundancy must be an integer"
             " >= 1, got '0'")):
        design.write_text(manifest + "0\t0\t3\n")
        assert main(["verify", "--in", str(design), "--instance", str(inst)]) == 2
        assert capsys.readouterr().err == "snpmux: error: %s\n" % err
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--probes", "kmer:99"]) == 2
    assert capsys.readouterr().err == "snpmux: error: k must be in [1, 16], got 99\n"
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--redundancy", "0"]) == 2
    assert capsys.readouterr().err == (
        "snpmux: error: redundancy must be an integer >= 1, got 0\n")
    # a bad value in a record names its line; a bad option value is reported as it is
    table.write_text("rs1\tACGTACGTAC\tAG\tTTTTGGGGCC\n\tACGTACGTAC\tAG\tTTTTGGGGCC\n")
    bad.write_text("0\t.\tACGT\tA\n-1\t.\tACGT\tA\n")
    design.write_text("# probes=kmer:3\n# redundancy=1\n-1\t0\t1,2\n")
    for argv, err in (
            (["ingest", "--in", str(table), "--primer-length", "4"], "line 2: empty SNP id"),
            (["ingest", "--in", str(table), "--primer-length", "0"],
             "primer_length must be >= 1, got 0"),
            (["gen", "--pools", "2", "--seed", "-1"], "rng_seed must fit in 64 bits, got -1"),
            (["solve", "--in", str(bad), "--probes", "kmer:3"],
             "line 2: pool id must be non-negative, got -1"),
            (["verify", "--in", str(design), "--instance", str(inst)],
             "line 3: pool id must be non-negative, got -1")):
        assert main(argv) == 2
        assert capsys.readouterr().err == "snpmux: error: %s\n" % err


_SMALL_INT = st.integers(-1, 8).map(str)
_DESIGN_LINE = st.one_of(
    st.text(max_size=30),
    st.tuples(_SMALL_INT, _SMALL_INT,
              st.lists(st.integers(-1, 70).map(str), max_size=3).map(",".join))
    .map("\t".join),
    st.lists(st.one_of(_SMALL_INT, st.text(max_size=4)), min_size=1, max_size=4)
    .map("\t".join),
    st.tuples(st.sampled_from(["probes", "redundancy", "instance_sha256"]),
              st.sampled_from(["kmer:3", "kmer:0", "wat", "1", "2", "0", "-1", "x", ""]))
    .map(lambda kv: "# %s=%s" % kv),
    st.sampled_from(["# probes=kmer:3", "# probes=kmer:99", "# redundancy=x", "# redundancy=0"]),
)
_NO_SETTING = ("snpmux: error: no probe space: pass --probes or use a report with a manifest\n",
               "snpmux: error: no redundancy: pass --redundancy or use a report with a manifest\n")


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_DESIGN_LINE, max_size=8), override=st.booleans())
def test_verify_never_raises_on_arbitrary_design_text(tmp_path, capsys, lines, override):
    inst = tmp_path / "inst.txt"
    if not inst.exists():
        main(["gen", "--pools", "6", "--primer-length", "7", "--seed", "2", "--out", str(inst)])
    design = tmp_path / "design.txt"
    design.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["verify", "--in", str(design), "--instance", str(inst),
            "--out", str(tmp_path / "verify.txt")]
    if override:
        argv += ["--probes", "kmer:3", "--redundancy", "1"]
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if code == 2 and not override and err in _NO_SETTING:
        return
    _assert_clean_exit(code, err, design.read_bytes(), ok=(0, 1))


def _line_count(data):
    """Lines of data as a universal-newline reader sees them."""
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    return len(lines) - (lines[-1] == b"")


def _assert_clean_exit(code, err, data, ok=(0,)):
    """An exit code in ok, or exit 2 with exactly one error line that names
    a line of data."""
    assert code in ok + (2,)
    if code == 2:
        match = re.fullmatch(r"snpmux: error: line (\d+): [^\n]*\n", err)
        assert match, err
        assert 1 <= int(match.group(1)) <= _line_count(data)


_FIELD = st.one_of(
    st.text(max_size=6),
    st.text("ACGTNacgt", max_size=12),
    st.sampled_from(["0", "1", "2", "-1", "+", "-", ".", "AG", "ACGT", "x"]),
)
_PRIMER_LINE = st.tuples(
    st.sampled_from(["0", "1", "2"]), st.sampled_from(["+", "-", "."]),
    st.text("ACGT", min_size=1, max_size=12), st.sampled_from(["A", "AG", "ACGT"]),
).map("\t".join)
_LINE = st.one_of(st.text(max_size=20), st.lists(_FIELD, min_size=1, max_size=5).map("\t".join),
                  _PRIMER_LINE)
# "\n" half the time; the rest are the other line breaks of str.splitlines
_SEPARATOR = st.one_of(st.just("\n"), st.sampled_from(
    ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]))
_TEXT_BYTES = st.one_of(
    st.lists(st.tuples(_LINE, _SEPARATOR), max_size=8),
    st.lists(st.tuples(_PRIMER_LINE, st.just("\n")), max_size=8),
).map(lambda parts: "".join(a + b for a, b in parts).encode("utf-8"))
_DATA = st.one_of(_TEXT_BYTES, st.binary(max_size=60),
                  st.tuples(_TEXT_BYTES, st.binary(min_size=1, max_size=3), _TEXT_BYTES)
                  .map(b"".join))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_DATA)
def test_solve_exits_cleanly_on_arbitrary_instance_bytes(tmp_path, capsys, data):
    inst = tmp_path / "inst.txt"
    inst.write_bytes(data)
    capsys.readouterr()
    code = main(["solve", "--in", str(inst), "--probes", "kmer:3",
                 "--out", str(tmp_path / "design.txt")])
    _assert_clean_exit(code, capsys.readouterr().err, data)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_DATA)
def test_ingest_exits_cleanly_on_arbitrary_snp_table_bytes(tmp_path, capsys, data):
    table = tmp_path / "snps.tsv"
    table.write_bytes(data)
    capsys.readouterr()
    code = main(["ingest", "--in", str(table), "--primer-length", "3",
                 "--skipped", str(tmp_path / "skipped.txt"), "--out", str(tmp_path / "inst.txt")])
    _assert_clean_exit(code, capsys.readouterr().err, data)


_PROBE_LINE = st.one_of(st.text("ACGTacgtN", min_size=1, max_size=6),
                       st.sampled_from(["", "# probes", "  ", "AC", "ac", "GQ"]))
_PROBE_DATA = st.one_of(
    st.lists(st.tuples(_PROBE_LINE, _SEPARATOR), max_size=8)
    .map(lambda parts: "".join(a + b for a, b in parts).encode("utf-8")),
    _DATA,
)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_PROBE_DATA)
def test_probes_exits_cleanly_on_arbitrary_probe_list_bytes(tmp_path, capsys, data):
    probes = tmp_path / "probes.txt"
    probes.write_bytes(data)
    capsys.readouterr()
    code = main(["probes", "--probes", "list:%s" % probes, "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    if err == "snpmux: error: probe list is empty\n":
        lines = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert all(not l.strip() or l.strip().startswith("#") for l in lines)
        assert code == 2
        return
    _assert_clean_exit(code, err, data)


def test_partition_report_structure(tmp_path):
    inst = tmp_path / "inst.txt"
    out = tmp_path / "part.txt"
    main(["gen", "--pools", "40", "--primer-length", "8", "--seed", "11", "--out", str(inst)])
    assert main(["partition", "--in", str(inst), "--probes", "kmer:4",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "# arrays=" in text
    assert "# array\t1\t" in text
    assert "# coverage" in text
    fractions = [float(l.split("\t")[1]) for l in text.splitlines()
                 if l and not l.startswith("#") and len(l.split("\t")) == 2]
    assert fractions == sorted(fractions)
    assert fractions[-1] <= 1.0


def test_partition_report_lists_uncovered_and_remaining_pools(tmp_path):
    # under kmer:2 at r=2, AAAA has one spectrum probe and is undecodable
    # alone; each other primer appears twice, so one array takes one copy
    inst = tmp_path / "inst.txt"
    out = tmp_path / "part.txt"
    seqs = ["AAAA", "ACGT", "ACGT", "CAGT", "CAGT", "GATC", "GATC"]
    inst.write_text("".join("%d\t.\t%s\t%s\n" % (pid, seq, "C" if pid == 0 else "A")
                            for pid, seq in enumerate(seqs)))
    assert main(["partition", "--in", str(inst), "--probes", "kmer:2", "--redundancy", "2",
                 "--max-arrays", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    manifest = dict(re.fullmatch(r"# (\w+)=(.*)", l).groups() for l in lines
                    if re.fullmatch(r"# \w+=.*", l))
    sections, name = {}, None
    for line in lines[next(i for i, l in enumerate(lines) if l.startswith("# array\t")):]:
        if line.startswith("# "):
            name = line[2:].split("\t")[0]
            sections[name] = []
        else:
            sections[name].append(line)
    assert list(sections) == ["array", "coverage", "uncovered", "remaining"]
    arrayed = [int(l.split("\t")[0]) for l in sections["array"]]
    assert sections["uncovered"] == ["0"]
    assert sections["remaining"] == [str(pid) for pid in range(1, 7) if pid not in arrayed]
    assert manifest["arrays"] == "1" == str(sum(l.startswith("# array\t") for l in lines))
    assert manifest["uncovered"] == str(len(sections["uncovered"]))
    assert manifest["remaining"] == str(len(sections["remaining"]))
    assert len(sections["remaining"]) == 4


def test_ingest_writes_instance_and_skips(tmp_path, capsys):
    table = tmp_path / "snps.tsv"
    table.write_text(
        "id\tleft_flank\talleles\tright_flank\n"
        "rs1\tACGTACGTAC\tAG\tTTTTGGGGCC\n"
        "rs2\tACGT\tCT\tGGGGCCCCAA\n"
    )
    inst = tmp_path / "inst.txt"
    skipped = tmp_path / "skipped.txt"
    assert main(["ingest", "--in", str(table), "--primer-length", "8",
                 "--out", str(inst), "--skipped", str(skipped)]) == 0
    assert len(_data_lines(inst)) == 2  # one pool, two primers
    assert _data_lines(skipped) == ["rs2\tflank too short"]
    # without --skipped the skipped records go to stderr, one line each
    capsys.readouterr()
    assert main(["ingest", "--in", str(table), "--primer-length", "8",
                 "--out", str(tmp_path / "inst2.txt")]) == 0
    assert capsys.readouterr().err == "skipped: rs2: flank too short\n"
    # the instance solves end to end
    assert main(["solve", "--in", str(inst), "--probes", "kmer:4",
                 "--out", str(tmp_path / "d.txt")]) == 0


def test_reduce_pipeline_matches_mim(tmp_path):
    from reference import brute_force_mim
    from snpmux.oracles import BipartiteGraph

    edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("".join("%d\t%d\n" % e for e in edges))
    inst = tmp_path / "inst.txt"
    probes = tmp_path / "probes.txt"
    design = tmp_path / "design.txt"
    assert main(["reduce", "--in", str(edge_file), "--probes-out", str(probes),
                 "--out", str(inst)]) == 0
    assert main(["solve", "--in", str(inst), "--probes", "list:%s" % probes,
                 "--out", str(design)]) == 0
    mim = brute_force_mim(BipartiteGraph(n_left=3, n_right=3, edges=tuple(edges)))
    assert len(_data_lines(design)) <= mim
    assert main(["verify", "--in", str(design), "--instance", str(inst),
                 "--out", str(tmp_path / "v.txt")]) == 0


def test_reduce_rejects_bad_edges(tmp_path, capsys):
    edge_file = tmp_path / "edges.tsv"
    argv = ["reduce", "--in", str(edge_file), "--probes-out", str(tmp_path / "p.txt"),
            "--out", str(tmp_path / "i.txt")]
    for text, err in (
            ("0\tx\n", "line 1: vertex indices must be integers"),
            ("", "edge list is empty"),
            ("0\t0\n-1\t1\n", "line 2: edge (-1, 1) out of range: with 2 edge(s) an index"
             " must lie in 0..1"),
            ("0\t1\n1\t0\n0\t0\n1\t0\n", "line 4: duplicate edge (1, 0) (first on line 2)"),
            ("0\t0\n0\t1\n1\t2\n0\t2\n# fourth\n0\t3\n",
             "line 6: left vertex 0 has degree 4; need 1-3"),
            # a gap within range is a whole-file error
            ("0\t0\n0\t2\n1\t2\n", "right vertex 1 is isolated")):
        edge_file.write_text(text)
        assert main(argv) == 2
        assert capsys.readouterr().err == "snpmux: error: %s\n" % err
    # an index far beyond the edge count is refused before any table it sizes
    edge_file.write_text("0\t0\n1\t20000000\n")
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("snpmux: error: line 2: edge (1, 20000000)")
    assert peak < 1 << 20


_INDEX = st.one_of(st.integers(0, 4), st.integers(-3, 10**6 - 1)).map(str)
_EDGE_DATA = st.one_of(
    st.lists(st.tuples(st.tuples(_INDEX, _INDEX).map("\t".join), st.just("\n")), max_size=8),
    st.lists(st.tuples(st.one_of(st.tuples(_INDEX, _INDEX).map("\t".join), _LINE), _SEPARATOR),
             max_size=8),
).map(lambda parts: "".join(a + b for a, b in parts).encode("utf-8"))
_REDUCE_WHOLE_FILE = re.compile(r"snpmux: error: (edge list is empty|right vertex \d+ is isolated"
                                r"|left vertex \d+ has degree 0; need 1-3)\n")


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(_EDGE_DATA, _DATA))
def test_reduce_exits_cleanly_on_arbitrary_edge_bytes(tmp_path, capsys, data):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(data)
    capsys.readouterr()
    code = main(["reduce", "--in", str(edges), "--probes-out", str(tmp_path / "p.txt"),
                 "--out", str(tmp_path / "i.txt")])
    err = capsys.readouterr().err
    if code == 2 and _REDUCE_WHOLE_FILE.fullmatch(err):
        return
    _assert_clean_exit(code, err, data)


# CRLF and lone-CR line ends, a form feed inside a comment (not a line end
# here, though str.splitlines takes it for one), a whitespace-only line,
# then a record with one field too many on line 5
_AWKWARD = "# page one\x0cpage two\r\n%s\r \t \r\n%s\n%s\t9\r\n"


@pytest.mark.parametrize("subcommand, good, bad", [
    ("solve", ("0\t+\tACGTAC\tA", "1\t.\tGGTTAC\tAG"), "2\t.\tGGTTAC\tAG"),
    ("verify", ("0\t0\t1,2", "1\t0\t3"), "2\t0\t4"),
    ("probes", ("ACG", "TTG"), "GGA"),
    ("reduce", ("0\t0", "1\t1"), "1\t0"),
    ("ingest", ("rs1\tACGTA\tAG\tCCGTA", "rs2\tACGTA\tAG\t"), "rs3\tACG\tCT\tTTT"),
])
def test_every_reader_names_the_line_of_a_bad_record(tmp_path, capsys, subcommand, good, bad):
    path = tmp_path / "input.txt"
    path.write_bytes((_AWKWARD % (good + (bad,))).encode("utf-8"))
    inst = tmp_path / "inst.txt"
    main(["gen", "--pools", "4", "--primer-length", "6", "--seed", "1", "--out", str(inst)])
    argv = {
        "solve": ["solve", "--in", str(path), "--probes", "kmer:3"],
        "verify": ["verify", "--in", str(path), "--instance", str(inst),
                   "--probes", "kmer:3", "--redundancy", "1"],
        "probes": ["probes", "--probes", "list:%s" % path],
        "reduce": ["reduce", "--in", str(path), "--probes-out", str(tmp_path / "p.txt")],
        "ingest": ["ingest", "--in", str(path), "--primer-length", "4"],
    }[subcommand]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("snpmux: error: line 5: ") and err.count("\n") == 1, err


def test_bench_grid_shape(tmp_path):
    out = tmp_path / "bench.txt"
    assert main(["bench", "--pools", "8,16", "--redundancy", "1,2",
                 "--probes", "kmer:4,kmer:5", "--algorithm", "seq,minprobe",
                 "--replicates", "2", "--primer-length", "8",
                 "--seed", "2", "--out", str(out)]) == 0
    lines = _data_lines(out)
    assert lines[0] == "r\tpools\talgorithm\tkmer:4\tkmer:5"
    assert len(lines) == 1 + 2 * 2 * 2  # header + r x pools x algorithm
    for row in lines[1:]:
        fields = row.split("\t")
        assert len(fields) == 5
        float(fields[3]), float(fields[4])
    assert main(["bench", "--pools", "4", "--redundancy", "1",
                 "--probes", "kmer:4", "--algorithm", "wat"]) == 2


def test_bench_checks_its_grid_before_generating(capsys):
    # a bad value stops the run before any replicate is generated or solved
    argv = ["bench", "--probes", "kmer:5", "--primer-length", "10", "--replicates", "1"]
    for grid, err in (
            (["--pools", "20", "--redundancy", "1,0", "--algorithm", "seq"],
             "redundancy must be an integer >= 1, got '0'"),
            (["--pools", "20", "--redundancy", "1", "--algorithm", "seq,bogus"],
             "algorithm must be one of ('seq', 'minprimer', 'minprobe'), got 'bogus'"),
            (["--pools", "20,-1", "--redundancy", "1", "--algorithm", "seq"],
             "n_pools must be >= 0, got -1"),
            (["--pools", "20,x", "--redundancy", "1", "--algorithm", "seq"],
             "expected a comma-separated integer list, got '20,x'")):
        capsys.readouterr()
        assert main(argv + grid) == 2
        assert capsys.readouterr().err == "snpmux: error: %s\n" % err
