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


def test_exit_codes_for_bad_input(tmp_path):
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
)


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(_DESIGN_LINE, max_size=8), override=st.booleans())
def test_verify_never_raises_on_arbitrary_design_text(tmp_path, lines, override):
    inst = tmp_path / "inst.txt"
    if not inst.exists():
        main(["gen", "--pools", "6", "--primer-length", "7", "--seed", "2", "--out", str(inst)])
    design = tmp_path / "design.txt"
    design.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["verify", "--in", str(design), "--instance", str(inst),
            "--out", str(tmp_path / "verify.txt")]
    if override:
        argv += ["--probes", "kmer:3", "--redundancy", "1"]
    assert main(argv) in (0, 1, 2)


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


def test_ingest_writes_instance_and_skips(tmp_path):
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
    # the instance solves end to end
    assert main(["solve", "--in", str(inst), "--probes", "kmer:4",
                 "--out", str(tmp_path / "d.txt")]) == 0


def test_reduce_pipeline_matches_mim(tmp_path):
    from snpmux.oracles import BipartiteGraph, brute_force_mim

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


def test_reduce_rejects_bad_edges(tmp_path):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text("0\tx\n")
    assert main(["reduce", "--in", str(edge_file),
                 "--probes-out", str(tmp_path / "p.txt")]) == 2
    edge_file.write_text("")
    assert main(["reduce", "--in", str(edge_file),
                 "--probes-out", str(tmp_path / "p.txt")]) == 2


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
