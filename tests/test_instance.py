import pytest

from snpmux.instance import (
    InstanceFormatError,
    Pool,
    Primer,
    ProblemInstance,
    build_graph,
    format_instance_text,
    parse_instance_text,
)
from snpmux.probespace import KmerSpace


def _pool(pid, *primers):
    return Pool(pid, tuple(primers))


def test_primer_normalizes_and_sorts_extensions():
    p = Primer("acgt", "ta", "+", 3)
    assert p.sequence == "ACGT"
    assert p.extensions == "AT"
    assert p.strand == "+"


def test_primer_validation():
    with pytest.raises(ValueError):
        Primer("ACGT", "")
    with pytest.raises(ValueError):
        Primer("ACGT", "AA")
    with pytest.raises(ValueError):
        Primer("ACGT", "ACGTA")
    with pytest.raises(ValueError):
        Primer("", "A")
    with pytest.raises(ValueError):
        Primer("ACGT", "A", strand="x")
    with pytest.raises(ValueError):
        Primer("ANGT", "A")


def test_pool_validation():
    a = Primer("ACGT", "A", "+", 0)
    b = Primer("TTTT", "C", "-", 0)
    assert len(_pool(0, a, b).primers) == 2
    with pytest.raises(ValueError):
        _pool(0)  # empty
    with pytest.raises(ValueError):
        _pool(0, a, a)  # duplicate strand tag
    with pytest.raises(ValueError):
        _pool(1, a)  # pool_id mismatch
    c = Primer("GGGG", "T", "+", 0)
    with pytest.raises(ValueError):
        _pool(0, a, c)  # two primers on the same strand


def test_instance_sorts_pools_and_rejects_duplicates():
    pools = [
        _pool(1, Primer("AAAA", "C", ".", 1)),
        _pool(0, Primer("CCCC", "A", ".", 0)),
    ]
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    assert [pl.id for pl in inst.pools] == [0, 1]
    assert inst.n_pools == 2
    assert inst.pool_by_id(1).id == 1
    with pytest.raises(KeyError):
        inst.pool_by_id(7)
    with pytest.raises(ValueError):
        ProblemInstance(pools + [pools[0]], KmerSpace(2), 1)
    with pytest.raises(ValueError):
        ProblemInstance(pools, KmerSpace(2), 0)


def test_parse_and_format_roundtrip():
    text = "0\t+\tACGT\tAG\n0\t-\tTTTT\tCT\n1\t.\tCCCC\tACGT\n"
    pools = parse_instance_text(text)
    assert len(pools) == 2
    assert format_instance_text(pools) == text
    # comments and blank lines are ignored
    assert parse_instance_text("# hi\n\n" + text) == pools


def test_parse_reports_line_numbers():
    with pytest.raises(InstanceFormatError, match="line 2"):
        parse_instance_text("0\t.\tACGT\tA\nbroken line\n")
    with pytest.raises(InstanceFormatError, match="line 3"):
        parse_instance_text("# c\n\nx\t.\tACGT\tA\n")
    with pytest.raises(InstanceFormatError, match="line 1"):
        parse_instance_text("0\t.\tACNT\tA\n")
    with pytest.raises(InstanceFormatError, match="line 1"):
        parse_instance_text("0\t?\tACGT\tA\n")


def test_parse_requires_dense_ids():
    text = "0\t.\tACGT\tA\n2\t.\tCCCC\tA\n"
    with pytest.raises(InstanceFormatError, match="dense"):
        parse_instance_text(text)
    pools = parse_instance_text(text, require_dense=False)
    assert [pl.id for pl in pools] == [0, 2]


def test_fingerprint_is_stable_and_order_independent():
    text = "0\t+\tACGT\tAG\n1\t.\tCCCC\tA\n"
    pools = parse_instance_text(text)
    a = ProblemInstance(pools, KmerSpace(2), 1)
    b = ProblemInstance(list(reversed(pools)), KmerSpace(2), 1)
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 64


def test_graph_structure_single_extension():
    # ACG with extension T under 2-mers: spectrum {CG->6, GT->11}, the
    # extension ACGT adds GT whose probe AC has id 1
    pools = [
        _pool(0, Primer("ACG", "T", ".", 0)),
        _pool(1, Primer("CGT", "A", ".", 1)),
    ]
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    g = build_graph(inst)
    assert g.n_primers == 2
    assert g.probe_ids == [1, 6, 11, 12]
    # primer 0: N+ = probes 6,11 -> vertices 1,2; N- = probe 1 -> vertex 0
    assert g.pn_plus[0] == (1, 2)
    assert g.pn_minus[0] == (0,)
    assert g.dp_plus[0] + g.dp_minus[0] == 3
    # probe CG (id 6, vertex 1) is reached unextended by both primers
    assert g.xn_plus[1] == [0, 1]
    assert g.dx_plus[1] == 2
    assert g.dx_plus[1] + g.dx_minus[1] == 2
    assert g.live_primers == 2
    assert g.pruned_empty == 0


def test_graph_prunes_empty_spectrum_primers():
    # a primer shorter than k has an empty spectrum and can never be
    # certified, so the graph drops it up front
    pools = [
        _pool(0, Primer("A", "C", ".", 0)),
        _pool(1, Primer("ACGT", "A", ".", 1)),
    ]
    inst = ProblemInstance(pools, KmerSpace(3), 1)
    g = build_graph(inst)
    assert g.pruned_empty == 1
    assert g.alive_p[0] == 0
    assert g.alive_p[1] == 1
    assert g.live_primers == 1
    # the pruned primer contributes no edges at all
    assert g.pn_plus[0] == ()
    assert g.pn_minus[0] == ()
    assert g.dp_plus[0] + g.dp_minus[0] == 0


def test_graph_is_deterministic():
    text = "0\t+\tACGTACGT\tAG\n1\t.\tGGCCTTAA\tACGT\n2\t-\tACACACAC\tC\n"
    pools = parse_instance_text(text)
    inst = ProblemInstance(pools, KmerSpace(3), 1)
    g1 = build_graph(inst)
    g2 = build_graph(inst)
    assert g1.probe_ids == g2.probe_ids
    assert g1.pn_plus == g2.pn_plus
    assert g1.pn_minus == g2.pn_minus
    assert g1.xn_plus == g2.xn_plus
    assert g1.xn_minus == g2.xn_minus
