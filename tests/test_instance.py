import itertools
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpmux.datasets import RandomSpec, generate_random
from snpmux.instance import (
    InstanceFormatError,
    Pool,
    Primer,
    ProblemInstance,
    _extension_set,
    format_instance_text,
    parse_instance_text,
    records,
)
from snpmux.probespace import CTokenSpace, ExplicitSpace, KmerSpace
from snpmux.solvers import build_graph


def _pool(pid, *primers):
    return Pool(pid, tuple(primers))


def test_primer_normalizes_and_sorts_extensions():
    p = Primer("acgt", "ta", "+")
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
    a = Primer("ACGT", "A", "+")
    b = Primer("TTTT", "C", "-")
    assert len(_pool(0, a, b).primers) == 2
    with pytest.raises(ValueError):
        _pool(0)  # empty
    with pytest.raises(ValueError):
        _pool(0, a, a)  # duplicate strand tag
    # the pool owns its id: a primer carries none to match
    assert _pool(3, Primer("ACGTACGT", "A")).id == 3
    c = Primer("GGGG", "T", "+")
    with pytest.raises(ValueError):
        _pool(0, a, c)  # two primers on the same strand


def test_instance_sorts_pools_and_rejects_duplicates():
    pools = [
        _pool(1, Primer("AAAA", "C", ".")),
        _pool(0, Primer("CCCC", "A", ".")),
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
    with pytest.raises(InstanceFormatError, match="line 2: .*expected pool id 1, got 2"):
        parse_instance_text("0\t.\tACGT\tA\n2\t.\tCCCC\tA\n")
    # only "\n" ends a line: a form feed inside a comment is comment text
    with pytest.raises(InstanceFormatError, match="line 3: .*invalid character 'Q'"):
        parse_instance_text("0\t.\tACGT\tA\n# note\x0cwith a form feed\n1\t.\tACQT\tA\n")


def _ref_normalize(text, what):
    seq = text.strip().upper()
    for i, c in enumerate(seq):
        if c not in "ACGT":
            raise ValueError(
                "invalid character %r at position %d in %s %r" % (c, i, what, text))
    return seq


def _ref_primer(seq, ext, strand):
    seq_n = _ref_normalize(seq, "primer sequence")
    if not seq_n:
        raise ValueError("primer sequence is empty")
    ext_n = _ref_normalize(ext, "extension set")
    if not 1 <= len(ext_n) <= 4:
        raise ValueError("extension set must have 1-4 bases, got %r" % (ext,))
    if len(set(ext_n)) != len(ext_n):
        raise ValueError("duplicate extension base in %r" % (ext,))
    if strand not in ("+", "-", "."):
        raise ValueError("strand must be one of + - . , got %r" % (strand,))
    return strand, seq_n, "".join(sorted(ext_n))


def _ref_parse(text):
    """The parse, Primer and Pool checks as they stood before primer lines
    were checked through a cached helper: [(pool id, ((strand, sequence,
    extensions), ...)), ...]."""
    by_pool = {}
    for line_no, (pid_text, strand, seq, ext) in records(text, 4):
        try:
            pool_id = int(pid_text)
        except ValueError:
            raise InstanceFormatError("pool id %r is not an integer" % pid_text, line_no)
        try:
            primer = _ref_primer(seq, ext, strand)
        except ValueError as exc:
            raise InstanceFormatError(str(exc), line_no)
        by_pool.setdefault(pool_id, []).append((line_no, primer))
    pools = []
    for pos, pool_id in enumerate(sorted(by_pool)):
        entries = by_pool[pool_id]
        primers = tuple(p for _, p in entries)
        strands = [p[0] for p in primers]
        if pool_id < 0:
            message = "pool id must be non-negative, got %r" % (pool_id,)
        elif not 1 <= len(primers) <= 2:
            message = "pool %d must hold 1 or 2 primers, got %d" % (pool_id, len(primers))
        elif len(set(strands)) != len(strands):
            message = "pool %d has two primers with strand tag %r" % (pool_id, strands[0])
        elif pool_id != pos:
            message = "pool ids must be dense 0..%d: expected pool id %d, got %d" % (
                len(by_pool) - 1, pos, pool_id)
        else:
            pools.append((pool_id, primers))
            continue
        raise InstanceFormatError(message, entries[0][0])
    return pools


def _parse_outcome(parse, text):
    try:
        pools = parse(text)
    except InstanceFormatError as exc:
        return str(exc), exc.line_no
    if parse is _ref_parse:
        return pools
    assert all(type(pl.primers) is tuple for pl in pools)
    return [(pl.id, tuple((p.strand, p.sequence, p.extensions) for p in pl.primers))
            for pl in pools]


_EXTENSION_SETS = ["".join(c) for n in range(1, 5) for c in itertools.combinations("ACGT", n)]


_HARMLESS = ["lower", "space", "permute"]
_POOL_LEVEL = _HARMLESS + ["pid-negative", "pid-other", "copy", "twin"]
_ANY_LEVEL = _POOL_LEVEL + ["repeat", "five", "empty", "bad-base", "strand", "pid-text"]


def _mutate(draw, kinds, fields, n_pools):
    """Apply one drawn mutation to a line's [pool id, strand, sequence,
    extensions]; a returned list is an extra line to add."""
    kind = draw(st.sampled_from(kinds))
    if kind == "lower":
        i = draw(st.sampled_from([2, 3]))
        fields[i] = "".join(c.lower() if draw(st.booleans()) else c for c in fields[i])
    elif kind == "space":
        i = draw(st.integers(0, 3))
        fields[i] = draw(st.text(" ", max_size=2)) + fields[i] + draw(st.text(" ", max_size=2))
    elif kind == "permute":
        fields[3] = "".join(draw(st.permutations(fields[3])))
    elif kind == "repeat":
        fields[3] += draw(st.sampled_from(fields[3].strip() or "A"))
    elif kind == "five":
        fields[3] = draw(st.text("ACGTacgt", min_size=5, max_size=6))
    elif kind == "empty":
        fields[2] = draw(st.text(" ", max_size=1))
    elif kind == "bad-base":
        i = draw(st.sampled_from([2, 3]))
        at = draw(st.integers(0, len(fields[i])))
        fields[i] = fields[i][:at] + draw(st.sampled_from("NRYnx!U-")) + fields[i][at:]
    elif kind == "strand":
        fields[1] = draw(st.sampled_from(["x", "+-", "*", "0", "", "..", "\u2212"]))
    elif kind == "pid-text":
        fields[0] = draw(st.sampled_from(["a", "1.5", "", "0x1", "one"]))
    elif kind == "pid-negative":
        fields[0] = "-%d" % draw(st.integers(1, 3))
    elif kind == "pid-other":
        fields[0] = str(draw(st.integers(0, n_pools + 1)))
    else:
        copy = list(fields)
        if kind == "copy":
            copy[1] = draw(st.sampled_from("+-."))
        return copy
    return None


@st.composite
def _instance_texts(draw):
    n_pools = draw(st.integers(1, 4))
    lines = []
    for pid in range(n_pools):
        for strand in draw(st.sampled_from([".", "+", "-", "+-", "-+"])):
            lines.append([str(pid), strand, draw(st.text("ACGT", min_size=1, max_size=6)),
                          draw(st.sampled_from(_EXTENSION_SETS))])
    # a bad field stops the parse before any pool is checked, so some
    # texts keep every field good
    kinds = draw(st.sampled_from([_POOL_LEVEL, _ANY_LEVEL]))
    extra = []
    for fields in lines:
        for _ in range(draw(st.integers(0, 3) if draw(st.booleans()) else st.just(0))):
            added = _mutate(draw, kinds, fields, n_pools)
            if added is not None:
                extra.append(added)
    lines = draw(st.permutations(lines + extra))
    return "".join("\t".join(fields) + "\n" for fields in lines)


@settings(max_examples=400, deadline=None, database=None)
@given(text=_instance_texts())
def test_parse_matches_the_reference_parser(text):
    # equal pools, or the same message on the same line
    assert _parse_outcome(parse_instance_text, text) == _parse_outcome(_ref_parse, text)


def test_extension_sets_are_checked_once_and_never_cache_an_error():
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate extension base in 'AA'"):
            Primer("ACGT", "AA")
    p = Primer("acgt", " ta ")
    assert (p.sequence, p.extensions) == ("ACGT", "AT")
    # every primer given one extension text shares its stored string
    assert Primer("GG", " ta ").extensions is p.extensions
    before = _extension_set.cache_info()
    for ext in itertools.islice(map("".join, itertools.product("ACGT", repeat=5)), 1000):
        with pytest.raises(ValueError, match="1-4 bases"):
            Primer("ACGT", ext)
    after = _extension_set.cache_info()
    assert after.currsize == before.currsize <= after.maxsize


_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_FIELD = st.text(alphabet=_SPACES + "AC#", max_size=4)


def _assert_records_strip_as_every_field_stripped(text):
    expected = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            expected.append((line_no, [field.strip() for field in raw.split("\t")]))
    got = []
    try:
        for record in records(text, 3):
            got.append(record)
    except InstanceFormatError as exc:
        wrong = next(i for i, (_, fields) in enumerate(expected) if len(fields) != 3)
        assert exc.line_no == expected[wrong][0]
        expected = expected[:wrong]
    assert got == expected


@settings(max_examples=300, deadline=None, database=None)
@given(lines=st.lists(st.one_of(st.lists(_FIELD, min_size=3, max_size=3),
                                st.lists(_FIELD, min_size=1, max_size=4)).map("\t".join),
                      max_size=6))
def test_records_strips_fields_as_stripping_every_field_does(lines):
    _assert_records_strip_as_every_field_stripped("\n".join(lines))


def test_records_strips_every_space_character():
    # each str.isspace() character beside tabs, between them, and at line ends
    for c in _SPACES:
        _assert_records_strip_as_every_field_stripped("A%s\t%s\t%sC\n" % (c, c, c))
        _assert_records_strip_as_every_field_stripped("%sA\tC\tA%s\n" % (c, c))


def test_parse_requires_dense_ids():
    # the first line of the first pool out of sequence is reported
    text = "3\t.\tACGT\tA\n0\t.\tACGT\tA\n# gap\n2\t+\tCCCC\tA\n2\t-\tGGGG\tA\n"
    with pytest.raises(InstanceFormatError, match="line 4: .*dense.*expected pool id 1, got 2"):
        parse_instance_text(text)
    pools = parse_instance_text(text.replace("3\t", "1\t"))
    assert [pl.id for pl in pools] == [0, 1, 2]


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
        _pool(0, Primer("ACG", "T", ".")),
        _pool(1, Primer("CGT", "A", ".")),
    ]
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    g = build_graph(inst)
    assert g.n_primers == 2
    assert g.probe_ids.tolist() == [1, 6, 11, 12]
    # probes follow the primers: ids 1, 6, 11, 12 are vertices 2..5
    # primer 0: N+ = probes 6,11 -> vertices 3,4; N- = probe 1 -> vertex 2
    assert g.row(0).tolist() == [3, 4]
    assert g.row(0, minus=True).tolist() == [2]
    assert (g.d_plus[0], g.d_total[0]) == (2, 3)
    # primer 1: N+ = probes 1,6 -> vertices 2,3; N- = probe 12 -> vertex 5
    assert g.pn_plus == [(3, 4), (2, 3)]
    assert g.pn_minus == [(2,), (5,)]
    # probe CG (id 6, vertex 3) is reached unextended by both primers
    assert g.row(3).tolist() == [0, 1]
    assert (g.d_plus[3], g.d_total[3]) == (2, 2)
    # probe AC (id 1, vertex 2): unextended by primer 1, extended by primer 0
    assert (g.row(2).tolist(), g.row(2, minus=True).tolist()) == ([1], [0])
    assert (g.d_plus[2], g.d_total[2]) == (1, 2)
    assert bytes(g.alive) == b"\x01" * 6
    assert g.live_primers == 2
    assert g.pruned_empty == 0


def test_graph_prunes_empty_spectrum_primers():
    # a primer shorter than k has an empty spectrum and can never be
    # certified, so the graph drops it up front
    pools = [
        _pool(0, Primer("A", "C", ".")),
        _pool(1, Primer("ACGT", "A", ".")),
    ]
    inst = ProblemInstance(pools, KmerSpace(3), 1)
    g = build_graph(inst)
    assert g.pruned_empty == 1
    assert g.alive[0] == 0
    assert g.alive[1] == 1
    assert g.live_primers == 1
    # the pruned primer contributes no edges at all
    assert g.row(0).tolist() == []
    assert g.row(0, minus=True).tolist() == []
    assert (g.d_plus[0], g.d_total[0]) == (0, 0)
    assert all(0 not in g.row(v) + g.row(v, minus=True) for v in range(2, len(g.alive)))


def test_graph_is_deterministic():
    text = "0\t+\tACGTACGT\tAG\n1\t.\tGGCCTTAA\tACGT\n2\t-\tACACACAC\tC\n"
    pools = parse_instance_text(text)
    inst = ProblemInstance(pools, KmerSpace(3), 1)
    g1 = build_graph(inst)
    g2 = build_graph(inst)
    assert g1.probe_ids == g2.probe_ids
    for minus in (False, True):
        assert [g1.row(u, minus) for u in range(len(g1.alive))] == [
            g2.row(u, minus) for u in range(len(g2.alive))]
    assert (g1.d_plus, g1.d_total) == (g2.d_plus, g2.d_total)


def _naive_graph(inst):
    """Rows straight from primer_adjacency: (probe ids, plus rows, minus rows)."""
    primers = [p for pool in inst.pools for p in pool.primers]
    adj = [inst.space.primer_adjacency(p.sequence, p.extensions) for p in primers]
    adj = [(plus, minus) if plus else ((), ()) for plus, minus in adj]
    ids = sorted({x for plus, minus in adj for x in plus + minus})
    n = len(primers)
    vertex = {x: n + j for j, x in enumerate(ids)}
    rows = []
    for side in (0, 1):
        side_rows = [[vertex[x] for x in pair[side]] for pair in adj] + [[] for _ in ids]
        for u in range(n):
            for v in side_rows[u]:
                side_rows[v].append(u)
        rows.append(side_rows)
    return ids, rows[0], rows[1]


def _random_graph_instance(rng, space, max_len):
    pools = []
    for pid in range(rng.randint(1, 8)):
        primers = []
        for j in range(rng.randint(1, 2)):
            # lengths from 1 give some primers an empty spectrum
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, max_len)))
            ext = "".join(rng.sample("ACGT", rng.randint(1, 4)))
            primers.append(Primer(seq, ext, "+-"[j]))
        pools.append(_pool(pid, *primers))
    return ProblemInstance(pools, space, rng.randint(1, 2))


def test_graph_matches_naive_adjacency():
    rng = random.Random(89)
    spaces = [KmerSpace(k) for k in (1, 2, 3, 4)] + [CTokenSpace(c) for c in (2, 3, 4, 5)]
    spaces.append(ExplicitSpace(["AC", "CGT", "GGA", "TTAC", "CA", "ATG", "GT"]))
    pruned_seen = 0
    for space in spaces:
        for _ in range(12):
            inst = _random_graph_instance(rng, space, 9)
            g = build_graph(inst)
            ids, plus, minus = _naive_graph(inst)
            n, size = g.n_primers, len(g.alive)
            assert g.probe_ids.tolist() == ids
            assert size == n + len(ids) == len(g.d_plus) == len(g.d_total)
            assert [g.row(u).tolist() for u in range(size)] == plus
            assert [g.row(u, minus=True).tolist() for u in range(size)] == minus
            for minus_side in (False, True):
                rows = [g.row(u, minus_side).tolist() for u in range(size)]
                assert all(a < b for row in rows for a, b in zip(row, row[1:]))
                primer_edges = {(u, v) for u in range(n) for v in rows[u]}
                probe_edges = {(u, v) for v in range(n, size) for u in rows[v]}
                assert primer_edges == probe_edges
                assert all(v >= n for u in range(n) for v in rows[u])
            assert g.d_plus == [len(row) for row in plus]
            assert g.d_total == [len(a) + len(b) for a, b in zip(plus, minus)]
            empty = [u for u in range(n) if not plus[u]]
            assert g.pruned_empty == len(empty)
            assert g.live_primers == n - len(empty)
            assert [u for u in range(size) if not g.alive[u]] == empty
            assert g.pn_plus == [tuple(row) for row in plus[:n]]
            assert g.pn_minus == [tuple(row) for row in minus[:n]]
            pruned_seen += len(empty)
    assert pruned_seen


def test_graph_memory_per_edge_is_bounded():
    # on this instance the graph kept 188 bytes per edge with a Python
    # list or tuple per vertex and keeps 36.8 with flat arrays
    pools = generate_random(RandomSpec(2000, 2, 20, "all4", 97))
    inst = ProblemInstance(pools, KmerSpace(8), 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = build_graph(inst)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    edges = sum(map(len, g.pn_plus)) + sum(map(len, g.pn_minus))
    assert edges > 60000
    assert kept / edges < 55
