import random
import time
from collections import Counter
from itertools import product

import pytest

import snpmux
from snpmux.datasets import RandomSpec, generate_random
from snpmux.decodability import verify_design
from snpmux.dnaseq import reverse_complement
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.oracles import BipartiteGraph, reduce_matching_to_design
from snpmux.probespace import CTokenSpace, KmerSpace
from snpmux.solvers import build_graph

from reference import (
    SizeLimitError,
    brute_force_max_decodable,
    brute_force_mim,
    ref_witnesses,
)


def test_public_api_is_pinned():
    # the exact searches and the reference checker live in tests/reference.py;
    # a name only tests use must not re-enter the package's public API
    assert snpmux.__all__ == [
        "complement", "reverse_complement", "is_degenerate",
        "KmerSpace", "CTokenSpace", "ExplicitSpace", "make_space",
        "Primer", "Pool", "ProblemInstance",
        "DesignResult", "SelectedPool", "verify_design",
        "solve", "partition", "coverage_curve",
        "RandomSpec", "generate_random", "load_snp_table",
        "BipartiteGraph", "reduce_matching_to_design", "__version__",
    ]
    for name in snpmux.__all__:
        assert getattr(snpmux, name) is not None, name


def test_bipartite_graph_validation():
    g = BipartiteGraph(n_left=2, n_right=2, edges=((1, 1), (0, 0)))
    assert g.edges == ((0, 0), (1, 1))
    assert [v for u, v in g.edges if u == 1] == [1]
    with pytest.raises(ValueError):
        BipartiteGraph(n_left=1, n_right=1, edges=((0, 1),))
    with pytest.raises(ValueError):
        BipartiteGraph(n_left=2, n_right=2, edges=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        BipartiteGraph(n_left=-1, n_right=1, edges=())


def test_brute_force_mim_known_graphs():
    single = BipartiteGraph(n_left=1, n_right=1, edges=((0, 0),))
    assert brute_force_mim(single) == 1
    # path on three vertices: both edges share v0
    p3 = BipartiteGraph(n_left=2, n_right=1, edges=((0, 0), (1, 0)))
    assert brute_force_mim(p3) == 1
    # path on four vertices: the middle edge joins the two end edges
    p4 = BipartiteGraph(n_left=2, n_right=2, edges=((0, 0), (1, 0), (1, 1)))
    assert brute_force_mim(p4) == 1
    # path on five vertices: the end edges are far enough apart
    p5 = BipartiteGraph(n_left=3, n_right=2, edges=((0, 0), (1, 0), (1, 1), (2, 1)))
    assert brute_force_mim(p5) == 2
    # star: every edge pair shares the hub
    star = BipartiteGraph(n_left=1, n_right=3, edges=((0, 0), (0, 1), (0, 2)))
    assert brute_force_mim(star) == 1
    # complete bipartite K22: any two edges are joined by a cross edge
    k22 = BipartiteGraph(n_left=2, n_right=2,
                         edges=((0, 0), (0, 1), (1, 0), (1, 1)))
    assert brute_force_mim(k22) == 1
    # six-cycle: opposite edges are independent and non-adjacent
    c6 = BipartiteGraph(n_left=3, n_right=3,
                        edges=((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)))
    assert brute_force_mim(c6) == 2
    # three disjoint edges
    m3 = BipartiteGraph(n_left=3, n_right=3, edges=((0, 0), (1, 1), (2, 2)))
    assert brute_force_mim(m3) == 3
    empty = BipartiteGraph(n_left=2, n_right=2, edges=())
    assert brute_force_mim(empty) == 0


def test_brute_force_mim_size_cap():
    big = BipartiteGraph(n_left=20, n_right=5, edges=((0, 0),))
    with pytest.raises(SizeLimitError):
        brute_force_mim(big)


def _pool(pid, seq, ext):
    return Pool(pid, (Primer(seq, ext, "."),))


def test_brute_force_max_decodable_small():
    space = KmerSpace(2)
    # identical pools: only one can ever be decoded
    twins = ProblemInstance([_pool(0, "AAAA", "C"), _pool(1, "AAAA", "C")], space, 1)
    size, result = brute_force_max_decodable(twins)
    assert size == 1
    assert verify_design(result, twins).ok
    # disjoint pools: both fit
    both = ProblemInstance([_pool(0, "AAAA", "C"), _pool(1, "CCCC", "A")], space, 1)
    size, result = brute_force_max_decodable(both)
    assert size == 2
    assert result.pool_ids() == [0, 1]
    # empty instance
    size, result = brute_force_max_decodable(ProblemInstance([], space, 1))
    assert size == 0 and result.size == 0


def test_brute_force_max_decodable_picks_representatives():
    space = KmerSpace(2)
    # pool 1's first primer collides with pool 0, its second does not
    pools = [
        _pool(0, "AAAA", "C"),
        Pool(1, (Primer("AAAA", "C", "+"), Primer("CCCC", "A", "-"))),
    ]
    inst = ProblemInstance(pools, space, 1)
    size, result = brute_force_max_decodable(inst)
    assert size == 2
    assert result.selected[1].primer_index == 1


def test_brute_force_max_decodable_cap():
    space = KmerSpace(2)
    pools = [_pool(i, "AAAA", "C") for i in range(10)]
    inst = ProblemInstance(pools, space, 1)
    # the cap bounds search nodes: one per pool on the first descent alone
    with pytest.raises(SizeLimitError):
        brute_force_max_decodable(inst, cap=10)
    size, result = brute_force_max_decodable(inst)
    assert size == 1 and verify_design(result, inst).ok
    # one recursion frame per pool: too many pools is a size error too
    many = ProblemInstance([_pool(i, "AAAA", "C") for i in range(5000)], space, 1)
    with pytest.raises(SizeLimitError):
        brute_force_max_decodable(many)


def _max_decodable_reference(inst):
    """The optimum by plain enumeration, sharing no code with the search's
    first_fit branching: every pool is skipped or gets one of its primers,
    and the largest assignment the reference checker accepts wins."""
    best = 0
    for choice in product(*[(None,) + pool.primers for pool in inst.pools]):
        primers = [p for p in choice if p is not None]
        if len(primers) > best and ref_witnesses(primers, inst.redundancy, inst.space)[0]:
            best = len(primers)
    return best


def test_brute_force_max_decodable_matches_enumeration():
    # two-primer pools at r >= 2, where the search's pruning rule matters
    rng = random.Random(97)
    checked, below = 0, 0
    for space in (KmerSpace(2), KmerSpace(3), CTokenSpace(3), CTokenSpace(4)):
        for ext in ("pair", "all4"):
            for r in (1, 2, 3):
                for _ in range(5):
                    spec = RandomSpec(rng.randint(1, 6), 2, rng.randint(5, 8), ext,
                                      rng.getrandbits(32))
                    inst = ProblemInstance(generate_random(spec), space, r)
                    size, result = brute_force_max_decodable(inst)
                    assert size == _max_decodable_reference(inst), (space.descriptor, r, spec)
                    assert result.size == size and verify_design(result, inst).ok
                    checked += 1
                    below += size < spec.n_pools
    print("%d instances, %d with an optimum below the pool count" % (checked, below))
    assert checked >= 100 and below  # some optima leave pools out


def test_reduction_structure():
    graph = BipartiteGraph(n_left=2, n_right=2, edges=((0, 0), (1, 0), (1, 1)))
    inst = reduce_matching_to_design(graph)
    assert {len(p) for p in inst.space.probes()} == {1}  # word length
    assert inst.redundancy == 1
    assert [pl.id for pl in inst.pools] == [0, 1]
    for pool in inst.pools:
        assert len(pool.primers) == 1
        assert pool.primers[0].extensions == "CG"
    # left vertex 1 neighbors both right vertices: words A and T joined by C
    assert inst.pools[1].primers[0].sequence == "ACT"
    assert inst.pools[0].primers[0].sequence == "A"
    # probe ids are the right-vertex indices; probes complement the words
    assert list(inst.space.probes()) == ["T", "A"]
    assert [reverse_complement(p) for p in inst.space.probes()] == ["A", "T"]


def test_reduction_word_length_grows():
    edges = ((0, 0), (0, 1), (0, 2), (1, 3), (1, 4))
    graph = BipartiteGraph(n_left=2, n_right=5, edges=edges)
    inst = reduce_matching_to_design(graph)
    # 5 right vertices need 3 bits
    assert {len(p) for p in inst.space.probes()} == {3}
    for pool, n_words in zip(inst.pools, (3, 2)):
        words = pool.primers[0].sequence.split("C")
        assert len(words) == n_words
        assert all(len(w) == 3 and set(w) <= {"A", "T"} for w in words)


def test_reduction_has_no_extension_only_edges():
    rng = random.Random(83)
    for _ in range(10):
        graph = _random_bipartite(rng)
        g = build_graph(reduce_matching_to_design(graph))
        assert not any(g.row(u, minus=True) for u in range(g.n_primers))
        # every left vertex's spectrum is exactly its neighborhood
        for u in range(graph.n_left):
            nplus = set(g.probe_ids[v - g.n_primers] for v in g.row(u))
            assert nplus == {v for w, v in graph.edges if w == u}


def test_reduction_of_a_long_chain_is_linear():
    # left u meets right u and u + 1; a scan of every edge per left vertex
    # took 14 s at this size
    n = 16000
    graph = BipartiteGraph(n_left=n, n_right=n + 1,
                           edges=tuple((u, u + d) for u in range(n) for d in (0, 1)))
    started = time.perf_counter()
    inst = reduce_matching_to_design(graph)
    assert time.perf_counter() - started < 2.0
    words = [reverse_complement(p) for p in inst.space.probes()]
    for u in (0, 1, 8191, n - 1):
        neighbors = [v for w, v in graph.edges if w == u]
        assert neighbors == [u, u + 1]
        sequence = "C".join(words[v] for v in neighbors)
        assert inst.pools[u].primers[0].sequence == sequence


def test_reduction_degree_validation():
    with pytest.raises(ValueError):
        # left vertex 1 has no edge
        reduce_matching_to_design(BipartiteGraph(n_left=2, n_right=1, edges=((0, 0),)))
    edges = tuple((0, v) for v in range(4))
    with pytest.raises(ValueError):
        # left degree above 3
        reduce_matching_to_design(BipartiteGraph(n_left=1, n_right=4, edges=edges))
    with pytest.raises(ValueError):
        # right vertex 1 untouched
        reduce_matching_to_design(BipartiteGraph(n_left=1, n_right=2, edges=((0, 0),)))


def _random_bipartite(rng, max_side=5, max_degree=3):
    n_left = rng.randint(1, max_side)
    n_right = rng.randint(1, max_side)
    edges = set()
    # give every left vertex 1..max_degree edges, then patch lonely rights
    for u in range(n_left):
        for v in rng.sample(range(n_right), rng.randint(1, min(max_degree, n_right))):
            edges.add((u, v))
    right_seen = set(v for _, v in edges)
    for v in set(range(n_right)) - right_seen:
        u = rng.randrange(n_left)
        edges.add((u, v))
    graph = BipartiteGraph(n_left=n_left, n_right=n_right, edges=tuple(edges))
    if max(Counter(u for u, _ in graph.edges).values()) > max_degree:
        return _random_bipartite(rng, max_side, max_degree)
    return graph


def test_reduction_preserves_optimum():
    rng = random.Random(89)
    for _ in range(25):
        graph = _random_bipartite(rng)
        inst = reduce_matching_to_design(graph)
        size, result = brute_force_max_decodable(inst)
        assert size == brute_force_mim(graph)
        assert verify_design(result, inst).ok
