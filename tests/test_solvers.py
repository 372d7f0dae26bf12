import hashlib
import random
import re
import tracemalloc

import pytest

from snpmux import solvers
from snpmux.datasets import RandomSpec, generate_random
from snpmux.decodability import DesignResult, parse_design_lines, verify_design
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.partition import partition
from snpmux.probespace import CTokenSpace, KmerSpace
from snpmux.solvers import (
    ALGORITHMS,
    _cascade,
    _initial_prune,
    build_graph,
    sequential_greedy,
    solve,
)

from reference import brute_force_max_decodable, ref_witnesses


def _pool(pid, *specs):
    primers = tuple(
        Primer(seq, ext, strand) for seq, ext, strand in specs
    )
    return Pool(pid, primers)


def _instance(pools, k=2, r=1):
    return ProblemInstance(pools, KmerSpace(k), r)


def _random_instance(rng, n_pools, k, r, max_len=8):
    pools = []
    for pid in range(n_pools):
        primers = []
        for j in range(rng.randint(1, 2)):
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(k, max_len)))
            ext = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
            primers.append(Primer(seq, ext, "+-"[j]))
        pools.append(Pool(pid, tuple(primers)))
    return ProblemInstance(pools, KmerSpace(k), r)


def test_config_validation():
    bad_name = re.escape("algorithm must be one of ('seq', 'minprimer', 'minprobe'), got 'magic'")
    # the empty instance gives no solver any work, so only the check can raise
    for pools in ([_pool(0, ("AAAA", "C", "."))], []):
        with pytest.raises(ValueError, match=bad_name):
            solve(_instance(pools), "magic")


def test_duplicate_pools_conflict():
    # pools 0 and 1 share one primer sequence, so only one of them fits;
    # pool 2 lives in a different corner of the probe space
    pools = [
        _pool(0, ("AAAA", "C", ".")),
        _pool(1, ("AAAA", "C", ".")),
        _pool(2, ("CCCC", "A", ".")),
    ]
    inst = _instance(pools)
    for alg in ALGORITHMS:
        res = solve(inst, alg)
        assert res.pool_ids() == [0, 2], alg
        assert verify_design(res, inst).ok, alg


def test_seq_falls_back_to_second_primer():
    pools = [
        _pool(0, ("AAAA", "C", ".")),
        _pool(1, ("AAAA", "C", "+"), ("CCCC", "A", "-")),
    ]
    inst = _instance(pools)
    res = sequential_greedy(inst)
    assert res.pool_ids() == [0, 1]
    entry = res.selected[1]
    assert entry.primer_index == 1  # the first primer conflicts with pool 0
    assert verify_design(res, inst).ok


def test_selected_primers_are_strongly_decodable():
    rng = random.Random(41)
    for trial in range(30):
        inst = _random_instance(rng, rng.randint(1, 10), 2, rng.randint(1, 2))
        for alg in ALGORITHMS:
            res = solve(inst, alg)
            assert verify_design(res, inst).ok, alg
            reps = [
                inst.pool_by_id(e.pool_id).primers[e.primer_index]
                for e in res.selected
            ]
            if reps:
                ok, _ = ref_witnesses(reps, inst.redundancy, inst.space)
                assert ok, alg


def _first_fit_reference(inst):
    """seq's definition, checked from scratch: each pool takes its first
    primer that keeps the whole selection strongly r-decodable."""
    chosen, picks = [], []
    for pool in inst.pools:
        for index, primer in enumerate(pool.primers):
            if ref_witnesses(chosen + [primer], inst.redundancy, inst.space)[0]:
                chosen.append(primer)
                picks.append((pool.id, index))
                break
    if not chosen:
        return []
    _, witnesses = ref_witnesses(chosen, inst.redundancy, inst.space)
    return [(pid, index, w) for (pid, index), w in zip(picks, witnesses)]


def test_seq_matches_first_fit_reference():
    seed, selected, skipped = 0, 0, 0
    for space in (KmerSpace(2), KmerSpace(3), KmerSpace(4),
                  CTokenSpace(3), CTokenSpace(4), CTokenSpace(5)):
        for r in (1, 2, 3):
            for per_pool in (1, 2):
                for ext in ("pair", "all4"):
                    seed += 1
                    pools = generate_random(RandomSpec(16, per_pool, 7, ext, seed))
                    inst = ProblemInstance(pools, space, r)
                    got = [(e.pool_id, e.primer_index, e.witnesses)
                           for e in sequential_greedy(inst).selected]
                    assert got == _first_fit_reference(inst), (space.descriptor, r, per_pool, ext)
                    selected += len(got)
                    skipped += len(pools) - len(got)
    assert selected and skipped  # both acceptance and rejection were exercised


def test_never_beats_brute_force():
    rng = random.Random(43)
    for trial in range(20):
        inst = _random_instance(rng, rng.randint(2, 7), 2, rng.randint(1, 2), max_len=6)
        best, _ = brute_force_max_decodable(inst)
        for alg in ALGORITHMS:
            assert solve(inst, alg).size <= best, alg


def test_witness_counts_match_redundancy():
    rng = random.Random(47)
    inst = _random_instance(rng, 12, 2, 2)
    for alg in ALGORITHMS:
        res = solve(inst, alg)
        for entry in res.selected:
            assert len(entry.witnesses) == 2
            assert list(entry.witnesses) == sorted(entry.witnesses)


def test_solvers_are_deterministic():
    rng = random.Random(53)
    inst = _random_instance(rng, 25, 3, 1)
    for alg in ALGORITHMS:
        assert solve(inst, alg) == solve(inst, alg), alg


def test_empty_and_hopeless_instances():
    empty = _instance([])
    for alg in ALGORITHMS:
        assert solve(empty, alg).size == 0
    # a primer shorter than k has no spectrum at all
    hopeless = ProblemInstance([_pool(0, ("AC", "G", "."))], KmerSpace(3), 1)
    for alg in ALGORITHMS:
        res = solve(hopeless, alg)
        assert res.size == 0
        assert res.pruned_empty == 1


def test_result_carries_fingerprint():
    inst = _instance([_pool(0, ("AAAA", "C", "."))])
    for alg in ALGORITHMS:
        assert solve(inst, alg).fingerprint == inst.fingerprint


def _conflict_graph():
    # ACG/T and CGT/A share probe CG (id 6); ACG also owns GT (11)
    pools = [
        _pool(0, ("ACG", "T", ".")),
        _pool(1, ("CGT", "A", ".")),
    ]
    return build_graph(_instance(pools))


def _probe_vertex(g, probe_id):
    return g.n_primers + g.probe_ids.index(probe_id)


def test_remove_primer_cascades_to_orphan_probes():
    g = _conflict_graph()
    # probe ids [1, 6, 11, 12]: removing primer 0 orphans probe 11
    _cascade(g, [0])
    assert g.alive[0] == 0
    assert g.live_primers == 1
    v11 = _probe_vertex(g, 11)
    assert g.alive[v11] == 0
    v6 = _probe_vertex(g, 6)
    assert g.alive[v6] == 1
    assert g.d_plus[v6] == 1
    # dead vertices on the stack are skipped
    _cascade(g, [0, v11])
    assert g.live_primers == 1
    assert g.d_plus[v6] == 1


def test_remove_probe_cascades_to_starved_primers():
    g = _conflict_graph()
    v6 = _probe_vertex(g, 6)
    v11 = _probe_vertex(g, 11)
    _cascade(g, [v6])
    # primer 1 kept probe 1, primer 0 kept probe 11: both still live
    assert g.live_primers == 2
    _cascade(g, [v11])
    # primer 0 drops below r=1 and dies; its minus-side edge goes too
    assert g.alive[0] == 0
    assert g.live_primers == 1
    assert g.d_total[_probe_vertex(g, 1)] == 1


def test_removal_order_does_not_matter():
    rng = random.Random(61)
    for trial in range(15):
        inst = _random_instance(rng, 8, 2, 1)
        g1 = build_graph(inst)
        g2 = build_graph(inst)
        n = g1.n_primers
        live_probes = [v for v in range(n, n + g1.n_probes) if g1.alive[v]]
        picks = rng.sample(live_probes, min(3, len(live_probes)))
        for v in picks:
            _cascade(g1, [v])
        for v in reversed(picks):
            _cascade(g2, [v])
        assert bytes(g1.alive) == bytes(g2.alive)
        # a dead vertex's counters stop at whatever its deletion left
        live = [u for u in range(len(g1.alive)) if g1.alive[u]]
        assert [(g1.d_plus[u], g1.d_total[u]) for u in live] == [
            (g2.d_plus[u], g2.d_total[u]) for u in live]


def _assert_degrees_recount(g):
    n, alive = g.n_primers, g.alive
    for u in range(len(alive)):
        if alive[u]:
            plus = sum(alive[w] for w in g.row(u))
            minus = sum(alive[w] for w in g.row(u, minus=True))
            assert (g.d_plus[u], g.d_total[u]) == (plus, plus + minus), u
            assert plus >= (g.r if u < n else 1), u
    assert g.live_primers == sum(alive[:n])


def test_cascade_keeps_degrees_equal_to_a_recount():
    rng = random.Random(67)
    for trial in range(40):
        r = 1 + trial % 2
        g = build_graph(_random_instance(rng, 12, 3, r))
        _initial_prune(g)
        _assert_degrees_recount(g)
        n, key = g.n_primers, g.d_total
        pushed = set()

        def recorder(primer_side):
            def push(w):
                assert (w < n) == primer_side and g.alive[w]
                pushed.add((w, key[w]))
            return push

        for _ in range(5):
            live = [u for u in range(len(g.alive)) if g.alive[u]]
            if not live:
                break
            before = list(key)
            pushed.clear()
            _cascade(g, [rng.choice(live)], recorder(True), recorder(False))
            _assert_degrees_recount(g)
            # every live vertex whose key dropped was pushed with its new key
            for u in live:
                if g.alive[u] and key[u] != before[u]:
                    assert (u, key[u]) in pushed, (trial, u)


def _vertex_map(g, fresh, sub):
    """Send each vertex of fresh, a graph built for sub, to its vertex in
    g, the graph of sub's root: primers by pool id and position in the
    pool, probes by probe id."""
    root_pos = {pool.id: i for i, pool in enumerate(g.pools)}
    to_root = {}
    for j, pool in enumerate(sub.pools):
        i = root_pos[pool.id]
        for t in range(len(pool.primers)):
            to_root[fresh.pool_start[j] + t] = g.pool_start[i] + t
    rank = {x: k for k, x in enumerate(g.probe_ids)}
    for k, x in enumerate(fresh.probe_ids):
        to_root[fresh.n_primers + k] = g.n_primers + rank[x]
    return to_root


def _live_state(g, to_root=None):
    return {(to_root[u] if to_root else u): (g.d_plus[u], g.d_total[u])
            for u in range(len(g.alive)) if g.alive[u]}


def test_reset_matches_a_fresh_build_of_the_subset():
    rng = random.Random(103)
    sizes = set()
    for trial in range(30):
        r = 1 + trial % 3
        inst = _random_instance(rng, 16, 2 + trial % 2, r)
        g = build_graph(inst)
        for _ in range(6):
            pools = [pool for pool in inst.pools if rng.random() < rng.random()]
            sub = inst.subset(pools)
            g.reset(sub.pools)
            fresh = build_graph(sub)
            to_root = _vertex_map(g, fresh, sub)
            for pruned in (False, True):
                if pruned:
                    _initial_prune(g)
                    _initial_prune(fresh)
                    _assert_degrees_recount(g)
                assert _live_state(g) == _live_state(fresh, to_root), (trial, pruned)
                assert (g.live_primers, g.pruned_empty) == (fresh.live_primers, fresh.pruned_empty)
            # whatever a run leaves behind, the next reset starts over
            live = [u for u in range(len(g.alive)) if g.alive[u]]
            if live:
                _cascade(g, rng.sample(live, min(3, len(live))))
            sizes.add(2 * sum(len(pool.primers) for pool in pools) < g.n_primers)
    assert sizes == {False, True}  # count-up ran on runs both above and below half the primers


def test_solves_sharing_a_graph_match_fresh_instances(monkeypatch):
    builds = []
    real_build = solvers.build_graph
    monkeypatch.setattr(solvers, "build_graph", lambda inst: builds.append(inst) or real_build(inst))
    rng = random.Random(107)
    for trial in range(12):
        inst = _random_instance(rng, 20, 2 + trial % 2, 1 + trial % 2)
        builds.clear()
        for sub in (inst, inst.subset(inst.pools[::2]), inst.subset(inst.pools[1:])):
            for alg in ("minprimer", "minprobe", "minprimer"):
                fresh = ProblemInstance(sub.pools, sub.space, sub.redundancy)
                got = solve(sub, alg)
                want = solve(fresh, alg)
                assert (got.selected, got.pruned_empty) == (want.selected, want.pruned_empty)
                assert got.fingerprint == inst.fingerprint
        # one build for the root, and one for each fresh copy
        assert builds.count(inst) == 1 and len(builds) == 10


# sha256 of "\n".join(result.to_lines()) for 400 pools x 2 primers of
# length 12 with "pair" extensions; a changed tie-break moves these.
_PINNED_DESIGNS = {
    (5, 2, "seq"): "beeacd9e72886b52b7cd2ad8819e3348396989cb76e0d42186b14f1b8213c6c3",
    (5, 2, "minprimer"): "0980efbd681d23b160061fd2aa6a72b8a1c453a459f93d51ef479d83d2aafd7a",
    (5, 2, "minprobe"): "6bf6ab94ed46902b7700d1312c27237d16c7c46b0fcfd89da8ad41dfedac3c85",
    (4, 1, "seq"): "3efc1a19ba4d780bd11430279a9d60ab555f4f96c2d653c14e8ccb296bcc8bc6",
    (4, 1, "minprimer"): "ecd371482407e91b27c8c33b210d5530369db793391ad533b53451dd5163537a",
    (4, 1, "minprobe"): "4e09af3afe57a7faa2ec11892ca41e64a1fb9bec3dc5133ea221e10944058bbe",
}
_PINNED_PARTITION = "42cf21926d7d785020ab69efc8a854ec57788424af92a926c66e39e2703e60ea"
# seq on the c-token family the benchmark's seq workload uses, and the seq
# rounds of partition (its default solver)
_PINNED_CTOKEN_SEQ = "9ba63dc558b67d712a44e926206291dacb916409320c324a3c54e25841d23092"
_PINNED_PARTITION_SEQ = "3e504ba77174dd536a291db1aab3d334e7adf3759620c28e8d858fe4b3aeaf3d"


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _seeded_instance(space, r, seed):
    pools = generate_random(RandomSpec(400, 2, 12, "pair", seed))
    return ProblemInstance(pools, space, r)


def _partition_lines(report):
    lines = []
    for i, res in enumerate(report.arrays):
        lines.append("# array %d" % i)
        lines.extend(res.to_lines())
    lines.append("# uncovered %s remaining %s" % (report.uncovered, report.remaining))
    return lines


def test_designs_match_pinned_hashes():
    for k, r, seed in ((5, 2, 71), (4, 1, 73)):
        inst = _seeded_instance(KmerSpace(k), r, seed)
        for alg in ALGORITHMS:
            res = solve(inst, alg)
            assert _sha(res.to_lines()) == _PINNED_DESIGNS[k, r, alg], (k, r, alg)
    report = partition(_seeded_instance(KmerSpace(4), 1, 79), "minprobe")
    assert [res.size for res in report.arrays] == [79, 73, 73, 65, 61, 43, 6]
    assert _sha(_partition_lines(report)) == _PINNED_PARTITION
    res = solve(_seeded_instance(CTokenSpace(7), 2, 83), "seq")
    assert res.size == 160
    assert _sha(res.to_lines()) == _PINNED_CTOKEN_SEQ
    report = partition(_seeded_instance(KmerSpace(4), 1, 79), "seq")
    assert [res.size for res in report.arrays] == [67, 66, 59, 55, 56, 52, 40, 5]
    assert _sha(_partition_lines(report)) == _PINNED_PARTITION_SEQ


def test_seq_and_verify_memory_per_primer_is_bounded():
    # 5,100 pools of two primers at ctoken:13, so both coverage tables are
    # arrays. With a dict per table and a tuple per kept spectrum, the solve
    # peaked at 669 bytes per primer and the verification at 579; with
    # arrays they peak at 418 and 348.
    inst = ProblemInstance(generate_random(RandomSpec(5100, 2, 20, "pair", 1313)),
                           CTokenSpace(13), 2)
    inst.fingerprint
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = solve(inst, "seq")
        solve_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        report = verify_design(res, inst)
        verify_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert res.size > 5000 and report.ok
    assert solve_peak / 10_200 < 500
    assert verify_peak / 10_200 < 500


def test_kmer16_probe_ids_above_2_31():
    # every 16-mer window of an A/C primer (and of its A/C extensions) has
    # a G/T reverse complement, so every probe id is at least 2 * 4**15
    rng = random.Random(101)
    track = "".join(rng.choice("AC") for _ in range(90))
    pools = []
    for pid in range(30):
        start = rng.randrange(70)
        primers = [Primer(track[start:start + 18 + pid % 3], rng.choice(("A", "C", "AC")), "+")]
        pools.append(Pool(pid, tuple(primers)))
    space = KmerSpace(16)
    inst = ProblemInstance(pools, space, 2)
    g = build_graph(inst)
    ids = set()
    for pool in pools:
        nplus, nminus = space.primer_adjacency(pool.primers[0].sequence, pool.primers[0].extensions)
        ids.update(nplus + nminus)
    assert min(ids) >= 2**31
    assert g.probe_ids.tolist() == sorted(ids)
    for alg in ("minprimer", "minprobe"):
        res = solve(inst, alg)
        assert res.size >= 2, alg
        assert verify_design(res, inst).ok, alg
        assert all(w >= 2**31 for e in res.selected for w in e.witnesses), alg
        back = parse_design_lines("\n".join(res.to_lines()))
        assert tuple(back) == res.selected, alg
        assert verify_design(DesignResult(tuple(back), fingerprint=res.fingerprint), inst).ok
