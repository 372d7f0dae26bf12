"""End-to-end acceptance suite.

One test per acceptance criterion, numbered; the pytest -v report line
of each test is the pass/fail line for its criterion. Tolerance bands
are statistical: published benchmark figures came from instances whose
seeds are gone, so reproduction targets are means over fresh seeded
replicates. Each test also prints its measured numbers for inspection
with -s.

This suite does real work (several criteria run 100,000-pool designs)
and takes a few minutes; the plain unit tests live in the other files.
"""

import gc
import itertools
import random
import time
from collections import Counter

from snpmux.datasets import RandomSpec, generate_random
from snpmux.decodability import verify_design
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.dnaseq import unpack_value
from snpmux.oracles import BipartiteGraph, reduce_matching_to_design
from snpmux.partition import coverage_curve, partition
from snpmux.probespace import CTokenSpace, KmerSpace, count_ctokens
from snpmux.solvers import ALGORITHMS, build_graph, solve

from reference import brute_force_max_decodable, brute_force_mim, is_ctoken


def _mean(xs):
    return sum(xs) / len(xs)


def _random_pools(n, primers_per_pool, length, mode, seed):
    return generate_random(RandomSpec(
        n_pools=n,
        primers_per_pool=primers_per_pool,
        primer_length=length,
        extension_mode=mode,
        rng_seed=seed,
    ))


def test_criterion_01_probe_space_counts():
    for k in (8, 9, 10):
        started = time.perf_counter()
        space = KmerSpace(k)
        n = sum(1 for _ in space.probes())
        elapsed = time.perf_counter() - started
        assert n == 4 ** k == space.size
        assert elapsed < 10.0
        print("k=%d: %d probes in %.2fs" % (k, n, elapsed))
    expectations = {11: (86_464, 85_000, 88_000),
                    12: (236_224, 235_000, 238_000),
                    13: (645_376, 640_000, 650_000)}
    for c, (exact, lo, hi) in expectations.items():
        started = time.perf_counter()
        space = CTokenSpace(c)
        roster = list(space.probes())
        elapsed = time.perf_counter() - started
        assert count_ctokens(c) == exact
        assert len(roster) == exact == space.size
        assert lo <= exact <= hi
        # independent route: every enumerated member really is a c-token,
        # and the roster is duplicate-free, so the count stands on its own
        sample = roster[:: max(1, len(roster) // 500)]
        assert all(is_ctoken(tok, c) for tok in sample)
        assert len(set(roster)) == len(roster)
        assert elapsed < 10.0
        print("c=%d: %d tokens in %.2fs" % (c, len(roster), elapsed))


def test_criterion_02_desk_scale_table_reproduction():
    # (a) n=1000, k=10: everything fits for r in {1, 2, 5}
    space10 = KmerSpace(10)
    replicate_pools = [_random_pools(1000, 1, 20, "all4", 21000 + i) for i in range(10)]
    for r in (1, 2, 5):
        for alg in ALGORITHMS:
            sizes = [solve(ProblemInstance(pools, space10, r), alg).size
                     for pools in replicate_pools]
            assert _mean(sizes) >= 998, (r, alg, sizes)
        print("n=1000 k=10 r=%d: all solvers >= 998 mean" % r)

    # (b) n=10000, k=8, r=1: sequential greedy lands near 7740
    space8 = KmerSpace(8)
    replicate_pools = [_random_pools(10000, 1, 20, "all4", 22000 + i) for i in range(10)]
    sizes = [solve(ProblemInstance(pools, space8, 1), "seq").size
             for pools in replicate_pools]
    mean = _mean(sizes)
    print("n=10000 k=8 r=1 seq mean: %.1f (band 7353..8127)" % mean)
    assert 7740 * 0.95 <= mean <= 7740 * 1.05, sizes

    # (c) n=10000, k=9, r=1: near-complete selection for every solver
    space9 = KmerSpace(9)
    for alg in ALGORITHMS:
        sizes = [solve(ProblemInstance(pools, space9, 1), alg).size
                 for pools in replicate_pools]
        mean = _mean(sizes)
        print("n=10000 k=9 r=1 %s mean: %.1f" % (alg, mean))
        assert mean >= 9950, (alg, sizes)


def test_criterion_03_second_primer_benefit():
    space = KmerSpace(8)
    alg = "minprobe"
    one, two = [], []
    for i in range(10):
        pools = _random_pools(100_000, 1, 20, "all4", 3000 + i)
        one.append(solve(ProblemInstance(pools, space, 1), alg).size)
        pools = _random_pools(100_000, 2, 20, "all4", 3000 + i)
        two.append(solve(ProblemInstance(pools, space, 1), alg).size)
    gain = _mean(two) / _mean(one) - 1.0
    print("minprobe n=100k k=8: 1 primer %.1f, 2 primers %.1f, gain %.1f%%"
          % (_mean(one), _mean(two), 100 * gain))
    assert gain >= 0.05


def test_criterion_04_small_extension_set_benefit():
    space = KmerSpace(9)
    replicates = 3
    sizes = {(alg, mode): [] for alg in ALGORITHMS for mode in ("pair", "all4")}
    for i in range(replicates):
        for mode in ("pair", "all4"):
            pools = _random_pools(100_000, 2, 20, mode, 4000 + i)
            inst = ProblemInstance(pools, space, 2)
            for alg in ALGORITHMS:
                sizes[(alg, mode)].append(solve(inst, alg).size)
    for alg in ALGORITHMS:
        pair_mean = _mean(sizes[(alg, "pair")])
        all4_mean = _mean(sizes[(alg, "all4")])
        print("%s n=100k k=9 r=2: |E|=2 %.1f vs |E|=4 %.1f" % (alg, pair_mean, all4_mean))
        assert pair_mean > all4_mean, alg


def _small_instance(rng, k):
    n_pools = rng.randint(2, 8)
    pools = []
    for pid in range(n_pools):
        primers = []
        for j in range(rng.randint(1, 2)):
            length = rng.randint(k, 6)
            seq = "".join(rng.choice("ACGT") for _ in range(length))
            ext = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
            primers.append(Primer(seq, ext, "+-"[j]))
        pools.append(Pool(pid, tuple(primers)))
    return pools


def test_criterion_05_heuristics_vs_brute_force():
    started = time.perf_counter()
    rng = random.Random(5005)
    configs = list(itertools.product((2, 3), (1, 2)))  # (k, r)
    matched = {cfg: 0 for cfg in configs}
    gaps = {}
    for k, r in configs:
        space = KmerSpace(k)
        for _ in range(50):
            inst = ProblemInstance(_small_instance(rng, k), space, r)
            best, _witness = brute_force_max_decodable(inst)
            for alg in ALGORITHMS:
                res = solve(inst, alg)
                report = verify_design(res, inst)
                assert report.ok, (alg, [v.to_line() for v in report.violations])
                assert res.size <= best, (alg, res.size, best)
                gaps.setdefault(("k=%d r=%d" % (k, r), alg), []).append(best - res.size)
                if res.size == best:
                    matched[(k, r)] += 1
    elapsed = time.perf_counter() - started
    print("200 instances in %.1fs; optimum matched per config: %s" % (elapsed, matched))
    _print_gaps(gaps)
    assert all(count >= 1 for count in matched.values())
    assert elapsed < 60.0


def _print_gaps(gaps):
    """One line per (config, algorithm): mean and max of optimum - size."""
    for (label, alg), values in gaps.items():
        print("gap %s %-9s mean %.2f max %d" % (label, alg, _mean(values), max(values)))


def test_criterion_05_gaps_at_25_pools():
    # 3**25 candidate assignments: only a search that cuts branches gets here
    started = time.perf_counter()
    space = KmerSpace(4)
    gaps = {}
    for r in (1, 2):
        for seed in (1, 2, 3):
            inst = ProblemInstance(_random_pools(25, 2, 10, "all4", seed), space, r)
            best, witness = brute_force_max_decodable(inst)
            assert verify_design(witness, inst).ok, (r, seed)
            for alg in ALGORITHMS:
                res = solve(inst, alg)
                assert verify_design(res, inst).ok, (r, seed, alg)
                assert res.size <= best, (r, seed, alg, res.size, best)
                gaps.setdefault(("25 pools r=%d" % r, alg), []).append(best - res.size)
    elapsed = time.perf_counter() - started
    print("6 instances of 25 pools in %.1fs" % elapsed)
    _print_gaps(gaps)
    assert elapsed < 15.0


def _bounded_bipartite(rng):
    while True:
        n_left = rng.randint(1, 6)
        n_right = rng.randint(1, 6)
        edges = set()
        for u in range(n_left):
            for v in rng.sample(range(n_right), rng.randint(1, min(3, n_right))):
                edges.add((u, v))
        for v in range(n_right):
            if not any(e[1] == v for e in edges):
                edges.add((rng.randrange(n_left), v))
        graph = BipartiteGraph(n_left=n_left, n_right=n_right, edges=tuple(edges))
        dl = Counter(u for u, _ in graph.edges)
        dr = Counter(v for _, v in graph.edges)
        if max(dl.values()) <= 3 and max(dr.values()) <= 3:
            return graph


def test_criterion_06_matching_reduction_bijection():
    started = time.perf_counter()
    rng = random.Random(6006)
    for trial in range(100):
        graph = _bounded_bipartite(rng)
        reduced = reduce_matching_to_design(graph)
        size, result = brute_force_max_decodable(reduced)
        assert size == brute_force_mim(graph), (trial, graph)
        assert verify_design(result, reduced).ok
        g = build_graph(reduced)
        assert not any(g.row(u, minus=True) for u in range(g.n_primers)), trial
    elapsed = time.perf_counter() - started
    print("100 reductions matched brute-force induced matching in %.1fs" % elapsed)
    assert elapsed < 60.0


class _NaiveJudge:
    """Definition-based design validity, independent of verify_design."""

    def __init__(self, instance):
        self.instance = instance
        self.space = instance.space
        self.r = instance.redundancy
        self.by_id = {pool.id: pool for pool in instance.pools}
        self._ext = {}

    def _ext_spec(self, primer):
        key = (primer.sequence, primer.extensions)
        if key not in self._ext:
            masked = set()
            for e in primer.extensions:
                masked |= self.space.spectrum(primer.sequence + e)
            self._ext[key] = masked
        return self._ext[key]

    def valid(self, entries):
        seen = set()
        reps = []
        for entry in entries:
            if entry.pool_id in seen:
                return False
            seen.add(entry.pool_id)
            pool = self.by_id.get(entry.pool_id)
            if pool is None or not 0 <= entry.primer_index < len(pool.primers):
                return False
            reps.append((entry, pool.primers[entry.primer_index]))
        claimed = {}
        for entry, primer in reps:
            informative = set(self.space.spectrum(primer.sequence))
            for other_entry, other in reps:
                if other_entry is not entry:
                    informative -= self._ext_spec(other)
            if len(informative) < self.r or len(set(entry.witnesses)) < self.r:
                return False
            for w in entry.witnesses:
                if w not in informative:
                    return False
                if claimed.setdefault(w, entry.pool_id) != entry.pool_id:
                    return False
        return True


def test_criterion_07_verifier_catches_single_mutations():
    space = KmerSpace(4)
    pools = _random_pools(30, 2, 10, "all4", 7007)
    inst = ProblemInstance(pools, space, 2)
    base = solve(inst, "seq")
    judge = _NaiveJudge(inst)
    assert judge.valid(base.selected)
    assert verify_design(base, inst).ok
    assert base.size >= 5

    rng = random.Random(7008)
    entries = list(base.selected)
    invalidating = preserved = 0
    while invalidating < 1000:
        i = rng.randrange(len(entries))
        entry = entries[i]
        mutated = list(entries)
        roll = rng.random()
        if roll < 0.45:
            # move one witness somewhere else in the probe space
            wits = list(entry.witnesses)
            wits[rng.randrange(len(wits))] = rng.randrange(space.size)
            mutated[i] = type(entry)(entry.pool_id, entry.primer_index, tuple(sorted(wits)))
        elif roll < 0.55:
            # claim one of the witnesses twice in place of the other
            w = rng.choice(entry.witnesses)
            mutated[i] = type(entry)(entry.pool_id, entry.primer_index, (w, w))
        else:
            # hand the pool to its other primer, keeping the old witnesses
            mutated[i] = type(entry)(entry.pool_id, 1 - entry.primer_index, entry.witnesses)
        result = type(base)(tuple(mutated))
        report = verify_design(result, inst)
        if judge.valid(tuple(mutated)):
            preserved += 1
            assert report.ok, [v.to_line() for v in report.violations]
        else:
            invalidating += 1
            assert not report.ok, mutated[i]
    print("1000 invalidating mutations all flagged; %d mutations stayed valid "
          "and were all accepted" % preserved)


def test_criterion_08_partition_completeness():
    started = time.perf_counter()
    pools = _random_pools(20_000, 2, 20, "all4", 8008)
    inst = ProblemInstance(pools, KmerSpace(9), 2)
    report = partition(inst)
    standalone = solve(inst)
    elapsed = time.perf_counter() - started

    seen = list(report.uncovered) + list(report.remaining)
    for res in report.arrays:
        seen.extend(res.pool_ids())
    assert sorted(seen) == [pool.id for pool in inst.pools]
    for res in report.arrays:
        assert verify_design(res, inst).ok
    assert report.arrays[0].selected == standalone.selected
    curve = coverage_curve(report)
    assert all(a[1] <= b[1] for a, b in zip(curve, curve[1:]))
    print("20k pools partitioned into %d arrays (+%d uncovered) in %.1fs"
          % (len(report.arrays), len(report.uncovered), elapsed))
    assert elapsed < 300.0


def _disjoint_pools(n, k):
    # primer of pool i is the k-base expansion of offset + i. The one
    # extended window shifts that value to 4 * i, which stays below the
    # offset whenever 4 * n does, so no window of any pool ever collides
    # with a window of another: the family is truly non-interacting.
    offset = 4 ** k // 2
    assert 4 * n < offset
    return [
        Pool(pid, (Primer(unpack_value(offset + pid, k), "A", "."),))
        for pid in range(n)
    ]


def test_criterion_09_performance_envelope():
    space = KmerSpace(10)
    alg = "minprobe"
    started = time.perf_counter()
    pools = _random_pools(100_000, 2, 20, "all4", 9009)
    inst = ProblemInstance(pools, space, 1)
    result = solve(inst, alg)
    elapsed = time.perf_counter() - started
    print("minprobe on 100k x 2 primers, k=10: %d pools in %.1fs" % (result.size, elapsed))
    assert result.size > 0
    assert elapsed < 600.0

    # time the doubling with the same hygiene timeit uses: garbage from
    # earlier runs collected up front, the collector off while timing.
    # The two sizes alternate, so a neighbour that holds the CPU for a
    # while slows the timings of both, not those of one.
    sizes = (25_000, 50_000)
    families = {n: _disjoint_pools(n, 10) for n in sizes}
    best = {}
    for _ in range(3):
        for n in sizes:
            gc.collect()
            gc.disable()
            try:
                sub_started = time.perf_counter()
                inst = ProblemInstance(families[n], space, 1)
                res = solve(inst, alg)
                took = time.perf_counter() - sub_started
            finally:
                gc.enable()
            best[n] = min(best.get(n, took), took)
            assert res.size == n
    timings = [best[n] for n in sizes]
    ratio = timings[1] / timings[0]
    print("non-interacting doubling: %.2fs -> %.2fs (x%.2f)" % (*timings, ratio))
    assert ratio <= 2.5


def _run_twice(tmp_path, monkeypatch, prepare, argv):
    from snpmux.cli import main

    outputs = []
    for sub in ("first", "second"):
        workdir = tmp_path / sub
        workdir.mkdir(parents=True, exist_ok=True)
        monkeypatch.chdir(workdir)
        prepare(workdir)
        assert main(list(argv)) == 0, argv
        blobs = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        outputs.append(blobs)
    assert outputs[0] == outputs[1], argv[0]


def test_criterion_10_byte_identical_outputs(tmp_path, monkeypatch):
    from snpmux.cli import main

    snp_table = (
        "rs1\tACGTACGTACGTACGTACGT\tAG\tTTTTGGGGCCCCAAAATTTT\n"
        "rs2\tACGT\tCT\tGGGGCCCCAAAATTTTGGGG\n"
    )
    edges = "0\t0\n1\t0\n1\t1\n2\t1\n"

    def nothing(workdir):
        pass

    runs = [
        (nothing, ["probes", "--probes", "ctoken:5", "--roster", "--out", "probes.txt"]),
        (nothing, ["gen", "--pools", "200", "--primer-length", "12",
                   "--primers-per-pool", "2", "--extensions", "pair",
                   "--seed", "77", "--out", "inst.txt"]),
        (lambda d: (d / "snps.tsv").write_text(snp_table),
         ["ingest", "--in", "snps.tsv", "--primer-length", "12",
          "--skipped", "skipped.txt", "--out", "inst.txt"]),
        (lambda d: (d / "edges.tsv").write_text(edges),
         ["reduce", "--in", "edges.tsv", "--probes-out", "probes.txt",
          "--out", "inst.txt"]),
    ]
    for prepare, argv in runs:
        _run_twice(tmp_path / argv[0], monkeypatch, prepare, argv)

    def with_instance(workdir):
        assert main(["gen", "--pools", "150", "--primer-length", "10",
                     "--seed", "88", "--out", "inst.txt"]) == 0

    solve_argv = ["solve", "--in", "inst.txt", "--probes", "kmer:5",
                  "--redundancy", "2", "--algorithm", "minprobe", "--out", "design.txt"]
    _run_twice(tmp_path / "solve", monkeypatch, with_instance, solve_argv)
    _run_twice(tmp_path / "partition", monkeypatch, with_instance,
               ["partition", "--in", "inst.txt", "--probes", "kmer:4",
                "--algorithm", "minprimer", "--max-arrays", "3", "--out", "part.txt"])

    def with_design(workdir):
        with_instance(workdir)
        assert main(list(solve_argv)) == 0

    _run_twice(tmp_path / "verify", monkeypatch, with_design,
               ["verify", "--in", "design.txt", "--instance", "inst.txt",
                "--out", "verify.txt"])

    def bench_prepare(workdir):
        pass

    _run_twice(tmp_path / "bench", monkeypatch, bench_prepare,
               ["bench", "--pools", "20,40", "--redundancy", "1",
                "--probes", "kmer:5", "--algorithm", "seq,minprobe",
                "--replicates", "2", "--primer-length", "10",
                "--seed", "6", "--out", "bench.txt"])
    print("all eight subcommands produced byte-identical reruns")
