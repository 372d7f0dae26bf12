import random
import re

import pytest

from snpmux import probespace, solvers
from snpmux.decodability import verify_design
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.partition import (
    PartitionReport,
    coverage_curve,
    partition,
)
from snpmux.probespace import CTokenSpace, ExplicitSpace, KmerSpace
from snpmux.solvers import ALGORITHMS, solve


def _pool(pid, seq, ext="C"):
    return Pool(pid, (Primer(seq, ext, "."),))


def _copies(counts):
    """counts: list of (sequence, copies); pools numbered densely."""
    pools = []
    for seq, n in counts:
        for _ in range(n):
            pools.append(_pool(len(pools), seq, "C" if seq[0] != "C" else "A"))
    return pools


def test_identical_pools_need_two_arrays():
    pools = _copies([("AAAA", 2)])
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    report = partition(inst)
    assert len(report.arrays) == 2
    assert [res.size for res in report.arrays] == [1, 1]
    assert report.uncovered == ()
    assert report.remaining == ()
    assert report.n_covered == 2


def test_coverage_curve_fractions():
    # one sequence appears once, two appear twice: first array takes one
    # copy of each (3 of 5), the second takes the leftovers
    pools = _copies([("AAAA", 1), ("CCCC", 2), ("GGGG", 2)])
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    report = partition(inst)
    assert [res.size for res in report.arrays] == [3, 2]
    assert coverage_curve(report) == [(1, 0.6), (2, 1.0)]
    assert report.fraction_covered_all == 1.0


def test_uncovered_pools_are_classified_up_front():
    # AAAA has a single spectrum probe, hopeless at r=2; ACGT has three
    pools = [_pool(0, "ACGT", "A"), _pool(1, "AAAA", "C")]
    inst = ProblemInstance(pools, KmerSpace(2), 2)
    report = partition(inst)
    assert report.uncovered == (1,)
    assert len(report.arrays) == 1
    assert report.arrays[0].pool_ids() == [0]
    assert report.fraction_covered_all == 0.5
    assert report.fraction_covered_decodable == 1.0


def test_partition_checks_the_name_before_any_round():
    # neither instance runs a round, so only partition's own check can raise
    bad_name = re.escape("algorithm must be one of ('seq', 'minprimer', 'minprobe'), got 'magic'")
    all_uncovered = ProblemInstance([_pool(0, "AAAA", "C")], KmerSpace(2), 2)
    for inst in (ProblemInstance([], KmerSpace(2), 2), all_uncovered):
        with pytest.raises(ValueError, match=bad_name):
            partition(inst, "magic")


def test_max_arrays_leaves_remaining():
    pools = _copies([("AAAA", 1), ("CCCC", 2), ("GGGG", 2)])
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    report = partition(inst, max_arrays=1)
    assert len(report.arrays) == 1
    assert report.total_pools == inst.n_pools
    assert sorted(report.remaining) == sorted(
        set(range(5)) - set(report.arrays[0].pool_ids())
    )
    assert report.fraction_covered_all == pytest.approx(0.6)
    with pytest.raises(ValueError):
        partition(inst, max_arrays=0)


def test_first_array_matches_standalone_solver():
    rng = random.Random(71)
    pools = []
    for pid in range(40):
        seq = "".join(rng.choice("ACGT") for _ in range(6))
        pools.append(_pool(pid, seq, "".join(sorted(rng.sample("ACGT", 2)))))
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    for alg in ("seq", "minprimer", "minprobe"):
        report = partition(inst, alg)
        standalone = solve(inst, alg)
        assert report.arrays[0].selected == standalone.selected, alg


def test_partition_covers_every_pool_exactly_once():
    rng = random.Random(73)
    pools = []
    for pid in range(60):
        seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(2, 7)))
        pools.append(_pool(pid, seq, "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))))
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    report = partition(inst)
    seen = list(report.uncovered) + list(report.remaining)
    for res in report.arrays:
        seen.extend(res.pool_ids())
    assert sorted(seen) == list(range(60))
    assert report.total_pools == inst.n_pools
    # every array verifies against the parent instance
    for res in report.arrays:
        assert res.fingerprint == inst.fingerprint
        assert verify_design(res, inst).ok
    # the curve never decreases and ends at the covered fraction
    curve = coverage_curve(report)
    assert all(a[1] <= b[1] for a, b in zip(curve, curve[1:]))
    assert curve[-1][1] == pytest.approx(report.fraction_covered_all)


def test_sub_instance_keeps_original_ids():
    pools = _copies([("AAAA", 1), ("CCCC", 2)])
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    # partition rounds solve the residual pools as one sparse-id instance
    sub = inst.subset([inst.pools[2], inst.pools[0]])
    assert [pl.id for pl in sub.pools] == [0, 2]
    assert sub.pool_by_id(2) is inst.pools[2]
    with pytest.raises(KeyError):
        sub.pool_by_id(1)
    with pytest.raises(KeyError):
        sub.pool_by_id(3)
    # it shares the root's settings, and a subset of it shares the same root
    assert (sub.space, sub.redundancy, sub.fingerprint) == (inst.space, 1, inst.fingerprint)
    assert sub.root is inst and sub.subset([inst.pools[0]]).root is inst
    assert inst.root is inst


def test_subset_takes_only_its_own_pools():
    pools = _copies([("AAAA", 1), ("CCCC", 2)])
    inst = ProblemInstance(pools, KmerSpace(2), 1)
    sub = inst.subset(inst.pools[:2])
    for foreign in ([_pool(0, "AAAA")], [inst.pools[2]], [inst.pools[0], inst.pools[0]]):
        with pytest.raises(ValueError):
            sub.subset(foreign)
    assert inst.subset([]).n_pools == 0


def _partition_reference(instance, algorithm, max_arrays=None):
    """The partition loop solving a fresh instance of the residual pools
    each round, as it did before rounds shared the root's graph."""
    space, r = instance.space, instance.redundancy
    uncovered = tuple(pool.id for pool in instance.pools
                      if all(len(space.spectrum(p.sequence)) < r for p in pool.primers))
    residual = [pool for pool in instance.pools if pool.id not in uncovered]
    arrays = []
    while residual and (max_arrays is None or len(arrays) < max_arrays):
        result = solve(ProblemInstance(residual, space, r), algorithm)
        arrays.append(result)
        taken = set(result.pool_ids())
        residual = [pool for pool in residual if pool.id not in taken]
    return arrays, uncovered, tuple(pool.id for pool in residual)


def _mixed_pools(rng, n_pools, min_len, max_len):
    """Seeded pools of one or two primers with two or four extension
    bases; short primers may have an empty spectrum, and pools of only
    short primers are undecodable."""
    pools = []
    for pid in range(n_pools):
        primers = []
        for j in range(rng.randint(1, 2)):
            seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(min_len, max_len)))
            ext = "".join(rng.sample("ACGT", rng.choice((2, 4))))
            primers.append(Primer(seq, ext, "+-"[j]))
        pools.append(Pool(pid, tuple(primers)))
    return pools


def test_partition_builds_one_graph(monkeypatch):
    builds = []
    real_build = solvers.build_graph
    monkeypatch.setattr(solvers, "build_graph", lambda inst: builds.append(inst) or real_build(inst))
    inst = ProblemInstance(_mixed_pools(random.Random(89), 40, 1, 9), KmerSpace(3), 2)
    report = partition(inst, "minprobe")
    assert len(report.arrays) > 2 and report.uncovered
    assert builds == [inst]


def test_first_round_runs_on_the_graph_as_built(monkeypatch):
    # with no uncovered pools, the first round solves every pool, so only
    # the later rounds reset the graph the partition has just built
    resets = []
    real_reset = solvers.HybridizationGraph.reset
    monkeypatch.setattr(solvers.HybridizationGraph, "reset",
                        lambda g, pools: resets.append(len(pools)) or real_reset(g, pools))
    inst = ProblemInstance(_mixed_pools(random.Random(89), 40, 8, 9), KmerSpace(3), 1)
    report = partition(inst, "minprobe")
    assert not report.uncovered and len(report.arrays) > 2
    assert len(resets) == len(report.arrays)  # the build's, then one per later round
    assert resets[:2] == [40, 40 - report.arrays[0].size]


def test_partition_matches_fresh_instance_per_round():
    rng = random.Random(83)
    list_space = ExplicitSpace(sorted({"".join(rng.choice("ACGT") for _ in range(rng.randint(2, 3)))
                                       for _ in range(30)}))
    seen_empty = seen_uncovered = seen_remaining = 0
    for space in (KmerSpace(3), KmerSpace(4), CTokenSpace(4), CTokenSpace(5), list_space):
        for r in (1, 2, 3):
            for max_arrays in (None, 2):
                inst = ProblemInstance(_mixed_pools(rng, 40, 1, 9), space, r)
                for alg in ALGORITHMS:
                    report = partition(inst, alg, max_arrays)
                    arrays, uncovered, remaining = _partition_reference(inst, alg, max_arrays)
                    where = (space.descriptor, r, max_arrays, alg)
                    assert [res.to_lines() for res in report.arrays] == [
                        res.to_lines() for res in arrays], where
                    assert [res.pruned_empty for res in report.arrays] == [
                        res.pruned_empty for res in arrays], where
                    assert (report.uncovered, report.remaining) == (uncovered, remaining), where
                    assert all(res.fingerprint == inst.fingerprint for res in report.arrays)
                    seen_empty += sum(res.pruned_empty for res in arrays)
                    seen_uncovered += len(uncovered)
                    seen_remaining += len(remaining)
    assert seen_empty and seen_uncovered and seen_remaining


def _outcome(report):
    return ([res.to_lines() for res in report.arrays], [res.pruned_empty for res in report.arrays],
            report.uncovered, report.remaining)


def test_seq_is_the_same_on_both_sides_of_the_dense_rule(monkeypatch):
    # seq solves and seq partitions come out the same whether the rule
    # picks each coverage table, every table is a dict or every one is
    # an array; test_partition_matches_fresh_instance_per_round checks a
    # partition against one seq round per array
    rng = random.Random(97)
    rule = probespace.DENSE_ENTRIES_PER_PRIMER
    sides = set()
    for space in (KmerSpace(3), KmerSpace(5), KmerSpace(6), CTokenSpace(5), CTokenSpace(7),
                  CTokenSpace(8)):
        for r in (1, 2, 3):
            inst = ProblemInstance(_mixed_pools(rng, 40, 1, 9), space, r)
            outcomes = []
            for per_primer in (rule, 0, 10**9):
                monkeypatch.setattr(probespace, "DENSE_ENTRIES_PER_PRIMER", per_primer)
                res = solve(inst, "seq")
                outcomes.append([(res.to_lines(), res.pruned_empty)] + [
                    _outcome(partition(inst, "seq", max_arrays)) for max_arrays in (None, 1, 3)])
            assert outcomes[0] == outcomes[1] == outcomes[2], (space.descriptor, r)
            n_arrays = len(outcomes[0][1][0])
            dense = rule * inst.n_primers // space.size  # tables the rule makes arrays
            sides.add("none" if not dense else "all" if dense >= n_arrays else "some")
    assert sides == {"none", "some", "all"}


def test_report_fraction_edge_cases():
    empty = PartitionReport(arrays=(), uncovered=(), remaining=())
    assert empty.fraction_covered_all == 1.0
    assert empty.fraction_covered_decodable == 1.0
    only_uncov = PartitionReport(arrays=(), uncovered=(0, 1), remaining=())
    assert only_uncov.fraction_covered_all == 0.0
    assert only_uncov.fraction_covered_decodable == 1.0
