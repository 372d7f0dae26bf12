import random

import pytest

from snpmux.decodability import verify_design
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.partition import (
    PartitionReport,
    coverage_curve,
    partition,
)
from snpmux.probespace import KmerSpace
from snpmux.solvers import SolverConfig, solve


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
        cfg = SolverConfig(algorithm=alg)
        report = partition(inst, cfg)
        standalone = solve(inst, cfg)
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
    sub = ProblemInstance([inst.pools[2], inst.pools[0]], inst.space, inst.redundancy)
    assert [pl.id for pl in sub.pools] == [0, 2]
    assert sub.pool_by_id(2) is inst.pools[2]
    with pytest.raises(KeyError):
        sub.pool_by_id(1)
    with pytest.raises(KeyError):
        sub.pool_by_id(3)


def test_report_fraction_edge_cases():
    empty = PartitionReport(arrays=(), uncovered=(), remaining=())
    assert empty.fraction_covered_all == 1.0
    assert empty.fraction_covered_decodable == 1.0
    only_uncov = PartitionReport(arrays=(), uncovered=(0, 1), remaining=())
    assert only_uncov.fraction_covered_all == 0.0
    assert only_uncov.fraction_covered_decodable == 1.0
