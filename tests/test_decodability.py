"""Decodability and verifier tests.

``_naive_decodable`` below recomputes strong r-decodability the slow
way, straight from the definition with per-pair set subtraction. The
reference checker in ``reference.py`` must agree with it on random
inputs, and the verifier's coverage kernel with the reference's count.
"""

import random
from array import array

import pytest

from snpmux import probespace
from snpmux.datasets import RandomSpec, generate_random
from snpmux.decodability import (
    DesignResult,
    SelectedPool,
    _coverage,
    parse_design_lines,
    verify_design,
)
from snpmux.instance import Pool, Primer, ProblemInstance
from snpmux.probespace import CTokenSpace, ExplicitSpace, KmerSpace
from snpmux.solvers import ALGORITHMS, solve

from reference import ref_coverage, ref_witnesses


def _naive_informative(primer, others, space):
    own = set(space.spectrum(primer.sequence))
    masked = set()
    for other in others:
        for e in other.extensions:
            masked |= space.spectrum(other.sequence + e)
    return own - masked


def _naive_decodable(primers, r, space):
    for i, p in enumerate(primers):
        others = primers[:i] + primers[i + 1:]
        if len(_naive_informative(p, others, space)) < r:
            return False
    return True


def _random_primers(rng, n, k):
    out = []
    for i in range(n):
        seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(k, 8)))
        exts = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
        out.append(Primer(seq, exts, "."))
    return out


def test_informative_probes_known_example():
    # ACG+T reaches {1, 6, 11} and CGT+A reaches {1, 6, 12}, unextended
    # {6, 11} and {1, 6}: together only probe 11 stays informative
    space = KmerSpace(2)
    p1 = Primer("ACG", "T", ".")
    p2 = Primer("CGT", "A", ".")
    assert ref_witnesses([p1], 2, space) == (True, [(6, 11)])
    assert ref_witnesses([p1, p2], 1, space) == (False, None)
    inst = ProblemInstance([Pool(0, (p1,)), Pool(1, (p2,))], space, 1)
    result = DesignResult((SelectedPool(0, 0, (11,)), SelectedPool(1, 0, (1,))))
    report = verify_design(result, inst)
    assert [(v.pool_id, v.kind) for v in report.violations] == [
        (1, "informative-count"), (1, "witness-cross")]


def test_reference_checker_simple():
    space = KmerSpace(2)
    a = Primer("AAAA", "C", ".")  # spectrum {TT}
    b = Primer("CCCC", "A", ".")  # spectrum {GG}
    ok, wit = ref_witnesses([a, b], 1, space)
    assert ok
    assert wit == [(15,), (10,)]
    ok, wit = ref_witnesses([a, a], 1, space)
    assert not ok and wit is None


def test_witnesses_are_lowest_r_ids():
    space = KmerSpace(2)
    p = Primer("ACGT", "A", ".")  # spectrum {1, 6, 11}
    ok, wit = ref_witnesses([p], 2, space)
    assert ok
    assert wit == [(1, 6)]


def test_checker_agrees_with_naive_definition():
    rng = random.Random(17)
    space2, space3 = KmerSpace(2), KmerSpace(3)
    agree_true = agree_false = 0
    for _ in range(120):
        space = space2 if rng.random() < 0.5 else space3
        primers = _random_primers(rng, rng.randint(1, 6), 2)
        r = rng.randint(1, 2)
        ok, wit = ref_witnesses(primers, r, space)
        assert ok == _naive_decodable(primers, r, space)
        if ok:
            agree_true += 1
            for primer, ws in zip(primers, wit):
                naive = _naive_informative(primer, [q for q in primers if q is not primer], space)
                assert len(ws) == r
                assert set(ws) <= naive
        else:
            agree_false += 1
    # the sample must exercise both outcomes
    assert agree_true > 10 and agree_false > 10


def test_coverage_kernel_matches_a_per_probe_count():
    rng = random.Random(2113)
    spaces = [KmerSpace(3), KmerSpace(4), CTokenSpace(5), CTokenSpace(6),
              ExplicitSpace(["AC", "CGT", "GGA", "TTAC", "CA", "ATG", "GT", "TGCA"])]
    outcomes = set()
    for space in spaces:
        for mode in ("pair", "all4"):
            for _ in range(6):
                spec = RandomSpec(rng.randint(1, 12), rng.randint(1, 2), rng.randint(3, 9),
                                  mode, rng.getrandbits(64))
                primers = [p for pool in generate_random(spec) for p in pool.primers]
                rng.shuffle(primers)
                primers = primers[:rng.randint(0, len(primers))]
                ref_specs, ref_cover = ref_coverage(space, primers)
                # an instance of no primers takes the sparse table, one of
                # space.size primers the dense one
                for n_primers in (0, space.size):
                    probes, ends, cover = _coverage(space, primers, n_primers)
                    assert isinstance(cover, array) == bool(n_primers)
                    specs = [tuple(probes[a:b]) for a, b in zip([0, *ends], ends)]
                    assert specs == ref_specs
                    counts = [cover[x] for x in range(space.size)]
                    assert counts == [ref_cover.get(x, 0) for x in range(space.size)]
                    if not n_primers:
                        assert len(cover) == len(ref_cover)  # reading 0 stored nothing
                for r in (1, 2):
                    outcomes.add(ref_witnesses(primers, r, space)[0])
    assert outcomes == {True, False}


def test_verify_reports_are_the_same_on_both_sides_of_the_dense_rule(monkeypatch):
    # solver designs and corrupted copies of them get the same report
    # whether the verifier counts into an array or a dict
    rng = random.Random(409)
    rule = probespace.DENSE_ENTRIES_PER_PRIMER
    sides, outcomes = set(), set()
    for space in (KmerSpace(3), KmerSpace(5), KmerSpace(6), CTokenSpace(6), CTokenSpace(8)):
        for r in (1, 2):
            pools = generate_random(RandomSpec(30, 2, rng.randint(4, 9), "pair", rng.getrandbits(32)))
            inst = ProblemInstance(pools, space, r)
            sides.add(space.size <= rule * inst.n_primers)
            for alg in ALGORITHMS:
                entries = list(solve(inst, alg).selected)
                designs = [entries]
                for _ in range(4):
                    bad = list(entries)
                    if bad and rng.random() < 0.5:
                        i = rng.randrange(len(bad))
                        e = bad[i]
                        wits = e.witnesses + (rng.randrange(space.size + 2),)
                        bad[i] = SelectedPool(e.pool_id, rng.randrange(3), wits)
                    pool = rng.choice(pools)  # maybe selected already
                    bad.append(SelectedPool(pool.id, 0, tuple(rng.sample(range(space.size), r))))
                    designs.append(bad)
                for design in designs:
                    reports = []
                    for per_primer in (rule, 0, 10**9):
                        monkeypatch.setattr(probespace, "DENSE_ENTRIES_PER_PRIMER", per_primer)
                        report = verify_design(DesignResult(tuple(design)), inst)
                        reports.append((report.checked_pools,
                                        [v.to_line() for v in report.violations]))
                    assert reports[0] == reports[1] == reports[2], (space.descriptor, r, alg)
                    outcomes.add(not reports[0][1])
    assert sides == {True, False} and outcomes == {True, False}


def test_decodability_is_monotone_in_r():
    rng = random.Random(99)
    space = KmerSpace(2)
    for _ in range(40):
        primers = _random_primers(rng, rng.randint(1, 4), 2)
        ok2, _ = ref_witnesses(primers, 2, space)
        ok1, _ = ref_witnesses(primers, 1, space)
        if ok2:
            assert ok1


def _two_pool_instance(r=1):
    space = KmerSpace(2)
    pools = [
        Pool(0, (Primer("AAAA", "C", "."),)),
        Pool(1, (Primer("CCCC", "A", "."),)),
    ]
    return ProblemInstance(pools, space, r)


def test_verify_design_accepts_valid():
    inst = _two_pool_instance()
    result = DesignResult((
        SelectedPool(0, 0, (15,)),
        SelectedPool(1, 0, (10,)),
    ), fingerprint=inst.fingerprint)
    report = verify_design(result, inst)
    assert report.ok
    assert report.checked_pools == 2


def test_verify_design_structural_violations():
    inst = _two_pool_instance()
    result = DesignResult((
        SelectedPool(0, 0, (15,)),
        SelectedPool(0, 0, (15,)),  # duplicate pool
        SelectedPool(7, 0, (15,)),  # unknown pool
        SelectedPool(1, 3, (10,)),  # bad primer index
    ))
    report = verify_design(result, inst)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["structure", "structure", "structure"]


def test_verify_design_witness_violations():
    inst = _two_pool_instance()
    # witness 99 is outside the probe space of size 16
    report = verify_design(DesignResult((SelectedPool(0, 0, (99,)),)), inst)
    assert [v.kind for v in report.violations] == ["structure"]
    # witness 10 belongs to pool 1's spectrum, not pool 0's
    report = verify_design(DesignResult((SelectedPool(0, 0, (10,)),)), inst)
    assert "witness-membership" in [v.kind for v in report.violations]
    # empty witness set fails the count check when r >= 1
    report = verify_design(DesignResult((SelectedPool(0, 0, ()),)), inst)
    assert "witness-count" in [v.kind for v in report.violations]


def test_verify_design_counts_distinct_witnesses():
    # at r=2 a witness claimed twice is still one readout probe
    space = KmerSpace(2)
    inst = ProblemInstance([Pool(0, (Primer("ACGT", "A", "."),))], space, 2)
    assert verify_design(DesignResult((SelectedPool(0, 0, (1, 6)),)), inst).ok
    report = verify_design(DesignResult((SelectedPool(0, 0, (6, 6)),)), inst)
    assert [v.kind for v in report.violations] == ["witness-count"]
    assert report.violations[0].detail == "1 witness(es), need 2"
    # a repeated foreign witness is reported once
    report = verify_design(DesignResult((SelectedPool(0, 0, (3, 3)),)), inst)
    assert [v.kind for v in report.violations] == ["witness-count", "witness-membership"]


def test_verify_design_flags_a_repeated_witness_id():
    # enough distinct ids, but one listed twice: one violation naming it
    space = KmerSpace(2)
    inst = ProblemInstance([Pool(0, (Primer("ACGT", "A", "."),))], space, 2)
    report = verify_design(DesignResult((SelectedPool(0, 0, (1, 1, 6)),)), inst)
    assert [v.to_line() for v in report.violations] == [
        "0\twitness-count\twitness 1 listed more than once"]
    report = verify_design(DesignResult((SelectedPool(0, 0, (1, 1, 6, 6)),)), inst)
    assert [v.detail for v in report.violations] == ["witness 1,6 listed more than once"]


def test_verify_design_cross_hybridization():
    # identical primers in both pools: every probe is covered twice
    space = KmerSpace(2)
    pools = [
        Pool(0, (Primer("AAAA", "C", "."),)),
        Pool(1, (Primer("AAAA", "C", "."),)),
    ]
    inst = ProblemInstance(pools, space, 1)
    result = DesignResult((
        SelectedPool(0, 0, (15,)),
        SelectedPool(1, 0, (15,)),
    ))
    report = verify_design(result, inst)
    kinds = set(v.kind for v in report.violations)
    assert "informative-count" in kinds
    assert "witness-cross" in kinds
    assert "witness-overlap" in kinds


def test_verify_design_fingerprint_mismatch():
    inst = _two_pool_instance()
    result = DesignResult((SelectedPool(0, 0, (15,)),), fingerprint="0" * 64)
    report = verify_design(result, inst)
    assert [v.kind for v in report.violations] == ["fingerprint"]
    assert report.violations[0].pool_id == -1


def test_design_result_lines_roundtrip():
    result = DesignResult((
        SelectedPool(3, 1, (4, 9)),
        SelectedPool(0, 0, (2,)),
    ))
    # entries come back sorted by pool id
    assert result.pool_ids() == [0, 3]
    lines = result.to_lines()
    assert lines == ["0\t0\t2", "3\t1\t4,9"]
    parsed = parse_design_lines("# comment\n" + "\n".join(lines) + "\n")
    assert tuple(parsed) == result.selected
    with pytest.raises(ValueError, match="line 1"):
        parse_design_lines("0\t0\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_design_lines("0\t0\t1\n0\tx\t1\n")
