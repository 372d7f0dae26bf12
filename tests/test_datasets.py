"""Dataset generation and ingestion tests.

The PRNG reference below is transcribed independently from the
published splitmix64 algorithm so a typo in either copy shows up.
"""

import random

import pytest

from snpmux.datasets import (
    SKIP_DEGENERATE,
    SKIP_SHORT_FLANK,
    RandomSpec,
    SplitMix64,
    generate_random,
    load_snp_table,
)
from snpmux.dnaseq import complement, reverse_complement
from snpmux.instance import InstanceFormatError, format_instance_text

MASK = (1 << 64) - 1


def _reference_splitmix64(seed, count):
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
        rng = SplitMix64(seed)
        assert [rng.next() for _ in range(50)] == _reference_splitmix64(seed, 50)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            SplitMix64(seed)


def test_splitmix64_outputs_are_64_bit():
    rng = SplitMix64(7)
    for _ in range(100):
        assert 0 <= rng.next() <= MASK


def test_random_spec_validation():
    RandomSpec(n_pools=0, primers_per_pool=1, primer_length=5,
               extension_mode="all4", rng_seed=0)
    with pytest.raises(ValueError):
        RandomSpec(n_pools=-1, primers_per_pool=1, primer_length=5,
                   extension_mode="all4", rng_seed=0)
    with pytest.raises(ValueError):
        RandomSpec(n_pools=1, primers_per_pool=3, primer_length=5,
                   extension_mode="all4", rng_seed=0)
    with pytest.raises(ValueError):
        RandomSpec(n_pools=1, primers_per_pool=1, primer_length=0,
                   extension_mode="all4", rng_seed=0)
    with pytest.raises(ValueError):
        RandomSpec(n_pools=1, primers_per_pool=1, primer_length=5,
                   extension_mode="some", rng_seed=0)


def test_generate_random_shapes():
    spec = RandomSpec(n_pools=0, primers_per_pool=1, primer_length=5,
                      extension_mode="all4", rng_seed=0)
    assert generate_random(spec) == []
    spec = RandomSpec(n_pools=30, primers_per_pool=2, primer_length=12,
                      extension_mode="all4", rng_seed=5)
    pools = generate_random(spec)
    assert len(pools) == 30
    for pool in pools:
        assert len(pool.primers) == 2
        assert pool.primers[0].strand == "+"
        assert pool.primers[1].strand == "-"
        for primer in pool.primers:
            assert len(primer.sequence) == 12
            assert primer.extensions == "ACGT"


def test_generate_random_single_primer_strand():
    spec = RandomSpec(n_pools=4, primers_per_pool=1, primer_length=6,
                      extension_mode="all4", rng_seed=1)
    for pool in generate_random(spec):
        assert len(pool.primers) == 1
        assert pool.primers[0].strand == "."


def test_generate_random_pair_mode_links_extensions():
    spec = RandomSpec(n_pools=40, primers_per_pool=2, primer_length=8,
                      extension_mode="pair", rng_seed=9)
    for pool in generate_random(spec):
        fwd, rev = pool.primers
        assert len(fwd.extensions) == 2
        assert len(rev.extensions) == 2
        # the two strands see complementary extension bases
        assert sorted(complement(b) for b in rev.extensions) == list(fwd.extensions)


def test_generate_random_is_deterministic():
    spec = RandomSpec(n_pools=25, primers_per_pool=2, primer_length=10,
                      extension_mode="pair", rng_seed=1234)
    a = format_instance_text(generate_random(spec))
    b = format_instance_text(generate_random(spec))
    assert a == b
    other = RandomSpec(n_pools=25, primers_per_pool=2, primer_length=10,
                       extension_mode="pair", rng_seed=1235)
    assert format_instance_text(generate_random(other)) != a


def _write(tmp_path, text):
    path = tmp_path / "snps.tsv"
    path.write_text(text)
    return str(path)


def test_load_snp_table_basic(tmp_path):
    left = "ACGTACGTACGTACGTACGT"
    right = "TTTTGGGGCCCCAAAATTTT"
    path = _write(tmp_path, "rs1\t%s\tAG\t%s\n" % (left, right))
    pools, skipped = load_snp_table(path, 20)
    assert skipped == []
    assert len(pools) == 1
    fwd, rev = pools[0].primers
    assert fwd.sequence == left
    assert fwd.extensions == "AG"  # the alleles themselves
    assert fwd.strand == "+"
    assert rev.sequence == reverse_complement(right)
    assert rev.extensions == "CT"  # complements of the alleles
    assert rev.strand == "-"


def test_load_snp_table_extensions_copy_the_snp_base(tmp_path):
    # single-base extension adds the base at the SNP on the primer's own
    # strand, so primer + extension is a stretch of one allele's haplotype
    rng = random.Random(11)
    records = []
    for _ in range(40):
        left = "".join(rng.choice("ACGT") for _ in range(rng.randint(10, 16)))
        right = "".join(rng.choice("ACGT") for _ in range(rng.randint(10, 16)))
        alleles = "".join(rng.sample("ACGT", rng.randint(2, 4)))
        records.append((left, alleles, right))
    text = "".join("rs%d\t%s\t%s\t%s\n" % (i, *rec) for i, rec in enumerate(records))
    pools, skipped = load_snp_table(_write(tmp_path, text), 10)
    assert skipped == [] and len(pools) == len(records)
    for pool, (left, alleles, right) in zip(pools, records):
        forward = [left + a + right for a in alleles]
        strands = {"+": forward, "-": [reverse_complement(h) for h in forward]}
        for primer in pool.primers:
            for e in primer.extensions:
                assert any(primer.sequence + e in h for h in strands[primer.strand]), \
                    (pool.id, primer.strand, e)


def test_load_snp_table_windows_are_clipped(tmp_path):
    # only the L bases nearest the SNP matter; junk further out is fine
    left = "NNNN" + "ACGTACGTAC"
    right = "GGGGCCCCAA" + "NNNN"
    path = _write(tmp_path, "rs1\t%s\tCT\t%s\n" % (left, right))
    pools, skipped = load_snp_table(path, 10)
    assert skipped == []
    fwd, rev = pools[0].primers
    assert fwd.sequence == "ACGTACGTAC"
    assert rev.sequence == reverse_complement("GGGGCCCCAA")


def test_load_snp_table_skip_reasons(tmp_path):
    good_left = "ACGTACGTAC"
    good_right = "GGGGCCCCAA"
    text = (
        "# comment\n"
        "id\tleft_flank\talleles\tright_flank\n"
        "rs_ok\t%s\tAC\t%s\n"
        "rs_short\tACGT\tAC\t%s\n"
        "rs_degen\tACGTNACGTA\tAC\t%s\n"
        "rs_right\t%s\tAC\tGGGG\n"
        "rs_empty_right\t%s\tAC\t\n"  # an empty last field is still a field
    ) % (good_left, good_right, good_right, good_right, good_left, good_left)
    pools, skipped = load_snp_table(_write(tmp_path, text), 10)
    assert len(pools) == 1
    assert pools[0].id == 0
    assert skipped == [
        ("rs_short", SKIP_SHORT_FLANK),
        ("rs_degen", SKIP_DEGENERATE),
        ("rs_right", SKIP_SHORT_FLANK),
        ("rs_empty_right", SKIP_SHORT_FLANK),
    ]


def test_load_snp_table_errors(tmp_path):
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_snp_table(_write(tmp_path, "rs1\tACGT\tAC\n"), 4)
    with pytest.raises(InstanceFormatError, match="line 2"):
        load_snp_table(_write(tmp_path, "rs1\tACGT\tAC\tACGT\nrs2\tACGT\tAZ\tACGT\n"), 4)
    with pytest.raises(InstanceFormatError, match="line 1"):
        load_snp_table(_write(tmp_path, "rs1\tACGT\tA\tACGT\n"), 4)  # one allele


def test_load_snp_table_is_deterministic(tmp_path):
    text = "rs1\tACGTACGTAC\tAG\tGGGGCCCCAA\nrs2\tTTTTTTTTTT\tCT\tAAAAAAAAAA\n"
    path = _write(tmp_path, text)
    a, skipped_a = load_snp_table(path, 10)
    b, skipped_b = load_snp_table(path, 10)
    assert format_instance_text(a) == format_instance_text(b)
    assert skipped_a == skipped_b
    assert [pl.id for pl in a] == [0, 1]
