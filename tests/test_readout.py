"""Assay readout simulator: every verified design reads back its genotypes.

The simulator shares no code with snpmux.probespace or snpmux.decodability.
It lists each probe roster itself, so probe ids become sequences by their
definition alone. Each selected pool gets a random genotype, a nonempty set
of alleles. The selected primer of the pool is extended by each of them,
and a product carries the colour of its last, labelled base. A probe
lights in a colour when its reverse complement occurs in a product of
that colour. A pool is decoded from its witnesses' colours.

Generated instances extend a primer by its extension bases. SNP tables
form each product from the record itself, as the window of the allele's
haplotype, on the primer's strand, that ends one base past the primer. So
an ingest that gives a primer the wrong extension set yields designs that
verify but do not decode.
"""

import itertools
import random

import pytest

from snpmux.datasets import RandomSpec, generate_random, load_snp_table
from snpmux.decodability import verify_design
from snpmux.instance import ProblemInstance
from snpmux.probespace import make_space
from snpmux.solvers import ALGORITHMS, solve

_COMPLEMENT = str.maketrans("ACGT", "TGCA")
_WEIGHT = {"A": 1, "C": 2, "G": 2, "T": 1}
_PRIMER_LENGTH = 10
_DRAWS = 4  # genotypes drawn per design


def _rc(seq):
    return seq.translate(_COMPLEMENT)[::-1]


def _weight(seq):
    return sum(_WEIGHT[b] for b in seq)


def _roster(descriptor):
    """Probe sequences in id order, from the definition of the space."""
    kind, arg = descriptor.split(":")
    n = int(arg)
    if kind == "kmer":  # id is the base-4 reading, A=0 C=1 G=2 T=3
        return ["".join(t) for t in itertools.product("ACGT", repeat=n)]
    # a c-token is a base b before a string u with w(u) < c <= w(bu); the
    # suffixes of u weigh no more than u, so every proper suffix is light.
    # ids are ranks in lexicographic order.
    light, frontier = [""], [""]
    while frontier:
        frontier = [u + b for u in frontier for b in "ACGT" if _weight(u + b) < n]
        light += frontier
    return sorted(b + u for u in light for b in "ACGT" if _weight(b + u) >= n)


def _generated(mode, seed):
    """Pools of a generated instance and their products: primer plus base."""
    pools = generate_random(RandomSpec(40, 2, _PRIMER_LENGTH, mode, seed))
    products = {(pool.id, i): {e: primer.sequence + e for e in primer.extensions}
                for pool in pools for i, primer in enumerate(pool.primers)}
    return pools, products


def _ingested(tmp_path, seed):
    """Pools of an ingested SNP table and products cut from its haplotypes."""
    rng = random.Random(seed)
    rows = []
    for _ in range(40):
        left = "".join(rng.choice("ACGT") for _ in range(rng.randint(10, 14)))
        right = "".join(rng.choice("ACGT") for _ in range(rng.randint(10, 14)))
        rows.append((left, "".join(rng.sample("ACGT", rng.randint(2, 4))), right))
    path = tmp_path / ("snps%d.tsv" % seed)
    path.write_text("".join("rs%d\t%s\t%s\t%s\n" % (i, *row) for i, row in enumerate(rows)))
    pools, skipped = load_snp_table(str(path), _PRIMER_LENGTH)
    assert skipped == [] and len(pools) == len(rows)
    products = {}
    for pool_id, (left, alleles, right) in enumerate(rows):
        ends = {"+": len(left) + 1, "-": len(right) + 1}  # one base past each primer
        for i, primer in enumerate(pools[pool_id].primers):
            products[pool_id, i] = {}
            for a in alleles:
                haplotype = left + a + right
                strand = haplotype if primer.strand == "+" else _rc(haplotype)
                end = ends[primer.strand]
                product = strand[end - _PRIMER_LENGTH - 1:end]
                assert product[:-1] == primer.sequence
                products[pool_id, i][a] = product
    return pools, products


def _decode(colours, colour_of):
    """The alleles behind a witness's colours. Only the colours the pool's
    own products can carry are read: another colour cannot come from it."""
    return {colour_of[c] for c in colours if c in colour_of}


def _read_out(design, products, roster, r, rng):
    """Draw genotypes, light the witnesses and decode every selected pool.

    Returns the number of pools decoded; raises AssertionError on the
    first pool whose readout differs from its genotype.
    """
    genotype, lit = {}, []
    for sel in design.selected:
        choices = products[sel.pool_id, sel.primer_index]
        alleles = rng.sample(sorted(choices), rng.randint(1, len(choices)))
        genotype[sel.pool_id] = set(alleles)
        lit += [choices[a] for a in alleles]
    for sel in design.selected:
        colour_of = {product[-1]: a for a, product in
                     products[sel.pool_id, sel.primer_index].items()}
        readings = []
        for w in sel.witnesses:
            target = _rc(roster[w])
            readings.append({product[-1] for product in lit if target in product})
        expected = genotype[sel.pool_id]
        for reading in readings:
            assert _decode(reading, colour_of) == expected, (sel, reading, expected)
        # a minority of corrupted readings, each showing every colour wrong,
        # must not move the per-colour majority
        for i in rng.sample(range(len(readings)), (r - 1) // 2):
            readings[i] = set("ACGT") - readings[i]
        majority = {c for c in "ACGT" if 2 * sum(c in rd for rd in readings) > r}
        assert _decode(majority, colour_of) == expected, (sel, readings, expected)
    return len(design.selected)


@pytest.mark.parametrize("descriptor", ["kmer:4", "kmer:5", "ctoken:6", "ctoken:7"])
def test_verified_designs_decode_their_genotypes(tmp_path, descriptor):
    space = make_space(descriptor)
    roster = _roster(descriptor)
    assert len(roster) == space.size
    rng = random.Random(descriptor)
    sources = [_generated("pair", 3), _generated("all4", 4), _ingested(tmp_path, 5)]
    decoded = {1: 0, 2: 0, 3: 0}
    for (pools, products), r, algorithm in itertools.product(sources, (1, 2, 3), ALGORITHMS):
        instance = ProblemInstance(pools, space, r)
        design = solve(instance, algorithm)
        assert verify_design(design, instance).ok
        for _ in range(_DRAWS):
            decoded[r] += _read_out(design, products, roster, r, rng)
    assert all(decoded.values()), decoded
