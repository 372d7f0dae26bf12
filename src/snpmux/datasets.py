"""Instance sources: seeded random pools and SNP flanking-sequence tables.

Random generation uses splitmix64, a small public-domain 64-bit PRNG
that is trivial to port, so identical seeds give byte-identical
instances everywhere. Draw order per pool: each primer's bases left to
right (base = next() % 4 via the A=0,C=1,G=2,T=3 ordinal), then, in
allele-pair mode, one draw (next() % 6) picking the unordered allele
pair from the list AC, AG, AT, CG, CT, GT.

SNP tables are tab-separated: ``id  left_flank  alleles  right_flank``
with an optional header line and '#' comments. For a primer length L,
the forward primer is the last L bases of the left flank extended by the
alleles; the reverse primer is the reverse complement of the first L
bases of the right flank extended by the alleles' complements. Single-base
extension copies the SNP base, so primer plus extension base is a stretch
of one allele's haplotype (left + allele + right) on the primer's strand.
Records whose windows are short or contain IUPAC ambiguity codes are
skipped with a reason rather than rejected.
"""

import logging
from dataclasses import dataclass

from .dnaseq import BASES, SequenceError, complement, is_degenerate, normalize, reverse_complement
from .instance import InstanceFormatError, Pool, Primer, read_text, records

logger = logging.getLogger(__name__)

EXTENSION_MODES = ("all4", "pair")

_MASK64 = (1 << 64) - 1
_ALLELE_PAIRS = (("A", "C"), ("A", "G"), ("A", "T"), ("C", "G"), ("C", "T"), ("G", "T"))

SKIP_SHORT_FLANK = "flank too short"
SKIP_DEGENERATE = "degenerate base in primer window"


class SplitMix64:
    """splitmix64 by Sebastiano Vigna; public domain reference constants."""

    def __init__(self, seed):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits, got %r" % (seed,))
        self.state = seed

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for a seeded random instance.

    Args:
        n_pools: number of pools to generate.
        primers_per_pool: 1 or 2.
        primer_length: bases per primer.
        extension_mode: "all4" extends every primer with all four bases;
            "pair" draws an allele pair per pool and links the two
            primers' extension sets through it.
        rng_seed: 64-bit seed.
    """

    n_pools: int
    primers_per_pool: int = 1
    primer_length: int = 20
    extension_mode: str = "all4"
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_pools < 0:
            raise ValueError("n_pools must be >= 0, got %r" % (self.n_pools,))
        if self.primers_per_pool not in (1, 2):
            raise ValueError("primers_per_pool must be 1 or 2, got %r" % (self.primers_per_pool,))
        if self.primer_length < 1:
            raise ValueError("primer_length must be >= 1, got %r" % (self.primer_length,))
        if self.extension_mode not in EXTENSION_MODES:
            raise ValueError("extension_mode must be one of %s, got %r"
                             % (EXTENSION_MODES, self.extension_mode))
        if not 0 <= self.rng_seed <= _MASK64:
            raise ValueError("rng_seed must fit in 64 bits, got %r" % (self.rng_seed,))


def generate_random(spec):
    """Generate pools per spec; byte-identical for identical specs."""
    rng = SplitMix64(spec.rng_seed)
    nxt = rng.next
    length = spec.primer_length
    two = spec.primers_per_pool == 2
    pools = []
    for pool_id in range(spec.n_pools):
        seqs = []
        for _ in range(spec.primers_per_pool):
            seqs.append("".join(BASES[nxt() & 3] for _ in range(length)))
        if spec.extension_mode == "pair":
            a, b = _ALLELE_PAIRS[nxt() % 6]
            ext_fwd = "".join(sorted(complement(a) + complement(b)))
            ext_rev = "".join(sorted(a + b))
        else:
            ext_fwd = ext_rev = "ACGT"
        if two:
            primers = (
                Primer(seqs[0], ext_fwd, "+"),
                Primer(seqs[1], ext_rev, "-"),
            )
        else:
            primers = (Primer(seqs[0], ext_fwd, "."),)
        pools.append(Pool(id=pool_id, primers=primers))
    return pools


def _parse_snp_line(fields, line_no):
    snp_id, left, alleles_text, right = fields
    if not snp_id:
        raise InstanceFormatError("empty SNP id", line_no)
    try:
        left = normalize(left, what="left flank", allow_degenerate=True)
        right = normalize(right, what="right flank", allow_degenerate=True)
        alleles = normalize(alleles_text, what="alleles")
    except SequenceError as exc:
        raise InstanceFormatError(str(exc), line_no)
    if not 2 <= len(alleles) <= 4 or len(set(alleles)) != len(alleles):
        raise InstanceFormatError(
            "alleles must be 2-4 distinct bases, got %r" % alleles_text, line_no
        )
    return snp_id, left, alleles, right


def _window_skip_reason(window, length):
    if len(window) < length:
        return SKIP_SHORT_FLANK
    if is_degenerate(window):
        return SKIP_DEGENERATE
    return None


def load_snp_table(path, primer_length):
    """Read a SNP table into pools; see module docstring for the format.

    Args:
        path: the table file.
        primer_length: bases per primer window.

    Returns (pools, skipped): accepted records become pools with dense
    ids in input order; skipped is an input-ordered list of
    (snp_id, reason) for records lacking usable primer windows.
    Malformed lines raise InstanceFormatError with the line number.
    """
    if primer_length < 1:
        raise ValueError("primer_length must be >= 1, got %r" % (primer_length,))
    pools = []
    skipped = []
    for i, (line_no, fields) in enumerate(records(read_text(path), 4)):
        if i == 0 and [f.lower() for f in fields] == ["id", "left_flank", "alleles", "right_flank"]:
            continue
        snp_id, left, alleles, right = _parse_snp_line(fields, line_no)
        fwd_window = left[-primer_length:]
        rev_window = right[:primer_length]
        reason = (_window_skip_reason(fwd_window, primer_length)
                  or _window_skip_reason(rev_window, primer_length))
        if reason:
            skipped.append((snp_id, reason))
            continue
        # Primer stores each extension set sorted
        pools.append(Pool(id=len(pools), primers=(
            Primer(fwd_window, alleles, "+"),
            Primer(reverse_complement(rev_window), "".join(map(complement, alleles)), "-"),
        )))
    if skipped:
        logger.info("skipped %d of %d SNP record(s)", len(skipped), len(skipped) + len(pools))
    return pools, skipped
