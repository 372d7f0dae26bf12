"""Decodability checks and independent design verification.

A set of selected representative primers is strongly r-decodable when
every one of them keeps at least r informative probes: probes in the
spectrum of its unextended sequence that no other selected primer's
extended products can reach. Each such probe reports the extending base
of exactly one primer, so r independent readouts per SNP survive
cross-hybridization.

``verify_design`` recomputes every spectrum from scratch and shares no
state with the solvers, so it can be used as an acceptance gate for any
claimed design.
"""

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .instance import InstanceFormatError, records
from .probespace import coverage_table

# violation kinds emitted by verify_design
KIND_STRUCTURE = "structure"
KIND_FINGERPRINT = "fingerprint"
KIND_INFORMATIVE = "informative-count"
KIND_WITNESS_COUNT = "witness-count"
KIND_WITNESS_MEMBER = "witness-membership"
KIND_WITNESS_CROSS = "witness-cross"
KIND_WITNESS_OVERLAP = "witness-overlap"


@dataclass(frozen=True, slots=True)
class SelectedPool:
    """One selected pool: which primer represents it and its witnesses."""

    pool_id: int
    primer_index: int
    witnesses: tuple


@dataclass(frozen=True)
class DesignResult:
    """A claimed multiplexed design: selections with witness probes.

    Args:
        selected: SelectedPool entries, sorted by pool id.
        fingerprint: sha256 of the instance this was computed for, or None.
        pruned_empty: primers skipped because their unextended spectrum
            was empty (among candidates the solver evaluated).
    """

    selected: tuple
    fingerprint: str = None
    pruned_empty: int = 0

    def __post_init__(self):
        entries = tuple(sorted(self.selected, key=lambda s: s.pool_id))
        object.__setattr__(self, "selected", entries)

    @property
    def size(self):
        return len(self.selected)

    def pool_ids(self):
        return [s.pool_id for s in self.selected]

    def to_lines(self):
        """Data lines: pool_id <TAB> primer_index <TAB> witness ids (comma-joined)."""
        return [
            "%d\t%d\t%s" % (s.pool_id, s.primer_index, ",".join(str(w) for w in s.witnesses))
            for s in self.selected
        ]


def parse_design_lines(text, comments=None):
    """Parse DesignResult data lines as instance.records reads them,
    passing comments on to it."""
    entries = []
    for line_no, fields in records(text, 3, comments):
        try:
            pool_id = int(fields[0])
            primer_index = int(fields[1])
            witnesses = tuple(sorted(map(int, fields[2].split(",")))) if fields[2] else ()
        except ValueError:
            raise InstanceFormatError("malformed design entry %r" % "\t".join(fields), line_no)
        if pool_id < 0:
            raise InstanceFormatError("pool id must be non-negative, got %d" % pool_id, line_no)
        entries.append(SelectedPool(pool_id, primer_index, witnesses))
    return entries


def _coverage(space, primers, n_primers):
    """One count over every primer's products: (probes, ends, cover).

    cover[x] counts the primers whose extended products reach probe x:
    a flat array when probespace.coverage_table makes one for an instance
    of n_primers, and otherwise a Counter, which counts in C and holds
    only the probes reached. A probe is informative for the single primer
    covering it when that primer reaches it unextended, i.e. it is in its
    N+ with cover 1. Only the N+ are kept: primer i's is
    probes[ends[i - 1]:ends[i]] (from 0 for primer 0), one flat array of
    probe ids below 4**16.
    """
    probes, ends = array("I"), array("q")

    def products():
        for primer in primers:
            nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
            probes.extend(nplus)
            ends.append(len(probes))
            yield nplus
            yield nminus

    cover = coverage_table(space, n_primers)
    if isinstance(cover, array):
        for x in chain.from_iterable(products()):
            cover[x] += 1
    else:
        cover = Counter(chain.from_iterable(products()))
    return probes, ends, cover


@dataclass(frozen=True)
class Violation:
    pool_id: int  # -1 for violations not tied to one pool
    kind: str
    detail: str

    def to_line(self):
        return "%d\t%s\t%s" % (self.pool_id, self.kind, self.detail)


@dataclass
class VerificationReport:
    violations: list = field(default_factory=list)
    checked_pools: int = 0

    @property
    def ok(self):
        return not self.violations


def verify_design(result, instance):
    """Independently verify a DesignResult against an instance.

    All spectra are recomputed from the instance; nothing is trusted from
    the result beyond the claims themselves. Every violation found is
    reported: structural problems (unknown pools, bad primer indices,
    out-of-range probe ids, duplicate selections), informative-probe
    counts below the instance redundancy, and witness lists with fewer
    distinct ids than that or with a repeated id, and witnesses outside
    their primer's spectrum, reachable by another selected primer, or
    overlapping another pool's witnesses.
    """
    space = instance.space
    r = instance.redundancy
    report = VerificationReport(checked_pools=len(result.selected))
    add = report.violations.append

    if result.fingerprint and result.fingerprint != instance.fingerprint:
        add(Violation(-1, KIND_FINGERPRINT,
                      "result fingerprint %s does not match instance %s"
                      % (result.fingerprint[:12], instance.fingerprint[:12])))

    seen_pools = {}
    valid = []
    primers = []  # representative of each valid entry
    for entry in result.selected:
        if entry.pool_id in seen_pools:
            add(Violation(entry.pool_id, KIND_STRUCTURE, "pool selected more than once"))
            continue
        seen_pools[entry.pool_id] = entry
        try:
            pool = instance.pool_by_id(entry.pool_id)
        except KeyError:
            add(Violation(entry.pool_id, KIND_STRUCTURE, "pool id not in instance"))
            continue
        if not 0 <= entry.primer_index < len(pool.primers):
            add(Violation(entry.pool_id, KIND_STRUCTURE,
                          "primer index %d out of range for pool of %d"
                          % (entry.primer_index, len(pool.primers))))
            continue
        bad_probe = next((w for w in entry.witnesses if not 0 <= w < space.size), None)
        if bad_probe is not None:
            add(Violation(entry.pool_id, KIND_STRUCTURE,
                          "witness probe id %d outside probe space of size %d"
                          % (bad_probe, space.size)))
            continue
        valid.append(entry)
        primers.append(pool.primers[entry.primer_index])

    probes, ends, cover = _coverage(space, primers, instance.n_primers)
    witness_owner = {}
    start = 0
    for entry, end in zip(valid, ends):
        spec = probes[start:end]
        start = end
        informative = list(map(cover.__getitem__, spec)).count(1)
        if informative < r:
            add(Violation(entry.pool_id, KIND_INFORMATIVE,
                          "%d informative probe(s), need %d" % (informative, r)))
        witnesses = dict.fromkeys(entry.witnesses)  # distinct ids, claimed order
        if len(witnesses) < r:
            add(Violation(entry.pool_id, KIND_WITNESS_COUNT,
                          "%d witness(es), need %d" % (len(witnesses), r)))
        elif len(witnesses) < len(entry.witnesses):
            repeated = [str(w) for w, n in Counter(entry.witnesses).items() if n > 1]
            add(Violation(entry.pool_id, KIND_WITNESS_COUNT,
                          "witness %s listed more than once" % ",".join(repeated)))
        for w in witnesses:
            if w not in spec:
                add(Violation(entry.pool_id, KIND_WITNESS_MEMBER,
                              "witness %d not in representative's spectrum" % w))
            elif cover[w] > 1:
                add(Violation(entry.pool_id, KIND_WITNESS_CROSS,
                              "witness %d reachable by another selected pool" % w))
            prev = witness_owner.get(w)
            if prev is not None and prev != entry.pool_id:
                add(Violation(entry.pool_id, KIND_WITNESS_OVERLAP,
                              "witness %d also claimed by pool %d" % (w, prev)))
            else:
                witness_owner[w] = entry.pool_id
    return report
