"""Primer pools, problem instances, and the primer/probe hybridization graph.

A pool holds the one or two single-base-extension primers that genotype
one SNP (at most one per strand). An instance is a set of pools together
with the probe space of the target array and the required redundancy r:
every selected pool must keep at least r probes that hybridize to its
representative primer and to no other selected pool's extended products.

The hybridization graph is bipartite between primers and probes. For a
primer p, N+(p) is the spectrum of the unextended primer (the informative
side) and N-(p) holds the probes gained only through extension products.
Only probes with at least one incident edge are materialized.

Instance text format, one primer per line, '#' comments allowed::

    pool_id <TAB> strand <TAB> sequence <TAB> extensions

with strand one of ``+`` (forward), ``-`` (reverse), ``.`` (unspecified),
and extensions a string of 1-4 distinct bases, e.g. ``ACGT`` or ``T``.
Pool ids must be dense 0..n-1.
"""

import bisect
import hashlib
import logging
from dataclasses import dataclass
from operator import attrgetter

from .dnaseq import SequenceError, normalize

logger = logging.getLogger(__name__)

STRANDS = ("+", "-", ".")


class InstanceFormatError(ValueError):
    """Raised for malformed instance text, with a 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class Primer:
    """One extension primer: sequence, extension bases, strand tag, pool.

    Args:
        sequence: primer bases, 5' to 3', non-degenerate.
        extensions: the dideoxy bases this primer can be extended with, as
            a string of 1-4 distinct bases (stored sorted).
        strand: '+', '-' or '.'.
        pool_id: id of the owning pool.
    """

    sequence: str
    extensions: str
    strand: str = "."
    pool_id: int = 0

    def __post_init__(self):
        seq = normalize(self.sequence, what="primer sequence")
        if not seq:
            raise SequenceError("primer sequence is empty")
        ext = normalize(self.extensions, what="extension set")
        if not 1 <= len(ext) <= 4:
            raise ValueError("extension set must have 1-4 bases, got %r" % (self.extensions,))
        if len(set(ext)) != len(ext):
            raise ValueError("duplicate extension base in %r" % (self.extensions,))
        if self.strand not in STRANDS:
            raise ValueError("strand must be one of + - . , got %r" % (self.strand,))
        object.__setattr__(self, "sequence", seq)
        object.__setattr__(self, "extensions", "".join(sorted(ext)))


@dataclass(frozen=True)
class Pool:
    """The primers genotyping one SNP."""

    id: int
    primers: tuple

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("pool id must be non-negative, got %r" % (self.id,))
        primers = tuple(self.primers)
        if not 1 <= len(primers) <= 2:
            raise ValueError("pool %d must hold 1 or 2 primers, got %d" % (self.id, len(primers)))
        strands = [p.strand for p in primers]
        if len(set(strands)) != len(strands):
            raise ValueError("pool %d has two primers with strand tag %r" % (self.id, strands[0]))
        for p in primers:
            if p.pool_id != self.id:
                raise ValueError(
                    "primer pool_id %d does not match pool %d" % (p.pool_id, self.id)
                )
        object.__setattr__(self, "primers", primers)


class ProblemInstance:
    """Pools plus the probe space and redundancy they are assayed under.

    Pools are kept sorted by id. Ids must be unique; text-format instances
    additionally require dense ids 0..n-1 (sub-instances built in memory,
    e.g. by the partitioner, may be sparse).
    """

    def __init__(self, pools, space, redundancy):
        if not isinstance(redundancy, int) or redundancy < 1:
            raise ValueError("redundancy must be an integer >= 1, got %r" % (redundancy,))
        pools = sorted(pools, key=lambda pl: pl.id)
        ids = [pl.id for pl in pools]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate pool ids in instance")
        self.pools = pools
        self.space = space
        self.redundancy = redundancy
        self._fingerprint = None

    @property
    def n_pools(self):
        return len(self.pools)

    def pool_by_id(self, pool_id):
        pools = self.pools
        i = bisect.bisect_left(pools, pool_id, key=attrgetter("id"))
        if i == len(pools) or pools[i].id != pool_id:
            raise KeyError("no pool with id %r" % (pool_id,))
        return pools[i]

    @property
    def fingerprint(self):
        """Hex sha256 of the canonical instance text."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint(format_instance_text(self.pools))
        return self._fingerprint


def fingerprint(text):
    """Hex sha256 of instance text: the instance fingerprint when the text is canonical."""
    return hashlib.sha256(text.encode()).hexdigest()


def parse_instance_text(text, require_dense=True):
    """Parse instance text into a list of pools.

    Raises InstanceFormatError with a line number on malformed input.
    """
    by_pool = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise InstanceFormatError(
                "expected 4 tab-separated fields, got %d" % len(fields), line_no
            )
        pid_text, strand, seq, ext = fields
        try:
            pool_id = int(pid_text)
        except ValueError:
            raise InstanceFormatError("pool id %r is not an integer" % pid_text, line_no)
        try:
            primer = Primer(sequence=seq, extensions=ext, strand=strand, pool_id=pool_id)
        except ValueError as exc:
            raise InstanceFormatError(str(exc), line_no)
        by_pool.setdefault(pool_id, []).append((line_no, primer))

    pools = []
    for pool_id in sorted(by_pool):
        entries = by_pool[pool_id]
        try:
            pools.append(Pool(id=pool_id, primers=tuple(p for _, p in entries)))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), entries[0][0])
    if require_dense:
        ids = [pl.id for pl in pools]
        if ids != list(range(len(ids))):
            raise InstanceFormatError(
                "pool ids must be dense 0..%d, got %s..." % (len(ids) - 1, ids[:5])
            )
    return pools


def format_instance_text(pools):
    """Canonical instance text: pools by id, primers in stored order."""
    lines = []
    for pool in sorted(pools, key=lambda pl: pl.id):
        for primer in pool.primers:
            lines.append(
                "%d\t%s\t%s\t%s" % (pool.id, primer.strand, primer.sequence, primer.extensions)
            )
    return "\n".join(lines) + ("\n" if lines else "")


class HybridizationGraph:
    """Mutable bipartite primer/probe graph used by the greedy solvers.

    Primers keep their global index (pool order, then position in pool)
    even when pruned, so results can always be mapped back to the
    instance. Probes get dense vertex indices in increasing probe-id
    order; adjacency lists are sorted, which keeps every traversal
    deterministic.

    Live degrees are tracked in dp_plus/dp_minus (per primer) and
    dx_plus/dx_minus (per probe vertex); alive_p/alive_x flag live
    vertices. Primers whose unextended spectrum is empty can never
    witness anything and are pruned at build (counted in pruned_empty).
    """

    def __init__(self, instance):
        space = instance.space
        pools = instance.pools
        self.r = instance.redundancy
        self.pools = pools
        self.primers = []
        self.primer_pool = []  # global primer index -> pool position
        self.pool_primers = []  # pool position -> [global primer index]
        for pos, pool in enumerate(pools):
            members = []
            for primer in pool.primers:
                members.append(len(self.primers))
                self.primers.append(primer)
                self.primer_pool.append(pos)
            self.pool_primers.append(members)

        n = len(self.primers)
        raw_plus = [None] * n
        raw_minus = [None] * n
        probe_ids = set()
        pruned = 0
        for i, primer in enumerate(self.primers):
            nplus, nminus = space.primer_adjacency(primer.sequence, primer.extensions)
            if not nplus:
                pruned += 1
                raw_plus[i] = ()
                raw_minus[i] = ()
                continue
            raw_plus[i] = nplus
            raw_minus[i] = nminus
            probe_ids.update(nplus)
            probe_ids.update(nminus)
        if pruned:
            logger.warning("pruned %d primer(s) with empty unextended spectrum", pruned)

        self.probe_ids = sorted(probe_ids)
        self.probe_index = {pid: v for v, pid in enumerate(self.probe_ids)}
        m = len(self.probe_ids)
        index = self.probe_index
        self.pn_plus = [None] * n
        self.pn_minus = [None] * n
        self.xn_plus = [[] for _ in range(m)]
        self.xn_minus = [[] for _ in range(m)]
        self.alive_p = bytearray(n)
        self.alive_x = bytearray(b"\x01" * m)
        self.dp_plus = [0] * n
        self.dp_minus = [0] * n
        self.dx_plus = [0] * m
        self.dx_minus = [0] * m
        live = 0
        for i in range(n):
            plus = tuple(index[pid] for pid in raw_plus[i])
            minus = tuple(index[pid] for pid in raw_minus[i])
            self.pn_plus[i] = plus
            self.pn_minus[i] = minus
            if not plus:
                continue
            self.alive_p[i] = 1
            live += 1
            self.dp_plus[i] = len(plus)
            self.dp_minus[i] = len(minus)
            for v in plus:
                self.xn_plus[v].append(i)
                self.dx_plus[v] += 1
            for v in minus:
                self.xn_minus[v].append(i)
                self.dx_minus[v] += 1
        self.live_primers = live
        self.pruned_empty = pruned

    @property
    def n_primers(self):
        return len(self.primers)

    @property
    def n_probes(self):
        return len(self.probe_ids)


def build_graph(instance):
    """Build the hybridization graph for an instance."""
    return HybridizationGraph(instance)
