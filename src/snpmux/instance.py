"""Primer pools, problem instances, and their text.

A pool holds the one or two single-base-extension primers that genotype
one SNP (at most one per strand). An instance is a set of pools together
with the probe space of the target array and the required redundancy r:
every selected pool must keep at least r probes that hybridize to its
representative primer and to no other selected pool's extended products.

Instance text format, one primer per line, '#' comments allowed::

    pool_id <TAB> strand <TAB> sequence <TAB> extensions

with strand one of ``+`` (forward), ``-`` (reverse), ``.`` (unspecified),
and extensions a string of 1-4 distinct bases, e.g. ``ACGT`` or ``T``.
Pool ids must be dense 0..n-1.
"""

import bisect
import functools
import hashlib
import re
from dataclasses import dataclass
from operator import attrgetter

from .dnaseq import SequenceError, normalize

STRANDS = ("+", "-", ".")


class InstanceFormatError(ValueError):
    """Raised for malformed input text, with a 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = "line %d: %s" % (line_no, message)
        super().__init__(message)
        self.line_no = line_no


def read_text(path):
    """The text of a file as open() decodes it, with "\\r\\n" and "\\r" line
    ends read as "\\n". A byte that does not decode raises
    InstanceFormatError naming the 1-based line it sits on.
    """
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        data = exc.object  # the whole file: read() decodes it in one call
        head = data[: exc.start].decode(exc.encoding).replace("\r\n", "\n")
        raise InstanceFormatError(
            "cannot decode byte 0x%02x as %s: %s" % (data[exc.start], exc.encoding, exc.reason),
            head.count("\n") + head.count("\r") + 1,
        ) from None


def records(text, n_fields, comments=None):
    """Yield (line_no, fields) for each data line of a text from read_text.

    Lines split on "\\n" only. A line that is blank or a '#' comment once
    stripped is skipped, and comments, when given, receives (line_no, text
    after the '#') for each comment line. A data line's fields are its
    tab-separated parts, each stripped, so a leading or trailing tab adds
    an empty field; a count other than n_fields raises InstanceFormatError
    naming the 1-based line.
    """
    # A field has space (str.isspace, re's \s) to strip only at a line end
    # or beside a tab; one search, led by a literal tab to run fast, finds
    # the latter for the whole text.
    space_by_tab = re.search(r"\t(?:\s|(?<=\s\t))", text) is not None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line.startswith("#"):
            if comments is not None:
                comments.append((line_no, line[1:]))
        elif line:
            fields = raw.split("\t")
            if space_by_tab or raw != line:
                fields = [field.strip() for field in fields]
            if len(fields) != n_fields:
                raise InstanceFormatError(
                    "expected %d tab-separated fields, got %d" % (n_fields, len(fields)), line_no
                )
            yield line_no, fields


@functools.lru_cache(maxsize=128)
def _extension_set(text):
    """The sorted extension set that text names; raises ValueError when it
    names none. A rejected text raises on every call and is never cached."""
    ext = normalize(text, what="extension set")
    if not 1 <= len(ext) <= 4:
        raise ValueError("extension set must have 1-4 bases, got %r" % (text,))
    if len(set(ext)) != len(ext):
        raise ValueError("duplicate extension base in %r" % (text,))
    return "".join(sorted(ext))


@dataclass(frozen=True, slots=True)
class Primer:
    """One extension primer: sequence, extension bases, strand tag; its Pool holds the id.

    Fields are checked in the order sequence, extensions, strand, so the
    first bad one names the error. An extension set is checked and sorted
    by a small cached helper, so each distinct text is checked once.

    Args:
        sequence: primer bases, 5' to 3', non-degenerate.
        extensions: the dideoxy bases this primer can be extended with, as
            a string of 1-4 distinct bases (stored sorted).
        strand: '+', '-' or '.'.
    """

    sequence: str
    extensions: str
    strand: str = "."

    def __post_init__(self):
        seq = normalize(self.sequence, what="primer sequence")
        if not seq:
            raise SequenceError("primer sequence is empty")
        ext = _extension_set(self.extensions)
        if self.strand not in STRANDS:
            raise ValueError("strand must be one of + - . , got %r" % (self.strand,))
        if seq is not self.sequence:
            object.__setattr__(self, "sequence", seq)
        if ext is not self.extensions:  # the cached string, shared per distinct text
            object.__setattr__(self, "extensions", ext)


@dataclass(frozen=True, slots=True)
class Pool:
    """The primers genotyping one SNP."""

    id: int
    primers: tuple

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("pool id must be non-negative, got %r" % (self.id,))
        primers = self.primers
        if type(primers) is not tuple:
            primers = tuple(primers)
            object.__setattr__(self, "primers", primers)
        if not 1 <= len(primers) <= 2:
            raise ValueError("pool %d must hold 1 or 2 primers, got %d" % (self.id, len(primers)))
        if len(primers) == 2 and primers[0].strand == primers[1].strand:
            raise ValueError(
                "pool %d has two primers with strand tag %r" % (self.id, primers[0].strand))


class ProblemInstance:
    """Pools plus the probe space and redundancy they are assayed under.

    Pools are kept sorted by id. Ids must be unique; text-format instances
    additionally require dense ids 0..n-1 (a subset may be sparse).

    An instance made here is its own root. ``subset`` makes an instance of
    some of its pools that shares the root's space, redundancy,
    fingerprint and hybridization graph: the partitioner solves one subset
    per array, every array's design verifies against the root, and no
    subset's text is formatted or hashed. ``root.graph`` is the graph of
    all the root's pools, None until a graph solver first builds it; each
    later graph solve, of the root or of a subset, resets its run state.
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
        self.graph = None
        self._root = None  # the instance a subset was taken from
        self._fingerprint = None

    @property
    def n_pools(self):
        return len(self.pools)

    @property
    def n_primers(self):
        return sum(len(pool.primers) for pool in self.pools)

    def pool_by_id(self, pool_id):
        pools = self.pools
        i = bisect.bisect_left(pools, pool_id, key=attrgetter("id"))
        if i == len(pools) or pools[i].id != pool_id:
            raise KeyError("no pool with id %r" % (pool_id,))
        return pools[i]

    def subset(self, pools):
        """The sub-instance of these pools, each one of this instance's own."""
        sub = ProblemInstance(pools, self.space, self.redundancy)
        # both lists ascend by id, so each of sub's pools must turn up, as
        # the same object, further along this instance's list
        mine = iter(self.pools)
        if not all(any(pool is own for own in mine) for pool in sub.pools):
            raise ValueError("a subset takes only pools of its instance")
        sub._root = self.root
        # hashed now, before a graph solve: formatting the root's text beside
        # its built graph raised a partition's peak memory
        sub._fingerprint = self.fingerprint
        return sub

    @property
    def root(self):
        """The instance this one is a subset of, or itself."""
        return self if self._root is None else self._root

    @property
    def fingerprint(self):
        """Hex sha256 of the canonical instance text: the root's, for a subset."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint(format_instance_text(self.pools))
        return self._fingerprint


def fingerprint(text):
    """Hex sha256 of instance text: the instance fingerprint when the text is canonical."""
    return hashlib.sha256(text.encode()).hexdigest()


def parse_instance_text(text):
    """Parse instance text into a list of pools with dense ids 0..n-1.

    Raises InstanceFormatError with a line number on malformed input.
    """
    by_pool = {}  # pool id -> [its first line number, primer, ...]
    for line_no, (pid_text, strand, seq, ext) in records(text, 4):
        try:
            pool_id = int(pid_text)
        except ValueError:
            raise InstanceFormatError("pool id %r is not an integer" % pid_text, line_no)
        try:
            primer = Primer(seq, ext, strand)
        except ValueError as exc:
            raise InstanceFormatError(str(exc), line_no)
        group = by_pool.get(pool_id)
        if group is None:
            by_pool[pool_id] = [line_no, primer]
        else:
            group.append(primer)

    pools = []
    for pos, pool_id in enumerate(sorted(by_pool)):
        group = by_pool[pool_id]
        try:
            pools.append(Pool(pool_id, tuple(group[1:])))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), group[0])
        if pool_id != pos:
            raise InstanceFormatError(
                "pool ids must be dense 0..%d: expected pool id %d, got %d"
                % (len(by_pool) - 1, pos, pool_id), group[0])
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
