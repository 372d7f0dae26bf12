"""Universal probe spaces and hybridization spectra.

A probe space is a finite set of array probes with a dense integer id per
probe. Two families are supported for designs, plus an explicit list for
tests and reductions:

* ``KmerSpace(k)``: every DNA k-mer; id is the base-4 reading of the
  sequence (A=0, C=1, G=2, T=3).
* ``CTokenSpace(c)``: every sequence of hybridization weight at least c
  whose proper suffixes all have weight below c. Member weights are c or
  c+1 and ids are ranks in lexicographic order, computed by counting from
  the exact-weight recurrence of ``count_ctokens``. The tables behind the
  ranks hold O(c) entries, so even ``ctoken:20`` (733M tokens) keeps no
  structure that grows with the space.
* ``ExplicitSpace(probes)``: a fixed probe list; ids follow list order.

The spectrum of a target y is the set of probes that are exact
Watson-Crick complements of substrings of y, i.e. perfect hybridization
with no mismatches. The extended spectrum of a primer additionally
includes probes gained by appending any of its extension bases.

Every space splits a primer's probes the same way, in
``ProbeSpace.primer_adjacency``: the spectrum of the primer, and the
probes of the windows that end at an appended base less that spectrum.
A space only says which probes those end windows hit.

``coverage_table`` makes the per-probe tables that the solvers' first-fit
rule and the verifier count into, and holds the one rule for when such a
table may be a flat array; ``table_entries`` reads either kind.
"""

import functools
from array import array
from itertools import repeat

from .dnaseq import BASE_CODE, SequenceError, normalize, reverse_complement, unpack_value
from .instance import InstanceFormatError, read_text, records

KMER_MIN, KMER_MAX = 1, 16
CTOKEN_MIN, CTOKEN_MAX = 2, 20

_BASE_WEIGHT = (1, 2, 2, 1)  # hybridization weight by base code A,C,G,T: C:G pairs stronger
_COMP_DIGIT = str.maketrans("ACGT", "3210")  # base -> code of its complement


class ConfigError(ValueError):
    """Raised for probe-space or solver parameters outside supported bounds."""


def count_ctokens(c):
    """Number of c-tokens, by recurrence over exact-weight string counts.

    With N(w) strings of weight exactly w (see _weight_counts), a token is
    one base prepended to a lighter string: any base onto weight c-1, or
    C/G onto weight c-2.
    """
    if c < CTOKEN_MIN or c > CTOKEN_MAX:
        raise ConfigError("token weight c must be in [%d, %d], got %r" % (CTOKEN_MIN, CTOKEN_MAX, c))
    n = _weight_counts(c)
    return 4 * n[c - 1] + 2 * n[c - 2]


def _weight_counts(c):
    """[N(0), ..., N(c-1)]: N(0)=1, N(1)=2, N(w)=2N(w-1)+2N(w-2)."""
    n = [1, 2]
    while len(n) < c:
        n.append(2 * n[-1] + 2 * n[-2])
    return n[:c]


class ProbeSpace:
    """Interface shared by all probe spaces; see module docstring."""

    descriptor = None  # type: str
    size = None  # type: int

    def probes(self):
        """Iterate over all member sequences in id order."""
        raise NotImplementedError

    def spectrum(self, y):
        """Set of probe ids whose reverse complement occurs in y."""
        raise NotImplementedError

    def primer_adjacency(self, p, extensions):
        """Spectrum split for graph building.

        Returns (nplus, nminus): sorted tuples of probe ids hybridizing to
        the unextended primer, and of probes gained only through the
        extended products. The two are disjoint by construction.
        """
        nplus = self.spectrum(p)
        nminus = self._extension_ids(p, extensions) - nplus
        return tuple(sorted(nplus)), tuple(sorted(nminus))

    def _extension_ids(self, p, extensions):
        """Probe ids of the windows of p + e that end at an appended base e.

        Any superset that adds only ids from spectrum(p) will do; this
        default takes the whole spectrum of every extended product.
        """
        out = set()
        for e in extensions:
            out |= self.spectrum(p + e)
        return out


class KmerSpace(ProbeSpace):
    """All 4**k DNA k-mers, id = base-4 reading of the sequence."""

    def __init__(self, k):
        if not (KMER_MIN <= k <= KMER_MAX):
            raise ConfigError("k must be in [%d, %d], got %r" % (KMER_MIN, KMER_MAX, k))
        self.k = k
        self.size = 4 ** k
        self.descriptor = "kmer:%d" % k

    def probes(self):
        return (unpack_value(pid, self.k) for pid in range(self.size))

    def spectrum(self, y):
        # Read the reverse complement of y as one base-4 number. The window
        # at [i, i+k) of y is the reverse complement's window that ends i
        # bases from its 3' end, so its id is the k digits 2i bits up.
        n = len(y)
        if n < self.k:
            return set()
        val = int(y[::-1].translate(_COMP_DIGIT), 4)
        mask = self.size - 1
        return {(val >> (2 * i)) & mask for i in range(n - self.k + 1)}

    def _extension_ids(self, p, extensions):
        # The one window ending at e is the (k-1)-tail of p plus e; its id
        # reads comp(e) and then the tail's complement from the 3' end.
        k = self.k
        if len(p) < k - 1:
            return set()
        tail = int("0" + p[len(p) - k + 1 :][::-1].translate(_COMP_DIGIT), 4)
        top = 2 * (k - 1)
        code = BASE_CODE
        return {tail | ((3 - code[e]) << top) for e in extensions}


class CTokenSpace(ProbeSpace):
    """All c-tokens; id = rank in lexicographic order, found by counting.

    A token is a base b followed by a string u with c - w(b) <= w(u) < c.
    The tokens below b x1..xL are those that start with a base smaller
    than b, and, for each i, those that share the prefix b x1..x(i-1) and
    continue with a base smaller than xi, plus that prefix itself when it
    is a token. With N(w) strings of weight exactly w, each term depends
    only on w(b), the prefix weight and the next base. So the rank is
    ``first[b] + sum of row[w(b)][w(x1..x(i-1)), xi]`` over tables of
    O(c) entries, and nothing the space holds grows with its size.
    """

    def __init__(self, c):
        self.c = c
        self.size = count_ctokens(c)
        self.descriptor = "ctoken:%d" % c

    @functools.cached_property
    def _tables(self):
        """(first, rows): first[b] counts the tokens that start below b;
        rows[w0][4*x + b] counts, for a head of weight w0, the tokens that
        share a prefix whose tail weighs x and continue below b, plus one
        when that prefix is itself a token."""
        c = self.c
        cum = [0]  # cum[w] = N(0) + ... + N(w - 1)
        for n in _weight_counts(c):
            cum.append(cum[-1] + n)

        def tails(lo, hi):  # strings weighing lo..hi (lo <= hi)
            return cum[hi + 1] - cum[max(lo, 0)] if hi >= 0 else 0

        first = [0]
        for bw in _BASE_WEIGHT:
            first.append(first[-1] + tails(c - bw, c - 1))
        rows = [None]
        for w0 in (1, 2):
            row = []
            for x in range(c):
                below = int(w0 + x >= c)
                for bw in _BASE_WEIGHT:
                    row.append(below)
                    below += tails(c - w0 - x - bw, c - 1 - x - bw)
            rows.append(row)
        return first, rows

    def probes(self):
        # Growing u rightward in preorder, children in A, C, G, T order,
        # meets the tokens in sorted order; a stack pops in reverse, so
        # children are pushed T first.
        c = self.c
        children = [(b, _BASE_WEIGHT[BASE_CODE[b]]) for b in "TGCA"]
        stack = [(b, bw, 0) for b, bw in children]  # (b + u, weight, w(u))
        while stack:
            seq, w, wu = stack.pop()
            if w >= c:
                yield seq
            for b, bw in children:
                if wu + bw < c:
                    stack.append((seq + b, w + bw, wu + bw))

    def spectrum(self, y):
        # For each window start, the shortest window reaching weight >= c is
        # the only one whose reverse complement can be a token (longer
        # windows have a heavy proper prefix, i.e. a heavy suffix of the
        # complement), and it always is one: dropping its last base leaves
        # weight below c. Two pointers keep the scan linear; the rank reads
        # the window's complement from its last base back to its first.
        c = self.c
        n = len(y)
        code = BASE_CODE
        ccodes = [3 - code[ch] for ch in y]
        weights = [_BASE_WEIGHT[b] for b in ccodes]
        first, rows = self._tables
        out = set()
        add = out.add
        acc = 0
        j = 0
        for i in range(n):
            while j < n and acc < c:
                acc += weights[j]
                j += 1
            if acc < c:
                break  # later starts only lose weight
            row = rows[weights[j - 1]]
            rank = first[ccodes[j - 1]]
            x = 0
            for k in range(j - 2, i - 1, -1):
                rank += row[x + ccodes[k]]
                x += 4 * weights[k]
            add(rank)
            acc -= weights[i]
        return out

    def _extension_ids(self, p, extensions):
        # A window ending at e is a suffix p[i:] weighing under c that e
        # lifts to c or more; the empty suffix covers e alone (c <= 2). Its
        # token reads comp(e), comp(p[-1]), comp(p[-2]), ..., so each suffix
        # base adds one table entry, kept for both head weights.
        c = self.c
        code = BASE_CODE
        first, (_, row1, row2) = self._tables
        suffixes = [(0, 0, 0)]  # (weight of p[i:], rank sum after a weight-1, weight-2 head)
        acc = r1 = r2 = 0
        for i in range(len(p) - 1, -1, -1):
            b = code[p[i]]
            bw = _BASE_WEIGHT[b]
            if acc + bw >= c:
                break
            r1 += row1[4 * acc + 3 - b]
            r2 += row2[4 * acc + 3 - b]
            acc += bw
            suffixes.append((acc, r1, r2))
        out = set()
        for e in extensions:
            head = 3 - code[e]
            ew = _BASE_WEIGHT[head]
            for w, s1, s2 in suffixes:
                if w + ew >= c:
                    out.add(first[head] + (s1 if ew == 1 else s2))
        return out


class ExplicitSpace(ProbeSpace):
    """A fixed probe list; ids follow list order. Intended for tests."""

    def __init__(self, probes, descriptor="list:<memory>"):
        seqs = []
        for i, raw in enumerate(probes):
            seq = normalize(raw, what="probe %d" % i)
            if not seq:
                raise ConfigError("probe %d is empty" % i)
            seqs.append(seq)
        if not seqs:
            raise ConfigError("probe list is empty")
        if len(set(seqs)) != len(seqs):
            raise ConfigError("probe list contains duplicates")
        self._probes = seqs
        # spectrum lookups go through reverse complements of the probes
        self._by_rc = {reverse_complement(s): i for i, s in enumerate(seqs)}
        self._lengths = sorted({len(s) for s in seqs})
        self.size = len(seqs)
        self.descriptor = descriptor

    def probes(self):
        return iter(self._probes)

    def spectrum(self, y):
        out = set()
        by_rc = self._by_rc
        for ell in self._lengths:
            for i in range(len(y) - ell + 1):
                pid = by_rc.get(y[i : i + ell])
                if pid is not None:
                    out.add(pid)
        return out


# A dense coverage table costs 4 bytes for every probe of the space, a
# dict one a boxed key and value for each probe it holds. Measured with
# tracemalloc on 20-mer pools of two primers (kmer:11, ctoken:14), a seq
# solve or a verification peaks the same with either kind at about 120
# entries per primer. All the dense tables that one instance's solve or
# verification holds together get at most this many entries per primer
# of the instance, about half that, so an array stays the smaller kind
# for primers that reach half as many probes.
DENSE_ENTRIES_PER_PRIMER = 64


def coverage_table(space, n_primers, held=0):
    """A table of one int per probe id of the space, every one 0.

    It is an ``array('i')`` of space.size entries when that table and the
    ``held`` tables its caller already holds have at most
    DENSE_ENTRIES_PER_PRIMER entries per primer of an instance of
    n_primers; otherwise a dict that holds only the ids written. Both
    are written by probe id alike; table_entries reads them alike.
    """
    if (held + 1) * space.size <= DENSE_ENTRIES_PER_PRIMER * n_primers:
        return array("i", [0]) * space.size
    return {}


def table_entries(table, ids):
    """A coverage table's entries for these probe ids, as an iterator.

    An id a dict table lacks reads 0, through dict.get in C.
    """
    if isinstance(table, array):
        return map(table.__getitem__, ids)
    return map(table.get, ids, repeat(0))


def load_probe_list(path):
    """Read an explicit probe space from a file, one probe per line.

    Blank lines and '#' comments are ignored; ids follow file order. A bad
    byte, an invalid base or a repeated probe raises InstanceFormatError
    naming its 1-based file line.
    """
    first_line = {}  # probe -> line it first appears on, in file order
    for line_no, (line,) in records(read_text(path), 1):
        try:
            seq = normalize(line, what="probe")
        except SequenceError as exc:
            raise InstanceFormatError(str(exc), line_no) from None
        if seq in first_line:
            raise InstanceFormatError("duplicate probe %r (first on line %d)"
                                      % (seq, first_line[seq]), line_no)
        first_line[seq] = line_no
    return ExplicitSpace(list(first_line), descriptor="list:%s" % path)


def make_space(descriptor):
    """Build a probe space from a descriptor string.

    Accepted forms: ``kmer:<k>``, ``ctoken:<c>``, ``list:<path>``.
    """
    kind, sep, arg = descriptor.partition(":")
    if not sep:
        raise ConfigError("probe space descriptor must look like kind:arg, got %r" % descriptor)
    if kind == "kmer":
        return KmerSpace(_int_arg(arg, descriptor))
    if kind == "ctoken":
        return CTokenSpace(_int_arg(arg, descriptor))
    if kind == "list":
        return load_probe_list(arg)
    raise ConfigError("unknown probe space kind %r" % kind)


def _int_arg(arg, descriptor):
    try:
        return int(arg)
    except ValueError:
        raise ConfigError("probe space descriptor %r needs an integer argument" % descriptor)
