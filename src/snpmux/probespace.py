"""Universal probe spaces and hybridization spectra.

A probe space is a finite set of array probes with a dense integer id per
probe. Two families are supported for designs, plus an explicit list for
tests and reductions:

* ``KmerSpace(k)``: every DNA k-mer; id is the base-4 reading of the
  sequence (A=0, C=1, G=2, T=3).
* ``CTokenSpace(c)``: every sequence of hybridization weight at least c
  whose proper suffixes all have weight below c. Member weights are c or
  c+1 and ids are ranks in lexicographic order.
* ``ExplicitSpace(probes)``: a fixed probe list; ids follow list order.

The spectrum of a target y is the set of probes that are exact
Watson-Crick complements of substrings of y, i.e. perfect hybridization
with no mismatches. The extended spectrum of a primer additionally
includes probes gained by appending any of its extension bases.

Every space splits a primer's probes the same way, in
``ProbeSpace.primer_adjacency``: the spectrum of the primer, and the
probes of the windows that end at an appended base less that spectrum.
A space only says which probes those end windows hit.
"""

import functools
import logging

from .dnaseq import BASE_CODE, normalize, reverse_complement, unpack_value, weight

logger = logging.getLogger(__name__)

KMER_MIN, KMER_MAX = 1, 16
CTOKEN_MIN, CTOKEN_MAX = 2, 20

_BASE_WEIGHT = (1, 2, 2, 1)  # indexed by base code A,C,G,T
_COMP_DIGIT = str.maketrans("ACGT", "3210")  # base -> code of its complement


class ConfigError(ValueError):
    """Raised for probe-space or solver parameters outside supported bounds."""


def is_ctoken(seq, c):
    """True iff seq has weight >= c and every proper suffix has weight < c.

    Suffix weights are monotone in length, so only the longest proper
    suffix needs checking.
    """
    if not seq:
        return False
    return weight(seq) >= c and weight(seq[1:]) < c


def count_ctokens(c):
    """Number of c-tokens, by recurrence over exact-weight string counts.

    With N(w) strings of weight exactly w (N(0)=1, N(1)=2,
    N(w)=2N(w-1)+2N(w-2)), a token is one base prepended to a lighter
    string: any base onto weight c-1, or C/G onto weight c-2.
    """
    if c < CTOKEN_MIN or c > CTOKEN_MAX:
        raise ConfigError("token weight c must be in [%d, %d], got %r" % (CTOKEN_MIN, CTOKEN_MAX, c))
    n_prev, n_cur = 1, 2  # N(0), N(1)
    for _ in range(2, c):
        n_prev, n_cur = n_cur, 2 * n_cur + 2 * n_prev
    # after the loop: n_cur = N(c-1), n_prev = N(c-2)
    return 4 * n_cur + 2 * n_prev


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
        # Rolling id of the reverse complement of each k-window. With the
        # window at [i, i+k), val = sum over t of comp(y[i+t]) * 4**t, which
        # equals the id of the reverse complement of the window.
        k = self.k
        n = len(y)
        out = set()
        if n < k:
            return out
        code = BASE_CODE
        ccodes = [3 - code[ch] for ch in y]
        val = 0
        for t in range(k):
            val |= ccodes[t] << (2 * t)
        out.add(val)
        top = 2 * (k - 1)
        add = out.add
        for i in range(1, n - k + 1):
            val = (val >> 2) | (ccodes[i + k - 1] << top)
            add(val)
        return out

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
    """All c-tokens; id = rank in lexicographic order.

    The size comes from the counting recurrence immediately. The rank
    index, packed key (1 << 2*len) | base-4 value -> rank, is built on
    first use by one lexicographic walk and checked against the
    recurrence: a token is a base b followed by any string u with
    c - w(b) <= w(u) < c, so growing u rightward in preorder, children in
    A, C, G, T order, meets the tokens in sorted order.
    """

    def __init__(self, c):
        self.c = c
        self.size = count_ctokens(c)
        self.descriptor = "ctoken:%d" % c

    @functools.cached_property
    def _index(self):
        c = self.c
        index = {}
        # (packed key of b + u, weight of b + u, weight of u); popped in
        # preorder, so pushed in reverse base order
        stack = [(4 | b, _BASE_WEIGHT[b], 0) for b in (3, 2, 1, 0)]
        children = [(b, _BASE_WEIGHT[b]) for b in (3, 2, 1, 0)]
        while stack:
            key, w, wu = stack.pop()
            if w >= c:
                index[key] = len(index)
            for b, bw in children:
                if wu + bw < c:
                    stack.append(((key << 2) | b, w + bw, wu + bw))
        if len(index) != self.size:
            raise AssertionError(
                "token enumeration (%d) disagrees with recurrence (%d) for c=%d"
                % (len(index), self.size, c)
            )
        return index

    def probes(self):
        return (unpack_value(key, key.bit_length() // 2) for key in self._index)

    def spectrum(self, y):
        # For each window start, the shortest window reaching weight >= c is
        # the only one whose reverse complement can be a token (longer
        # windows have a heavy proper prefix, i.e. a heavy suffix of the
        # complement). Two pointers keep this linear.
        c = self.c
        n = len(y)
        code = BASE_CODE
        ccodes = [3 - code[ch] for ch in y]
        weights = [_BASE_WEIGHT[code[ch]] for ch in y]
        index = self._index
        out = set()
        add = out.add
        acc = 0
        val = 0
        j = 0
        for i in range(n):
            while j < n and acc < c:
                val |= ccodes[j] << (2 * (j - i))
                acc += weights[j]
                j += 1
            if acc >= c:
                rank = index.get((1 << (2 * (j - i))) | val)
                if rank is not None:
                    add(rank)
            acc -= weights[i]
            val >>= 2
        return out

    def _extension_ids(self, p, extensions):
        # A window ending at e is a suffix p[i:] weighing under c that e
        # lifts to c or more; the empty suffix covers e alone (c <= 2).
        c = self.c
        code = BASE_CODE
        suffixes = [(0, 0, 0)]  # (weight, packed complement of p[i:], length)
        acc = 0
        val = 0
        for i in range(len(p) - 1, -1, -1):
            b = code[p[i]]
            acc += _BASE_WEIGHT[b]
            if acc >= c:
                break
            val = (val << 2) | (3 - b)
            suffixes.append((acc, val, len(p) - i))
        index = self._index
        out = set()
        for e in extensions:
            ew = _BASE_WEIGHT[code[e]]
            etop = 3 - code[e]
            for w, sval, slen in suffixes:
                if w + ew >= c:
                    out.add(index[(1 << (2 * (slen + 1))) | (etop << (2 * slen)) | sval])
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


def load_probe_list(path):
    """Read an explicit probe space from a file, one probe per line.

    Blank lines and '#' comments are ignored; ids follow file order.
    """
    probes = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            probes.append(line)
    return ExplicitSpace(probes, descriptor="list:%s" % path)


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
