"""Probe-space tests.

The expected spectra here were worked out by hand from the definition
(a probe is in the spectrum when its reverse complement is a substring),
and the larger checks compare the rolling/two-pointer implementations
against a naive window scan written independently below.
"""

import hashlib
import random
import tracemalloc
from array import array

import pytest

from snpmux.probespace import (
    ConfigError,
    CTokenSpace,
    DENSE_ENTRIES_PER_PRIMER,
    ExplicitSpace,
    KmerSpace,
    count_ctokens,
    coverage_table,
    load_probe_list,
    make_space,
    table_entries,
)

from reference import is_ctoken

_COMP = str.maketrans("ACGT", "TGCA")


def _rc(seq):
    return seq.translate(_COMP)[::-1]


def _naive_spectrum(roster, target):
    """Reference spectrum: scan every window of every probe length."""
    found = set()
    for pid, probe in enumerate(roster):
        if _rc(probe) in target:
            found.add(pid)
    return found


def test_kmer_space_size_and_roster():
    space = KmerSpace(2)
    assert space.size == 16
    roster = list(space.probes())
    assert len(roster) == 16
    assert roster[0] == "AA"
    assert roster[1] == "AC"
    assert roster[15] == "TT"


def test_kmer_spectrum_known_values():
    space = KmerSpace(2)
    # ACGT contains AC, CG, GT; their reverse complements are GT, CG, AC
    assert sorted(space.spectrum("ACGT")) == [1, 6, 11]
    # AAAA only contains AA, whose reverse complement is TT (id 15)
    assert sorted(space.spectrum("AAAA")) == [15]
    # too short to contain any window
    assert space.spectrum("A") == set()


def test_kmer_spectrum_matches_naive_scan():
    rng = random.Random(11)
    for k in (1, 2, 3, 4):
        space = KmerSpace(k)
        roster = list(space.probes())
        for _ in range(25):
            target = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 14)))
            assert space.spectrum(target) == _naive_spectrum(roster, target)


def _kmer_id(probe):
    pid = 0
    for base in probe:
        pid = 4 * pid + "ACGT".index(base)
    return pid


def test_kmer_spectrum_matches_window_slicing():
    # every k, and every length around k: shorter (no window), equal (one)
    # and longer, up to 40 bases
    rng = random.Random(13)
    for k in range(1, 17):
        space = KmerSpace(k)
        for n in range(41):
            for _ in range(3):
                target = "".join(rng.choice("ACGT") for _ in range(n))
                expected = {_kmer_id(_rc(target[i:i + k])) for i in range(n - k + 1)}
                assert space.spectrum(target) == expected, (k, target)


def test_kmer_extended_spectrum():
    space = KmerSpace(2)
    # AAA extended by C is AAAC: windows AA, AA, AC -> probes TT, GT
    nplus, nminus = space.primer_adjacency("AAA", "C")
    assert sorted(nplus + nminus) == [11, 15]


def test_kmer_adjacency_splits_plus_and_minus():
    space = KmerSpace(2)
    nplus, nminus = space.primer_adjacency("ACG", "T")
    assert list(nplus) == [6, 11]
    assert list(nminus) == [1]
    # the two sides never overlap
    assert not set(nplus) & set(nminus)


def test_kmer_bounds():
    with pytest.raises(ConfigError):
        KmerSpace(0)
    with pytest.raises(ConfigError):
        KmerSpace(17)


def test_is_ctoken():
    # weight(s) >= c while every proper suffix stays below c
    assert is_ctoken("C", 2)
    assert is_ctoken("AT", 2)
    # CT: weight 3 >= 2 and the suffix "T" weighs 1 < 2
    assert is_ctoken("CT", 2)
    assert not is_ctoken("TC", 2)  # suffix "C" already weighs 2
    assert not is_ctoken("A", 2)  # too light


def test_ctoken_count_recurrence_values():
    assert count_ctokens(2) == 10
    assert count_ctokens(3) == 28
    assert count_ctokens(13) == 645376


def test_ctoken_roster_small():
    space = CTokenSpace(2)
    assert list(space.probes()) == ["AA", "AT", "C", "CA", "CT", "G", "GA", "GT", "TA", "TT"]
    assert space.size == 10


def test_ctoken_roster_matches_recurrence_and_definition():
    for c in (2, 3, 4, 5):
        space = CTokenSpace(c)
        roster = list(space.probes())
        assert len(roster) == count_ctokens(c)
        assert roster == sorted(roster)
        assert len(set(roster)) == len(roster)
        for tok in roster:
            assert is_ctoken(tok, c)
            # member weights are c or c+1, length never exceeds c
            w = sum(2 if b in "CG" else 1 for b in tok)
            assert w in (c, c + 1)
            assert len(tok) <= c


def test_ctoken_roster_is_suffix_free():
    for c in (2, 3, 4):
        roster = set(CTokenSpace(c).probes())
        for tok in roster:
            for i in range(1, len(tok)):
                assert tok[i:] not in roster


def test_ctoken_spectrum_known_values():
    space = CTokenSpace(3)
    assert sorted(space.spectrum("ACGT")) == [2, 10, 19]
    space4 = CTokenSpace(4)
    roster = list(space4.probes())
    got = sorted(roster[i] for i in space4.spectrum("TTAACC"))
    assert got == ["GG", "GGT", "GTT", "GTTA", "TTAA"]


def test_ctoken_spectrum_matches_naive_scan():
    rng = random.Random(23)
    for c in (2, 3, 4, 5):
        space = CTokenSpace(c)
        roster = list(space.probes())
        for _ in range(30):
            target = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 16)))
            assert space.spectrum(target) == _naive_spectrum(roster, target)


@pytest.mark.parametrize("space", [
    KmerSpace(1), KmerSpace(2), KmerSpace(3), KmerSpace(4),
    CTokenSpace(2), CTokenSpace(3), CTokenSpace(4), CTokenSpace(5),
    ExplicitSpace(["T", "GA", "CCA", "ACGT", "TTG", "GG", "CATG"]),
], ids=lambda space: space.descriptor)
def test_adjacency_matches_naive(space):
    rng = random.Random(29)
    roster = list(space.probes())
    # lengths from 1 reach primers shorter than a whole window
    for _ in range(60):
        primer = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 10)))
        exts = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
        nplus, nminus = space.primer_adjacency(primer, exts)
        spec = _naive_spectrum(roster, primer)
        ext_spec = set()
        for e in exts:
            ext_spec |= _naive_spectrum(roster, primer + e)
        assert nplus == tuple(sorted(spec)), primer
        assert nminus == tuple(sorted(ext_spec - spec)), primer


@pytest.mark.parametrize("c, digest", [
    (9, "bc205fff52276947e0914f3946a92b831ba329fe3d02ecfa851ae2f071c06829"),
    (11, "ecc493f886a69e6b6fa6a447e7c503a52a34d6764e1d10174d3c694cc14c2968"),
], ids=["ctoken:9", "ctoken:11"])
def test_ctoken_roster_matches_pinned_hash(c, digest):
    roster = "\n".join(CTokenSpace(c).probes())
    assert hashlib.sha256(roster.encode()).hexdigest() == digest


def _rank(space, tok):
    """The id spectrum gives tok: only the start-0 window of its reverse
    complement reaches back to tok's first base."""
    y = _rc(tok)
    (rank,) = space.spectrum(y) - space.spectrum(y[1:])
    return rank


def test_ctoken_rank_is_roster_position():
    for c in range(2, 12):
        space = CTokenSpace(c)
        for pos, tok in enumerate(space.probes()):
            assert _rank(space, tok) == pos, (c, tok)


def _random_ctoken(rng, c):
    """A uniform base, then bases until the tail weighs c - w(head) or
    more; where C or G would lift the tail to c, only A or T is drawn."""
    weights = {"A": 1, "C": 2, "G": 2, "T": 1}
    head = rng.choice("ACGT")
    tail, w = "", 0
    while w < c - weights[head]:
        b = rng.choice("ACGT" if w + 2 < c else "AT")
        tail += b
        w += weights[b]
    return head + tail


@pytest.mark.parametrize("c", [16, 20])
def test_large_ctoken_ranks_are_bounded_and_ordered(c):
    space = CTokenSpace(c)
    assert _rank(space, "A" * c) == 0
    assert _rank(space, "T" * c) == space.size - 1
    # a token's first extension by A comes right after it
    half = "C" * (c // 2)
    assert _rank(space, half + "A") == _rank(space, half) + 1
    rng = random.Random(c)
    toks = sorted({_random_ctoken(rng, c) for _ in range(2000)})
    assert all(is_ctoken(tok, c) for tok in toks)
    ranks = [_rank(space, tok) for tok in toks]
    assert ranks == sorted(set(ranks))
    assert 0 <= ranks[0] and ranks[-1] < space.size


def test_ctoken20_spectrum_allocates_no_index():
    space = CTokenSpace(20)
    rng = random.Random(20)
    target = "".join(rng.choice("ACGT") for _ in range(60))
    tracemalloc.start()
    try:
        spectrum = space.spectrum(target)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spectrum) > 30  # about one token per start
    assert peak < 100_000  # bytes; a whole-space index would take gigabytes


def test_coverage_table_is_dense_up_to_its_rule():
    # dense while the tables held, this one included, have at most 64
    # entries per primer of the instance: 256 entries each here
    assert DENSE_ENTRIES_PER_PRIMER == 64
    space = KmerSpace(4)
    for n_primers, held, dense in ((4, 0, True), (3, 0, False), (8, 1, True), (7, 1, False),
                                   (12, 2, True), (11, 2, False), (0, 0, False)):
        table = coverage_table(space, n_primers, held)
        assert isinstance(table, array) == dense, (n_primers, held)
        assert list(table_entries(table, range(space.size))) == [0] * space.size
        table[7] = 2
        table[255] = -1
        assert (table[7], table[255]) == (2, -1)
        assert list(table_entries(table, [255, 8, 7, 9])) == [-1, 0, 2, 0]
        if not dense:
            assert sorted(table) == [7, 255]  # reading 0 stores nothing
    # the benchmark's ctoken:13 instance (10,000 pools of two primers) is
    # dense, but its 9,632 selected primers alone would not be
    assert isinstance(coverage_table(CTokenSpace(13), 20_000), array)
    assert not isinstance(coverage_table(CTokenSpace(13), 9_632), array)


def test_explicit_space():
    space = ExplicitSpace(["GTT", "TT"])
    assert space.size == 2
    assert list(space.probes()) == ["GTT", "TT"]
    # rc(GTT) = AAC, rc(TT) = AA
    assert space.spectrum("AACT") == {0, 1}
    assert space.spectrum("CAA") == {1}
    assert space.spectrum("GGG") == set()
    with pytest.raises(ConfigError):
        ExplicitSpace([])
    with pytest.raises(ConfigError):
        ExplicitSpace(["AA", "AA"])
    with pytest.raises(ConfigError, match="probe 1 is empty"):
        ExplicitSpace(["AC", ""])


def test_load_probe_list(tmp_path):
    path = tmp_path / "probes.txt"
    path.write_text("# roster\nGTT\nTT\n\n")
    space = load_probe_list(str(path))
    assert list(space.probes()) == ["GTT", "TT"]


def test_make_space_descriptors(tmp_path):
    assert make_space("kmer:3").size == 64
    assert make_space("ctoken:2").size == 10
    path = tmp_path / "p.txt"
    path.write_text("AC\nGG\n")
    assert make_space("list:%s" % path).size == 2
    for bad in ("kmer", "kmer:x", "ctoken:1", "foo:3", ""):
        with pytest.raises(ConfigError):
            make_space(bad)
