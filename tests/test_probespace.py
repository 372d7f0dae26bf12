"""Probe-space tests.

The expected spectra here were worked out by hand from the definition
(a probe is in the spectrum when its reverse complement is a substring),
and the larger checks compare the rolling/two-pointer implementations
against a naive window scan written independently below.
"""

import random

import pytest

from snpmux.probespace import (
    ConfigError,
    CTokenSpace,
    ExplicitSpace,
    KmerSpace,
    count_ctokens,
    is_ctoken,
    load_probe_list,
    make_space,
)

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


def test_kmer_adjacency_matches_naive_on_random_primers():
    rng = random.Random(5)
    for k in (2, 3):
        space = KmerSpace(k)
        roster = list(space.probes())
        for _ in range(40):
            primer = "".join(rng.choice("ACGT") for _ in range(rng.randint(k, 10)))
            exts = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
            nplus, nminus = space.primer_adjacency(primer, exts)
            spec = _naive_spectrum(roster, primer)
            ext_spec = set()
            for e in exts:
                ext_spec |= _naive_spectrum(roster, primer + e)
            assert set(nplus) == spec
            assert set(nminus) == ext_spec - spec


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


def test_ctoken_adjacency_matches_naive():
    rng = random.Random(29)
    for c in (2, 3, 4):
        space = CTokenSpace(c)
        roster = list(space.probes())
        for _ in range(40):
            primer = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 10)))
            exts = "".join(sorted(rng.sample("ACGT", rng.randint(1, 4))))
            nplus, nminus = space.primer_adjacency(primer, exts)
            spec = _naive_spectrum(roster, primer)
            ext_spec = set()
            for e in exts:
                ext_spec |= _naive_spectrum(roster, primer + e)
            assert set(nplus) == spec, primer
            assert set(nminus) == ext_spec - spec, primer


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
