import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpmux.dnaseq import (
    BASE_CODE,
    BASES,
    SequenceError,
    complement,
    is_degenerate,
    normalize,
    reverse_complement,
    unpack_value,
)

from reference import weight


def test_complement_pairs():
    assert complement("A") == "T"
    assert complement("T") == "A"
    assert complement("C") == "G"
    assert complement("G") == "C"


def test_complement_rejects_degenerate():
    with pytest.raises(SequenceError):
        complement("N")
    with pytest.raises(SequenceError):
        complement("x")


def test_reverse_complement():
    assert reverse_complement("ACGT") == "ACGT"
    assert reverse_complement("AAC") == "GTT"
    assert reverse_complement("") == ""
    assert reverse_complement("GATTACA") == "TGTAATC"


def test_reverse_complement_is_involution():
    import random

    rng = random.Random(7)
    for _ in range(50):
        seq = "".join(rng.choice("ACGT") for _ in range(rng.randint(0, 30)))
        assert reverse_complement(reverse_complement(seq)) == seq


def test_weight_two_four_rule():
    # A and T weigh 1, C and G weigh 2
    assert weight("") == 0
    assert weight("AT") == 2
    assert weight("CG") == 4
    assert weight("ACGT") == 6
    assert weight("GGG") == 6


def test_is_degenerate():
    assert not is_degenerate("A")
    assert is_degenerate("N")
    assert is_degenerate("R")
    # a whole string is one test; the empty string holds no degenerate base
    assert not is_degenerate("ACGT")
    assert is_degenerate("ACNT")
    assert not is_degenerate("")


def test_normalize_uppercases_and_validates():
    assert normalize("acgt") == "ACGT"
    with pytest.raises(SequenceError):
        normalize("ACGN")
    # degenerate codes pass only when allowed
    assert normalize("acgn", allow_degenerate=True) == "ACGN"
    with pytest.raises(SequenceError):
        normalize("ACG!", allow_degenerate=True)


def test_normalize_names_the_field():
    with pytest.raises(SequenceError, match="primer"):
        normalize("AXG", what="primer sequence")


_REF_COMP = {"A": "T", "C": "G", "G": "C", "T": "A"}


def _ref_normalize(text, what, allow_degenerate):
    seq = text.strip().upper()
    allowed = "ACGTRYSWKMBDHVN" if allow_degenerate else "ACGT"
    for i, c in enumerate(seq):
        if c not in allowed:
            raise SequenceError(
                "invalid character %r at position %d in %s %r" % (c, i, what, text))
    return seq


def _ref_is_degenerate(seq):
    return any(c not in _REF_COMP for c in seq)


def _ref_complement(base):
    if base not in _REF_COMP:
        raise SequenceError("cannot complement %r: not one of A, C, G, T" % (base,))
    return _REF_COMP[base]


def _ref_reverse_complement(seq):
    if _ref_is_degenerate(seq):
        raise SequenceError("cannot reverse-complement degenerate sequence %r" % (seq,))
    return "".join(_REF_COMP[c] for c in reversed(seq))


def _ref_weight(seq):
    if _ref_is_degenerate(seq):
        raise SequenceError("weight undefined for degenerate sequence %r" % (seq,))
    return sum(2 if c in "CG" else 1 for c in seq)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except SequenceError as exc:
        return SequenceError, str(exc)


_SPACES = st.text(" ", max_size=2)


@settings(max_examples=300, deadline=None, database=None)
@given(text=st.tuples(_SPACES, st.text("ACGTacgtNRnr!x", max_size=10), _SPACES).map("".join))
def test_set_tests_match_a_per_character_reference(text):
    for allow in (False, True):
        assert _outcome(normalize, text, what="probe", allow_degenerate=allow) == _outcome(
            _ref_normalize, text, "probe", allow)
    for fn, ref in ((is_degenerate, _ref_is_degenerate), (complement, _ref_complement),
                    (reverse_complement, _ref_reverse_complement), (weight, _ref_weight)):
        assert _outcome(fn, text) == _outcome(ref, text)


def test_encode_decode_roundtrip():
    assert [BASE_CODE[c] for c in "ACGT"] == [0, 1, 2, 3]
    assert "".join(BASES[c] for c in (0, 1, 2, 3)) == "ACGT"
    assert "".join(BASES[BASE_CODE[c]] for c in "GGATTC") == "GGATTC"


def test_unpack_value_base4_msb_first():
    assert unpack_value(0, 1) == "A"
    assert unpack_value(1, 2) == "AC"
    assert unpack_value(11, 2) == "GT"
    assert unpack_value(15, 2) == "TT"
    assert unpack_value(0, 3) == "AAA"
    # a c-token index key carries a 1 above its bases, which is ignored
    assert unpack_value((1 << 4) | 11, 2) == "GT"


def test_unpack_value_enumerates_every_sequence_in_order():
    for n in range(1, 5):
        seqs = [unpack_value(v, n) for v in range(4 ** n)]
        assert all(len(s) == n for s in seqs)
        assert len(set(seqs)) == 4 ** n
        assert seqs == sorted(seqs)
