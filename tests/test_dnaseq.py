import pytest

from snpmux.dnaseq import (
    BASE_CODE,
    BASES,
    SequenceError,
    complement,
    is_degenerate,
    normalize,
    pack_value,
    reverse_complement,
    unpack_value,
    weight,
)


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


def test_encode_decode_roundtrip():
    assert [BASE_CODE[c] for c in "ACGT"] == [0, 1, 2, 3]
    assert "".join(BASES[c] for c in (0, 1, 2, 3)) == "ACGT"
    assert "".join(BASES[BASE_CODE[c]] for c in "GGATTC") == "GGATTC"


def test_pack_value_base4_msb_first():
    assert pack_value("A") == 0
    assert pack_value("AC") == 1
    assert pack_value("GT") == 11
    assert pack_value("TT") == 15
    assert pack_value("AAA") == 0


def test_unpack_value_roundtrip():
    import random

    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 12)
        seq = "".join(rng.choice("ACGT") for _ in range(n))
        assert unpack_value(pack_value(seq), n) == seq
