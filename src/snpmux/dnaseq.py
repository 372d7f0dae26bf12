"""DNA string primitives: complement, weight, validation, 2-bit encoding.

Bases carry a hybridization weight of 1 for A/T and 2 for C/G, reflecting
the stronger pairing of C:G. The fixed base ordinal A=0, C=1, G=2, T=3 is
used for all dense probe indexing, so it must never change.

Base checks are one set test on the whole string: is_degenerate, normalize.
"""

BASES = "ACGT"

# ordinal encoding; also defines probe id numbering
BASE_CODE = {"A": 0, "C": 1, "G": 2, "T": 3}

_ACGT = frozenset(BASES)
_COMP_TABLE = str.maketrans("ACGT", "TGCA")

# IUPAC nucleotide codes (DNA): the four bases plus ambiguity codes
IUPAC = frozenset("ACGTRYSWKMBDHVN")


class SequenceError(ValueError):
    """Raised for text that is not a valid DNA sequence in this context."""


def complement(base):
    """Watson-Crick complement of a single non-degenerate base."""
    if len(base) != 1 or is_degenerate(base):
        raise SequenceError("cannot complement %r: not one of A, C, G, T" % (base,))
    return base.translate(_COMP_TABLE)


def reverse_complement(seq):
    """Reverse complement of a non-degenerate sequence."""
    if is_degenerate(seq):
        raise SequenceError("cannot reverse-complement degenerate sequence %r" % (seq,))
    return seq.translate(_COMP_TABLE)[::-1]


def weight(seq):
    """Hybridization weight: count of A/T bases plus twice the count of C/G."""
    if is_degenerate(seq):
        raise SequenceError("weight undefined for degenerate sequence %r" % (seq,))
    at = seq.count("A") + seq.count("T")
    return at + 2 * (len(seq) - at)


def is_degenerate(seq):
    """True iff seq, one base or a string of them, holds a non-ACGT character; "" does not."""
    return not _ACGT.issuperset(seq)


def normalize(text, *, what="sequence", allow_degenerate=False):
    """Uppercase text and validate it against the IUPAC alphabet.

    With allow_degenerate=False (the default) any base outside ACGT is
    rejected; otherwise any IUPAC code passes. Raises SequenceError.
    """
    seq = text.strip().upper()
    allowed = IUPAC if allow_degenerate else _ACGT
    if not allowed.issuperset(seq):
        i, c = next((i, c) for i, c in enumerate(seq) if c not in allowed)
        raise SequenceError(
            "invalid character %r at position %d in %s %r" % (c, i, what, text)
        )
    return seq


def unpack_value(value, length):
    """The length-base sequence whose base-4 reading is value, most
    significant base first; bits above 2*length are ignored.

    unpack_value(1, 2) == "AC", unpack_value(11, 2) == "GT". Defines k-mer
    probe ids.
    """
    out = []
    for shift in range(2 * (length - 1), -1, -2):
        out.append(BASES[(value >> shift) & 3])
    return "".join(out)
