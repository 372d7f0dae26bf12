"""DNA string primitives: complement, weight, validation, 2-bit encoding.

Bases carry a hybridization weight of 1 for A/T and 2 for C/G, reflecting
the stronger pairing of C:G. The fixed base ordinal A=0, C=1, G=2, T=3 is
used for all dense probe indexing, so it must never change.
"""

BASES = "ACGT"

# ordinal encoding; also defines probe id numbering
BASE_CODE = {"A": 0, "C": 1, "G": 2, "T": 3}

_COMP = {"A": "T", "T": "A", "C": "G", "G": "C"}
_COMP_TABLE = str.maketrans("ACGT", "TGCA")
_WEIGHT = {"A": 1, "T": 1, "C": 2, "G": 2}

# IUPAC nucleotide codes (DNA): the four bases plus ambiguity codes
IUPAC = frozenset("ACGTRYSWKMBDHVN")


class SequenceError(ValueError):
    """Raised for text that is not a valid DNA sequence in this context."""


def complement(base):
    """Watson-Crick complement of a single non-degenerate base."""
    try:
        return _COMP[base]
    except KeyError:
        raise SequenceError("cannot complement %r: not one of A, C, G, T" % (base,))


def reverse_complement(seq):
    """Reverse complement of a non-degenerate sequence."""
    if not _is_acgt(seq):
        raise SequenceError("cannot reverse-complement degenerate sequence %r" % (seq,))
    return seq.translate(_COMP_TABLE)[::-1]


def weight(seq):
    """Hybridization weight: count of A/T bases plus twice the count of C/G."""
    if not _is_acgt(seq):
        raise SequenceError("weight undefined for degenerate sequence %r" % (seq,))
    at = seq.count("A") + seq.count("T")
    return at + 2 * (len(seq) - at)


def is_degenerate(char):
    """True iff char is not one of the four unambiguous bases A, C, G, T."""
    return char not in _COMP


def _is_acgt(seq):
    return all(c in _COMP for c in seq)


def normalize(text, *, what="sequence", allow_degenerate=False):
    """Uppercase text and validate it against the IUPAC alphabet.

    With allow_degenerate=False (the default) any base outside ACGT is
    rejected; otherwise any IUPAC code passes. Raises SequenceError.
    """
    seq = text.strip().upper()
    allowed = IUPAC if allow_degenerate else _COMP
    for i, c in enumerate(seq):
        if c not in allowed:
            raise SequenceError(
                "invalid character %r at position %d in %s %r" % (c, i, what, text)
            )
    return seq


def pack_value(seq):
    """Base-4 integer reading of seq, most significant base first.

    pack_value("AC") == 1, pack_value("GT") == 11. Defines k-mer probe ids.
    """
    v = 0
    for c in seq:
        v = (v << 2) | BASE_CODE[c]
    return v


def unpack_value(value, length):
    """Inverse of pack_value for a known sequence length."""
    out = []
    for shift in range(2 * (length - 1), -1, -2):
        out.append(BASES[(value >> shift) & 3])
    return "".join(out)
