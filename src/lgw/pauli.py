"""Exact symbolic algebra over n-qubit Pauli words with complex weights.

Conventions fixed once for the whole package:

* qubit 0 is the most significant bit of matrix indices,
* product phases are folded into coefficients immediately, so stored
  words are always phase-free,
* coefficients with magnitude below ``COEFF_PRUNE_TOL`` are dropped by
  every arithmetic operation.

A ``PauliSum`` stores letter keys (see below) and a coefficient array;
words enter and leave it as letter strings.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import CapacityError, DimensionError, ValidationError
from .tolerances import COEFF_PRUNE_TOL, PAULI_HERMITICITY_TOL

LETTERS = "IXYZ"

# Dense realizations are refused above this many qubits (4096x4096): the
# superoperator of a generator on half as many, or two copies of a register.
DENSE_QUBIT_CAP = 12

_I4_ARRAY = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

# Matrix entries per block in to_matrix: keeps each of the block's
# temporaries near 1-2 MB whatever the term count.
_PRODUCT_BLOCK = 1 << 15


def check_dense(n: int) -> None:
    """Refuse a dense realization on more than ``DENSE_QUBIT_CAP`` qubits."""
    if n > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"dense realization of {n} qubits exceeds the cap of "
            f"{DENSE_QUBIT_CAP} (dim {2 ** n})"
        )


class PauliString:
    """One n-qubit Pauli word by its letters: the key of ``PauliSum``'s dict
    constructor, ``PauliSum(n, {PauliString.from_letters(w): c})``.  That
    is the benchmark's input path (its random spec builder); the class goes
    once that builder moves to ``PauliSum.from_letter_terms``."""

    __slots__ = ("letters",)

    def __init__(self, letters: str):
        bad = letters.translate(_NOT_LETTERS)
        if bad:
            raise ValidationError(f"invalid Pauli letter {bad[0]!r}")
        self.letters = letters

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        return cls(letters)

    @property
    def n(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliString) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)


# -- letter keys -------------------------------------------------------
#
# A key row holds qubit q in bits 63 - 2r and 62 - 2r of limb q // 32,
# with r = q % 32: its z bit over its x ^ z bit, so that I, X, Y, Z read 0
# to 3 and key rows sort as the letters do.  Both bits are xors of mask
# bits, so the key of a product word is the xor of its factors' keys.
# Single words move to and from key rows through their letters.

_KEY_QUBITS = 32                          # qubits per 64-bit key limb
_LOW_BITS = np.uint64(0x5555555555555555)
# base-4 digit of each letter byte, 4 for anything else
_DIGITS = np.full(256, 4, dtype=np.uint8)
_DIGITS[np.frombuffer(LETTERS.encode(), np.uint8)] = np.arange(4)
_NOT_LETTERS = str.maketrans("", "", LETTERS)


def _key_bits(keys: np.ndarray, n: int) -> np.ndarray:
    """(rows, n, 2) uint8: each qubit's z bit and x ^ z bit."""
    bits = np.unpackbits(keys.astype(">u8").view(np.uint8), axis=1, count=2 * n)
    return bits.reshape(len(keys), n, 2)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Key rows of (rows, n, 2) bit planes, the inverse of ``_key_bits``."""
    rows, n = bits.shape[:2]
    # as many 64-bit limbs as the word needs, and at least one
    flat = np.zeros((rows, 64 * max(1, -(-n // _KEY_QUBITS))), dtype=np.uint8)
    flat[:, :2 * n] = bits.reshape(rows, 2 * n)
    return np.packbits(flat, axis=1).view(">u8").astype(np.uint64)


def _letter_keys(words: list[str], n: int) -> np.ndarray:
    """Key rows of n-letter words over I, X, Y, Z."""
    if n < 0:
        raise ValidationError("qubit count must be non-negative")
    digits =_DIGITS[np.frombuffer("".join(words).encode(), np.uint8)]
    digits = digits.reshape(len(words), n)
    return _pack_bits(np.stack([digits >> 1, digits & 1], axis=-1))


def key_letters(keys: np.ndarray, n: int) -> list[str]:
    """The letters of each key row."""
    bits = _key_bits(keys, n)
    text = np.frombuffer(b"IXYZ", np.uint8)[2 * bits[..., 0] + bits[..., 1]]
    text = text.tobytes().decode("ascii")
    return [text[i * n:(i + 1) * n] for i in range(len(keys))]


def _times(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """ca * cb, broadcast, rounded as Python's complex product, signed
    zeros included: (ar br - ai bi) + (ai br + ar bi) i in real
    arithmetic, so no fused multiply-add can enter."""
    out = (ca.real * cb.real - ca.imag * cb.imag).astype(complex)
    out.imag = ca.imag * cb.real + ca.real * cb.imag
    return out


class PauliSum:
    """A complex-weighted sum of Pauli words on a fixed qubit count.

    The terms are two arrays in term order, the order in which each
    distinct word first appeared: ``word_keys``, one letter-key row per
    word ((terms, limbs) uint64), and ``coeffs``, complex; ``letters()``
    spells the words.  ``PauliSum(n, {PauliString: c})`` converts a dict.

    Instances are treated as immutable (and hash by identity); arithmetic
    returns new sums and prunes coefficients below ``COEFF_PRUNE_TOL``.
    """

    __slots__ = ("n", "word_keys", "coeffs")

    def __init__(self, n: int, terms=None):
        pruned = {}
        for word, coeff in (terms or {}).items():
            if word.n != n:
                raise DimensionError(f"term on {word.n} qubits in a {n}-qubit sum")
            c = complex(coeff)
            if abs(c) >= COEFF_PRUNE_TOL:
                pruned[word] = c
        self.n = n
        self.word_keys = _letter_keys([word.letters for word in pruned], n)
        self.coeffs = np.array(list(pruned.values()), dtype=complex)

    # -- constructors -------------------------------------------------

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """The sum of distinct key rows with these coefficients, pruned."""
        kept = np.hypot(coeffs.real, coeffs.imag) >= COEFF_PRUNE_TOL
        out = cls.__new__(cls)
        out.n, out.word_keys, out.coeffs = n, keys[kept], coeffs[kept]
        return out

    @classmethod
    def _from_words(cls, n: int, terms: dict[str, complex]) -> "PauliSum":
        """The sum of distinct n-letter words ``{letters: coeff}``, in order,
        each coefficient kept as given (signed zeros included), pruned."""
        coeffs = np.array(list(terms.values()), dtype=complex)
        return cls._from_keys(n, _letter_keys(list(terms), n), coeffs)

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def identity(cls, n: int) -> "PauliSum":
        return cls._from_keys(n, _letter_keys(["I" * n], n), np.ones(1, complex))

    @classmethod
    def from_letter_terms(cls, entries) -> "PauliSum":
        """Build from (coeff, letters) pairs; a repeated word's coefficients add."""
        entries = list(entries)
        if not entries:
            raise ValidationError("need at least one (coeff, letters) entry")
        n = len(entries[0][1])
        for _, letters in entries:
            bad = letters.translate(_NOT_LETTERS)
            if bad:
                raise ValidationError(f"invalid Pauli letter {bad[0]!r}")
            if len(letters) != n:
                raise DimensionError("mixed word lengths in term list")
        keys, summed = _first_sums(
            _letter_keys([letters for _, letters in entries], n),
            np.array([complex(coeff) for coeff, _ in entries], dtype=complex))
        # summed before pruning, so duplicate words that overflow and NaN
        # entries (NaN stays NaN in a sum) are both caught here
        if not np.isfinite(summed).all():
            raise ValidationError("Pauli coefficients must be finite")
        return cls._from_keys(n, keys, summed)

    # -- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.coeffs)

    def letters(self) -> list[str]:
        """The letters of each term's word, in term order."""
        return key_letters(self.word_keys, self.n)

    def sorted(self) -> "PauliSum":
        """The same sum with its terms in letter order."""
        order = np.lexsort(self.word_keys.T[::-1])
        return PauliSum._from_keys(self.n, self.word_keys[order], self.coeffs[order])

    def max_weight(self) -> int:
        weights = np.bitwise_count((self.word_keys | self.word_keys >> 1) & _LOW_BITS)
        return int(weights.sum(axis=1).max(initial=0))

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError("qubit counts differ in sum")
        keys = np.concatenate([self.word_keys, other.word_keys])
        ids, distinct, first = word_ids(keys)
        m = len(self)
        # self's coefficients as they are, plus other's, summed from +0.0
        # where self lacks the word; each sum holds a word at most once
        coeffs = np.zeros(len(distinct), dtype=complex)
        coeffs[ids[:m]] = self.coeffs
        coeffs[ids[m:]] += other.coeffs
        appear = first.argsort()
        return PauliSum._from_keys(self.n, distinct[appear], coeffs[appear])

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum._from_keys(self.n, self.word_keys, -self.coeffs)

    def __mul__(self, scalar) -> "PauliSum":
        scalar = np.array([complex(scalar)])
        return PauliSum._from_keys(self.n, self.word_keys, _times(self.coeffs, scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError("qubit counts differ in product")
        # every word product, self's word major, as one grid; the product
        # rows are freed once summed
        keys = np.concatenate([self.word_keys, other.word_keys])
        coeffs = np.concatenate([self.coeffs, other.coeffs])
        m = len(self)
        return PauliSum._from_keys(self.n, *_first_sums(*_products(
            keys, coeffs, coeffs, np.s_[:m, None], np.s_[None, m:])))

    # -- involutions ----------------------------------------------------

    def dagger(self) -> "PauliSum":
        return PauliSum._from_keys(self.n, self.word_keys, self.coeffs.conj())

    def _signs(self) -> np.ndarray:
        """Each term's transposition sign, (-1)^(Y letters), as a complex;
        a Y has its z bit set and its x ^ z bit clear."""
        keys = self.word_keys
        ys = np.bitwise_count((keys >> 1) & ~keys & _LOW_BITS).sum(axis=1)
        return _I4_ARRAY[2 * (ys & 1)]

    def transpose(self) -> "PauliSum":
        return PauliSum._from_keys(self.n, self.word_keys,
                                   _times(self.coeffs, self._signs()))

    def conj(self) -> "PauliSum":
        return PauliSum._from_keys(self.n, self.word_keys,
                                   _times(self.coeffs.conj(), self._signs()))

    def tensor(self, other: "PauliSum") -> "PauliSum":
        """self (x) other, self's word major."""
        n = self.n + other.n
        bits = np.empty((len(self), len(other), n, 2), dtype=np.uint8)
        bits[:, :, :self.n] = _key_bits(self.word_keys, self.n)[:, None]
        bits[:, :, self.n:] = _key_bits(other.word_keys, other.n)
        keys = _pack_bits(bits.reshape(len(self) * len(other), n, 2))
        coeffs = _times(self.coeffs[:, None], other.coeffs).ravel()
        return PauliSum._from_keys(n, keys, coeffs)

    def swap_halves(self) -> "PauliSum":
        """Each word P (x) Q of a doubled register as Q (x) P, coefficients
        kept."""
        if self.n % 2:
            raise DimensionError("doubled-register sum must have even qubit count")
        bits = np.roll(_key_bits(self.word_keys, self.n), self.n // 2, axis=1)
        return PauliSum._from_keys(self.n, _pack_bits(bits), self.coeffs)

    # -- queries ---------------------------------------------------------

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() <= PAULI_HERMITICITY_TOL

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.coeffs.imag).max(initial=0.0))

    def frobenius_norm_sq(self) -> float:
        """||.||_F^2 = 2^n * sum |c|^2 (Pauli words are F-orthogonal)."""
        return (2 ** self.n) * sum(abs(c) ** 2 for c in self.coeffs.tolist())

    def max_coeff_diff(self, other: "PauliSum") -> float:
        if self.n != other.n:
            raise DimensionError("qubit counts differ in comparison")
        keys = np.concatenate([self.word_keys, other.word_keys])
        ids, distinct, _ = word_ids(keys)
        m = len(self)
        # each word's coefficient in both sums, 0.0 where a sum lacks it
        mine = np.zeros(len(distinct), dtype=complex)
        theirs = np.zeros(len(distinct), dtype=complex)
        mine[ids[:m]] = self.coeffs
        theirs[ids[m:]] = other.coeffs
        diff = mine - theirs
        # np.hypot rounds as abs() of a Python complex does; np.abs does not
        return float(np.hypot(diff.real, diff.imag).max(initial=0.0))

    def to_matrix(self) -> np.ndarray:
        return to_matrix(self)

    def __repr__(self) -> str:
        if not len(self):
            return f"PauliSum(0 on {self.n} qubits)"
        s = self.sorted()
        parts = [f"({c:.6g})*{letters}" for letters, c in zip(
            key_letters(s.word_keys[:6], s.n), s.coeffs[:6].tolist())]
        if len(self) > 6:
            parts.append(f"... [{len(self)} terms]")
        return "PauliSum(" + " + ".join(parts) + ")"


def _signed_permutations(keys: np.ndarray, n: int):
    """Each word of the key rows as a signed permutation of basis states.

    Word k sends column c to row c ^ flip[k] with value
    i^y[k] * (-1)^popcount(phase[k] & c), where flip and phase are its X
    and Z masks in index order (qubit q is bit n-1-q) and y[k] is its
    number of Y letters.  Returns (flip, phase, i^y).
    """
    bits = _key_bits(keys, n)
    place = 1 << np.arange(n - 1, -1, -1)
    flip, phase = (bits[..., 0] ^ bits[..., 1]) @ place, bits[..., 0] @ place
    return flip, phase, _I4_ARRAY[np.bitwise_count(flip & phase) & 3]


def _word_values(s: PauliSum):
    """The words of ``s`` in term order, in blocks of about
    ``_PRODUCT_BLOCK`` values: per block, each word's flip mask and the
    value coeff * i^y * (-1)^popcount(phase & c) it sends from every
    column c, a (words, 2^n) array (see ``_signed_permutations``)."""
    dim = 2 ** s.n
    flip, phase, i_y = _signed_permutations(s.word_keys, s.n)
    c = s.coeffs * i_y
    cols = np.arange(dim, dtype=np.int64)
    words = max(1, _PRODUCT_BLOCK // dim)
    for lo in range(0, len(c), words):
        coeff = c[lo:lo + words, None]
        odd = np.bitwise_count(phase[lo:lo + words, None] & cols) & 1
        yield flip[lo:lo + words], np.where(odd, -coeff, coeff)


def to_matrix(s: PauliSum) -> np.ndarray:
    """Dense complex matrix of a Pauli sum, qubit 0 most significant.

    Each word sends column c to row c ^ flip with the value of
    ``_word_values``.  The entries are scattered word by word in blocks,
    so every matrix entry sums its words in term order, as adding the
    words' Kronecker products one after another would.
    """
    check_dense(s.n)
    dim = 2 ** s.n
    cols = np.arange(dim, dtype=np.int64)
    out = np.zeros(dim * dim, dtype=complex)
    for flip, vals in _word_values(s):
        np.add.at(out, ((flip[:, None] ^ cols) * dim + cols).ravel(), vals.ravel())
    return out.reshape(dim, dim)


def pauli_decompose(m: np.ndarray) -> PauliSum:
    """Expand a square matrix in the Pauli basis.

    The coefficient of word P is Tr(P m) / 2^n; round-tripping through
    ``to_matrix`` reproduces m to working precision.  Qubit by qubit,
    most significant first, the qubit's row and column axes become one
    letter axis (I, X, Y, Z), so M = I(x)M_I + X(x)M_X + Y(x)M_Y + Z(x)M_Z
    is applied to every block at once.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    if dim < 1 or (dim & (dim - 1)) != 0:
        raise DimensionError(f"matrix dimension {dim} is not a power of two")
    n = dim.bit_length() - 1

    # t[word so far, rows, columns] holds the blocks of the qubits not yet
    # split off; each pass splits off the most significant one
    t = m.reshape(1, dim, dim)
    for _ in range(n):
        h = t.shape[1] // 2
        t = t.reshape(-1, 2, h, 2, h)
        a, b = t[:, 0, :, 0, :], t[:, 0, :, 1, :]
        c, d = t[:, 1, :, 0, :], t[:, 1, :, 1, :]
        t = np.stack(
            [(a + d) / 2, (b + c) / 2, 1j * (b - c) / 2, (a - d) / 2], axis=1
        ).reshape(-1, h, h)
    # a word's index spells its letters in base 4, qubit 0 most
    # significant, so shifted to the top of a limb it is the word's key
    # (n <= 32: no matrix is wider)
    keys = np.arange(t.size, dtype=np.uint64) << np.uint64(64 - 2 * n)
    return PauliSum._from_keys(n, keys[:, None], t.ravel())


# -- batched products --------------------------------------------------


def _products(keys, left, right, a, b):
    """Word products of the key rows keys[a] and keys[b], with
    coefficients left[a] and right[b]; ``a`` and ``b`` index the term
    axis and their results broadcast against each other.

    Returns the product words' key rows and coefficients ca * cb * i^e,
    where i^e is the words' product phase (``tests/conftest.py`` keeps the
    bitmask rule as its oracle).  Each rounds as Python's complex product
    does: ca * cb is ``_times``, and the phase is exact.
    """
    # per term, on the low bit of each letter: its x ^ z bit, z bit and x
    # bit (z and x carry other bits above, which anti masks off)
    low = keys & _LOW_BITS
    z = keys >> 1
    x = low ^ z
    # per qubit, the factors anticommute (phase i or -i), and of those the
    # ones with phase -i are where x_a & z_b differs from the xor of the
    # x ^ z bits; two product-sized buffers, freed once counted
    zb = z[b]
    anti = low[a] & zb
    minus = z[a] & low[b]
    anti ^= minus
    np.bitwise_and(x[a], zb, out=minus)
    minus ^= low[a]
    minus ^= low[b]
    minus &= anti
    expo = np.bitwise_count(anti)
    expo += np.bitwise_count(minus) << 1
    del zb, anti, minus
    coeff = _times(left[a], right[b])
    # summed in uint8, which wraps at 256 and so keeps the count mod 4
    coeff *= _I4_ARRAY[expo.sum(axis=-1, dtype=np.uint8) & 3]
    return keys[a] ^ keys[b], coeff


def dagger_products(sums, left: np.ndarray, right: np.ndarray):
    """Every word product of sums[left[d]]^dag @ sums[right[d]], for each d.

    Returns, one entry per word product and unsummed, d, the product
    word's key and the real and imaginary parts of its coefficient.
    Within one d the dagger word is major, as ``PauliSum.__matmul__``
    takes them, and each product rounds as it does there.  The products
    are gathered ragged, one row each.
    """
    keys = np.concatenate([s.word_keys for s in sums])
    coeffs = np.concatenate([s.coeffs for s in sums])
    sizes = np.array([len(s) for s in sums], dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    counts = sizes[left] * sizes[right]
    product = np.repeat(np.arange(len(counts)), counts)
    # each row's place within its product, split into the dagger word and
    # the other word
    a, b = np.divmod(
        np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts),
        sizes[right][product],
    )
    a += offsets[left][product]
    b += offsets[right][product]
    word, coeff = _products(keys, coeffs.conj(), coeffs, a, b)
    return product, word, coeff.real, coeff.imag


def word_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each key row's rank among the distinct rows, the distinct rows in
    ascending (letter) order, and the index of each one's first row."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    distinct = ranked[new]
    del ranked
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = new.cumsum()
    ids -= 1
    return ids, distinct, order[new]


def _first_sums(word: np.ndarray, coeff: np.ndarray):
    """The distinct key rows of ``word`` in order of first appearance, and
    their summed coefficients, each sum taken in row order from +0.0
    (bincount adds in input order), as a PauliSum sums a word's terms."""
    ids, distinct, first = word_ids(word.reshape(-1, word.shape[-1]))
    appear = first.argsort()
    k, coeff = len(distinct), coeff.ravel()
    summed = np.empty(k, dtype=complex)
    summed.real = np.bincount(ids, coeff.real, k)[appear]
    summed.imag = np.bincount(ids, coeff.imag, k)[appear]
    return distinct[appear], summed


def pruned_sums(major, minor, n_minor: int, re, im):
    """(re, im) summed over equal (major, minor) keys, each in input order
    as a PauliSum sums a word's terms, with sums below ``COEFF_PRUNE_TOL``
    in modulus dropped; ascending by key."""
    keys, inverse = np.unique(major * n_minor + minor, return_inverse=True)
    re = np.bincount(inverse, re, len(keys))
    im = np.bincount(inverse, im, len(keys))
    kept = np.hypot(re, im) >= COEFF_PRUNE_TOL
    keys = keys[kept]
    return keys // n_minor, keys % n_minor, re[kept], im[kept]


# -- text format -------------------------------------------------------
#
# One term per line: "<re> <im> <letters>"; '#' starts a comment.


def format_pauli_sum(s: PauliSum) -> str:
    s = s.sorted()
    lines = [f"# {s.n} qubits, {len(s)} terms"]
    lines += map("{!r} {!r} {}".format, s.coeffs.real.tolist(),
                 s.coeffs.imag.tolist(), s.letters())
    return "\n".join(lines) + "\n"


def parse_pauli_sum(text: str) -> PauliSum:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                f"line {lineno}: expected '<re> <im> <letters>', got {raw!r}"
            )
        re_s, im_s, letters = parts
        try:
            coeff = complex(float(re_s), float(im_s))
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad coefficient") from exc
        if not cmath.isfinite(coeff):
            raise ValidationError(f"line {lineno}: coefficient is not finite")
        bad = letters.translate(_NOT_LETTERS)
        if bad:
            raise ValidationError(
                f"line {lineno}: letter {bad[0]!r} is not one of I,X,Y,Z"
            )
        entries.append((coeff, letters))
    if not entries:
        raise ValidationError("no terms found in Pauli sum text")
    lengths = {len(letters) for _, letters in entries}
    if len(lengths) != 1:
        raise ValidationError(f"inconsistent word lengths {sorted(lengths)}")
    return PauliSum.from_letter_terms(entries)
