"""Exact symbolic algebra over n-qubit Pauli words with complex weights.

Conventions fixed once for the whole package:

* qubit 0 is the most significant bit of matrix indices,
* product phases are folded into coefficients immediately, so stored
  words are always phase-free,
* coefficients with magnitude below ``COEFF_PRUNE_TOL`` are dropped by
  every arithmetic operation.
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

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# (x bit, z bit) <-> letter, with Y = i*X*Z carrying its usual phase.
_BITS_TO_LETTER = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_LETTER_TO_BITS = {v: k for k, v in _BITS_TO_LETTER.items()}

_I4 = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)
_I4_ARRAY = np.array(_I4)

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
    """An n-qubit Pauli word, stored as X/Z bitmasks (bit k = qubit k)."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int = 0, z: int = 0):
        if n < 0:
            raise ValidationError("qubit count must be non-negative")
        self.n = n
        self.x = x
        self.z = z

    @classmethod
    def from_letters(cls, letters: str) -> "PauliString":
        x = z = 0
        for k, letter in enumerate(letters):
            if letter not in _LETTER_TO_BITS:
                raise ValidationError(f"invalid Pauli letter {letter!r}")
            xb, zb = _LETTER_TO_BITS[letter]
            x |= xb << k
            z |= zb << k
        return cls(len(letters), x, z)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @property
    def letters(self) -> str:
        return "".join(
            _BITS_TO_LETTER[((self.x >> k) & 1, (self.z >> k) & 1)]
            for k in range(self.n)
        )

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()

    @property
    def transpose_sign(self) -> int:
        """Sign picked up under transposition (equally, conjugation)."""
        return -1 if self.y_count & 1 else 1

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def mul(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """Product self*other as (phase, word); phase is a fourth root of 1."""
        if self.n != other.n:
            raise DimensionError(
                f"cannot multiply words on {self.n} and {other.n} qubits"
            )
        a, b, c, d = self.x, self.z, other.x, other.z
        expo = (
            (a & b).bit_count()
            + (c & d).bit_count()
            + 2 * (b & c).bit_count()
            - ((a ^ c) & (b ^ d)).bit_count()
        ) & 3
        return _I4[expo], PauliString(self.n, a ^ c, b ^ d)

    def tensor(self, other: "PauliString") -> "PauliString":
        return PauliString(
            self.n + other.n,
            self.x | (other.x << self.n),
            self.z | (other.z << self.n),
        )

    def halves(self) -> tuple["PauliString", "PauliString"]:
        """(row, col) words of a doubled-register word; ``row.tensor(col)``
        is the inverse."""
        if self.n % 2:
            raise DimensionError(f"an odd-width word (n={self.n}) has no halves")
        half = self.n // 2
        mask = (1 << half) - 1
        return (PauliString(half, self.x & mask, self.z & mask),
                PauliString(half, self.x >> half, self.z >> half))

    def to_matrix(self) -> np.ndarray:
        check_dense(self.n)
        out = np.ones((1, 1), dtype=complex)
        for letter in self.letters:
            out = np.kron(out, PAULI_MATRICES[letter])
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliString)
            and self.n == other.n
            and self.x == other.x
            and self.z == other.z
        )

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString({self.letters!r})"


class PauliSum:
    """A complex-weighted sum of Pauli words on a fixed qubit count.

    Instances are treated as immutable; arithmetic returns new sums and
    prunes coefficients below ``COEFF_PRUNE_TOL``.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        pruned = {}
        for word, coeff in (terms or {}).items():
            if word.n != n:
                raise DimensionError(
                    f"term on {word.n} qubits in a {n}-qubit sum"
                )
            c = complex(coeff)
            if abs(c) >= COEFF_PRUNE_TOL:
                pruned[word] = c
        self.terms = pruned

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "PauliSum":
        return cls(n, {PauliString.identity(n): 1.0})

    @classmethod
    def from_term(cls, word: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(word.n, {word: coeff})

    @classmethod
    def from_letter_terms(cls, entries) -> "PauliSum":
        """Build from an iterable of (coeff, letters) pairs."""
        entries = list(entries)
        if not entries:
            raise ValidationError("need at least one (coeff, letters) entry")
        n = len(entries[0][1])
        terms: dict[PauliString, complex] = {}
        for coeff, letters in entries:
            word = PauliString.from_letters(letters)
            if word.n != n:
                raise DimensionError("mixed word lengths in term list")
            terms[word] = terms.get(word, 0.0) + complex(coeff)
        # summed before pruning, so duplicate words that overflow and NaN
        # entries (NaN stays NaN in a sum) are both caught here
        if not all(map(cmath.isfinite, terms.values())):
            raise ValidationError("Pauli coefficients must be finite")
        return cls(n, terms)

    # -- bookkeeping ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(self.terms.items())

    def sorted_terms(self) -> list[tuple[PauliString, complex]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].letters)

    def max_weight(self) -> int:
        return max((w.weight for w in self.terms), default=0)

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError("qubit counts differ in sum")
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0.0) + coeff
        return PauliSum(self.n, terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-other)

    def __neg__(self) -> "PauliSum":
        return PauliSum(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar) -> "PauliSum":
        return PauliSum(self.n, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError("qubit counts differ in product")
        terms: dict[PauliString, complex] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                phase, word = wa.mul(wb)
                terms[word] = terms.get(word, 0.0) + ca * cb * phase
        return PauliSum(self.n, terms)

    def _word_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """X masks, Z masks and coefficients of the terms, in term order."""
        m = len(self.terms)
        return (
            np.fromiter((w.x for w in self.terms), dtype=np.int64, count=m),
            np.fromiter((w.z for w in self.terms), dtype=np.int64, count=m),
            np.fromiter(self.terms.values(), dtype=complex, count=m),
        )

    # -- involutions ----------------------------------------------------

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n, {w: c.conjugate() for w, c in self.terms.items()})

    def transpose(self) -> "PauliSum":
        return PauliSum(
            self.n, {w: c * w.transpose_sign for w, c in self.terms.items()}
        )

    def conj(self) -> "PauliSum":
        return PauliSum(
            self.n,
            {w: c.conjugate() * w.transpose_sign for w, c in self.terms.items()},
        )

    def tensor(self, other: "PauliSum") -> "PauliSum":
        terms: dict[PauliString, complex] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                terms[wa.tensor(wb)] = ca * cb
        return PauliSum(self.n + other.n, terms)

    # -- queries ---------------------------------------------------------

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() <= PAULI_HERMITICITY_TOL

    def hermiticity_defect(self) -> float:
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)

    def frobenius_norm_sq(self) -> float:
        """||.||_F^2 = 2^n * sum |c|^2 (Pauli words are F-orthogonal)."""
        return (2 ** self.n) * sum(abs(c) ** 2 for c in self.terms.values())

    def max_coeff_diff(self, other: "PauliSum") -> float:
        if self.n != other.n:
            raise DimensionError("qubit counts differ in comparison")
        words = set(self.terms) | set(other.terms)
        return max(
            (abs(self.terms.get(w, 0.0) - other.terms.get(w, 0.0)) for w in words),
            default=0.0,
        )

    def to_matrix(self) -> np.ndarray:
        return to_matrix(self)

    def __repr__(self) -> str:
        if not self.terms:
            return f"PauliSum(0 on {self.n} qubits)"
        parts = [f"({c:.6g})*{w.letters}" for w, c in self.sorted_terms()[:6]]
        if len(self.terms) > 6:
            parts.append(f"... [{len(self.terms)} terms]")
        return "PauliSum(" + " + ".join(parts) + ")"


def to_matrix(s: PauliSum) -> np.ndarray:
    """Dense complex matrix of a Pauli sum, qubit 0 most significant.

    Each word is a signed permutation: it sends column c to row c ^ X
    with value coeff * i^y * (-1)^popcount(Z & c), where X and Z are its
    masks bit-reversed into index order and y is its number of Y letters.
    The entries are scattered word by word in blocks, so every matrix
    entry sums its words in term order, as adding the words' Kronecker
    products one after another would.
    """
    n = s.n
    check_dense(n)
    dim = 2 ** n
    x, z, c = s._word_arrays()
    c = c * _I4_ARRAY[np.bitwise_count(x & z) & 3]
    # bit k of a mask is qubit k, which is bit n-1-k of a matrix index
    bits = np.arange(n, dtype=np.int64)
    flip = ((x[:, None] >> bits) & 1) << (n - 1 - bits)
    phase = ((z[:, None] >> bits) & 1) << (n - 1 - bits)
    flip, phase = flip.sum(axis=1), phase.sum(axis=1)
    cols = np.arange(dim, dtype=np.int64)
    out = np.zeros(dim * dim, dtype=complex)
    words = max(1, _PRODUCT_BLOCK // dim)
    for lo in range(0, len(c), words):
        f, p = flip[lo:lo + words, None], phase[lo:lo + words, None]
        coeff = c[lo:lo + words, None]
        odd = np.bitwise_count(p & cols) & 1
        np.add.at(
            out,
            ((f ^ cols) * dim + cols).ravel(),
            np.where(odd, -coeff, coeff).ravel(),
        )
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
    coeffs, words = t.ravel(), np.arange(t.size)
    # drop the words PauliSum would prune before building any of them
    keep = np.abs(coeffs) >= COEFF_PRUNE_TOL
    coeffs, words = coeffs[keep], words[keep]
    # a word's index spells its letters in base 4, qubit 0 most significant;
    # letters 1, 2 (X, Y) carry an x bit and letters 2, 3 (Y, Z) a z bit
    shift = np.arange(n).reshape(n, 1)
    letters = (words >> (2 * (n - 1 - shift))) & 3
    xs = (((letters == 1) | (letters == 2)) << shift).sum(axis=0)
    zs = (((letters == 2) | (letters == 3)) << shift).sum(axis=0)
    return PauliSum(
        n,
        {
            PauliString(n, x, z): coeff
            for x, z, coeff in zip(xs.tolist(), zs.tolist(), coeffs)
        },
    )


# -- letter keys and batched products ----------------------------------

_KEY_QUBITS = 32                          # qubits per 64-bit key limb
_LOW_BITS = np.uint64(0x5555555555555555)


def letter_keys(sums, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of n-qubit ``sums``, in order, as key rows and
    coefficients.

    A key holds qubit q in bits 63 - 2r and 62 - 2r of limb q // 32, with
    r = q % 32: its z bit over its x ^ z bit, so that I, X, Y, Z read 0 to
    3 and keys sort as the letters do.  Both bits are xors of mask bits,
    so the key of a product word is the xor of its factors' keys.  Any
    width takes as many limbs as it needs.
    """
    words = [w for s in sums for w in s.terms]
    m = len(words)
    coeffs = np.fromiter((c for s in sums for c in s.terms.values()),
                         dtype=complex, count=m)
    keys = np.zeros((m, -(-n // _KEY_QUBITS)), dtype=np.uint64)
    for base in range(0, n, 64):
        x = np.fromiter(((w.x >> base) & 0xFFFFFFFFFFFFFFFF for w in words),
                        dtype=np.uint64, count=m)
        z = np.fromiter(((w.z >> base) & 0xFFFFFFFFFFFFFFFF for w in words),
                        dtype=np.uint64, count=m)
        for q in range(base, min(n, base + 64)):
            zq = (z >> (q - base)) & 1
            xq = (x >> (q - base)) & 1
            shift = 62 - 2 * (q % _KEY_QUBITS)
            keys[:, q // _KEY_QUBITS] |= ((zq << 1) | (xq ^ zq)) << shift
    return keys, coeffs


def key_letters(key: np.ndarray, n: int) -> str:
    """The letters of one key row."""
    return "".join(
        "IXYZ"[(int(key[q // _KEY_QUBITS]) >> (62 - 2 * (q % _KEY_QUBITS))) & 3]
        for q in range(n)
    )


def _popcount(bits: np.ndarray) -> np.ndarray:
    return np.bitwise_count(bits).astype(np.int64).sum(axis=1)


def _y_count(keys: np.ndarray) -> np.ndarray:
    """Y letters (key bits 10) per key row."""
    return _popcount((keys >> 1) & ~keys & _LOW_BITS)


def dagger_products(sums, left: np.ndarray, right: np.ndarray, n: int):
    """Every word product of sums[left[d]]^dag @ sums[right[d]], for each d.

    Returns, one entry per word product and unsummed, d, the product
    word's key and the real and imaginary parts of its coefficient.
    Within one d the dagger word is major, as ``PauliSum.__matmul__``
    takes them, and conj(ca) * cb * i^e rounds as Python's complex
    product does: conj(ca) * cb is written out in real arithmetic, and
    the phase is exact.  The products are gathered ragged, one row each.
    """
    keys, coeffs = letter_keys(sums, n)
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
    word = keys[a] ^ keys[b]
    # PauliString.mul's exponent; the z bits of a key are the high bits
    # of its letters, the x bits high ^ low
    y = _y_count(keys)
    overlap = _popcount((keys[a] >> 1) & (keys[b] ^ (keys[b] >> 1)) & _LOW_BITS)
    expo = (y[a] + y[b] + 2 * overlap - _y_count(word)) & 3
    cr, ci = coeffs.real, coeffs.imag
    re = cr[a] * cr[b] + ci[a] * ci[b]
    im = cr[a] * ci[b] - ci[a] * cr[b]
    # times i^expo: each factor i swaps the parts and negates the new real
    re, im = (np.choose(expo, (re, -im, -re, im)),
              np.choose(expo, (im, re, -im, -re)))
    return product, word, re, im


def word_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key row's rank among the distinct rows, which are returned in
    ascending (letter) order."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, ranked[new]


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
    lines = [f"# {s.n} qubits, {len(s)} terms"]
    for word, coeff in s.sorted_terms():
        lines.append(f"{coeff.real!r} {coeff.imag!r} {word.letters}")
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
        if not np.isfinite(coeff):
            raise ValidationError(f"line {lineno}: coefficient is not finite")
        for letter in letters:
            if letter not in LETTERS:
                raise ValidationError(
                    f"line {lineno}: letter {letter!r} is not one of I,X,Y,Z"
                )
        entries.append((coeff, letters))
    if not entries:
        raise ValidationError("no terms found in Pauli sum text")
    lengths = {len(letters) for _, letters in entries}
    if len(lengths) != 1:
        raise ValidationError(f"inconsistent word lengths {sorted(lengths)}")
    return PauliSum.from_letter_terms(entries)
