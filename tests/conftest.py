import cmath
from unittest import mock

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from lgw import lindblad
from lgw.errors import DimensionError, ValidationError
from lgw.lindblad import (
    DensityMatrix,
    JumpChannel,
    LmeSpec,
    SuperOp,
    _edge_components,
    _null_counts,
    build_ldl,
    build_liouvillian,
    verify_ldl_properties,
)
from lgw.pauli import PauliSum, check_dense, pauli_decompose, to_matrix
from lgw.tolerances import COEFF_PRUNE_TOL, PAULI_HERMITICITY_TOL

LETTERS = "IXYZ"

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def rand_rho(n, rng):
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(n, mat / np.trace(mat).real)


def rand_pure_rho(n, rng):
    dim = 2 ** n
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.pure(vec)


def maximally_mixed(n):
    dim = 2 ** n
    return DensityMatrix(n, np.eye(dim, dtype=complex) / dim)


def vec_overlap(a, b):
    """<a|b> on normalized vectorizations, i.e. Tr(rho_a^dag rho_b)/(Ca*Cb)."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def rand_word(n, rng):
    """The letters of a random n-qubit word."""
    return "".join(rng.choice(list(LETTERS), size=n))


def terms(s):
    """The (letters, coeff) pairs of a ``PauliSum`` or a ``DictPauliSum``,
    in term order."""
    return list(zip(s.letters(), s.coeffs.tolist()))


class MaskWord:
    """An n-qubit Pauli word as X/Z bitmasks (bit k = qubit k), with Y =
    i*X*Z carrying its usual phase: the scalar oracle of the letter keys.
    ``mul`` is the bitmask product rule whose phase ``pauli._products``
    batches; ``transpose_sign``, ``tensor`` and ``halves`` are the
    word-level forms of ``PauliSum``'s involutions, tensor and half swap,
    and ``to_matrix`` the Kronecker product of the letters' matrices."""

    __slots__ = ("n", "x", "z")
    _BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    _LETTER = {bits: letter for letter, bits in _BITS.items()}

    def __init__(self, n, x=0, z=0):
        self.n, self.x, self.z = n, x, z

    @classmethod
    def from_letters(cls, letters):
        x = z = 0
        for k, letter in enumerate(letters):
            if letter not in cls._BITS:
                raise ValidationError(f"invalid Pauli letter {letter!r}")
            xb, zb = cls._BITS[letter]
            x |= xb << k
            z |= zb << k
        return cls(len(letters), x, z)

    @property
    def letters(self):
        return "".join(self._LETTER[((self.x >> k) & 1, (self.z >> k) & 1)]
                       for k in range(self.n))

    @property
    def transpose_sign(self):
        """Sign picked up under transposition (equally, conjugation)."""
        return -1 if (self.x & self.z).bit_count() & 1 else 1

    def mul(self, other):
        """Product self*other as (phase, word); phase is a fourth root of 1."""
        if self.n != other.n:
            raise DimensionError(
                f"cannot multiply words on {self.n} and {other.n} qubits")
        a, b, c, d = self.x, self.z, other.x, other.z
        expo = ((a & b).bit_count() + (c & d).bit_count() + 2 * (b & c).bit_count()
                - ((a ^ c) & (b ^ d)).bit_count()) & 3
        phase = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)[expo]
        return phase, MaskWord(self.n, a ^ c, b ^ d)

    def tensor(self, other):
        return MaskWord(self.n + other.n, self.x | (other.x << self.n),
                        self.z | (other.z << self.n))

    def halves(self):
        """(row, col) words of a doubled-register word; ``row.tensor(col)``
        is the inverse."""
        if self.n % 2:
            raise DimensionError(f"an odd-width word (n={self.n}) has no halves")
        half = self.n // 2
        mask = (1 << half) - 1
        return (MaskWord(half, self.x & mask, self.z & mask),
                MaskWord(half, self.x >> half, self.z >> half))

    def to_matrix(self):
        check_dense(self.n)
        out = np.ones((1, 1), dtype=complex)
        for letter in self.letters:
            out = np.kron(out, PAULI_MATRICES[letter])
        return out

    def __eq__(self, other):
        return (isinstance(other, MaskWord)
                and (self.n, self.x, self.z) == (other.n, other.x, other.z))

    def __hash__(self):
        return hash((self.n, self.x, self.z))

    def __repr__(self):
        return f"MaskWord({self.letters!r})"


def _pauli_traces(rho):
    """Tr(P rho) for every word with nonzero weight in rho, by letters."""
    scale = 2 ** rho.n
    return {w: c * scale for w, c in terms(pauli_decompose(rho.matrix))}


def trace_with_two_copies(q, rho):
    """Oracle for Tr(Q rho(x)rho) of a doubled-register sum Q, via the split
    Tr((P1(x)P2)(rho(x)rho)) = Tr(P1 rho) Tr(P2 rho)."""
    if q.n != 2 * rho.n:
        raise DimensionError("operator does not match two copies of rho")
    traces = _pauli_traces(rho)
    total = 0.0 + 0.0j
    for word, coeff in terms(q):
        w1, w2 = word[:rho.n], word[rho.n:]
        t1 = traces.get(w1)
        if t1 is None or t1 == 0:
            continue
        t2 = traces.get(w2)
        if t2 is None:
            continue
        total += coeff * t1 * t2
    return total


def word_read_by_kron(letters, rho):
    """Oracle for ``measure.word_reads``: Tr(P rho Q^T rho) of one
    doubled-register word A = P (x) Q, given by its letters, from the
    Kronecker matrices of its halves."""
    if len(letters) != 2 * rho.n:
        raise DimensionError("operator does not match two copies of rho")
    p, q = MaskWord.from_letters(letters).halves()
    r = rho.matrix
    return complex(np.sum((p.to_matrix() @ r) * (q.to_matrix().T @ r).T))


def dense_liouvillian(spec):
    """Oracle for ``build_liouvillian``: the full 4^n x 4^n generator from
    Kronecker products, with the same expression, term order, zeroing of
    subnormal entries and zeroing of a generator within rounding of the
    scale of its terms."""
    dim = 2 ** spec.n
    eye = np.eye(dim, dtype=complex)
    h = to_matrix(spec.hamiltonian)
    lmat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    scale = np.abs(h).max()
    for ch in spec.jumps:
        f = to_matrix(ch.op)
        fdf = f.conj().T @ f
        lmat += ch.rate * (
            np.kron(f, f.conj())
            - 0.5 * np.kron(fdf, eye)
            - 0.5 * np.kron(eye, fdf.T)
        )
        scale += ch.rate * np.abs(fdf).max()
    lmat[np.abs(lmat) < np.finfo(float).tiny] = 0.0
    if np.sqrt(np.vdot(lmat, lmat).real) <= dim * dim * np.finfo(float).eps * scale:
        lmat[:] = 0.0
    return lmat


def block_null_space(mats, blocks, floor):
    """Oracle for ``SuperOp.null_basis``: the null-space basis of the
    block-diagonal matrix whose block on the index set ``blocks[k]`` is
    ``mats[k]``, by ``SuperOp``'s rank rule, each block's null vectors the
    trailing right singular vectors of one full complex SVD of that block,
    embedded at full length; the zero operator's basis is the identity."""
    svals = [np.linalg.svd(mat, compute_uv=False) for mat in mats]
    dim = sum(len(idx) for idx in blocks)
    if not any(s.any() for s in svals):
        return np.eye(dim, dtype=complex)
    pieces = [np.zeros((dim, 0), dtype=complex)]
    for idx, mat, count in zip(blocks, mats, _null_counts(svals, floor)):
        if count:
            vh = np.linalg.svd(mat)[2]
            pieces.append(np.zeros((dim, count), dtype=complex))
            pieces[-1][idx] = vh[len(vh) - count:].conj().T
    return np.concatenate(pieces, axis=1)


def gather_block(idx, h, terms):
    """Oracle for ``lindblad._gather_blocks``: the generator's block on the
    vec indices ``idx``, every entry of the dense block computed by the
    same operations, in the same order, as the entry of the
    Kronecker-product sum in ``build_liouvillian``'s docstring."""
    # entry (a, b) sits at row (ket[a], bra[a]) and column (ket[b], bra[b])
    ket, bra = np.divmod(idx, len(h))
    ket_row, ket_col = np.ix_(ket, ket)
    bra_row, bra_col = np.ix_(bra, bra)
    same_ket = ket_row == ket_col
    same_bra = bra_row == bra_col
    mat = -1j * (h[ket_row, ket_col] * same_bra - same_ket * h.T[bra_row, bra_col])
    for rate, f, fdf in terms:
        mat += rate * (
            f[ket_row, ket_col] * f.conj()[bra_row, bra_col]
            - 0.5 * (fdf[ket_row, ket_col] * same_bra)
            - 0.5 * (same_ket * fdf.T[bra_row, bra_col])
        )
    return mat


def assert_gather_matches_dense(spec):
    """Assert that ``build_liouvillian(spec)``, which gathers its blocks on
    the terms' edges, gives bit for bit (signed zeros included) the blocks
    of the same build with each coarse block gathered densely by
    ``gather_block``.  Returns the generator."""
    def dense(coarse, rows, cols, h, terms):
        return [gather_block(idx, h, terms) for idx in coarse]

    liouv = build_liouvillian(spec)
    with mock.patch.object(lindblad, "_gather_blocks", dense):
        want = build_liouvillian(spec)
    assert liouv.rounding_floor == want.rounding_floor
    assert len(liouv.blocks) == len(want.blocks)
    for got, idx, mat, oracle in zip(liouv.blocks, want.blocks,
                                     liouv.block_matrices, want.block_matrices):
        assert np.array_equal(got, idx)
        assert np.array_equal(mat.view(np.uint64), oracle.view(np.uint64))
    return liouv


def assert_matches_dense(spec):
    """Assert that ``build_liouvillian(spec)`` equals the dense oracle
    exactly: its blocks are the connected components of the oracle's
    nonzero pattern (by scipy's graph search), in order of their smallest
    index, and its block entries, its ``matrix`` view and its Hermiticity
    defect are the oracle's.  Returns the generator."""
    dense = dense_liouvillian(spec)
    count, labels = connected_components(csr_matrix(dense != 0), directed=False)
    want = sorted((np.flatnonzero(labels == c) for c in range(count)),
                  key=lambda idx: idx[0])
    liouv = build_liouvillian(spec)
    assert len(liouv.blocks) == count
    for idx, got, mat in zip(want, liouv.blocks, liouv.block_matrices):
        assert np.array_equal(got, idx)
        assert np.array_equal(mat, dense[np.ix_(idx, idx)])
    assert np.array_equal(liouv.matrix, dense)
    assert liouv.hermiticity_defect() == np.abs(dense - dense.conj().T).max()
    return liouv


def assert_ldl_checks_match_dense(ldl, sym, liouv):
    """Assert that the block-native checks of the squared generator read
    what their dense forms read: ``build_ldl``'s Pauli cross-check gap is
    max |to_matrix(sym) - ldl.matrix| bit for bit, and
    ``verify_ldl_properties``'s ||M S - S M*||_F is that of the Hermitized
    4^n x 4^n matrix M and the permutation matrix S within 1e-14 ||M||_F."""
    assert lindblad._pauli_gap(ldl, sym) == np.abs(to_matrix(sym) - ldl.matrix).max()
    assert_st_norm_matches_dense(ldl, liouv)


def assert_st_norm_matches_dense(ldl, liouv):
    """Assert that ``verify_ldl_properties(ldl, liouv).st_commutator_norm``
    is ||M S - S M*||_F of the Hermitized full matrix M and the exchange
    matrix S within 1e-14 ||M||_F."""
    mat = (ldl.matrix + ldl.matrix.conj().T) / 2
    s = exchange_matrix(ldl.n)
    want = np.linalg.norm(mat @ s - s @ mat.conj())
    got = verify_ldl_properties(ldl, liouv).st_commutator_norm
    assert abs(got - want) <= 1e-14 * np.linalg.norm(mat)


def assert_null_basis_matches_oracle(liouv):
    """Assert that ``liouv.null_basis``, taken from the blocks' forms, has
    the shape of the per-block complex-SVD oracle ``block_null_space`` and
    the same projector: each column lies in one block, so the projector is
    compared block by block, and no two blocks share a column.  Two SVDs
    of one block each find its null space to within about eps * sigma_max
    / delta (Wedin's bound), delta the block's smallest singular value
    above the null cut, so the projectors agree within 1e-12 unless that
    bound, times 64, is looser."""
    basis = liouv.null_basis
    want = block_null_space(liouv.block_matrices, liouv.blocks, liouv.rounding_floor)
    assert basis.shape == want.shape
    svals = liouv.singular_values
    smax = max((s[0] for s in svals if s.size), default=0.0)
    seen = np.zeros(basis.shape[1], dtype=int)
    for idx, s, count in zip(liouv.blocks, svals, _null_counts(svals, liouv.rounding_floor)):
        got, ref = basis[idx], want[idx]
        delta = s[len(s) - count - 1] if count < len(s) else np.inf
        tol = max(1e-12, 64 * np.finfo(float).eps * smax / delta)
        assert np.abs(got @ got.conj().T - ref @ ref.conj().T).max() <= tol
        seen += np.abs(got).any(axis=0)
    assert (seen <= 1).all()


def assert_ldl_matches_dense(spec):
    """Assert that ``build_ldl(spec)`` squares the generator on its own
    blocks: it keeps the generator's blocks, its scattered matrix is
    D^dag D for the dense oracle D within 1e-12 relative, its checks read
    what their dense forms read (``assert_ldl_checks_match_dense``), and
    ``verify_ldl_properties`` reads the same ground dimension and the same
    PASS/FAIL as on D^dag D split along the components of its own
    pattern, which cancellation can make finer."""
    liouv = build_liouvillian(spec)
    ldl, sym = build_ldl(spec)
    assert_ldl_checks_match_dense(ldl, sym, liouv)
    assert len(ldl.blocks) == len(liouv.blocks)
    assert all(np.array_equal(a, b) for a, b in zip(ldl.blocks, liouv.blocks))
    dense = dense_liouvillian(spec)
    product = dense.conj().T @ dense
    assert np.abs(ldl.matrix - product).max() <= 1e-12 * np.abs(product).max()
    finer = _edge_components(*np.nonzero(product), len(product))
    split = SuperOp(spec.n, finer, [product[np.ix_(idx, idx)] for idx in finer])
    got, want = verify_ldl_properties(ldl, liouv), verify_ldl_properties(split, liouv)
    assert got.ground_dim == want.ground_dim
    for flag in ("spectrum_nonnegative", "ground_energy_zero", "st_symmetric",
                 "ground_matches_steady"):
        assert getattr(got, flag) == getattr(want, flag), flag
    return ldl, split


def assert_factors_match_dense(liouv):
    """Assert that the cached per-block factors of ``liouv``, however each
    block was factored (complex, real form, or as a partner's permuted
    conjugate), match one factorization of the full matrix: the
    eigenvalue multiset within 1e-12 * max|lambda| (by assignment) where
    the spectrum is well conditioned, B V = V Lam within 1e-12 * max|B|
    and, where V is invertible, V^-1 V = I on every block, the eigenvector
    condition of the block-diagonal V, and the null-space projector.
    Returns the eigenvector condition."""
    mat = liouv.matrix
    vals = liouv.eigenvalues
    vecs = scipy.linalg.block_diag(*[v for _, v in liouv.eig])
    cond = np.linalg.cond(vecs)
    svals = liouv.eigvec_singular_values
    got = max(s[0] for s in svals) / min(s[-1] for s in svals)
    assert abs(got - cond) <= max(1e-10, 1e-14 * cond) * cond
    scale = max(np.abs(mat).max(), 1e-300)
    for blk, (lam, v) in zip(liouv.block_matrices, liouv.eig):
        assert np.abs(blk @ v - v * lam).max() <= 1e-12 * scale
    if cond < 1e8:
        dense = np.linalg.eigvals(mat)
        dist = np.abs(vals[:, None] - dense[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert dist[rows, cols].max() <= 1e-12 * np.abs(dense).max()
        for (_, v), inv in zip(liouv.eig, liouv.eig_inverses):
            assert np.abs(inv @ v - np.eye(len(v))).max() <= 1e-12 * cond
    null = block_null_space([mat], [np.arange(len(mat))], liouv.rounding_floor)
    basis = liouv.null_basis
    assert basis.shape == null.shape
    assert np.abs(basis @ basis.conj().T - null @ null.conj().T).max() < 1e-8
    return cond


def bisect_all_halvings(distance, target, t_lo, t_hi):
    """Oracle for ``lindblad._bisect``: all 60 halvings, none skipped."""
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        if distance(mid) <= target:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def exchange_matrix(n):
    """Permutation S with S vec(M) = vec(M^T); swaps the row and column
    registers qubit by qubit, and S^2 = I."""
    dim = 2 ** n
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


def exchange_conjugate(doubled):
    """Image of a doubled-register sum under simultaneous row/column
    exchange and complex conjugation (the matrix map M -> S M^* S), built
    term by term as a PauliSum: the oracle of
    ``lindblad.exchange_symmetry_defect``."""
    if doubled.n % 2:
        raise DimensionError("doubled-register sum must have even qubit count")
    half = doubled.n // 2
    swapped = {w[half:] + w[:half]: c for w, c in terms(doubled.conj())}
    return PauliSum._from_words(doubled.n, swapped)


def matmul_by_pairs(a, b):
    """The product a @ b from one ``MaskWord.mul`` per word pair, each
    word summed in pair order from 0.0, as a ``DictPauliSum``: the oracle
    of the batched ``PauliSum.__matmul__``."""
    if a.n != b.n:
        raise DimensionError("qubit counts differ in product")
    out = {}
    for la, ca in terms(a):
        for lb, cb in terms(b):
            phase, word = MaskWord.from_letters(la).mul(MaskWord.from_letters(lb))
            out[word] = out.get(word, 0.0) + ca * cb * phase
    return DictPauliSum(a.n, out)


class DictPauliSum:
    """The dict-backed Pauli sum that the array-backed ``PauliSum``
    replaced, kept whole as the oracle of every ``PauliSum`` operation:
    ``terms`` maps each ``MaskWord`` to its complex coefficient, in order
    of first appearance, and every operation is the word-by-word Python
    arithmetic the old class did."""

    def __init__(self, n, terms=None):
        self.n = n
        pruned = {}
        for word, coeff in (terms or {}).items():
            if word.n != n:
                raise DimensionError(f"term on {word.n} qubits in a {n}-qubit sum")
            c = complex(coeff)
            if abs(c) >= COEFF_PRUNE_TOL:
                pruned[word] = c
        self.terms = pruned

    @classmethod
    def from_letter_terms(cls, entries):
        entries = list(entries)
        if not entries:
            raise ValidationError("need at least one (coeff, letters) entry")
        n = len(entries[0][1])
        terms = {}
        for coeff, letters in entries:
            word = MaskWord.from_letters(letters)
            if word.n != n:
                raise DimensionError("mixed word lengths in term list")
            terms[word] = terms.get(word, 0.0) + complex(coeff)
        if not all(map(cmath.isfinite, terms.values())):
            raise ValidationError("Pauli coefficients must be finite")
        return cls(n, terms)

    def __len__(self):
        return len(self.terms)

    def letters(self):
        return [w.letters for w in self.terms]

    @property
    def coeffs(self):
        return np.array(list(self.terms.values()), dtype=complex)

    def sorted(self):
        return DictPauliSum(self.n, dict(
            sorted(self.terms.items(), key=lambda kv: kv[0].letters)))

    def max_weight(self):
        return max(((w.x | w.z).bit_count() for w in self.terms), default=0)

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionError("qubit counts differ in sum")
        terms = dict(self.terms)
        for word, coeff in other.terms.items():
            terms[word] = terms.get(word, 0.0) + coeff
        return DictPauliSum(self.n, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DictPauliSum(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, scalar):
        return DictPauliSum(self.n, {w: c * scalar for w, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul_by_pairs(self, other)

    def dagger(self):
        return DictPauliSum(self.n, {w: c.conjugate() for w, c in self.terms.items()})

    def transpose(self):
        return DictPauliSum(
            self.n, {w: c * w.transpose_sign for w, c in self.terms.items()})

    def conj(self):
        return DictPauliSum(
            self.n,
            {w: c.conjugate() * w.transpose_sign for w, c in self.terms.items()})

    def tensor(self, other):
        terms = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                terms[wa.tensor(wb)] = ca * cb
        return DictPauliSum(self.n + other.n, terms)

    def is_hermitian(self):
        return self.hermiticity_defect() <= PAULI_HERMITICITY_TOL

    def hermiticity_defect(self):
        return max((abs(c.imag) for c in self.terms.values()), default=0.0)

    def frobenius_norm_sq(self):
        return (2 ** self.n) * sum(abs(c) ** 2 for c in self.terms.values())

    def max_coeff_diff(self, other):
        if self.n != other.n:
            raise DimensionError("qubit counts differ in comparison")
        return max((abs(self.terms.get(w, 0.0) - other.terms.get(w, 0.0))
                    for w in {**self.terms, **other.terms}), default=0.0)

    def __repr__(self):
        if not self.terms:
            return f"PauliSum(0 on {self.n} qubits)"
        parts = [f"({c:.6g})*{w}" for w, c in sorted_by_letters(self)[:6]]
        if len(self.terms) > 6:
            parts.append(f"... [{len(self.terms)} terms]")
        return "PauliSum(" + " + ".join(parts) + ")"


def parse_by_words(text):
    """``parse_pauli_sum`` line by line and letter by letter, into a
    ``DictPauliSum``: the oracle of the text reader."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(
                f"line {lineno}: expected '<re> <im> <letters>', got {raw!r}")
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
                    f"line {lineno}: letter {letter!r} is not one of I,X,Y,Z")
        entries.append((coeff, letters))
    if not entries:
        raise ValidationError("no terms found in Pauli sum text")
    lengths = {len(letters) for _, letters in entries}
    if len(lengths) != 1:
        raise ValidationError(f"inconsistent word lengths {sorted(lengths)}")
    return DictPauliSum.from_letter_terms(entries)


def exchange_symmetry_defect_by_words(doubled):
    """``lindblad.exchange_symmetry_defect`` word by word on X/Z masks:
    each word against its half-swapped partner's conjugate, times its
    transposition sign."""
    if doubled.n % 2:
        raise DimensionError("doubled-register sum must have even qubit count")
    half = doubled.n // 2
    low = (1 << half) - 1
    coeffs = {(w.x, w.z): c for w, c in doubled.terms.items()}
    defect = 0.0
    for (x, z), c in coeffs.items():
        partner = coeffs.get(
            ((x >> half) | ((x & low) << half), (z >> half) | ((z & low) << half)),
            0.0,
        )
        sign = -1 if (x & z).bit_count() & 1 else 1
        defect = max(defect, abs(c - partner.conjugate() * sign))
    return defect


def sorted_by_letters(s):
    """The (letters, coeff) terms of a sum sorted by their letters: the
    oracle of ``PauliSum.sorted``."""
    return sorted(terms(s), key=lambda kv: kv[0])


def format_by_letters(s):
    """``format_pauli_sum`` spelled word by word from the letters."""
    lines = [f"# {s.n} qubits, {len(s)} terms"]
    for word, coeff in sorted_by_letters(s):
        lines.append(f"{coeff.real!r} {coeff.imag!r} {word}")
    return "\n".join(lines) + "\n"


def rand_hermitian_sum(n, rng, terms=4):
    """Random Hermitian Pauli sum with the given number of words."""
    out = {}
    while len(out) < min(terms, 4 ** n):
        out[rand_word(n, rng)] = rng.normal()
    return PauliSum._from_words(n, out)


def rand_pauli_sum(n, rng, terms=4):
    out = {}
    while len(out) < min(terms, 4 ** n):
        out[rand_word(n, rng)] = rng.normal() + 1j * rng.normal()
    return PauliSum._from_words(n, out)


def rand_jump_op(n, rng, terms=3):
    """Random (generally non-Hermitian) jump operator."""
    return rand_pauli_sum(n, rng, terms)


def rand_lme_spec(n, rng, jumps=2, ham_terms=3):
    ham = rand_hermitian_sum(n, rng, ham_terms)
    channels = tuple(
        JumpChannel(float(rng.uniform(0.2, 1.0)), rand_jump_op(n, rng))
        for _ in range(jumps)
    )
    return LmeSpec(n, ham, channels)


def unique_steady_spec(n, rng, max_tries=60):
    """Random spec rejected-sampled to a one-dimensional steady space."""
    for _ in range(max_tries):
        spec = rand_lme_spec(n, rng, jumps=int(rng.integers(1, 4)))
        liouv = build_liouvillian(spec)
        if liouv.null_basis.shape[1] == 1:
            return spec, liouv
    raise RuntimeError("failed to sample a unique-steady-state instance")


# H = 0 and one jump proportional to the identity: the terms of L cancel
# in exact arithmetic but leave rounding residue on the diagonal
IDENTITY_JUMP_SPEC = {
    "n": 1,
    "hamiltonian": [],
    "jumps": [{"rate": 1.8912414057559308,
               "op": [[-0.4236059554266051, 1.2461123127354776, "I"]]}],
}

# H = 0 and a jump c*I + G with |G| << |c|: L = -i[1e-8 X, .] + 1e-16 D[X]
# on the second qubit has sigma_max 2e-8, and the cancelling c*I terms
# leave rounding residue of about eps on its null directions, above the
# relative cut of 1e-10 * sigma_max; its exact steady space (the commutant
# of IX) has dimension 8
RANK_FLOOR_SPEC = {
    "n": 2,
    "hamiltonian": [],
    "jumps": [{"rate": 1.0, "op": [[0.0, 1.0, "II"], [1e-08, 0.0, "IX"]]}],
}

# two driven, damped qubits at the exceptional point Omega = gamma / 4:
# the generator has a 3x3 Jordan block at -1.5 and an eigenvector
# condition of about 3.5e10, so it is not diagonalizable
EXCEPTIONAL_POINT_SPEC = {
    "n": 2,
    "hamiltonian": [[0.125, 0.0, "XI"], [0.125, 0.0, "IX"]],
    "jumps": [{"rate": 1.0, "op": [[0.5, 0.0, "XI"], [0.0, 0.5, "YI"]]},
              {"rate": 1.0, "op": [[0.5, 0.0, "IX"], [0.0, 0.5, "IY"]]}],
}


def sigma_minus():
    return PauliSum.from_letter_terms([(0.5, "X"), (0.5j, "Y")])


def sigma_minus_spec():
    return LmeSpec(1, PauliSum.zero(1), (JumpChannel(1.0, sigma_minus()),))


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))
