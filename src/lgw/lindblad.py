"""Vectorized Lindblad generators and their squared (Hermitian) form.

Density matrices are flattened row-major, so the generator acts on
vectors of length 4^n with the row register in the most significant
qubits.  The squared generator L^dag L is Hermitian and positive
semi-definite; its zero eigenspace coincides with the vectorized
steady-state space of L.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    InstabilityError,
    NormalizationError,
    NoSteadyStateError,
    ValidationError,
    WorkbenchError,
)
from .pauli import PauliSum, _signed_permutations, _word_values, check_dense, to_matrix
from .tolerances import (
    DECAY_RATE_FLOOR,
    DIAGONALIZABLE_COND_MAX,
    EVOLVE_TRACE_DRIFT_TOL,
    EXCHANGE_PAIRING_TOL,
    EXCHANGE_PARTNER_RTOL,
    GROUND_ENERGY_TOL,
    HERMITICITY_TOL,
    LDL_FORMS_TOL,
    LDL_NEGATIVE_SLACK,
    NULL_SPACE_RTOL,
    PAULI_HERMITICITY_TOL,
    PSD_SLACK,
    REAL_FORM_RTOL,
    REPAIR_MASS_MAX,
    ST_COMMUTATOR_TOL,
    STEADY_TRACE_FLOOR,
    SUBNORMAL_FLOOR,
    TRACE_TOL,
    ZERO_FLOOR,
)


@dataclass(frozen=True)
class JumpChannel:
    """One dissipative channel: a non-negative rate and its operator."""

    rate: float
    op: PauliSum

    def __post_init__(self):
        if not np.isfinite(self.rate) or self.rate < 0:
            raise ValidationError(f"jump rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class LmeSpec:
    """A Lindblad problem: qubit count, Hermitian Hamiltonian, jumps."""

    n: int
    hamiltonian: PauliSum
    jumps: tuple[JumpChannel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.n < 0:
            raise ValidationError("qubit count must be non-negative")
        if self.hamiltonian.n != self.n:
            raise DimensionError("Hamiltonian qubit count differs from spec")
        if not self.hamiltonian.is_hermitian():
            raise ValidationError(
                f"Hamiltonian must be Hermitian (within {PAULI_HERMITICITY_TOL:g})"
            )
        for ch in self.jumps:
            if ch.op.n != self.n:
                raise DimensionError("jump operator qubit count differs from spec")


@dataclass(frozen=True)
class SuperOp:
    """An operator on vectorized density matrices (dim 4^n), held as its
    diagonal blocks.

    ``blocks`` is a partition of the indices into sorted index sets, in
    order of their smallest index, on which the operator is
    block-diagonal; ``block_matrices`` holds the operator's block on each.
    For a generator the blocks are the connected components of its nonzero
    pattern, read as an undirected graph (an XXZ generator with one
    raising channel per site conserves the ket-minus-bra magnetization and
    has 2n+1 blocks); for its square L^dag L they are the generator's
    blocks.

    Every factorization runs block by block, and the exchange S, which
    swaps ket and bra, halves it.  A generator preserves Hermiticity, so
    S L S = conj(L): S maps the block on ``idx`` onto the block on
    sorted(S idx), whose matrix is conj(B)[p][:, p] with p = argsort(S idx).
    Of each such pair the first block is factored, and its partner takes
    the permuted conjugates: eigenvalues conj(lam), eigenvectors
    conj(V)[p], inverse conj(V^-1)[:, p] and the same singular values.  A
    block that S maps onto itself is factored in real form: T has e_a for
    each fixed point of S and (e_a + e_Sa)/sqrt2, i(e_a - e_Sa)/sqrt2 for
    each swapped pair, R = T^dag B T is real (the Pauli-transfer-matrix
    form of a Hermiticity-preserving map), and R = W Lam W^-1 gives V = T W
    and V^-1 = W^-1 T^dag.  A partner further than
    ``EXCHANGE_PARTNER_RTOL`` from the permuted conjugate, or a self-paired
    block whose T^dag B T has an imaginary residue above
    ``REAL_FORM_RTOL`` (both relative to max|B|), is factored on its own,
    in complex form.

    ``forms``, ``eig``, ``eig_inverses``, ``eigvec_singular_values``,
    ``singular_values``, ``null_dim``, ``null_basis``, the owner of each
    index (its block and its position there) and the full 4^n x 4^n
    ``matrix`` are computed on first use and cached, which relies on the
    blocks not being modified after construction.  ``null_dim`` counts
    the null space on the cached singular values alone; ``null_basis``
    takes each block's count from the same values and its vectors from
    its form (see there).  Singular values up to ``rounding_floor``, the
    rounding residue of the generator's terms, count as null.
    ``build_liouvillian`` gathers a generator's blocks on the edge pattern
    of its terms: entries off it are zero.  No run path reads ``matrix``;
    it scatters the blocks for tests.
    """

    n: int
    blocks: tuple[np.ndarray, ...]
    block_matrices: tuple[np.ndarray, ...]
    rounding_floor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "block_matrices", tuple(self.block_matrices))
        sizes = [(len(idx), len(idx)) for idx in self.blocks]
        if (sum(len(idx) for idx in self.blocks) != 4 ** self.n
                or [mat.shape for mat in self.block_matrices] != sizes
                or not np.array_equal(np.sort(np.concatenate(self.blocks)),
                                      np.arange(4 ** self.n))):
            raise DimensionError(
                f"superoperator blocks for n={self.n} must partition "
                f"{4 ** self.n} indices"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The full 4^n x 4^n operator, scattered from the blocks; a
        one-block operator gives its block itself, not a copy."""
        if len(self.blocks) == 1:
            return self.block_matrices[0]
        dim = 4 ** self.n
        out = np.zeros((dim, dim), dtype=np.result_type(*self.block_matrices))
        for idx, mat in zip(self.blocks, self.block_matrices):
            out[np.ix_(idx, idx)] = mat
        return out

    def hermiticity_defect(self) -> float:
        """max |M - M^dag| over the blocks, which is that of the full
        operator: an entry and its transpose partner share a block."""
        return max(float(np.abs(mat - mat.conj().T).max())
                   for mat in self.block_matrices)

    @cached_property
    def _owner(self) -> tuple[np.ndarray, np.ndarray]:
        """``_block_owner`` of the blocks."""
        return _block_owner(self.blocks, 4 ** self.n)

    @cached_property
    def forms(self) -> tuple[tuple[str, tuple], ...]:
        """Per block, the form it is factored in: ``("complex", ())``,
        ``("real", (R, fixed, first, second))`` with R = T^dag B T on the
        local fixed points and swapped pairs of S, or ``("partner", (k,
        p))`` for the partner of the earlier block k."""
        dim = 2 ** self.n
        label = self._owner[0]
        forms = [None] * len(self.blocks)
        for k, (idx, mat) in enumerate(zip(self.blocks, self.block_matrices)):
            if forms[k] is not None:
                continue
            forms[k] = ("complex", ())
            swapped = (idx % dim) * dim + idx // dim
            p = np.argsort(swapped)
            m = label[swapped[p[0]]]
            if not np.array_equal(self.blocks[m], swapped[p]):
                continue
            scale = np.abs(mat).max()
            if m == k:
                local = np.arange(idx.size)
                fixed, first = np.flatnonzero(p == local), np.flatnonzero(p > local)
                basis = (fixed, first, p[first])
                real = _real_form(mat, *basis)
                if np.abs(real.imag).max(initial=0.0) <= REAL_FORM_RTOL * scale:
                    forms[k] = ("real", (np.ascontiguousarray(real.real), *basis))
            elif forms[m] is None and (
                    np.abs(self.block_matrices[m] - mat.conj()[np.ix_(p, p)]).max()
                    <= EXCHANGE_PARTNER_RTOL * scale):
                forms[m] = ("partner", (k, p))
        return tuple(forms)

    @cached_property
    def _own_eig(self) -> tuple:
        """Per block: ``np.linalg.eig`` of the matrix it is factored as, B
        or, in real form, R (whose vectors are W); None for a partner."""
        return tuple(None if kind == "partner"
                     else np.linalg.eig(data[0] if kind == "real" else mat)
                     for (kind, data), mat in zip(self.forms, self.block_matrices))

    @cached_property
    def eig(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block: eigenvalues and right eigenvectors."""
        out = []
        for (kind, data), own in zip(self.forms, self._own_eig):
            if kind == "complex":
                out.append(own)
            elif kind == "real":
                out.append((own[0].astype(complex), _from_real_form(own[1], *data[1:])))
            else:
                vals, vecs = out[data[0]]
                out.append((vals.conj(), vecs.conj()[data[1]]))
        return tuple(out)

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of every block, concatenated in block order."""
        return np.concatenate([vals for vals, _ in self.eig])

    @cached_property
    def eig_inverses(self) -> tuple[np.ndarray, ...]:
        """Per block: the inverse of the eigenvector matrix."""
        out = []
        for (kind, data), own, (_, vecs) in zip(self.forms, self._own_eig, self.eig):
            if kind == "complex":
                out.append(np.linalg.inv(vecs))
            elif kind == "real":
                # V^-1 = W^-1 T^dag = (T (W^-1)^dag)^dag
                inv = np.linalg.inv(own[1]).conj().T
                out.append(_from_real_form(inv, *data[1:]).conj().T)
            else:
                out.append(out[data[0]].conj()[:, data[1]])
        return tuple(out)

    @cached_property
    def eigvec_singular_values(self) -> tuple[np.ndarray, ...]:
        """Singular values of the eigenvector matrix of each block factored
        on its own, in real form by those of W (T is unitary) taken from
        W's real basis; a partner's are its own block's."""
        return tuple(np.linalg.svd(_real_basis(*own) if kind == "real" else own[1],
                                   compute_uv=False)
                     for (kind, _), own in zip(self.forms, self._own_eig)
                     if own is not None)

    @cached_property
    def singular_values(self) -> tuple[np.ndarray, ...]:
        """Per block: singular values, by those of R in real form."""
        out = []
        for (kind, data), mat in zip(self.forms, self.block_matrices):
            if kind == "partner":
                out.append(out[data[0]])
            else:
                out.append(np.linalg.svd(data[0] if kind == "real" else mat,
                                         compute_uv=False))
        return tuple(out)

    def fill_partners(self, vec: np.ndarray) -> np.ndarray:
        """Set every partner's slice of ``vec`` to the permuted conjugate
        of its own block's slice, in place: right for vec(X) of a Hermitian
        X, and for anything L maps it to, since vec(X) = S conj(vec(X))."""
        for idx, (kind, data) in zip(self.blocks, self.forms):
            if kind == "partner":
                vec[idx] = vec[self.blocks[data[0]]].conj()[data[1]]
        return vec

    @cached_property
    def null_dim(self) -> int:
        """Dimension of the right null space, counted on the cached
        singular values by the rank rule of ``null_basis``."""
        return sum(_null_counts(self.singular_values, self.rounding_floor))

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal right null-space basis (columns), block by block, by
        ``null_dim``'s counts: the last right singular vectors of B, of R
        mapped back by T in real form, or a partner's own block's, permuted
        and conjugated; the zero operator's basis is the identity."""
        dim = 4 ** self.n
        if not any(s.any() for s in self.singular_values):
            return np.eye(dim, dtype=complex)
        basis = np.zeros((dim, self.null_dim), dtype=complex)
        vecs, start = [], 0
        for idx, (kind, data), mat, count in zip(
                self.blocks, self.forms, self.block_matrices,
                _null_counts(self.singular_values, self.rounding_floor)):
            if kind == "partner":
                vecs.append(vecs[data[0]].conj()[data[1]])
            elif kind == "real":
                vecs.append(_from_real_form(_trailing_vectors(data[0], count), *data[1:]))
            else:
                vecs.append(_trailing_vectors(mat, count))
            basis[idx, start:start + count] = vecs[-1]
            start += count
        return basis


def _real_form(mat: np.ndarray, fixed, first, second) -> np.ndarray:
    """T^dag B T in the basis T of ``SuperOp``'s real form, from sums and
    differences of B's columns and then rows, so no dense product with T
    runs; its imaginary part is exactly zero when conj(B) = B[p][:, p]."""
    c = np.sqrt(0.5)
    cols = np.concatenate([mat[:, fixed], c * (mat[:, first] + mat[:, second]),
                           1j * c * (mat[:, first] - mat[:, second])], axis=1)
    return np.concatenate([cols[fixed], c * (cols[first] + cols[second]),
                           -1j * c * (cols[first] - cols[second])])


def _real_basis(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The eigenvectors ``vecs`` of a real matrix, with each conjugate
    pair (w, conj(w)) replaced by sqrt2 Re w and sqrt2 Im w (up to sign):
    a unitary 2 x 2 mix of the pair, so the singular values stay."""
    scale = np.where(vals.imag == 0, 1.0, np.sqrt(2.0))
    return np.where(vals.imag < 0, vecs.imag, vecs.real) * scale


def _from_real_form(w: np.ndarray, fixed, first, second) -> np.ndarray:
    """T w: the rows of ``w`` back from the real-form basis T."""
    k, m = len(fixed), len(first)
    s, d = w[k:k + m], w[k + m:]
    out = np.empty(w.shape, dtype=complex)
    out[fixed] = w[:k]
    out[first] = np.sqrt(0.5) * (s + 1j * d)
    out[second] = np.sqrt(0.5) * (s - 1j * d)
    return out


def _edge_components(rows: np.ndarray, cols: np.ndarray,
                     size: int) -> tuple[np.ndarray, ...]:
    """Connected components of the undirected graph on ``size`` nodes with
    edges ``rows[e] -- cols[e]``, each a sorted index array, in order of
    their smallest index; by label propagation with pointer jumping: each
    label is a node's root, roots only ever hook to smaller roots, so a
    component ends labelled by its smallest index."""
    labels = np.arange(size)
    while True:
        a, b = labels[rows], labels[cols]
        crossing = a != b
        if not crossing.any():
            break
        # an edge whose ends share a root keeps sharing it, so drop it
        rows, cols = rows[crossing], cols[crossing]
        a, b = a[crossing], b[crossing]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    order = np.argsort(labels, kind="stable")
    return tuple(np.split(order, np.flatnonzero(np.diff(labels[order])) + 1))


class DensityMatrix:
    """A Hermitian, unit-trace, PSD matrix on n qubits."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix: np.ndarray, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        dim = 2 ** n
        if matrix.shape != (dim, dim):
            raise DimensionError(f"expected {dim}x{dim} matrix for n={n}")
        if validate:
            if np.abs(matrix - matrix.conj().T).max() > HERMITICITY_TOL:
                raise ValidationError("density matrix is not Hermitian")
            if abs(np.trace(matrix).real - 1.0) > TRACE_TOL or abs(
                np.trace(matrix).imag
            ) > TRACE_TOL:
                raise ValidationError("density matrix trace differs from 1")
            evals = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
            if evals.min() < -PSD_SLACK:
                raise ValidationError(
                    f"density matrix has eigenvalue {evals.min():.3e} < -{PSD_SLACK}"
                )
        self.n = n
        self.matrix = matrix

    @classmethod
    def pure(cls, state: np.ndarray) -> "DensityMatrix":
        state = np.asarray(state, dtype=complex).ravel()
        nrm = np.linalg.norm(state)
        if nrm == 0:
            raise NormalizationError("zero state vector")
        state = state / nrm
        n = state.size.bit_length() - 1
        if 2 ** n != state.size:
            raise DimensionError("state vector length is not a power of two")
        return cls(n, np.outer(state, state.conj()))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(n={self.n}, purity={self.purity():.6g})"


@dataclass(frozen=True)
class DmVector:
    """Normalized vectorization of a density matrix."""

    n: int
    amplitudes: np.ndarray


def vectorize(rho: DensityMatrix) -> DmVector:
    """Flatten rho row-major and normalize by ||rho||_F."""
    vec = rho.matrix.reshape(-1)
    norm = float(np.linalg.norm(vec))
    if norm < ZERO_FLOOR:
        raise NormalizationError("cannot vectorize the zero matrix")
    return DmVector(rho.n, vec / norm)


# -- generator construction ---------------------------------------------


# overflow is refused once the blocks are gathered, not warned about on the way
@np.errstate(over="ignore", invalid="ignore")
def build_liouvillian(spec: LmeSpec) -> SuperOp:
    """Generator of the master equation on vectorized matrices, by blocks.

    L = -i(H(x)I - I(x)H^T) + sum_i rate_i (F(x)F* - (F^dag F)(x)I/2
    - I(x)(F^T F^*)/2); the vectorized identity is always a left null
    vector (trace preservation).  The blocks are first the components of
    the union of the terms' patterns, each entry on those patterns' edges
    computed in the order of the expression above and every other entry
    zero, then split along the components of its own nonzero pattern,
    which cancellation between terms can make finer;
    so the blocks and their entries are those of the dense sum, and the
    4^n x 4^n matrix is never formed.  Entries below ``SUBNORMAL_FLOOR``
    in magnitude are zero, and a generator within rounding of the scale
    of its terms (H = 0, every F proportional to I) is the zero generator.
    A generator whose entries or scale overflow the float range is
    refused.
    """
    check_dense(2 * spec.n)
    dim = 2 ** spec.n
    h = to_matrix(spec.hamiltonian)
    scale = np.abs(h).max()
    terms = []
    for ch in spec.jumps:
        f = to_matrix(ch.op)
        fdf = f.conj().T @ f
        terms.append((ch.rate, f, fdf))
        scale += ch.rate * np.abs(fdf).max()
    floor = dim * dim * np.finfo(float).eps * scale
    rows, cols = _term_edges(h, terms)
    coarse = _edge_components(rows, cols, dim * dim)
    mats = _gather_blocks(coarse, rows, cols, h, terms)
    if not (np.isfinite(floor) and all(np.isfinite(mat).all() for mat in mats)):
        raise ValidationError("generator overflows the float range")
    for mat in mats:
        mat[np.abs(mat) < SUBNORMAL_FLOOR] = 0.0
    if np.sqrt(sum(np.vdot(mat, mat).real for mat in mats)) <= floor:
        for mat in mats:
            mat[:] = 0.0
    pieces = []
    for idx, mat in zip(coarse, mats):
        parts = _edge_components(*np.nonzero(mat), len(mat))
        if len(parts) == 1:
            pieces.append((idx, mat))
        else:
            pieces.extend((idx[part], mat[np.ix_(part, part)]) for part in parts)
    pieces.sort(key=lambda piece: piece[0][0])
    return SuperOp(spec.n, [idx for idx, _ in pieces], [mat for _, mat in pieces],
                   floor)


def _term_edges(h: np.ndarray, terms) -> tuple[np.ndarray, np.ndarray]:
    """Edges (row, column) on the vec indices i * 2^n + k that cover the
    nonzero entries of every term of the generator: those of the one-sided
    terms H(x)I, I(x)H^T, (F^dag F)(x)I and I(x)(F^dag F)^T, read off the
    union of the 2^n x 2^n patterns of H and each F^dag F, and those of
    each F(x)F*, read off the pattern of F."""
    dim = len(h)
    other = np.arange(dim)
    side = h != 0
    for _, _, fdf in terms:
        side |= fdf != 0
    i, j = np.nonzero(side)
    rows = [(i[:, None] * dim + other).ravel(), (other[:, None] * dim + i).ravel()]
    cols = [(j[:, None] * dim + other).ravel(), (other[:, None] * dim + j).ravel()]
    for _, f, _ in terms:
        a, b = np.nonzero(f)
        rows.append((a[:, None] * dim + a).ravel())
        cols.append((b[:, None] * dim + b).ravel())
    return np.concatenate(rows), np.concatenate(cols)


def _gather_blocks(coarse, rows: np.ndarray, cols: np.ndarray, h: np.ndarray,
                   terms) -> list[np.ndarray]:
    """The generator's blocks on the index sets ``coarse`` that the edges
    ``rows[e] -- cols[e]`` connect, zero off the edges: each edge's entry
    is computed by the same operations, in the same order, as the entry of
    the Kronecker-product sum in ``build_liouvillian``'s docstring (an
    edge listed twice writes the same value twice)."""
    # an entry sits at row (ket, bra) and column (ket', bra')
    ket_row, bra_row = np.divmod(rows, len(h))
    ket_col, bra_col = np.divmod(cols, len(h))
    same_ket = ket_row == ket_col
    same_bra = bra_row == bra_col
    vals = -1j * (h[ket_row, ket_col] * same_bra - same_ket * h.T[bra_row, bra_col])
    for rate, f, fdf in terms:
        vals += rate * (
            f[ket_row, ket_col] * f.conj()[bra_row, bra_col]
            - 0.5 * (fdf[ket_row, ket_col] * same_bra)
            - 0.5 * (same_ket * fdf.T[bra_row, bra_col])
        )
    label, local = _block_owner(coarse, len(h) ** 2)
    # the edges grouped by the block they fall in
    block = label[rows]
    order = np.argsort(block, kind="stable")
    groups = np.split(order, np.searchsorted(block[order], np.arange(1, len(coarse))))
    mats = []
    for idx, own in zip(coarse, groups):
        mat = np.zeros((len(idx), len(idx)), dtype=complex)
        mat[local[rows[own]], local[cols[own]]] = vals[own]
        mats.append(mat)
    return mats


def _block_owner(blocks, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Per index below ``size``: the block of ``blocks`` that holds it and
    its position there."""
    label = np.empty(size, dtype=np.intp)
    local = np.empty(size, dtype=np.intp)
    for k, idx in enumerate(blocks):
        label[idx] = k
        local[idx] = np.arange(len(idx))
    return label, local


def pauli_liouvillian(n: int, hamiltonian: PauliSum, jumps) -> PauliSum:
    """The generator of ``build_liouvillian`` as a 2n-qubit Pauli sum.

    L = -i(H(x)I - I(x)H^T) + sum_i rate_i (F(x)F* - (F^dag F)(x)I/2
    - I(x)(F^dag F)^T/2), built by Pauli algebra alone, so it needs no
    dense matrix at any size.  ``jumps`` is a list of (rate, operator)
    pairs.
    """
    iden = PauliSum.identity(n)
    total = (hamiltonian.tensor(iden) - iden.tensor(hamiltonian.transpose())) * -1j
    for rate, f in jumps:
        fdf = f.dagger() @ f
        total = total + (
            f.tensor(f.conj())
            - fdf.tensor(iden) * 0.5
            - iden.tensor(fdf.transpose()) * 0.5
        ) * rate
    return total


def exchange_symmetry_defect(doubled: PauliSum) -> float:
    """Max coefficient violation of M = S M^* S (zero for any squared
    generator); this is the Pauli-basis form of the g_ij pairing rule.

    S M^* S puts sign * conj(c) on the word with its row and column
    halves swapped, where sign is the word's transposition sign, which
    the swap keeps.  A word whose swapped partner is absent is compared
    with zero, which also covers the partner's own comparison.
    """
    return doubled.max_coeff_diff(doubled.swap_halves().conj())


def build_ldl(spec: LmeSpec, liouv: SuperOp | None = None) -> tuple[SuperOp, PauliSum]:
    """Block and Pauli-sum forms of the squared generator.

    L is block-diagonal, so L^dag L is too, on the same blocks: each block
    is B^dag B for the generator's block B, and the 4^n x 4^n product is
    never formed.  The Pauli form is L_P^dag L_P with L_P from
    ``pauli_liouvillian``; it is cross-checked entry by entry against the
    blocks, in a block and off one (an entrywise bound also bounds every
    Pauli coefficient, |Tr(P D)|/2^n <= max|D_ij|), and disagreement beyond
    ``LDL_FORMS_TOL`` means a construction bug and raises.  ``liouv``,
    the generator of ``spec`` if it is already built, saves building it
    again.
    """
    if liouv is None:
        liouv = build_liouvillian(spec)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = [mat.conj().T @ mat for mat in liouv.block_matrices]
        # the checks read M + M^dag, so that must stay in range too
        finite = all(np.isfinite(mat + mat.conj().T).all() for mat in squares)
    if not finite:
        raise ValidationError("squared generator overflows the float range")
    ldl = SuperOp(spec.n, liouv.blocks, squares)
    lp = pauli_liouvillian(
        spec.n, spec.hamiltonian, [(ch.rate, ch.op) for ch in spec.jumps]
    )
    sym = lp.dagger() @ lp
    gap = _pauli_gap(ldl, sym)
    if gap > LDL_FORMS_TOL:
        raise WorkbenchError(
            f"Pauli-sum and dense squared generators disagree by {gap:.3e}"
        )
    defect = exchange_symmetry_defect(sym)
    if defect > EXCHANGE_PAIRING_TOL:
        raise WorkbenchError(
            f"squared generator violates exchange-conjugation pairing by {defect:.3e}"
        )
    return ldl, sym


def _pauli_gap(op: SuperOp, s: PauliSum) -> float:
    """max |to_matrix(s) - op.matrix| with neither matrix formed: a word
    with flip f reaches only the entries (c ^ f, c), so the words of each
    flip are summed into one row, each entry in term order as
    ``to_matrix`` sums it, and read off at op's blocks and off them."""
    cols = np.arange(4 ** op.n)
    has = np.zeros(len(cols), dtype=bool)
    has[_signed_permutations(s.word_keys, s.n)[0]] = True
    flips = np.flatnonzero(has)
    # a flip that no word has reads the last row, which stays zero
    rank = np.where(has, np.cumsum(has) - 1, -1)
    sums = np.zeros((len(flips) + 1, len(cols)), dtype=complex)
    for flip, vals in _word_values(s):
        np.add.at(sums, (rank[flip, None], cols), vals)
    label = op._owner[0]
    gap = np.abs(sums[:-1][label[flips[:, None] ^ cols] != label[cols]]).max(initial=0.0)
    for idx, mat in zip(op.blocks, op.block_matrices):
        gap = max(gap, np.abs(sums[rank[idx[:, None] ^ idx], idx] - mat).max(initial=0.0))
    return float(gap)


# -- steady states -------------------------------------------------------


def _null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal right null-space basis (columns) by SVD, by
    ``SuperOp.null_basis``'s rank rule."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    if not svals.any():
        return np.eye(matrix.shape[1], dtype=complex)
    return _trailing_vectors(matrix, _null_counts([svals], 0.0)[0])


def _null_counts(svals, floor: float) -> list[int]:
    """Per block, how many of its singular values ``svals`` (descending)
    are null: those at or below NULL_SPACE_RTOL * the largest singular
    value of all blocks, floored at ``floor``; all of the zero operator's."""
    smax = max((s[0] for s in svals if s.size), default=0.0)
    cut = max(NULL_SPACE_RTOL * smax, floor)
    return [int(np.sum(s <= cut)) for s in svals]


def _trailing_vectors(mat: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` right singular vectors of one full SVD of
    ``mat``, as columns; for a count of 0, none and no SVD."""
    if not count:
        return np.zeros((mat.shape[1], 0), dtype=complex)
    vh = np.linalg.svd(mat)[2]
    return vh[len(vh) - count:].conj().T


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, or (M - M^dag)/2i if that is zero to the rounding of
    M: the null space is closed under M -> M^dag, so it then holds the
    Hermitian -iM."""
    herm = (mat + mat.conj().T) / 2
    if np.abs(herm).max() > mat.size * np.finfo(float).eps * np.abs(mat).max():
        return herm
    return (mat - mat.conj().T) / 2j


def steady_state(liouv: SuperOp) -> list[DensityMatrix]:
    """Steady density matrices spanning the null space of the generator.

    Each null vector is devectorized, Hermitized, eigenvalue-clipped to
    PSD and trace-normalized.  If any basis element resists that repair
    (a traceless direction, or large clipped mass — both symptoms of a
    degenerate steady space) a warning is emitted and the raw Hermitized,
    Frobenius-normalized basis is returned unvalidated.
    """
    basis = liouv.null_basis
    if basis.shape[1] == 0:
        raise NoSteadyStateError("generator has no numerical null space")
    dim = 2 ** liouv.n
    herms = [_hermitian_part(mat) for mat in basis.T.reshape(-1, dim, dim)]
    repaired = []
    degenerate = False
    for herm in herms:
        tr = np.trace(herm).real
        if abs(tr) < STEADY_TRACE_FLOOR:
            degenerate = True
            break
        herm = herm / tr
        evals, evecs = np.linalg.eigh(herm)
        clipped = np.clip(evals, 0.0, None)
        repair_mass = float(np.sum(np.abs(evals - clipped)))
        if repair_mass > REPAIR_MASS_MAX:
            degenerate = True
            break
        fixed = (evecs * clipped) @ evecs.conj().T
        fixed = fixed / np.trace(fixed).real
        repaired.append(DensityMatrix(liouv.n, fixed))
    if degenerate:
        warnings.warn(
            "degenerate steady space: PSD repair failed on a basis element; "
            "returning the raw Hermitized null-space basis",
            stacklevel=2,
        )
        return [
            DensityMatrix(liouv.n, herm / np.linalg.norm(herm), validate=False)
            for herm in herms
        ]
    return repaired


# -- time evolution --------------------------------------------------------


def evolve_vector(lmat: np.ndarray, v0: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Classical fixed-step 4th-order integration of dv/dt = L v."""
    if t < 0:
        raise ValidationError("evolution time must be non-negative")
    if steps < 1:
        raise ValidationError("need at least one integration step")
    v = np.array(v0, dtype=complex)
    h = t / steps
    for _ in range(steps):
        k1 = lmat @ v
        k2 = lmat @ (v + 0.5 * h * k1)
        k3 = lmat @ (v + 0.5 * h * k2)
        k4 = lmat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(v)):
            raise InstabilityError(
                f"integration diverged at step size {h:.3e}; increase steps"
            )
    return v


def evolve(liouv: SuperOp, rho0: DensityMatrix, t: float, steps: int) -> DensityMatrix:
    """Propagate rho0 for time t with ``steps`` fixed substeps, block by
    block; a block on which vec(rho0) vanishes stays exactly zero."""
    if rho0.n != liouv.n:
        raise DimensionError("state and generator qubit counts differ")
    v0 = rho0.matrix.reshape(-1)
    v = np.zeros(v0.shape, dtype=complex)
    for idx, mat in zip(liouv.blocks, liouv.block_matrices):
        if np.any(v0[idx]):
            v[idx] = evolve_vector(mat, v0[idx], t, steps)
    dim = 2 ** liouv.n
    mat = v.reshape(dim, dim)
    mat = (mat + mat.conj().T) / 2
    tr = np.trace(mat).real
    if abs(tr - 1.0) > EVOLVE_TRACE_DRIFT_TOL:
        raise InstabilityError(
            f"trace drifted to {tr:.6f}; increase steps for t={t:.3g}"
        )
    return DensityMatrix(liouv.n, mat / tr, validate=False)


def integration_steps(liouv: SuperOp, t: float) -> int:
    """RK4 step count for time t: 4 per unit of t * spectral radius, >= 200."""
    radius = float(np.abs(liouv.eigenvalues).max())
    return max(200, int(np.ceil(4.0 * t * max(radius, 1.0))))


# -- spectra and runtime bounds -------------------------------------------


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    gap: float | None
    steady_dim: int
    diagonalizable: bool
    mixing_time_estimate: float | None
    eigvec_condition: float = field(default=np.nan)

    def to_json_dict(self) -> dict:
        # sorted on rounded keys so that LAPACK's order, which a rounding-
        # level change can permute, does not reach the report
        evals = self.eigenvalues
        order = np.lexsort((np.round(evals.imag, 12), np.round(evals.real, 12)))
        return {
            "gap": self.gap,
            "steady_dim": self.steady_dim,
            "diagonalizable": self.diagonalizable,
            "mixing_time_estimate": self.mixing_time_estimate,
            "eigenvalues": [[float(e.real), float(e.imag)] for e in evals[order]],
        }


def random_density_matrix(n: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-distributed full-rank random density matrix."""
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(n, mat / np.trace(mat).real)


def trace_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def spectral_diagnostics(
    liouv: SuperOp, mixing_probes: int = 6, seed: int = 0
) -> SpectralReport:
    """Eigen-spectrum, decay gap, diagonalizability and a probe-based
    mixing-time estimate (a lower bound: the true mixing time quantifies
    over all state pairs, the probes sample a few)."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    evals = liouv.eigenvalues
    nonzero_re = np.abs(evals.real)[np.abs(evals.real) > DECAY_RATE_FLOOR]
    gap = float(nonzero_re.min()) if nonzero_re.size else None
    # the condition number of the block-diagonal eigenvector matrix
    svals = liouv.eigvec_singular_values
    with np.errstate(divide="ignore"):
        cond = float(max(s[0] for s in svals) / min(s[-1] for s in svals))
    diagonalizable = bool(cond < DIAGONALIZABLE_COND_MAX)
    steady_dim = liouv.null_dim
    # with several steady states a difference of two states need not
    # contract, so there is no mixing time to estimate
    mixing = (
        _mixing_time_estimate(liouv, gap, diagonalizable, mixing_probes, seed)
        if steady_dim == 1
        else None
    )
    return SpectralReport(
        eigenvalues=evals,
        gap=gap,
        steady_dim=steady_dim,
        diagonalizable=diagonalizable,
        mixing_time_estimate=mixing,
        eigvec_condition=cond,
    )


def _mixing_time_estimate(
    liouv: SuperOp,
    gap: float | None,
    diagonalizable: bool,
    probes: int,
    seed: int,
) -> float | None:
    if gap is None or probes < 1:
        return None
    dim = 2 ** liouv.n
    # every probe is vec of a Hermitian difference, so each partner's slice
    # is filled from its own block's, which alone is propagated
    own = [k for k, (kind, _) in enumerate(liouv.forms) if kind != "partner"]
    if diagonalizable:

        def propagator(vec):
            # the eigen-coefficients of a probe are taken once, not per time
            parts = [(liouv.blocks[k], *liouv.eig[k],
                      liouv.eig_inverses[k] @ vec[liouv.blocks[k]]) for k in own]

            def at(t):
                out = np.empty(vec.shape, dtype=complex)
                for idx, vals, vecs, coeffs in parts:
                    out[idx] = vecs @ (np.exp(vals * t) * coeffs)
                return liouv.fill_partners(out)

            return at

    else:

        def propagator(vec):
            def at(t):
                out = np.empty(vec.shape, dtype=complex)
                for k in own:
                    idx = liouv.blocks[k]
                    out[idx] = _expm(liouv.block_matrices[k] * t) @ vec[idx]
                return liouv.fill_partners(out)

            return at

    rng = np.random.default_rng(seed)

    def random_pure(n):
        vec = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())

    estimate = 0.0
    for probe in range(probes):
        # alternate full-rank and pure pairs; the slowest contracting
        # directions sit at extreme points of the state set, which
        # full-rank probes systematically miss
        if probe % 2:
            delta = (
                random_density_matrix(liouv.n, rng).matrix
                - random_density_matrix(liouv.n, rng).matrix
            )
        else:
            delta = random_pure(liouv.n) - random_pure(liouv.n)
        propagate = propagator(delta.reshape(-1))
        target = trace_norm(delta) / 2.0

        def distance(t):
            # a growing mode overflows to inf/nan, which no SVD takes
            with np.errstate(over="ignore", invalid="ignore"):
                vec = propagate(t)
            if not np.isfinite(vec).all():
                return np.inf
            return trace_norm(vec.reshape(dim, dim))

        t_hi = 1.0 / gap
        doublings = 0
        while (dist := distance(t_hi)) > target:
            if not np.isfinite(dist):
                return None
            t_hi *= 2.0
            doublings += 1
            if doublings > 80:
                return None
        t_lo = 0.0 if doublings == 0 else t_hi / 2.0
        estimate = max(estimate, _bisect(distance, target, t_lo, t_hi))
    return estimate


def _bisect(distance, target: float, t_lo: float, t_hi: float) -> float:
    """The end t_hi of [t_lo, t_hi] after 60 halvings that keep
    distance(t_lo) > target >= distance(t_hi).  They stop early once the
    midpoint rounds onto an end: distance is a fixed function of t, so
    every later halving would leave both ends where they are."""
    for _ in range(60):
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        if distance(mid) <= target:
            t_hi = mid
        else:
            t_lo = mid
    return t_hi


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Moler and Van Loan, SIAM Review 45,
    3 (2003)): the degree-18 Taylor sum of a / 2^s, whose 1-norm is at most
    1/2 so the sum is exact to rounding, squared s times.  Non-finite
    entries stay non-finite."""
    s = max(0, int(np.frexp(np.abs(a).sum(axis=0).max())[1]) + 1)
    x = a * 0.5 ** s
    out = eye = np.eye(len(a), dtype=x.dtype)
    for k in range(18, 0, -1):
        out = eye + (x @ out) / k
    for _ in range(s):
        out = out @ out
    return out


def runtime_bound(kind: str, value: float, n: int, eps: float) -> float:
    """Sufficient evolution time to reach vectorized overlap 1 - eps.

    kind="hermitian" uses the decay gap: t = (n ln2 / 2 + ln(1/sqrt(eps)))/gap.
    kind="mixing" uses the mixing time: t = t_mix (n + log2(1/eps)) / 2.
    """
    if value <= 0:
        raise ValidationError("gap / mixing time must be positive")
    if not 0 < eps <= 1:
        raise ValidationError("eps must lie in (0, 1]")
    if n < 1:
        raise ValidationError("qubit count must be positive")
    if kind == "hermitian":
        return (0.5 * np.log(2.0) * n + 0.5 * np.log(1.0 / eps)) / value
    if kind == "mixing":
        return value * (n + np.log2(1.0 / eps)) / 2.0
    raise ValidationError(f"unknown bound kind {kind!r}")


# -- squared-generator property checks --------------------------------------


@dataclass
class LdlPropertyReport:
    min_eigenvalue: float
    ground_energy: float
    ground_dim: int
    st_commutator_norm: float
    steady_dim: int
    spectrum_nonnegative: bool
    ground_energy_zero: bool
    st_symmetric: bool
    ground_matches_steady: bool

    @property
    def all_passed(self) -> bool:
        return (self.spectrum_nonnegative and self.ground_energy_zero
                and self.st_symmetric and self.ground_matches_steady)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def verify_ldl_properties(ldl: SuperOp, liouvillian: SuperOp) -> LdlPropertyReport:
    """Check the structural properties every squared generator carries:
    non-negative spectrum with zero ground energy, commutation with the
    exchange/conjugation map, and agreement between its ground-space
    dimension and the steady-space dimension of the generator."""
    herm = [(blk + blk.conj().T) / 2 for blk in ldl.block_matrices]
    evals = np.sort(np.concatenate([np.linalg.eigvalsh(blk) for blk in herm]))
    # the steady count's sigma <= NULL_SPACE_RTOL * sigma_max of L reads
    # lambda <= NULL_SPACE_RTOL**2 * lambda_max here (lambda = sigma**2),
    # floored at what eigvalsh resolves, about dim * eps * lambda_max, and
    # at the square of the generator's rounding floor
    zero_tol = max(NULL_SPACE_RTOL ** 2, len(evals) * np.finfo(float).eps)
    cut = max(zero_tol * max(float(evals[-1]), 0.0), liouvillian.rounding_floor ** 2)
    ground_dim = int(np.sum(evals <= cut))
    # ||M S - S M*||_F, S the exchange: on the rows of block a and the
    # columns S a, M S is M_a and S M* is M* gathered on S a; on the rows
    # S b and columns b, S M* is M_b*, which M S misses where S b is split
    dim = 2 ** ldl.n
    label, local = ldl._owner
    squares = 0.0
    for idx, blk in zip(ldl.blocks, herm):
        swapped = (idx % dim) * dim + idx // dim
        lab, image = label[swapped], np.zeros_like(blk)
        for m in set(lab.tolist()):
            at = np.flatnonzero(lab == m)
            image[np.ix_(at, at)] = herm[m][np.ix_(local[swapped[at]], local[swapped[at]])]
        squares += np.linalg.norm(blk - image.conj()) ** 2
        squares += np.linalg.norm(blk[lab[:, None] != lab]) ** 2
    st_norm = float(np.sqrt(squares))
    steady_dim = liouvillian.null_dim
    return LdlPropertyReport(
        min_eigenvalue=float(evals[0]),
        ground_energy=float(abs(evals[0])),
        ground_dim=ground_dim,
        st_commutator_norm=st_norm,
        steady_dim=steady_dim,
        spectrum_nonnegative=bool(evals[0] >= -LDL_NEGATIVE_SLACK),
        ground_energy_zero=bool(abs(evals[0]) < GROUND_ENERGY_TOL),
        st_symmetric=bool(st_norm < ST_COMMUTATOR_TOL),
        ground_matches_steady=ground_dim == steady_dim,
    )


# -- JSON interchange --------------------------------------------------------


def _sum_to_triples(s: PauliSum) -> list:
    s = s.sorted()
    return [[c.real, c.imag, w] for c, w in zip(s.coeffs.tolist(), s.letters())]


def _sum_from_triples(triples, n: int) -> PauliSum:
    entries = [(complex(re, im), letters) for re, im, letters in triples]
    if not entries:
        return PauliSum.zero(n)
    return PauliSum.from_letter_terms(entries)


def lme_to_json_dict(spec: LmeSpec, **extra) -> dict:
    out = {
        "n": spec.n,
        "hamiltonian": _sum_to_triples(spec.hamiltonian),
        "jumps": [
            {"rate": ch.rate, "op": _sum_to_triples(ch.op)} for ch in spec.jumps
        ],
    }
    out.update(extra)
    return out


def _json_int(value, name: str) -> int:
    """An integer read from JSON: a bool or a non-integral number is a
    ValidationError, not truncated."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def lme_from_json_dict(data: dict) -> tuple[LmeSpec, dict]:
    """Parse an LmeSpec; unknown keys are returned as a side dict."""
    try:
        n = _json_int(data["n"], "n")
        ham = _sum_from_triples(data["hamiltonian"], n)
        jumps = tuple(
            JumpChannel(float(j["rate"]), _sum_from_triples(j["op"], n))
            for j in data["jumps"]
        )
    except KeyError as exc:
        raise ValidationError(f"LME spec is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad LME spec: {exc}") from exc
    extras = {k: v for k, v in data.items() if k not in ("n", "hamiltonian", "jumps")}
    return LmeSpec(n, ham, jumps), extras


def read_input(path, parse=json.loads):
    """Parse the text of an input file (as JSON by default); a file that
    cannot be read or decoded is a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is malformed: {exc}") from exc


def load_lme(path) -> tuple[LmeSpec, dict]:
    return lme_from_json_dict(read_input(path))
