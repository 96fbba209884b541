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
import scipy.linalg

from .errors import (
    DimensionError,
    InstabilityError,
    NormalizationError,
    NoSteadyStateError,
    ValidationError,
    WorkbenchError,
)
from .pauli import PauliSum, check_dense, to_matrix

NULL_SPACE_RTOL = 1e-10       # singular values below rtol*s_max span the null space
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_SLACK = 1e-9


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
        if self.hamiltonian.n != self.n:
            raise DimensionError("Hamiltonian qubit count differs from spec")
        if not self.hamiltonian.is_hermitian():
            raise ValidationError("Hamiltonian must be Hermitian (within 1e-12)")
        for ch in self.jumps:
            if ch.op.n != self.n:
                raise DimensionError("jump operator qubit count differs from spec")


@dataclass(frozen=True)
class SuperOp:
    """A dense operator on vectorized density matrices (dim 4^n).

    ``blocks`` holds the index sets of the connected components of
    ``matrix != 0``, read as an undirected graph.  The matrix is exactly
    block-diagonal on them (an XXZ generator with one raising channel per
    site conserves the ket-minus-bra magnetization and has 2n+1 blocks),
    so every factorization runs block by block: ``eig`` per block and
    ``null_basis`` by one SVD per block.  A one-block operator factors
    ``matrix`` itself.  ``blocks``, ``eig`` and ``null_basis`` are
    computed on first use and cached, which relies on ``matrix`` not being
    modified after construction.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        dim = 4 ** self.n
        if self.matrix.shape != (dim, dim):
            raise DimensionError(
                f"superoperator for n={self.n} must be {dim}x{dim}, "
                f"got {self.matrix.shape}"
            )

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Sorted index sets of the connected components of ``matrix != 0``,
        in order of their smallest index."""
        return _components(self.matrix != 0)

    def block_matrices(self) -> list[np.ndarray]:
        """The diagonal block of ``matrix`` on each index set of ``blocks``;
        a one-block operator gives ``matrix`` itself, not a copy."""
        if len(self.blocks) == 1:
            return [self.matrix]
        return [self.matrix[np.ix_(idx, idx)] for idx in self.blocks]

    @cached_property
    def eig(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per block: eigenvalues and right eigenvectors, ``np.linalg.eig``."""
        return tuple(np.linalg.eig(mat) for mat in self.block_matrices())

    @property
    def eigenvalues(self) -> np.ndarray:
        """The eigenvalues of every block, concatenated in block order."""
        return np.concatenate([vals for vals, _ in self.eig])

    @cached_property
    def null_basis(self) -> np.ndarray:
        """Orthonormal right null-space basis (columns), by one SVD per block."""
        return _block_null_space(self.block_matrices(), self.blocks)


def _components(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """Connected components of the undirected graph whose edges are the
    nonzero entries of the square ``mask``, by label propagation with
    pointer jumping: each label is a node's root, roots only ever hook to
    smaller roots, so a component ends labelled by its smallest index."""
    rows, cols = np.nonzero(mask)
    labels = np.arange(mask.shape[0])
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

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        dim = 2 ** n
        return cls(n, np.eye(dim, dtype=complex) / dim)

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
    if norm < 1e-300:
        raise NormalizationError("cannot vectorize the zero matrix")
    return DmVector(rho.n, vec / norm)


def vec_overlap(a: DmVector, b: DmVector) -> complex:
    """<a|b> on normalized vectorizations, i.e. Tr(rho_a^dag rho_b)/(Ca*Cb)."""
    return complex(np.vdot(a.amplitudes, b.amplitudes))


# -- generator construction ---------------------------------------------


def build_liouvillian(spec: LmeSpec) -> SuperOp:
    """Dense generator of the master equation on vectorized matrices.

    L = -i(H(x)I - I(x)H^T) + sum_i rate_i (F(x)F* - (F^dag F)(x)I/2
    - I(x)(F^T F^*)/2); the vectorized identity is always a left null
    vector (trace preservation).  A generator within rounding of the scale
    of its terms (H = 0, every F proportional to I) is the zero generator.
    """
    check_dense(2 * spec.n)
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
    if np.sqrt(np.vdot(lmat, lmat).real) <= dim * dim * np.finfo(float).eps * scale:
        lmat[:] = 0.0
    return SuperOp(spec.n, lmat)


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


def exchange_conjugate(doubled: PauliSum) -> PauliSum:
    """Image of a doubled-register sum under simultaneous row/column
    exchange and complex conjugation (the matrix map M -> S M^* S)."""
    if doubled.n % 2:
        raise DimensionError("doubled-register sum must have even qubit count")
    terms = {}
    for word, coeff in doubled.conj():
        row, col = word.halves()
        terms[col.tensor(row)] = coeff
    return PauliSum(doubled.n, terms)


def exchange_symmetry_defect(doubled: PauliSum) -> float:
    """Max coefficient violation of M = S M^* S (zero for any squared
    generator); this is the Pauli-basis form of the g_ij pairing rule."""
    return doubled.max_coeff_diff(exchange_conjugate(doubled))


def build_ldl(spec: LmeSpec) -> tuple[SuperOp, PauliSum]:
    """Dense and Pauli-sum forms of the squared generator.

    The Pauli form is L_P^dag L_P with L_P from ``pauli_liouvillian``;
    it is cross-checked entry by entry against the dense product L^dag L
    built by Kronecker products (an entrywise bound also bounds every
    Pauli coefficient, |Tr(P D)|/2^n <= max|D_ij|), and disagreement
    beyond 1e-10 means a construction bug and raises.
    """
    liouv = build_liouvillian(spec)
    dense = liouv.matrix.conj().T @ liouv.matrix
    lp = pauli_liouvillian(
        spec.n, spec.hamiltonian, [(ch.rate, ch.op) for ch in spec.jumps]
    )
    sym = lp.dagger() @ lp
    gap = float(np.abs(to_matrix(sym) - dense).max())
    if gap > 1e-10:
        raise WorkbenchError(
            f"Pauli-sum and dense squared generators disagree by {gap:.3e}"
        )
    defect = exchange_symmetry_defect(sym)
    if defect > 1e-10:
        raise WorkbenchError(
            f"squared generator violates exchange-conjugation pairing by {defect:.3e}"
        )
    return SuperOp(spec.n, dense), sym


def exchange_matrix(n: int) -> np.ndarray:
    """Permutation S with S vec(M) = vec(M^T); swaps the row and column
    registers qubit by qubit, and S^2 = I."""
    dim = 2 ** n
    s = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


# -- steady states -------------------------------------------------------


def _null_space(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal right null-space basis (columns) by SVD."""
    return _block_null_space([matrix], [np.arange(matrix.shape[1])])


def _block_null_space(mats, blocks) -> np.ndarray:
    """Null-space basis of the block-diagonal matrix whose block on the
    index set ``blocks[k]`` is ``mats[k]``: one SVD per block, rank by
    NULL_SPACE_RTOL * the largest singular value of all blocks, and each
    null vector embedded at full length."""
    dim = sum(len(idx) for idx in blocks)
    svds = [np.linalg.svd(mat)[1:] for mat in mats]
    smax = max((svals[0] for svals, _ in svds if svals.size), default=0.0)
    if smax == 0.0:
        return np.eye(dim, dtype=complex)
    pieces = []
    for idx, (svals, vh) in zip(blocks, svds):
        rank = int(np.sum(svals > NULL_SPACE_RTOL * smax))
        piece = np.zeros((dim, vh.shape[0] - rank), dtype=vh.dtype)
        piece[idx] = vh[rank:].conj().T
        pieces.append(piece)
    return np.concatenate(pieces, axis=1)


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, or (M - M^dag)/2i if that is zero: the null space is
    closed under M -> M^dag, so it then holds the Hermitian -iM."""
    herm = (mat + mat.conj().T) / 2
    return herm if herm.any() else (mat - mat.conj().T) / 2j


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
        if abs(tr) < 1e-8:
            degenerate = True
            break
        herm = herm / tr
        evals, evecs = np.linalg.eigh(herm)
        clipped = np.clip(evals, 0.0, None)
        repair_mass = float(np.sum(np.abs(evals - clipped)))
        if repair_mass > 0.25:
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
    for idx, mat in zip(liouv.blocks, liouv.block_matrices()):
        if np.any(v0[idx]):
            v[idx] = evolve_vector(mat, v0[idx], t, steps)
    dim = 2 ** liouv.n
    mat = v.reshape(dim, dim)
    mat = (mat + mat.conj().T) / 2
    tr = np.trace(mat).real
    if abs(tr - 1.0) > 1e-6:
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


DIAGONALIZABLE_COND_MAX = 1e8


def spectral_diagnostics(
    liouv: SuperOp, mixing_probes: int = 6, seed: int = 0
) -> SpectralReport:
    """Eigen-spectrum, decay gap, diagonalizability and a probe-based
    mixing-time estimate (a lower bound: the true mixing time quantifies
    over all state pairs, the probes sample a few)."""
    evals = liouv.eigenvalues
    nonzero_re = np.abs(evals.real)[np.abs(evals.real) > 1e-9]
    gap = float(nonzero_re.min()) if nonzero_re.size else None
    # the condition number of the block-diagonal eigenvector matrix
    svals = [np.linalg.svd(vecs, compute_uv=False) for _, vecs in liouv.eig]
    with np.errstate(divide="ignore"):
        cond = float(max(s[0] for s in svals) / min(s[-1] for s in svals))
    diagonalizable = bool(cond < DIAGONALIZABLE_COND_MAX)
    steady_dim = liouv.null_basis.shape[1]
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
    if diagonalizable:
        factors = [(vals, vecs, np.linalg.inv(vecs)) for vals, vecs in liouv.eig]

        def propagate_block(k, vec, t):
            vals, vecs, inv = factors[k]
            return vecs @ (np.exp(vals * t) * (inv @ vec))

    else:
        mats = liouv.block_matrices()

        def propagate_block(k, vec, t):
            return scipy.linalg.expm(mats[k] * t) @ vec

    def propagate(vec, t):
        out = np.empty(vec.shape, dtype=complex)
        for k, idx in enumerate(liouv.blocks):
            out[idx] = propagate_block(k, vec[idx], t)
        return out

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
        v0 = delta.reshape(-1)
        target = trace_norm(delta) / 2.0

        def distance(t):
            # a growing mode overflows to inf/nan, which no SVD takes
            with np.errstate(over="ignore", invalid="ignore"):
                vec = propagate(v0, t)
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
        for _ in range(60):
            mid = 0.5 * (t_lo + t_hi)
            if distance(mid) <= target:
                t_hi = mid
            else:
                t_lo = mid
        estimate = max(estimate, t_hi)
    return estimate


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
    mat = (ldl.matrix + ldl.matrix.conj().T) / 2
    evals = np.sort(np.concatenate([
        np.linalg.eigvalsh((blk + blk.conj().T) / 2) for blk in ldl.block_matrices()
    ]))
    # the steady count's sigma <= NULL_SPACE_RTOL * sigma_max of L reads
    # lambda <= NULL_SPACE_RTOL**2 * lambda_max here (lambda = sigma**2),
    # floored at what eigvalsh resolves, about dim * eps * lambda_max
    zero_tol = max(NULL_SPACE_RTOL ** 2, len(evals) * np.finfo(float).eps)
    ground_dim = int(np.sum(evals <= zero_tol * max(float(evals[-1]), 0.0)))
    # ||M S - S M*||, with the exchange S applied as an index permutation
    dim = 2 ** ldl.n
    perm = np.arange(dim * dim).reshape(dim, dim).T.ravel()
    st_norm = float(np.linalg.norm(mat[:, perm] - mat.conj()[perm, :]))
    steady_dim = liouvillian.null_basis.shape[1]
    return LdlPropertyReport(
        min_eigenvalue=float(evals[0]),
        ground_energy=float(abs(evals[0])),
        ground_dim=ground_dim,
        st_commutator_norm=st_norm,
        steady_dim=steady_dim,
        spectrum_nonnegative=bool(evals[0] >= -1e-9),
        ground_energy_zero=bool(abs(evals[0]) < 1e-8),
        st_symmetric=bool(st_norm < 1e-9),
        ground_matches_steady=ground_dim == steady_dim,
    )


# -- JSON interchange --------------------------------------------------------


def _sum_to_triples(s: PauliSum) -> list:
    return [[c.real, c.imag, w.letters] for w, c in s.sorted_terms()]


def _sum_from_triples(triples, n: int) -> PauliSum:
    entries = [(complex(re, im), letters) for re, im, letters in triples]
    if not all(np.isfinite(c) for c, _ in entries):
        raise ValidationError("Pauli coefficients must be finite")
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


def lme_from_json_dict(data: dict) -> tuple[LmeSpec, dict]:
    """Parse an LmeSpec; unknown keys are returned as a side dict."""
    try:
        n = int(data["n"])
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
