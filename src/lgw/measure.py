"""Measurement calculus in the vectorization picture.

An observable A on the doubled (row + column) register has a substitute
operator B, obtained by a pure index permutation, such that

    <rho|A|rho> = Tr(B rho(x)rho) / Tr(rho^2).

A Pauli word A = P (x) Q has the unitary substitute s A SWAP, with SWAP
exchanging the two copies and s = (-1)^(Y letters of Q), so the numerator
is a weighted sum of Hadamard-test expectations and the denominator is a
Swap-test expectation.

Every read goes through one gather, ``word_reads``: each word is a
signed permutation, so its read Tr(P rho Q^T rho) = <vec rho^T|A|vec rho>
is a dot product of one gathered row of vec rho^T * vec rho with one
+-1 row, and no observable matrix or substitute is formed.  Exact
evaluation, the sampled estimator and ``hadamard_sample`` all read
through it.  The closed-form substitutes, with the 16-entry two-qubit
table generated by brute force from the index rule as their oracle, are
``lgw verify``'s check of that gather and the tests' oracle.  The module
also provides shot-level sampling of both tests and the ratio estimator
with its bias/variance/MSE accounting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import asdict, astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateObservableError,
    DimensionError,
    IllConditionedRatioError,
    ValidationError,
    WorkbenchError,
)
from .lindblad import DensityMatrix
from .pauli import (
    _PRODUCT_BLOCK,
    LETTERS,
    PauliSum,
    _signed_permutations,
    check_dense,
    pauli_decompose,
    to_matrix,
)
from .tolerances import (
    NUMERATOR_IMAG_RTOL,
    PAULI_HERMITICITY_TOL,
    READ_OVERSHOOT_TOL,
    TABLE_UNITARY_TOL,
    UNITARY_TOL,
    ZERO_FLOOR,
)

# Stream ids keep the counter-based generators independent: Hadamard
# term i draws from stream i, the Swap test from its own named stream.
SWAP_TEST_STREAM = 0x53574150
# Generator.binomial draws at most this many shots at once (int64).
_MAX_SHOTS = 2 ** 63 - 1

def _streams(seed: int) -> Callable[[int], np.random.Generator]:
    """The generators of the streams (seed, stream): one Philox bit
    generator, re-keyed through its state for each stream, so that stream
    draws what ``Generator(Philox(key=[seed, stream]))`` draws without a
    generator built per stream."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    gen = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))
    fresh = gen.bit_generator.state

    def keyed(stream: int) -> np.random.Generator:
        fresh["state"]["key"] = np.array(
            [seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        gen.bit_generator.state = fresh
        return gen

    return keyed


def substitute_matrix(amat: np.ndarray) -> np.ndarray:
    """Dense substitute B of a doubled-register operator A.

    B_{il,jk} = A_{ij,kl} with each index ranging over one register; a
    pure reshuffle, used as the table-independent oracle path.
    """
    amat = np.asarray(amat, dtype=complex)
    dim2 = amat.shape[0]
    dim = math.isqrt(dim2)
    if dim * dim != dim2 or amat.shape != (dim2, dim2):
        raise DimensionError(f"operator shape {amat.shape} is not a doubled register")
    a4 = amat.reshape(dim, dim, dim, dim)      # [i, j, k, l]
    return a4.transpose(0, 3, 1, 2).reshape(dim2, dim2)


@dataclass(frozen=True)
class TableEntry:
    b: PauliSum
    matrix: np.ndarray
    eigenvalues: tuple[complex, ...]


def _eig_multiset(mat: np.ndarray) -> tuple[complex, ...]:
    vals = np.linalg.eigvals(mat)
    vals = np.round(vals.real, 12) + 1j * np.round(vals.imag, 12)
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


@lru_cache(maxsize=1)
def build_table() -> dict[str, TableEntry]:
    """Generate all 16 two-qubit substitutes by brute force from the index
    rule; the oracle that ``substitute_pauli`` is checked against."""
    entries = {}
    for r in LETTERS:
        for c in LETTERS:
            word = r + c
            amat = to_matrix(PauliSum.from_letter_terms([(1.0, word)]))
            bmat = substitute_matrix(amat)
            bsum = pauli_decompose(bmat)
            unit_defect = np.abs(bmat.conj().T @ bmat - np.eye(4)).max()
            if unit_defect > TABLE_UNITARY_TOL:
                raise WorkbenchError(
                    f"substitute of {word} failed unitarity by {unit_defect:.3e}"
                )
            entries[word] = TableEntry(bsum, bmat, _eig_multiset(bmat))
    return entries


@lru_cache(maxsize=None)
def _swap(half: int) -> PauliSum:
    """SWAP of copy 1 (qubits 0..half-1) with copy 2 (qubits half..): the
    product of (II + XX + YY + ZZ)/2 over the qubit pairs (k, half + k)."""
    out = PauliSum.identity(2 * half)
    for k in range(half):
        out = out @ PauliSum.from_letter_terms(
            (0.5, "I" * k + p + "I" * (half - 1) + p + "I" * (half - 1 - k))
            for p in LETTERS)
    return out


def substitute_pauli(letters: str) -> PauliSum:
    """Unitary substitute of one doubled-register Pauli word, given by its
    letters.

    For A = P (x) Q (row half P, column half Q) the substitute is
    B = (P (x) Q^T) SWAP = s A SWAP, with s = (-1)^(Y letters of Q).  Terms
    are ordered by their copy-1 letters.  An odd-width word has no halves:
    it does not match any SWAP, so the product raises ``DimensionError``.
    """
    half = len(letters) // 2
    sign = -1 if letters[half:].count("Y") % 2 else 1
    # copy-1 letters are row's times one SWAP term's, so no two terms tie
    return (PauliSum.from_letter_terms([(sign, letters)]) @ _swap(half)).sorted()


def substitute(a: PauliSum) -> PauliSum:
    """Substitute operator of a doubled-register sum, term by term in
    canonical term order."""
    out = PauliSum.zero(a.n)
    a = a.sorted()
    for letters, coeff in zip(a.letters(), a.coeffs.tolist()):
        weight = coeff.real if abs(coeff.imag) <= PAULI_HERMITICITY_TOL else coeff
        out = out + substitute_pauli(letters) * weight
    return out


# -- word reads ---------------------------------------------------------------


def _signs(phase: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(-1)^popcount(phase & cols) as floats, broadcast."""
    # bitwise_count gives uint8, in which 1 - 2 * odd would wrap to 255
    return 1.0 - 2.0 * (np.bitwise_count(phase & cols) & 1)


def word_reads(a: PauliSum, rho: DensityMatrix) -> np.ndarray:
    """Tr(P rho Q^T rho) of each word A = P (x) Q of a doubled-register
    sum, in term order and without its coefficient.

    With vec rho row-major, the read is <vec rho^T|A|vec rho>: for the
    word's signed permutation (flip, phase, i^y) it is
    sum_c rho^T[c ^ flip] (-1)^popcount(phase & c) i^y rho[c].  The bra
    takes rho^T rather than conj(rho), so a rho that is Hermitian only to
    rounding reads as the dense sum of A[ij,kl] rho[j,i] rho[k,l] does.

    Words are taken in blocks of flip order of about ``_PRODUCT_BLOCK``
    entries, and a block gathers one row rho^T[f ^ c] rho[c] per distinct
    flip.  The +-1 row of a phase is the outer product of two rows of the
    n-qubit sign table, one for each half of the phase, so each word's
    read is its flip row, as a 2^n x 2^n matrix, between those two rows:
    two batched matrix products in real arithmetic.
    """
    if a.n != 2 * rho.n:
        raise DimensionError("operator does not match two copies of rho")
    n, dim = rho.n, 2 ** rho.n
    flip, phase, i_y = _signed_permutations(a.word_keys, a.n)
    ket = rho.matrix.ravel()
    bra = rho.matrix.T.ravel()
    cols = np.arange(dim * dim)
    half = np.arange(dim)
    table = _signs(half[:, None], half)
    # flips ranked densely, so a block of flip order holds every rank
    # between its first and its last
    flips, rank = np.unique(flip, return_inverse=True)
    order = np.argsort(rank, kind="stable")
    reads = np.empty((len(flip), 1, 2))
    words = max(1, _PRODUCT_BLOCK // dim ** 2)
    for lo in range(0, len(order), words):
        at = order[lo:lo + words]
        first, last = rank[at[0]], rank[at[-1]]
        rows = bra[flips[first:last + 1, None] ^ cols] * ket
        # each entry as two reals, (rows, row half, column half and re/im)
        rows = rows.view(float).reshape(-1, dim, 2 * dim)[rank[at] - first]
        by_row = np.matmul(table[phase[at] >> n, None], rows)
        reads[at] = np.matmul(table[phase[at] & (dim - 1), None],
                              by_row.reshape(-1, dim, 2))
    return reads.view(complex).ravel() * i_y


# -- exact evaluation ---------------------------------------------------------


def exact_expectation(a: PauliSum, rho: DensityMatrix) -> float:
    """<rho|A|rho> = sum_w c_w Tr(P_w rho Q_w^T rho) / Tr(rho^2), each
    word read by ``word_reads``; refused, as a dense realization would
    be, above ``DENSE_QUBIT_CAP`` doubled qubits."""
    if a.n != 2 * rho.n:
        raise DimensionError(
            f"observable on {a.n} qubits does not match rho on {rho.n}"
        )
    if not a.is_hermitian():
        raise ValidationError(
            "observable must be Hermitian (non-Hermitian extensions are out "
            "of scope here)"
        )
    check_dense(a.n)
    num = complex(np.dot(a.coeffs, word_reads(a, rho)))
    if abs(num.imag) > NUMERATOR_IMAG_RTOL * max(1.0, abs(num.real)):
        raise WorkbenchError(
            f"numerator imaginary residue {num.imag:.3e} exceeds tolerance"
        )
    purity = rho.purity()
    if purity < ZERO_FLOOR:
        raise ValidationError("rho has zero purity")
    return float(num.real / purity)


def bell_amplitude(rho: DensityMatrix, letters: str) -> complex:
    """Amplitude of the normalized vectorization of rho on the Bell vector
    indexed by the Pauli word P with these letters:
    Tr(P rho) / (2^{n/2} sqrt(Tr rho^2))."""
    if len(letters) != rho.n:
        raise DimensionError("Pauli word and rho qubit counts differ")
    # Tr(P rho) = sum_c i^y (-1)^popcount(phase & c) rho[c, c ^ flip]
    (flip,), (phase,), (i_y,) = _signed_permutations(
        PauliSum.from_letter_terms([(1.0, letters)]).word_keys, rho.n)
    cols = np.arange(2 ** rho.n)
    tr = i_y * np.dot(_signs(phase, cols), rho.matrix[cols, cols ^ flip])
    return complex(tr / (2 ** (rho.n / 2) * math.sqrt(rho.purity())))


# -- shot-level sampling ------------------------------------------------------


def _draw(x: float, shots: int, gen: np.random.Generator) -> float:
    """Mean of ``shots`` +-1 outcomes with P(+1) = (1 + x)/2, drawn from
    ``gen``; x is a Hadamard read and must lie in [-1, 1] up to
    rounding."""
    if abs(x) > 1.0 + READ_OVERSHOOT_TOL:
        raise WorkbenchError(
            f"|Re Tr(Q rho(x)rho)| = {abs(x):.12f} > 1: inconsistent inputs"
        )
    p = min(max((1.0 + x) / 2.0, 0.0), 1.0)
    ones = gen.binomial(shots, p)
    return (2.0 * ones - shots) / shots


def hadamard_sample(
    a: PauliSum, rho: DensityMatrix, shots: int, seed: int, stream: int = 0
) -> float:
    """Simulated Hadamard test of the substitute of one word c A.

    Draws ``shots`` +-1 outcomes with P(+1) = (1 + x)/2, where
    x = Re(c Tr(P rho Q^T rho)) = Re Tr(c s A SWAP rho(x)rho) is read by
    ``word_reads``, and returns their mean.  The substitute
    c s A SWAP is unitary iff |c| = 1, so ``a`` must be a single word
    with unit-modulus coefficient.  Deterministic in (seed, stream).
    """
    if shots < 1:
        raise ValidationError("need at least one shot")
    if len(a) != 1:
        raise ValidationError(
            f"a Hadamard read takes one word c*A, got {len(a)} terms"
        )
    (coeff,) = a.coeffs.tolist()
    defect = abs(abs(coeff) ** 2 - 1.0)
    if defect > UNITARY_TOL:
        raise ValidationError(f"substitute is not unitary (defect {defect:.3e})")
    (read,) = word_reads(a, rho).tolist()
    return _draw((coeff * read).real, shots, _streams(seed)(stream))


def swap_sample(rho: DensityMatrix, shots: int, seed: int) -> float:
    """Simulated Swap test for the purity: returns 2 p0_hat - 1 where
    p0_hat is the sampled fraction of ancilla-zero outcomes."""
    if shots < 1:
        raise ValidationError("need at least one shot")
    p_s = (1.0 + rho.purity()) / 2.0
    p_s = min(max(p_s, 0.0), 1.0)
    zeros = _streams(seed)(SWAP_TEST_STREAM).binomial(shots, p_s)
    return 2.0 * zeros / shots - 1.0


# -- the ratio estimator ------------------------------------------------------


@dataclass(frozen=True)
class MeasurementPlan:
    """A sampled-measurement layout for one doubled-register observable."""

    observable: PauliSum
    terms: PauliSum               # the observable in letter order
    weights: tuple[float, ...]
    n_h: int
    n_s: int
    seed: int

    @classmethod
    def build(cls, observable: PauliSum, n_h: int, n_s: int, seed: int
              ) -> "MeasurementPlan":
        m = len(observable)
        if m < 1:
            raise DegenerateObservableError("observable has no terms")
        if n_h < m:
            raise ValidationError(
                f"the observable has {m} terms and needs one Hadamard shot "
                f"per term: at least {m} (--shots {2 * m}), got {n_h}"
            )
        if n_s < 1:
            raise ValidationError("shot counts must be at least 1")
        if max(n_h, n_s) > _MAX_SHOTS:
            raise ValidationError(
                f"shot counts above {_MAX_SHOTS} cannot be sampled, got "
                f"{max(n_h, n_s)}"
            )
        if not observable.is_hermitian():
            raise ValidationError("observable weights must be real")
        if observable.n % 2:
            raise DimensionError(
                "observable must live on a doubled (even) register"
            )
        terms = observable.sorted()
        return cls(
            observable=observable,
            terms=terms,
            weights=tuple(terms.coeffs.real.tolist()),
            n_h=n_h,
            n_s=n_s,
            seed=seed,
        )

    @property
    def num_terms(self) -> int:
        return len(self.weights)

    def shots_per_term(self) -> list[int]:
        """Even split of the Hadamard budget; remainder shots go to the
        largest-weight terms."""
        m = self.num_terms
        base = self.n_h // m
        extra = self.n_h - base * m
        order = sorted(range(m), key=lambda i: (-abs(self.weights[i]), i))
        shots = [base] * m
        for i in order[:extra]:
            shots[i] += 1
        return shots

    def to_json_dict(self) -> dict:
        return {
            "observable": [list(gw) for gw in zip(self.weights, self.terms.letters())],
            "n_h": self.n_h,
            "n_s": self.n_s,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class EstimateReport:
    value: float
    numerator: float
    purity: float
    bias_bound: float
    var_bound: float
    mse_bound: float
    shots: int

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        return ",".join(map(repr, astuple(self)))

    def to_csv(self) -> str:
        """The estimate as CSV text: header line, then this report's row."""
        return ESTIMATE_CSV_HEADER + "\n" + self.to_csv_row() + "\n"


ESTIMATE_CSV_HEADER = ",".join(f.name for f in fields(EstimateReport))


@lru_cache(maxsize=1)
def observable_norms(a: PauliSum) -> tuple[float, float, int]:
    """(spectral norm, Frobenius norm squared, term count) of a Hermitian
    observable; a one-word sum c*P has norm |c|, any other sum's spectral
    norm is computed densely at desk scale.  An observable whose
    Frobenius norm overflows is refused.  Cached for the last sum read,
    keyed on its identity (sums are immutable), so repeated reads of one
    observable diagonalize it once."""
    try:
        frob_sq = a.frobenius_norm_sq()
    except OverflowError:       # a |c| ** 2 past the float range
        frob_sq = math.inf
    if not math.isfinite(frob_sq):
        raise ValidationError("observable norm overflows the float range")
    if len(a) == 1:
        (coeff,) = a.coeffs.tolist()
        return abs(coeff), frob_sq, 1
    evals = np.linalg.eigvalsh(to_matrix(a))
    return float(np.abs(evals).max()), frob_sq, len(a)


def error_bounds(
    a: PauliSum, gamma: float, n_h: int, n_s: int
) -> tuple[float, float, float]:
    """Predicted (bias, variance, MSE) bounds of the ratio estimator for
    purity floor gamma and the given shot split."""
    norm2, frob_sq, m = observable_norms(a)
    weight_sq = frob_sq / (2 ** a.n)      # sum of squared Pauli weights
    bias = norm2 / (gamma ** 2 * n_s)
    var = norm2 ** 2 / (gamma ** 2 * n_s) + m * weight_sq / (gamma ** 2 * n_h)
    return bias, var, bias ** 2 + var


def estimate_expectation(
    plan: MeasurementPlan, rho: DensityMatrix, gamma_floor: float
) -> EstimateReport:
    """Run the sampled ratio estimator for <rho|A|rho>.

    Every term is read by one ``word_reads`` gather, then Hadamard-
    sampled as ``hadamard_sample`` samples it, on independent streams
    keyed by (seed, term index); the purity is Swap-sampled once.  The
    report carries the predicted bias/variance/MSE bounds for the
    supplied purity floor.
    """
    if not 0 < gamma_floor <= 1:
        raise ValidationError("purity floor must lie in (0, 1]")
    if plan.observable.n != 2 * rho.n:
        raise DimensionError("plan observable does not match two copies of rho")
    shots = plan.shots_per_term()
    reads = word_reads(plan.terms, rho).real.tolist()
    streams = _streams(plan.seed)
    numerator = 0.0
    for i, g in enumerate(plan.weights):
        numerator += g * _draw(reads[i], shots[i], streams(i))
    purity_est = swap_sample(rho, plan.n_s, plan.seed)
    if purity_est <= 0:
        raise IllConditionedRatioError(
            f"sampled purity {purity_est:.4f} <= 0; the state is too mixed "
            f"for this shot budget"
        )
    bias, var, mse = error_bounds(plan.observable, gamma_floor, plan.n_h, plan.n_s)
    return EstimateReport(
        value=numerator / purity_est,
        numerator=numerator,
        purity=purity_est,
        bias_bound=bias,
        var_bound=var,
        mse_bound=mse,
        shots=sum(shots) + plan.n_s,
    )


def shot_budget(a: PauliSum, gamma: float, epsilon: float) -> tuple[int, int, int]:
    """Total shots N (split evenly into Hadamard and Swap halves) that
    push the predicted MSE bound below epsilon^2 at purity floor gamma."""
    if not 0 < gamma <= 1 or not 0 < epsilon <= 1:
        raise ValidationError("gamma and epsilon must lie in (0, 1]")
    if len(a) == 0:
        raise DegenerateObservableError("observable is zero")
    norm2, frob_sq, m = observable_norms(a)
    weight_sq = frob_sq / (2 ** a.n)
    try:
        raw = 2.0 / (gamma ** 2 * epsilon ** 2) * (norm2 ** 2 + m * weight_sq)
    except ZeroDivisionError:
        raw = math.inf
    if not math.isfinite(raw):
        raise ValidationError(
            f"gamma {gamma:g} and epsilon {epsilon:g} ask for more shots "
            f"than a float can count"
        )
    n = int(math.ceil(raw))
    n += n % 2
    return n, n // 2, n // 2


def half_shots(
    a: PauliSum, gamma: float, shots: int | None, epsilon: float | None
) -> int:
    """Shots for each of the Hadamard and Swap halves: half of ``shots``
    (``MeasurementPlan.build`` refuses a half below one), or without
    ``shots`` the ``shot_budget`` half for accuracy ``epsilon``, raised to
    one Hadamard shot per observable term."""
    if shots is not None:
        return shots // 2
    return max(shot_budget(a, gamma, epsilon)[1], len(a))


def sampled_estimate(a: PauliSum, rho: DensityMatrix, gamma: float,
                     shots: int | None, eps: float | None, seed: int
                     ) -> tuple[MeasurementPlan, EstimateReport]:
    """The sampled read of <rho|A|rho>: split ``shots`` (or the ``eps``
    budget) by ``half_shots``, build the plan and run the estimator."""
    half = half_shots(a, gamma, shots, eps)
    plan = MeasurementPlan.build(a, half, half, seed)
    return plan, estimate_expectation(plan, rho, gamma)
