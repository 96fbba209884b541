"""Measurement calculus in the vectorization picture.

An observable A on the doubled (row + column) register has a substitute
operator B, obtained by a pure index permutation, such that

    <rho|A|rho> = Tr(B rho(x)rho) / Tr(rho^2).

Pauli words map to unitary substitutes pair by pair (row qubit k with
column qubit k), so the numerator is a weighted sum of Hadamard-test
expectations and the denominator is a Swap-test expectation.  This
module provides the exact table, exact evaluation, shot-level sampling
of both tests, and the ratio estimator with its bias/variance/MSE
accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .pauli import LETTERS, PauliString, PauliSum, pauli_decompose, to_matrix

# Stream ids keep the counter-based generators independent: Hadamard
# term i draws from stream i, the Swap test from its own named stream.
SWAP_TEST_STREAM = 0x53574150

# Swap-gate realizations of the 16 substitutes: (copy-1 gate, copy-2
# gate) applied before a swap.  Kept as documentation metadata; the
# scalar-prefixed labels ("iY", "-Y") are exact matrices, their physical
# realization is not this module's concern.
SUBSTITUTE_CIRCUITS = {
    "II": ("I", "I"),
    "XX": ("X", "X"),
    "YY": ("iY", "iY"),
    "ZZ": ("Z", "Z"),
    "IX": ("X", "I"),
    "XI": ("I", "X"),
    "YZ": ("Z", "Y"),
    "ZY": ("iY", "iZ"),
    "IY": ("-Y", "I"),
    "YI": ("I", "Y"),
    "XZ": ("Z", "X"),
    "ZX": ("X", "Z"),
    "IZ": ("Z", "I"),
    "ZI": ("I", "Z"),
    "XY": ("iY", "iX"),
    "YX": ("X", "Y"),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    a_word: str
    b: PauliSum
    matrix: np.ndarray
    eigenvalues: tuple[complex, ...]
    circuit: tuple[str, str]


@dataclass(frozen=True)
class SubstituteTable:
    """The 16 two-qubit Pauli words and their unitary substitutes."""

    entries: dict[str, TableEntry]

    def __getitem__(self, a_word: str) -> TableEntry:
        return self.entries[a_word]


def _eig_multiset(mat: np.ndarray) -> tuple[complex, ...]:
    vals = np.linalg.eigvals(mat)
    vals = np.round(vals.real, 12) + 1j * np.round(vals.imag, 12)
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


@lru_cache(maxsize=1)
def build_table() -> SubstituteTable:
    """Generate all 16 substitutes by brute force from the index rule."""
    entries = {}
    for r in LETTERS:
        for c in LETTERS:
            word = r + c
            amat = to_matrix(PauliSum.from_letter_terms([(1.0, word)]))
            bmat = substitute_matrix(amat)
            bsum = pauli_decompose(bmat)
            unit_defect = np.abs(bmat.conj().T @ bmat - np.eye(4)).max()
            if unit_defect > 1e-12:
                raise WorkbenchError(
                    f"substitute of {word} failed unitarity by {unit_defect:.3e}"
                )
            entries[word] = TableEntry(
                a_word=word,
                b=bsum,
                matrix=bmat,
                eigenvalues=_eig_multiset(bmat),
                circuit=SUBSTITUTE_CIRCUITS[word],
            )
    return SubstituteTable(entries)


def _split_halves(word: PauliString) -> tuple[str, str]:
    letters = word.letters
    half = word.n // 2
    return letters[:half], letters[half:]


def substitute_pauli(word: PauliString) -> PauliSum:
    """Unitary substitute of one doubled-register Pauli word.

    Row qubit k pairs with column qubit k; each pair maps through the
    16-entry table and the pair substitutes tensor together (copy-1
    qubits first, copy-2 qubits after).
    """
    if word.n % 2:
        raise DimensionError(
            f"cannot pair qubits of an odd-width word (n={word.n})"
        )
    half = word.n // 2
    table = build_table()
    row, col = _split_halves(word)
    # accumulate (copy1 letters, copy2 letters, coeff) across pairs
    partial: list[tuple[str, str, complex]] = [("", "", 1.0 + 0.0j)]
    for k in range(half):
        entry = table[row[k] + col[k]]
        grown = []
        for l1, l2, coeff in partial:
            for pair_word, pair_coeff in entry.b.terms.items():
                pl = pair_word.letters
                grown.append((l1 + pl[0], l2 + pl[1], coeff * pair_coeff))
        partial = grown
    terms: dict[PauliString, complex] = {}
    for l1, l2, coeff in partial:
        w = PauliString.from_letters(l1 + l2)
        terms[w] = terms.get(w, 0.0) + coeff
    return PauliSum(word.n, terms)


def substitute_terms(a: PauliSum) -> list[tuple[float, PauliString, PauliSum]]:
    """Per-term substitutes of a doubled-register observable.

    Returns one (weight, source word, unitary substitute) triple per
    Pauli term of ``a``, in canonical term order.
    """
    if a.n % 2:
        raise DimensionError("observable must live on a doubled (even) register")
    out = []
    for word, coeff in a.sorted_terms():
        out.append((coeff.real if abs(coeff.imag) < 1e-12 else coeff,
                    word, substitute_pauli(word)))
    return out


def substitute(a: PauliSum) -> PauliSum:
    """Substitute operator of a doubled-register sum, term by term."""
    out = PauliSum.zero(a.n)
    for coeff, _, q in substitute_terms(a):
        out = out + q * coeff
    return out


# -- exact evaluation ---------------------------------------------------------


def _pauli_traces(rho: DensityMatrix) -> dict[PauliString, complex]:
    """Tr(P rho) for every word with nonzero weight in rho."""
    dec = pauli_decompose(rho.matrix)
    scale = 2 ** rho.n
    return {w: c * scale for w, c in dec.terms.items()}


def trace_with_two_copies(q: PauliSum, rho: DensityMatrix) -> complex:
    """Tr(Q rho(x)rho) for a doubled-register sum Q, via the split
    Tr((P1(x)P2)(rho(x)rho)) = Tr(P1 rho) Tr(P2 rho)."""
    if q.n != 2 * rho.n:
        raise DimensionError("operator does not match two copies of rho")
    half = rho.n
    mask = (1 << half) - 1
    traces = _pauli_traces(rho)
    total = 0.0 + 0.0j
    for word, coeff in q.terms.items():
        w1 = PauliString(half, word.x & mask, word.z & mask)
        w2 = PauliString(half, word.x >> half, word.z >> half)
        t1 = traces.get(w1)
        if t1 is None or t1 == 0:
            continue
        t2 = traces.get(w2)
        if t2 is None:
            continue
        total += coeff * t1 * t2
    return total


def exact_expectation(a: PauliSum, rho: DensityMatrix) -> float:
    """<rho|A|rho> evaluated densely as Tr(B rho(x)rho) / Tr(rho^2)."""
    if a.n != 2 * rho.n:
        raise DimensionError(
            f"observable on {a.n} qubits does not match rho on {rho.n}"
        )
    if not a.is_hermitian(1e-10):
        raise ValidationError(
            "observable must be Hermitian (non-Hermitian extensions are out "
            "of scope here)"
        )
    dim = 2 ** rho.n
    a4 = to_matrix(a).reshape(dim, dim, dim, dim)
    num = np.einsum("ijkl,ji,kl->", a4, rho.matrix, rho.matrix)
    if abs(num.imag) > 1e-11 * max(1.0, abs(num.real)):
        raise WorkbenchError(
            f"numerator imaginary residue {num.imag:.3e} exceeds tolerance"
        )
    purity = rho.purity()
    if purity < 1e-300:
        raise ValidationError("rho has zero purity")
    return float(num.real / purity)


def bell_amplitude(rho: DensityMatrix, p: PauliString) -> complex:
    """Amplitude of the normalized vectorization of rho on the Pauli-
    indexed Bell vector: Tr(P rho) / (2^{n/2} sqrt(Tr rho^2))."""
    if p.n != rho.n:
        raise DimensionError("Pauli word and rho qubit counts differ")
    tr = np.einsum("ij,ji->", p.to_matrix(), rho.matrix)
    return complex(tr / (2 ** (rho.n / 2) * math.sqrt(rho.purity())))


# -- shot-level sampling ------------------------------------------------------


def hadamard_sample(
    q: PauliSum, rho: DensityMatrix, shots: int, seed: int, stream: int = 0
) -> float:
    """Simulated Hadamard test for Re Tr(Q rho(x)rho).

    Draws ``shots`` +-1 outcomes with P(+1) = (1 + Re Tr(Q rho(x)rho))/2
    computed exactly, and returns their mean.  Deterministic in
    (seed, stream).
    """
    if shots < 1:
        raise ValidationError("need at least one shot")
    defect = q.unitarity_defect()
    if defect > 1e-10:
        raise ValidationError(f"substitute is not unitary (defect {defect:.3e})")
    x = trace_with_two_copies(q, rho).real
    if abs(x) > 1.0 + 1e-9:
        raise WorkbenchError(
            f"|Re Tr(Q rho(x)rho)| = {abs(x):.12f} > 1: inconsistent inputs"
        )
    p = min(max((1.0 + x) / 2.0, 0.0), 1.0)
    ones = _rng(seed, stream).binomial(shots, p)
    return (2.0 * ones - shots) / shots


def swap_sample(
    rho: DensityMatrix, shots: int, seed: int, stream: int = SWAP_TEST_STREAM
) -> float:
    """Simulated Swap test for the purity: returns 2 p0_hat - 1 where
    p0_hat is the sampled fraction of ancilla-zero outcomes."""
    if shots < 1:
        raise ValidationError("need at least one shot")
    p_s = (1.0 + rho.purity()) / 2.0
    p_s = min(max(p_s, 0.0), 1.0)
    zeros = _rng(seed, stream).binomial(shots, p_s)
    return 2.0 * zeros / shots - 1.0


# -- the ratio estimator ------------------------------------------------------


@dataclass(frozen=True)
class MeasurementPlan:
    """A sampled-measurement layout for one doubled-register observable."""

    observable: PauliSum
    weights: tuple[float, ...]
    words: tuple[PauliString, ...]
    substitutes: tuple[PauliSum, ...]
    n_h: int
    n_s: int
    seed: int

    @classmethod
    def build(cls, observable: PauliSum, n_h: int, n_s: int, seed: int
              ) -> "MeasurementPlan":
        if n_h < 1 or n_s < 1:
            raise ValidationError("shot counts must be at least 1")
        if len(observable) < 1:
            raise DegenerateObservableError("observable has no terms")
        if not observable.is_hermitian(1e-12):
            raise ValidationError("observable weights must be real")
        triples = substitute_terms(observable)
        return cls(
            observable=observable,
            weights=tuple(float(g) for g, _, _ in triples),
            words=tuple(w for _, w, _ in triples),
            substitutes=tuple(q for _, _, q in triples),
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
            "observable": [[g, w.letters] for g, w in zip(self.weights, self.words)],
            "n_h": self.n_h,
            "n_s": self.n_s,
            "seed": self.seed,
        }


ESTIMATE_CSV_HEADER = "value,numerator,purity,bias_bound,var_bound,mse_bound,shots"


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
        return {
            "value": self.value,
            "numerator": self.numerator,
            "purity": self.purity,
            "bias_bound": self.bias_bound,
            "var_bound": self.var_bound,
            "mse_bound": self.mse_bound,
            "shots": self.shots,
        }

    def to_csv_row(self) -> str:
        return (
            f"{self.value!r},{self.numerator!r},{self.purity!r},"
            f"{self.bias_bound!r},{self.var_bound!r},{self.mse_bound!r},"
            f"{self.shots}"
        )


def observable_norms(a: PauliSum) -> tuple[float, float, int]:
    """(spectral norm, Frobenius norm squared, term count) of a Hermitian
    observable; a one-word sum c*P has norm |c|, any other sum's spectral
    norm is computed densely at desk scale."""
    if len(a) == 1:
        (coeff,) = a.terms.values()
        return abs(coeff), a.frobenius_norm_sq(), 1
    evals = np.linalg.eigvalsh(to_matrix(a))
    return float(np.abs(evals).max()), a.frobenius_norm_sq(), len(a)


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

    Numerator terms are Hadamard-sampled on independent streams keyed by
    (seed, term index); the purity is Swap-sampled once.  The report
    carries the predicted bias/variance/MSE bounds for the supplied
    purity floor.
    """
    if not 0 < gamma_floor <= 1:
        raise ValidationError("purity floor must lie in (0, 1]")
    if plan.observable.n != 2 * rho.n:
        raise DimensionError("plan observable does not match two copies of rho")
    shots = plan.shots_per_term()
    numerator = 0.0
    for i, (g, q) in enumerate(zip(plan.weights, plan.substitutes)):
        numerator += g * hadamard_sample(q, rho, shots[i], plan.seed, stream=i)
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
    raw = 2.0 / (gamma ** 2 * epsilon ** 2) * (norm2 ** 2 + m * weight_sq)
    n = int(math.ceil(raw))
    n += n % 2
    return n, n // 2, n // 2


def half_shots(
    a: PauliSum, gamma: float, shots: int | None, epsilon: float | None
) -> int:
    """Shots for each of the Hadamard and Swap halves: half of ``shots``
    and at least one, or without ``shots`` the half that ``shot_budget``
    gives for accuracy ``epsilon``."""
    if shots is not None:
        return max(1, shots // 2)
    return shot_budget(a, gamma, epsilon)[1]
