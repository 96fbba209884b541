import numpy as np

from lgw.lindblad import DensityMatrix, JumpChannel, LmeSpec, build_liouvillian
from lgw.pauli import PauliString, PauliSum

LETTERS = "IXYZ"


def rand_rho(n, rng):
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(n, mat / np.trace(mat).real)


def rand_pure_rho(n, rng):
    dim = 2 ** n
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DensityMatrix.pure(vec)


def rand_word(n, rng):
    return PauliString.from_letters("".join(rng.choice(list(LETTERS), size=n)))


def rand_hermitian_sum(n, rng, terms=4):
    """Random Hermitian Pauli sum with the given number of words."""
    out = {}
    while len(out) < min(terms, 4 ** n):
        out[rand_word(n, rng)] = rng.normal()
    return PauliSum(n, out)


def rand_pauli_sum(n, rng, terms=4):
    out = {}
    while len(out) < min(terms, 4 ** n):
        out[rand_word(n, rng)] = rng.normal() + 1j * rng.normal()
    return PauliSum(n, out)


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


def sigma_minus():
    return PauliSum.from_letter_terms([(0.5, "X"), (0.5j, "Y")])


def sigma_minus_spec():
    return LmeSpec(1, PauliSum.zero(1), (JumpChannel(1.0, sigma_minus()),))


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))
