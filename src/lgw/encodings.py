"""Concrete problem instances: clock-register circuit encodings.

A depth-T circuit on n qubits maps to a purely dissipative master
equation on n system qubits plus a (T+1)-level clock register embedded
in ceil(log2(T+1)) qubits.  Its unique steady state stores every
intermediate circuit state tagged by the clock value, with purity
exactly 1/(T+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ValidationError
from .lindblad import (
    DensityMatrix,
    JumpChannel,
    LmeSpec,
    lme_to_json_dict,
    read_input,
)
from .measure import exact_expectation, sampled_estimate
from .pauli import PauliString, PauliSum, check_dense, pauli_decompose

UNITARY_TOL = 1e-10


def _check_unitary(mat: np.ndarray, what: str) -> None:
    defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if defect > UNITARY_TOL:
        raise ValidationError(f"{what} is not unitary (defect {defect:.3e})")


@dataclass(frozen=True)
class CircuitSpec:
    """A layered circuit: n qubits and T explicit unitary matrices."""

    n: int
    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(np.asarray(u, dtype=complex) for u in self.layers)
        )
        if len(self.layers) < 1:
            raise ValidationError("circuit needs at least one layer")
        dim = 2 ** self.n
        for t, u in enumerate(self.layers):
            if u.shape != (dim, dim):
                raise DimensionError(f"layer {t} has shape {u.shape}, expected {dim}")
            _check_unitary(u, f"layer {t}")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def statevectors(self) -> list[np.ndarray]:
        """|psi_0> .. |psi_T| under successive layer application."""
        psi = np.zeros(2 ** self.n, dtype=complex)
        psi[0] = 1.0
        out = [psi]
        for u in self.layers:
            psi = u @ psi
            out.append(psi)
        return out

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "layers": [
                [[[z.real, z.imag] for z in row] for row in u] for u in self.layers
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CircuitSpec":
        try:
            n = int(data["n"])
            layers = [
                np.array([[complex(re, im) for re, im in row] for row in u])
                for u in data["layers"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad circuit spec: {exc}") from exc
        return cls(n, tuple(layers))


def load_circuit(path) -> CircuitSpec:
    return CircuitSpec.from_json_dict(read_input(path))


@dataclass(frozen=True)
class ClockLme:
    """The dissipative encoding of a circuit, plus clock bookkeeping."""

    spec: LmeSpec
    clock_dim: int

    def to_json_dict(self) -> dict:
        return lme_to_json_dict(self.spec, clock_dim=self.clock_dim)


def clock_qubit_count(depth: int) -> int:
    return max(1, math.ceil(math.log2(depth + 1)))


def _clock_basis_matrix(q: int, ket: int, bra: int) -> np.ndarray:
    dim = 2 ** q
    out = np.zeros((dim, dim), dtype=complex)
    out[ket, bra] = 1.0
    return out


def circuit_to_lme(circuit: CircuitSpec) -> ClockLme:
    """Encode a circuit as a master equation whose unique steady state
    is the clock-tagged history mixture.

    Jumps: a reset |0><1|_i (x) |0><0|_clock per system qubit; a clock
    hop U_{t+1} (x) |t+1><t| + U_{t+1}^dag (x) |t><t+1| per layer
    (t = 0..T-1; the hop for layer t+1 connects clock levels t and t+1);
    the boundary term I (x) |T><T| closing the ladder at the top; and a
    decay |0><s|_clock per padding level s > T so unused clock states
    leave the steady support.

    The boundary term matters: without it the single-hop (T=1) ladder
    has an exact dark state, the coherent history superposition, and the
    steady space is degenerate.  The top projector leaves the history
    mixture exactly steady while damping every cross-clock coherence, so
    the steady state is unique for all depths.  Hop + boundary together
    number T+1.
    """
    n, t_depth = circuit.n, circuit.depth
    q = clock_qubit_count(t_depth)
    n_tot = n + q
    check_dense(2 * n_tot)
    sys_dim = 2 ** n
    sys_eye = np.eye(sys_dim, dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|

    jumps: list[JumpChannel] = []
    for i in range(n):
        op_sys = np.eye(1, dtype=complex)
        for k in range(n):
            op_sys = np.kron(op_sys, lower if k == i else np.eye(2))
        dense = np.kron(op_sys, _clock_basis_matrix(q, 0, 0))
        jumps.append(JumpChannel(1.0, pauli_decompose(dense)))
    for t in range(t_depth):
        u = circuit.layers[t]
        dense = np.kron(u, _clock_basis_matrix(q, t + 1, t)) + np.kron(
            u.conj().T, _clock_basis_matrix(q, t, t + 1)
        )
        jumps.append(JumpChannel(1.0, pauli_decompose(dense)))
    boundary = np.kron(sys_eye, _clock_basis_matrix(q, t_depth, t_depth))
    jumps.append(JumpChannel(1.0, pauli_decompose(boundary)))
    for s in range(t_depth + 1, 2 ** q):
        dense = np.kron(sys_eye, _clock_basis_matrix(q, 0, s))
        jumps.append(JumpChannel(1.0, pauli_decompose(dense)))

    spec = LmeSpec(n_tot, PauliSum.zero(n_tot), tuple(jumps))
    return ClockLme(spec=spec, clock_dim=t_depth + 1)


def feynman_steady_state(circuit: CircuitSpec) -> DensityMatrix:
    """The history state (1/(T+1)) sum_t |psi_t><psi_t| (x) |t><t|,
    built directly from statevectors; purity is exactly 1/(T+1)."""
    t_depth = circuit.depth
    q = clock_qubit_count(t_depth)
    clock_dim = 2 ** q
    states = circuit.statevectors()
    dim = 2 ** circuit.n * clock_dim
    rho = np.zeros((dim, dim), dtype=complex)
    for t, psi in enumerate(states):
        e_t = np.zeros(clock_dim, dtype=complex)
        e_t[t] = 1.0
        vec = np.kron(psi, e_t)
        rho += np.outer(vec, vec.conj())
    return DensityMatrix(circuit.n + q, rho / (t_depth + 1))


def final_qubit_one_observable(n_system: int, depth: int) -> PauliSum:
    """The doubled-register observable behind the output probability:
    Z on system qubit 0 and the |T><T| clock projector on the row
    register, identity on the column register."""
    q = clock_qubit_count(depth)
    z_part = PauliSum.from_term(PauliString(n_system + q, x=0, z=1))
    proj = PauliSum.identity(n_system + q)
    for j in range(q):
        bit = (depth >> (q - 1 - j)) & 1
        sign = -1.0 if bit else 1.0
        zj = PauliSum.from_term(PauliString(n_system + q, x=0, z=1 << (n_system + j)))
        proj = proj @ ((PauliSum.identity(n_system + q) + zj * sign) * 0.5)
    row_op = z_part @ proj
    return row_op.tensor(PauliSum.identity(n_system + q))


def p1_from_steady(
    rho_ss: DensityMatrix,
    depth: int,
    shots: int | None = None,
    eps: float | None = None,
    seed: int = 0,
) -> float:
    """Probability that the circuit output has its first qubit in |1>,
    read from the steady state via the doubled-register expectation.

    With ``shots`` set the expectation is sampled on that budget; with
    ``eps`` set instead, the budget comes from the accuracy target.  The
    purity floor is the exact 1/(T+1) in both cases.  With neither, the
    expectation is evaluated exactly.
    """
    q = clock_qubit_count(depth)
    n_sys = rho_ss.n - q
    if n_sys < 1:
        raise DimensionError("steady state has too few qubits for this depth")
    obs = final_qubit_one_observable(n_sys, depth)
    gamma = 1.0 / (depth + 1)
    if shots is None and eps is None:
        val = exact_expectation(obs, rho_ss)
    else:
        val = sampled_estimate(obs, rho_ss, gamma, shots, eps, seed)[1].value
    return (1.0 - (depth + 1) * val) / 2.0

