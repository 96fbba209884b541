import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_unitary
from lgw.encodings import (
    CircuitSpec,
    circuit_to_lme,
    clock_qubit_count,
    feynman_steady_state,
    final_qubit_one_observable,
    p1_from_steady,
)
from lgw.errors import CapacityError, DimensionError, ValidationError
from lgw.lindblad import (
    build_ldl,
    build_liouvillian,
    steady_state,
    trace_norm,
    verify_ldl_properties,
)
from lgw.measure import exact_expectation

X = np.array([[0, 1], [1, 0]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_circuit_spec_validation():
    with pytest.raises(ValidationError):
        CircuitSpec(1, (np.array([[1, 1], [0, 1]], dtype=complex),))
    with pytest.raises(ValidationError):
        CircuitSpec(1, ())
    with pytest.raises(DimensionError):
        CircuitSpec(2, (X,))


def test_circuit_json_roundtrip():
    rng = np.random.default_rng(1)
    circuit = CircuitSpec(1, (random_unitary(2, rng), random_unitary(2, rng)))
    back = CircuitSpec.from_json_dict(
        json.loads(json.dumps(circuit.to_json_dict()))
    )
    for a, b in zip(circuit.layers, back.layers):
        assert np.abs(a - b).max() < 1e-15


def test_clock_lme_t1_x_steady_state():
    clock = circuit_to_lme(CircuitSpec(1, (X,)))
    liouv = build_liouvillian(clock.spec)
    states = steady_state(liouv)
    assert len(states) == 1
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = 0.5   # |0>|0>_clock
    expect[3, 3] = 0.5   # |1>|1>_clock
    assert np.abs(states[0].matrix - expect).max() < 1e-9


def test_clock_lme_identity_circuit():
    circuit = CircuitSpec(1, (np.eye(2, dtype=complex),))
    rho = feynman_steady_state(circuit)
    expect = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert np.abs(rho.matrix - expect).max() < 1e-12


def test_history_state_is_exactly_steady_and_unique():
    rng = np.random.default_rng(2)
    cases = [
        CircuitSpec(1, (X,)),
        CircuitSpec(1, (HAD,)),
        CircuitSpec(1, tuple(random_unitary(2, rng) for _ in range(2))),
        CircuitSpec(2, tuple(random_unitary(4, rng) for _ in range(3))),
    ]
    for circuit in cases:
        clock = circuit_to_lme(circuit)
        liouv = build_liouvillian(clock.spec)
        rho = feynman_steady_state(circuit)
        assert np.linalg.norm(liouv.matrix @ rho.matrix.reshape(-1)) < 1e-9
        states = steady_state(liouv)
        assert len(states) == 1
        assert trace_norm(states[0].matrix - rho.matrix) < 1e-8
        padding = 2 ** clock_qubit_count(circuit.depth) - clock.clock_dim
        assert len(clock.spec.jumps) == circuit.n + (circuit.depth + 1) + padding


def test_hadamard_then_cnot_encoding():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    circuit = CircuitSpec(2, (np.kron(HAD, np.eye(2)), cnot))
    rho = feynman_steady_state(circuit)
    assert abs(rho.purity() - 1.0 / 3.0) < 1e-12
    clock = circuit_to_lme(circuit)
    liouv = build_liouvillian(clock.spec)
    assert len(steady_state(liouv)) == 1
    assert np.linalg.norm(liouv.matrix @ rho.matrix.reshape(-1)) < 1e-9


def test_history_state_purity():
    rng = np.random.default_rng(3)
    for depth in (1, 2, 3):
        circuit = CircuitSpec(1, tuple(random_unitary(2, rng) for _ in range(depth)))
        rho = feynman_steady_state(circuit)
        assert abs(rho.purity() - 1.0 / (depth + 1)) < 1e-12


def test_clock_ldl_properties():
    clock = circuit_to_lme(CircuitSpec(1, (X,)))
    liouv = build_liouvillian(clock.spec)
    ldl, _ = build_ldl(clock.spec)
    assert verify_ldl_properties(ldl, liouv).all_passed


def test_output_observable_expectation():
    rho = feynman_steady_state(CircuitSpec(1, (X,)))
    obs = final_qubit_one_observable(1, 1)
    assert abs(exact_expectation(obs, rho) - (-0.5)) < 1e-12


def test_p1_exact_values():
    assert abs(p1_from_steady(feynman_steady_state(CircuitSpec(1, (X,))), 1)
               - 1.0) < 1e-10
    ident = CircuitSpec(1, (np.eye(2, dtype=complex),))
    assert abs(p1_from_steady(feynman_steady_state(ident), 1)) < 1e-10
    had = CircuitSpec(1, (HAD,))
    assert abs(p1_from_steady(feynman_steady_state(had), 1) - 0.5) < 1e-10


def test_p1_matches_statevector():
    rng = np.random.default_rng(4)
    for n, depth in ((1, 2), (2, 3)):
        circuit = CircuitSpec(
            n, tuple(random_unitary(2 ** n, rng) for _ in range(depth))
        )
        psi = circuit.statevectors()[-1]
        # first qubit is the most significant index bit
        p1_true = (np.abs(psi) ** 2).reshape(2, -1)[1].sum()
        rho = feynman_steady_state(circuit)
        assert abs(p1_from_steady(rho, depth) - p1_true) < 1e-10


def test_p1_sampled_within_noise():
    circuit = CircuitSpec(1, (HAD,))
    rho = feynman_steady_state(circuit)
    vals = [p1_from_steady(rho, 1, shots=20000, seed=s) for s in range(30)]
    vals = np.asarray(vals)
    scatter = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.5) < 4 * scatter


def test_p1_budget_from_accuracy_target():
    circuit = CircuitSpec(1, (HAD,))
    rho = feynman_steady_state(circuit)
    vals = np.asarray(
        [p1_from_steady(rho, 1, eps=0.04, seed=s) for s in range(40)]
    )
    # the budget targets the doubled-register expectation at eps, which
    # enters p1 scaled by (T+1)/2
    assert np.sqrt(np.mean((vals - 0.5) ** 2)) <= 0.04


def test_clock_export_carries_dimension():
    clock = circuit_to_lme(CircuitSpec(1, (X, X)))
    data = clock.to_json_dict()
    assert data["clock_dim"] == 3
    assert clock_qubit_count(2) == 2


def test_circuit_to_lme_refuses_past_dense_cap():
    # 5 system qubits and 2 clock qubits double to 14, past the 12-qubit
    # cap; refused before any jump operator is built
    circuit = CircuitSpec(5, (np.eye(32),) * 3)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="14 qubits"):
            circuit_to_lme(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
