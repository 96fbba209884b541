import hashlib
import itertools

import numpy as np
import pytest

from conftest import rand_rho, rand_word, sigma_minus_spec
from lgw.errors import (
    DegenerateObservableError,
    DimensionError,
    IllConditionedRatioError,
    ValidationError,
)
from lgw.lindblad import DensityMatrix, build_liouvillian, steady_state, vectorize
from lgw.measure import (
    ESTIMATE_CSV_HEADER,
    MeasurementPlan,
    bell_amplitude,
    build_table,
    error_bounds,
    estimate_expectation,
    exact_expectation,
    hadamard_sample,
    half_shots,
    observable_norms,
    shot_budget,
    substitute,
    substitute_matrix,
    substitute_pauli,
    substitute_terms,
    swap_sample,
    trace_with_two_copies,
)
from lgw.pauli import (
    PAULI_MATRICES,
    PauliString,
    PauliSum,
    pauli_decompose,
    to_matrix,
)

I2 = 1j

# Reference data for all 16 substitute-table rows: source word -> the
# substitute's Pauli weights and its eigenvalue multiset.
TABLE_ROWS = {
    "II": ({"II": 0.5, "XX": 0.5, "YY": 0.5, "ZZ": 0.5}, (1, 1, 1, -1)),
    "XX": ({"II": 0.5, "XX": 0.5, "YY": -0.5, "ZZ": -0.5}, (1, 1, -1, 1)),
    "YY": ({"II": -0.5, "XX": 0.5, "YY": -0.5, "ZZ": 0.5}, (1, -1, -1, -1)),
    "ZZ": ({"II": 0.5, "XX": -0.5, "YY": -0.5, "ZZ": 0.5}, (1, -1, 1, 1)),
    "IX": ({"IX": 0.5, "XI": 0.5, "YZ": 0.5 * I2, "ZY": -0.5 * I2}, (-1, I2, -I2, 1)),
    "XI": ({"IX": 0.5, "XI": 0.5, "YZ": -0.5 * I2, "ZY": 0.5 * I2}, (-1, I2, -I2, 1)),
    "YZ": ({"IX": -0.5 * I2, "XI": 0.5 * I2, "YZ": 0.5, "ZY": 0.5}, (-1, I2, -I2, 1)),
    "ZY": ({"IX": -0.5 * I2, "XI": 0.5 * I2, "YZ": -0.5, "ZY": -0.5}, (-1, I2, -I2, 1)),
    "IY": ({"IY": -0.5, "XZ": 0.5 * I2, "YI": -0.5, "ZX": -0.5 * I2}, (-1, I2, -I2, 1)),
    "YI": ({"IY": 0.5, "XZ": 0.5 * I2, "YI": 0.5, "ZX": -0.5 * I2}, (-1, I2, -I2, 1)),
    "XZ": ({"IY": 0.5 * I2, "XZ": 0.5, "YI": -0.5 * I2, "ZX": 0.5}, (-1, I2, -I2, 1)),
    "ZX": ({"IY": -0.5 * I2, "XZ": 0.5, "YI": 0.5 * I2, "ZX": 0.5}, (-1, I2, -I2, 1)),
    "IZ": ({"IZ": 0.5, "XY": 0.5 * I2, "YX": -0.5 * I2, "ZI": 0.5}, (I2, -I2, 1, -1)),
    "ZI": ({"IZ": 0.5, "XY": -0.5 * I2, "YX": 0.5 * I2, "ZI": 0.5}, (I2, -I2, 1, -1)),
    "XY": ({"IZ": 0.5 * I2, "XY": -0.5, "YX": -0.5, "ZI": -0.5 * I2}, (1, -1, -I2, I2)),
    "YX": ({"IZ": 0.5 * I2, "XY": 0.5, "YX": 0.5, "ZI": -0.5 * I2}, (1, -1, -I2, I2)),
}

# Reference matrices for the 16 substitutes, row by row.
TABLE_MATRICES = {
    "II": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "XX": [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]],
    "YY": [[0, 0, 0, 1], [0, -1, 0, 0], [0, 0, -1, 0], [1, 0, 0, 0]],
    "ZZ": [[1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1]],
    "IX": [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]],
    "XI": [[0, 1, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
    "YZ": [[0, -I2, 0, 0], [0, 0, 0, I2], [I2, 0, 0, 0], [0, 0, -I2, 0]],
    "ZY": [[0, 0, I2, 0], [-I2, 0, 0, 0], [0, 0, 0, -I2], [0, I2, 0, 0]],
    "IY": [[0, 0, I2, 0], [-I2, 0, 0, 0], [0, 0, 0, I2], [0, -I2, 0, 0]],
    "YI": [[0, -I2, 0, 0], [0, 0, 0, -I2], [I2, 0, 0, 0], [0, 0, I2, 0]],
    "XZ": [[0, 1, 0, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 0, -1, 0]],
    "ZX": [[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, -1, 0, 0]],
    "IZ": [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, -1]],
    "ZI": [[1, 0, 0, 0], [0, 0, 1, 0], [0, -1, 0, 0], [0, 0, 0, -1]],
    "XY": [[0, 0, 0, I2], [0, -I2, 0, 0], [0, 0, I2, 0], [-I2, 0, 0, 0]],
    "YX": [[0, 0, 0, -I2], [0, -I2, 0, 0], [0, 0, I2, 0], [I2, 0, 0, 0]],
}

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def direct_vectorized_expectation(a, rho):
    v = vectorize(rho)
    return float(np.vdot(v.amplitudes, to_matrix(a) @ v.amplitudes).real)


def test_table_matches_reference_rows():
    table = build_table()
    for word, (weights, spectra) in TABLE_ROWS.items():
        entry = table[word]
        expect = PauliSum.from_letter_terms(
            [(c, w) for w, c in weights.items()]
        )
        assert entry.b.max_coeff_diff(expect) < 1e-12, word
        want = tuple(sorted(map(complex, spectra), key=lambda z: (z.real, z.imag)))
        got = tuple(sorted(entry.eigenvalues, key=lambda z: (z.real, z.imag)))
        assert np.allclose(got, want, atol=1e-12), word


def test_table_matches_reference_matrices():
    table = build_table()
    for word, rows in TABLE_MATRICES.items():
        assert np.abs(table[word].matrix - np.array(rows, dtype=complex)).max() \
            < 1e-14, word


def test_table_unitarity():
    for entry in build_table().values():
        assert np.abs(
            entry.matrix.conj().T @ entry.matrix - np.eye(4)
        ).max() < 1e-12


def test_table_brute_force_and_string_paths_agree():
    for entry in build_table().values():
        assert np.abs(to_matrix(entry.b) - entry.matrix).max() < 1e-13


def test_table_swap_gate_circuits():
    # the substitute of P (x) Q is the gate Q^T (x) P followed by a swap
    for word, entry in build_table().items():
        p, q = (PAULI_MATRICES[letter] for letter in word)
        circuit = SWAP @ np.kron(q.T, p)
        assert np.abs(circuit - entry.matrix).max() < 1e-14, word


def test_table_eq5_soundness_random_states():
    rng = np.random.default_rng(40)
    table = build_table()
    states = [rand_rho(1, rng) for _ in range(60)]
    for word, entry in table.items():
        a = PauliSum.from_letter_terms([(1.0, word)])
        for rho in states:
            lhs = trace_with_two_copies(entry.b, rho).real / rho.purity()
            rhs = direct_vectorized_expectation(a, rho)
            assert abs(lhs - rhs) < 1e-11


def test_substitute_matrix_is_pure_reshuffle():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    b = substitute_matrix(m)
    assert sorted(np.round(b.reshape(-1), 12).tolist(), key=abs) == sorted(
        np.round(m.reshape(-1), 12).tolist(), key=abs
    )


def test_substitute_zz_matches_table_row():
    q = substitute_pauli(PauliString.from_letters("ZZ"))
    assert q.max_coeff_diff(build_table()["ZZ"].b) < 1e-14


def test_substitute_pauli_matches_dense_rule():
    # closed form s A SWAP against the index permutation, term by term
    rng = np.random.default_rng(73)
    words = [PauliString.from_letters("".join(t))
             for t in itertools.product("IXYZ", repeat=4)]
    words += [rand_word(n, rng) for n in (6, 8) for _ in range(50)]
    for word in words:
        dense = pauli_decompose(substitute_matrix(word.to_matrix()))
        assert substitute_pauli(word).max_coeff_diff(dense) <= 1e-14, word


def test_substitute_pauli_digest():
    # pins values, term order and signed zeros of every substitute on 2, 4
    # and 6 doubled qubits
    lines = []
    for n in (2, 4, 6):
        for letters in itertools.product("IXYZ", repeat=n):
            word = "".join(letters)
            for term, c in substitute_pauli(PauliString.from_letters(word)):
                lines.append(f"{word} {term.letters} {c.real!r} {c.imag!r}")
    assert len(lines) == 266_304
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "6c04fd2b4ef104920fd8793b224a1b11c91d29c73d65b95389ad36897f8b1856"
    )


def test_substitute_identity_gives_purity():
    rng = np.random.default_rng(42)
    for n in (1, 2):
        a = PauliSum.identity(2 * n)
        b = substitute(a)
        rho = rand_rho(n, rng)
        assert abs(trace_with_two_copies(b, rho).real - rho.purity()) < 1e-12
        assert abs(exact_expectation(a, rho) - 1.0) < 1e-12


def test_substitute_term_count_and_unitarity():
    rng = np.random.default_rng(43)
    for n in (1, 2, 3):
        words = set()
        while len(words) < 3:
            words.add(rand_word(2 * n, rng))
        a = PauliSum(2 * n, {w: rng.normal() for w in words})
        triples = substitute_terms(a)
        assert len(triples) == len(a)
        for _, _, q in triples:
            assert (q.dagger() @ q).max_coeff_diff(PauliSum.identity(2 * n)) < 1e-10


def test_unitarity_defect_of_substitutes_is_zero():
    rng = np.random.default_rng(72)
    for n in (2, 4, 6, 8, 10):
        q = substitute_pauli(rand_word(n, rng))
        assert q.unitarity_defect() == 0.0
        assert (q.dagger() @ q).max_coeff_diff(PauliSum.identity(n)) == 0.0


def test_substitute_rejects_odd_register():
    with pytest.raises(DimensionError):
        substitute_pauli(PauliString.from_letters("XYZ"))


def test_eq5_identity_random_two_term():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = 2
        words = set()
        while len(words) < 2:
            words.add(rand_word(2 * n, rng))
        a = PauliSum(2 * n, {w: rng.normal() for w in words})
        rho = rand_rho(n, rng)
        lhs = exact_expectation(a, rho)
        rhs = direct_vectorized_expectation(a, rho)
        assert abs(lhs - rhs) < 1e-11
        b = substitute(a)
        assert abs(trace_with_two_copies(b, rho).real / rho.purity() - rhs) < 1e-11


def test_exact_expectation_bell_stabilizer():
    rho = DensityMatrix.maximally_mixed(1)
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    assert abs(exact_expectation(a, rho) - 1.0) < 1e-12


def test_exact_expectation_rejects_non_hermitian():
    rho = DensityMatrix.maximally_mixed(1)
    with pytest.raises(ValidationError):
        exact_expectation(PauliSum.from_letter_terms([(1j, "ZZ")]), rho)


def test_plan_and_exact_read_share_one_hermiticity_rule():
    # imaginary parts up to 1e-12 count as real in both; above, both refuse
    rho = DensityMatrix.maximally_mixed(1)
    accepted = PauliSum.from_letter_terms([(1 + 1e-12j, "ZI"), (0.5, "XX")])
    plan = MeasurementPlan.build(accepted, 10, 10, seed=0)
    assert plan.weights == (0.5, 1.0)       # canonical order: XX, ZI
    exact_expectation(accepted, rho)
    refused = PauliSum.from_letter_terms([(1 + 2e-12j, "ZI"), (0.5, "XX")])
    with pytest.raises(ValidationError):
        MeasurementPlan.build(refused, 10, 10, seed=0)
    with pytest.raises(ValidationError):
        exact_expectation(refused, rho)


def test_imaginary_parts_cancel_for_hermitian_observables():
    rng = np.random.default_rng(45)
    for _ in range(10):
        n = 2
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a = pauli_decompose(m + m.conj().T)
        rho = rand_rho(n, rng)
        b = substitute(a)
        assert abs(trace_with_two_copies(b, rho).imag) < 1e-11


def test_hadamard_sample_exact_cases():
    rng = np.random.default_rng(46)
    rho = rand_rho(1, rng)
    q_ii = substitute_pauli(PauliString.from_letters("II"))
    # the swap-pattern substitute measures the purity, exactly +1-biased
    est = hadamard_sample(q_ii, rho, 200_000, seed=1)
    assert abs(est - rho.purity()) < 5 * (1.0 / np.sqrt(200_000))
    pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    q_zz = substitute_pauli(PauliString.from_letters("ZZ"))
    assert hadamard_sample(q_zz, pure, 100, seed=2) == 1.0


def test_hadamard_sample_five_sigma():
    rng = np.random.default_rng(47)
    rho = rand_rho(1, rng)
    q = substitute_pauli(PauliString.from_letters("XY"))
    truth = trace_with_two_copies(q, rho).real
    shots = 100_000
    est = hadamard_sample(q, rho, shots, seed=3)
    sigma = np.sqrt(max(1.0 - truth ** 2, 1e-12) / shots)
    assert abs(est - truth) < 5 * sigma


def test_hadamard_rejects_non_unitary():
    rho = DensityMatrix.maximally_mixed(1)
    a = PauliSum.from_letter_terms([(0.5, "II")])
    with pytest.raises(ValidationError):
        hadamard_sample(a, rho, 10, seed=0)


def test_hadamard_unitarity_gate():
    rho = rand_rho(2, np.random.default_rng(73))
    q = substitute_pauli(PauliString.from_letters("XYZI"))
    word, coeff = next(iter(q))
    for delta, unitary in ((1e-9, False), (1e-12, True)):
        # moved along its own phase, the word adds 2*delta*|coeff| to the
        # identity coefficient of Q†Q
        moved = PauliSum(q.n, {**q.terms, word: coeff * (1 + delta / abs(coeff))})
        if unitary:
            assert abs(hadamard_sample(moved, rho, 10, seed=0)) <= 1.0
        else:
            with pytest.raises(ValidationError, match="not unitary"):
                hadamard_sample(moved, rho, 10, seed=0)


def test_swap_sample_values():
    pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    assert swap_sample(pure, 1000, seed=0) == 1.0
    mixed = DensityMatrix.maximally_mixed(1)
    shots = 100_000
    est = swap_sample(mixed, shots, seed=1)
    sigma = np.sqrt(0.75 / shots)  # var of +-1 with mean 1/2
    assert abs(est - 0.5) < 5 * sigma
    rng = np.random.default_rng(48)
    rho = rand_rho(2, rng)
    est = swap_sample(rho, shots, seed=2)
    assert abs(est - rho.purity()) < 5 / np.sqrt(shots)


def test_estimate_identity_plan():
    rng = np.random.default_rng(49)
    rho = rand_rho(1, rng)
    plan = MeasurementPlan.build(PauliSum.identity(2), 400, 400, seed=5)
    report = estimate_expectation(plan, rho, gamma_floor=rho.purity())
    assert abs(report.value - 1.0) < 0.2
    assert -1.0 <= report.purity <= 1.0


def test_estimate_converges_with_shots():
    liouv = build_liouvillian(sigma_minus_spec())
    rho = steady_state(liouv)[0]
    a = PauliSum.from_letter_terms([(1.0, "ZZ"), (0.4, "XI")])
    truth = exact_expectation(a, rho)
    errs = []
    for shots in (200, 2000, 20000):
        plan = MeasurementPlan.build(a, shots, shots, seed=11)
        report = estimate_expectation(plan, rho, gamma_floor=1.0)
        errs.append(abs(report.value - truth))
    assert errs[-1] < 0.02 and errs[-1] <= errs[0] + 1e-12


def test_estimate_deterministic():
    rng = np.random.default_rng(50)
    rho = rand_rho(1, rng)
    a = PauliSum.from_letter_terms([(1.0, "ZZ"), (-0.3, "XX")])
    plan = MeasurementPlan.build(a, 500, 500, seed=21)
    r1 = estimate_expectation(plan, rho, 0.5)
    r2 = estimate_expectation(plan, rho, 0.5)
    assert r1 == r2
    assert r1.to_csv_row() == r2.to_csv_row()
    assert ESTIMATE_CSV_HEADER.count(",") == r1.to_csv_row().count(",")


def test_estimate_ill_conditioned_ratio():
    rho = DensityMatrix.maximally_mixed(3)  # purity 1/8
    a = PauliSum.identity(6)
    hit = None
    for seed in range(400):
        plan = MeasurementPlan.build(a, 2, 2, seed=seed)
        try:
            estimate_expectation(plan, rho, gamma_floor=0.1)
        except IllConditionedRatioError:
            hit = seed
            break
    assert hit is not None


def test_shot_allocation_remainders_favor_large_weights():
    a = PauliSum.from_letter_terms([(0.1, "XX"), (2.0, "ZZ"), (0.5, "YY")])
    plan = MeasurementPlan.build(a, 10, 10, seed=0)
    shots = plan.shots_per_term()
    assert sum(shots) == 10
    by_weight = {w.letters: s for w, s in zip(plan.words, shots)}
    assert by_weight["ZZ"] == max(shots)


def test_estimator_calibration_bias_and_variance():
    # maximally mixed single qubit, observable ZZ: truth is exactly 1
    rho = DensityMatrix.maximally_mixed(1)
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    n_h = n_s = 400
    truth = exact_expectation(a, rho)
    gamma = rho.purity()
    values = []
    for seed in range(1500):
        plan = MeasurementPlan.build(a, n_h, n_s, seed=seed)
        values.append(estimate_expectation(plan, rho, gamma).value)
    values = np.asarray(values)
    bias_bound, var_bound, _ = error_bounds(a, gamma, n_h, n_s)
    assert abs(values.mean() - truth) <= 3 * bias_bound
    assert values.var() <= 2 * var_bound


def test_half_shots_eps_path_gives_one_hadamard_shot_per_term():
    rng = np.random.default_rng(13)
    for terms in (1, 2, 5, 16):
        for weight in (1e-3, 0.1, 1.0):
            words = {rand_word(2, rng): weight for _ in range(terms)}
            a = PauliSum(2, words)
            for gamma, eps in ((1.0, 1.0), (0.5, 0.5), (1.0, 0.1)):
                half = half_shots(a, gamma, None, eps)
                assert half == max(shot_budget(a, gamma, eps)[1], len(a))
                assert half >= len(a)
                MeasurementPlan.build(a, half, half, seed=1)


def test_shot_budget_examples():
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    assert shot_budget(a, 1.0, 0.1) == (400, 200, 200)
    assert shot_budget(a, 0.5, 0.1) == (1600, 800, 800)
    rng = np.random.default_rng(51)
    words = set()
    while len(words) < 3:
        words.add(rand_word(4, rng))
    obs = PauliSum(4, {w: rng.normal() for w in words})
    n, n_h, n_s = shot_budget(obs, 0.7, 0.2)
    norm2 = np.abs(np.linalg.eigvalsh(to_matrix(obs))).max()
    weight_sq = sum(abs(c) ** 2 for _, c in obs)
    expect = 2.0 / (0.7 ** 2 * 0.2 ** 2) * (norm2 ** 2 + 3 * weight_sq)
    assert n >= expect and n - expect <= 2
    assert n_h == n_s == n // 2
    with pytest.raises(DegenerateObservableError):
        shot_budget(PauliSum.zero(2), 1.0, 0.1)


def test_one_word_norm_is_coefficient_modulus(monkeypatch):
    rng = np.random.default_rng(52)
    words = [rand_word(n, rng) for n in range(1, 7) for _ in range(4)]
    cases = [PauliSum(w.n, {w: c}) for w in words for c in (1.0, 0.37, -2.5)]
    dense = [float(np.abs(np.linalg.eigvalsh(to_matrix(a))).max()) for a in cases]

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("a one-word norm needs no eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    for a, want in zip(cases, dense):
        assert observable_norms(a) == (want, a.frobenius_norm_sq(), 1)


def test_bell_amplitude_examples():
    rho = DensityMatrix.maximally_mixed(1)
    assert abs(bell_amplitude(rho, PauliString.from_letters("I")) - 1.0) < 1e-12
    assert abs(bell_amplitude(rho, PauliString.from_letters("Z"))) < 1e-12


def test_bell_amplitude_dual_path():
    rng = np.random.default_rng(52)
    for n in (1, 2, 3):
        rho = rand_rho(n, rng)
        p = rand_word(n, rng)
        got = bell_amplitude(rho, p)
        # direct inner product against the Pauli-indexed Bell vector
        bell_vec = p.to_matrix().reshape(-1) / 2 ** (n / 2)
        v = vectorize(rho)
        expect = np.vdot(bell_vec, v.amplitudes)
        assert abs(got - expect) < 1e-11
