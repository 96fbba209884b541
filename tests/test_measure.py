import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import (
    PAULI_MATRICES,
    MaskWord,
    maximally_mixed,
    rand_pauli_sum,
    rand_rho,
    rand_word,
    sigma_minus_spec,
    terms,
    trace_with_two_copies,
    word_read_by_kron,
)
from lgw import cli, measure, pauli
from lgw.errors import (
    CapacityError,
    DegenerateObservableError,
    DimensionError,
    IllConditionedRatioError,
    ValidationError,
)
from lgw.lindblad import DensityMatrix, build_liouvillian, steady_state, vectorize
from lgw.measure import (
    ESTIMATE_CSV_HEADER,
    SWAP_TEST_STREAM,
    MeasurementPlan,
    bell_amplitude,
    build_table,
    error_bounds,
    estimate_expectation,
    exact_expectation,
    hadamard_sample,
    half_shots,
    observable_norms,
    sampled_estimate,
    shot_budget,
    substitute,
    substitute_matrix,
    substitute_pauli,
    swap_sample,
)
from lgw.pauli import (
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
    q = substitute_pauli("ZZ")
    assert q.max_coeff_diff(build_table()["ZZ"].b) < 1e-14


def test_substitute_pauli_matches_dense_rule():
    # closed form s A SWAP against the index permutation, term by term
    rng = np.random.default_rng(73)
    words = ["".join(t) for t in itertools.product("IXYZ", repeat=4)]
    words += [rand_word(n, rng) for n in (6, 8) for _ in range(50)]
    for word in words:
        matrix = MaskWord.from_letters(word).to_matrix()
        dense = pauli_decompose(substitute_matrix(matrix))
        assert substitute_pauli(word).max_coeff_diff(dense) <= 1e-14, word


def test_substitute_pauli_digest():
    # pins values, term order and signed zeros of every substitute on 2, 4
    # and 6 doubled qubits
    lines = []
    for n in (2, 4, 6):
        for letters in itertools.product("IXYZ", repeat=n):
            word = "".join(letters)
            for term, c in terms(substitute_pauli(word)):
                lines.append(f"{word} {term} {c.real!r} {c.imag!r}")
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
        words = set()       # of bitmask words, whose hashes fix the seeded order
        while len(words) < 3:
            words.add(MaskWord.from_letters(rand_word(2 * n, rng)))
        a = PauliSum._from_words(2 * n, {w.letters: rng.normal() for w in words})
        total = PauliSum.zero(2 * n)
        for word, coeff in terms(a.sorted()):
            q = substitute_pauli(word)
            assert (q.dagger() @ q).max_coeff_diff(PauliSum.identity(2 * n)) < 1e-10
            total = total + q * coeff.real
        assert substitute(a).max_coeff_diff(total) == 0.0


def test_unitarity_defect_of_substitutes_is_zero():
    rng = np.random.default_rng(72)
    for n in (2, 4, 6, 8, 10):
        q = substitute_pauli(rand_word(n, rng))
        assert (q.dagger() @ q).max_coeff_diff(PauliSum.identity(n)) == 0.0


def test_substitute_rejects_odd_register():
    with pytest.raises(DimensionError):
        substitute_pauli("XYZ")


def test_eq5_identity_random_two_term():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = 2
        words = set()       # of bitmask words, whose hashes fix the seeded order
        while len(words) < 2:
            words.add(MaskWord.from_letters(rand_word(2 * n, rng)))
        a = PauliSum._from_words(2 * n, {w.letters: rng.normal() for w in words})
        rho = rand_rho(n, rng)
        lhs = exact_expectation(a, rho)
        rhs = direct_vectorized_expectation(a, rho)
        assert abs(lhs - rhs) < 1e-11
        b = substitute(a)
        assert abs(trace_with_two_copies(b, rho).real / rho.purity() - rhs) < 1e-11


def test_exact_expectation_bell_stabilizer():
    rho = maximally_mixed(1)
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    assert abs(exact_expectation(a, rho) - 1.0) < 1e-12


def test_exact_expectation_rejects_non_hermitian():
    rho = maximally_mixed(1)
    with pytest.raises(ValidationError):
        exact_expectation(PauliSum.from_letter_terms([(1j, "ZZ")]), rho)


def test_plan_and_exact_read_share_one_hermiticity_rule():
    # imaginary parts up to 1e-12 count as real in both; above, both refuse
    rho = maximally_mixed(1)
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


def word_sum(letters, coeff=1.0):
    return PauliSum._from_words(len(letters), {letters: coeff})


def test_hadamard_sample_exact_cases():
    rng = np.random.default_rng(46)
    rho = rand_rho(1, rng)
    # the identity word reads Tr(rho rho), the purity: exactly +1-biased
    est = hadamard_sample(word_sum("II"), rho, 200_000, seed=1)
    assert abs(est - rho.purity()) < 5 * (1.0 / np.sqrt(200_000))
    pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    assert hadamard_sample(word_sum("ZZ"), pure, 100, seed=2) == 1.0


def test_hadamard_sample_five_sigma():
    rng = np.random.default_rng(47)
    rho = rand_rho(1, rng)
    a = word_sum("XY")
    truth = trace_with_two_copies(substitute(a), rho).real
    shots = 100_000
    est = hadamard_sample(a, rho, shots, seed=3)
    sigma = np.sqrt(max(1.0 - truth ** 2, 1e-12) / shots)
    assert abs(est - truth) < 5 * sigma


def test_hadamard_rejects_non_unitary():
    rho = maximally_mixed(1)
    with pytest.raises(ValidationError):
        hadamard_sample(word_sum("II", 0.5), rho, 10, seed=0)


def test_hadamard_unitarity_gate():
    # the substitute c s A SWAP of one word is unitary iff |c| = 1; the
    # gate reads ||c|^2 - 1|, the identity coefficient of its Q†Q - I
    rho = rand_rho(2, np.random.default_rng(73))
    for delta, unitary in ((1e-9, False), (1e-12, True)):
        moved = word_sum("XYZI", 1 + delta)
        if unitary:
            assert abs(hadamard_sample(moved, rho, 10, seed=0)) <= 1.0
        else:
            with pytest.raises(ValidationError, match="not unitary"):
                hadamard_sample(moved, rho, 10, seed=0)
    assert abs(hadamard_sample(word_sum("XYZI", 1j), rho, 10, seed=0)) <= 1.0
    two_words = word_sum("XYZI") + word_sum("ZIII")
    with pytest.raises(ValidationError, match="one word"):
        hadamard_sample(two_words, rho, 10, seed=0)


def test_word_read_matches_substitute_oracle():
    # on seeded words of 1-4 qubit registers, the gathered word read agrees
    # with the traced substitute, and the seeded Hadamard outcomes are
    # identical
    rng = np.random.default_rng(74)
    for i in range(320):
        n = 1 + i % 4
        rho = rand_rho(n, rng)
        word = rand_word(2 * n, rng)
        oracle = trace_with_two_copies(substitute_pauli(word), rho)
        (read,) = measure.word_reads(word_sum(word), rho)
        assert abs(read - oracle) <= 1e-15, word
        p = min(max((1.0 + oracle.real) / 2.0, 0.0), 1.0)
        drawn = np.random.Generator(np.random.Philox(key=[i, 7])).binomial(100, p)
        want = (2.0 * drawn - 100) / 100
        assert hadamard_sample(word_sum(word), rho, 100, i, 7) == want


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63])
def test_streams_draw_what_a_fresh_philox_draws(seed):
    # one bit generator re-keyed per stream, against a generator built per
    # stream; stream 7 comes back after the others have drawn
    streams = measure._streams(seed)
    for stream in (0, 7, SWAP_TEST_STREAM, 7):
        want = np.random.Generator(np.random.Philox(key=[seed, stream]))
        got = streams(stream)
        for shots, p in ((100, 0.3), (1, 0.5), (10 ** 6, 0.9)):
            assert got.binomial(shots, p) == want.binomial(shots, p)


def _gather_sums(n, rng):
    """Doubled-register sums on 2n qubits for the gather oracle: random
    words with complex weights, words that share flips and phases, one
    word, and for n <= 2 the dense expansion of a random matrix."""
    base = list(rand_word(2 * n, rng))
    shared = []
    # every letter on the first and the last qubit: 4 flips x 4 phases
    for first, last in itertools.product("IXYZ", repeat=2):
        base[0], base[-1] = first, last
        shared.append((rng.normal() + 1j * rng.normal(), "".join(base)))
    sums = [
        rand_pauli_sum(2 * n, rng, terms=40),
        PauliSum.from_letter_terms(shared),
        PauliSum.from_letter_terms([(1.0, "Y" * 2 * n)]),
    ]
    if n <= 2:
        dim = 4 ** n
        sums.append(pauli_decompose(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))))
    return sums


def test_word_reads_match_the_kronecker_oracle():
    # each word's gathered read against Tr(P rho Q^T rho) from Kronecker
    # matrices, on a state and on a general complex matrix: only the
    # latter tells the gather's rho^T bra from conj(rho)
    rng = np.random.default_rng(76)
    for n in range(1, 6):
        dim = 2 ** n
        general = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for rho in (rand_rho(n, rng), DensityMatrix(n, general, validate=False)):
            scale = np.vdot(rho.matrix, rho.matrix).real
            for a in _gather_sums(n, rng):
                reads = measure.word_reads(a, rho)
                assert reads.shape == (len(a),)
                for word, read in zip(a.letters(), reads.tolist()):
                    oracle = word_read_by_kron(word, rho)
                    assert abs(read - oracle) <= 1e-15 * scale, (n, word)


def test_exact_expectation_matches_the_dense_contraction():
    # the gathered sum against the observable's dense matrix contracted
    # with two copies of rho
    rng = np.random.default_rng(77)
    for n in range(1, 5):
        dim = 2 ** n
        rho = rand_rho(n, rng)
        general = rng.normal(size=(dim ** 2, dim ** 2)) + 1j * rng.normal(
            size=(dim ** 2, dim ** 2))
        for a in (rand_pauli_sum(2 * n, rng, terms=40), pauli_decompose(general)):
            a = a + a.dagger()
            a4 = to_matrix(a).reshape(dim, dim, dim, dim)
            num = np.einsum("ijkl,ji,kl->", a4, rho.matrix, rho.matrix)
            want = num.real / rho.purity()
            got = exact_expectation(a, rho)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), n


def test_exact_expectation_at_the_cap_stays_small():
    # one word on 12 doubled qubits reads without a 4096 x 4096 matrix;
    # 14 doubled qubits are refused, with the command line's exit code
    rng = np.random.default_rng(78)
    rho = rand_rho(6, rng)
    a = PauliSum.from_letter_terms([(1.0, "XYZIXYZZYXIX")])
    want = word_read_by_kron("XYZIXYZZYXIX", rho)
    tracemalloc.start()
    try:
        got = exact_expectation(a, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert abs(got - want.real / rho.purity()) <= 1e-13
    wide = DensityMatrix(7, np.eye(128) / 128)
    with pytest.raises(CapacityError, match="14 qubits") as err:
        exact_expectation(PauliSum.from_letter_terms([(1.0, "Z" * 14)]), wide)
    assert cli._exit_code(err.value) == cli.EXIT_FAILURE


def test_reads_build_no_dense_observable(monkeypatch):
    rng = np.random.default_rng(79)
    rho = rand_rho(2, rng)
    a = PauliSum.from_letter_terms([(1.0, "ZIZI"), (0.5, "XYII")])
    one = PauliSum.from_letter_terms([(1j, "XYZI")])
    plan = MeasurementPlan.build(PauliSum.from_letter_terms([(-1.0, "XYZI")]),
                                 100, 100, seed=4)
    p = "YX"
    want = (exact_expectation(a, rho), hadamard_sample(one, rho, 100, 5),
            estimate_expectation(plan, rho, 0.5), bell_amplitude(rho, p))

    def refuse(*args, **kwargs):
        raise AssertionError("a read builds no dense observable")

    monkeypatch.setattr(measure, "to_matrix", refuse)
    monkeypatch.setattr(pauli, "to_matrix", refuse)
    got = (exact_expectation(a, rho), hadamard_sample(one, rho, 100, 5),
           estimate_expectation(plan, rho, 0.5), bell_amplitude(rho, p))
    assert got == want


def test_sampled_estimate_builds_no_substitute(monkeypatch):
    rng = np.random.default_rng(75)
    rho = rand_rho(2, rng)
    a = PauliSum.from_letter_terms([(1.0, "ZIZI"), (0.5, "XXII")])
    want = sampled_estimate(a, rho, rho.purity(), 4000, None, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the sampled read builds no substitute")

    monkeypatch.setattr(measure, "substitute_pauli", refuse)
    monkeypatch.setattr(measure, "_swap", refuse)
    got = sampled_estimate(a, rho, rho.purity(), 4000, None, 3)
    assert got[1] == want[1]
    assert got[0].to_json_dict() == want[0].to_json_dict()


def test_swap_sample_values():
    pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    assert swap_sample(pure, 1000, seed=0) == 1.0
    mixed = maximally_mixed(1)
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
    rho = maximally_mixed(3)  # purity 1/8
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
    by_weight = dict(zip(plan.terms.letters(), shots))
    assert by_weight["ZZ"] == max(shots)


def test_estimator_calibration_bias_and_variance():
    # maximally mixed single qubit, observable ZZ: truth is exactly 1
    rho = maximally_mixed(1)
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
    for count in (1, 2, 5, 16):
        for weight in (1e-3, 0.1, 1.0):
            words = {rand_word(2, rng): weight for _ in range(count)}
            a = PauliSum._from_words(2, words)
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
    words = set()       # of bitmask words, whose hashes fix the seeded order
    while len(words) < 3:
        words.add(MaskWord.from_letters(rand_word(4, rng)))
    obs = PauliSum._from_words(4, {w.letters: rng.normal() for w in words})
    n, n_h, n_s = shot_budget(obs, 0.7, 0.2)
    norm2 = np.abs(np.linalg.eigvalsh(to_matrix(obs))).max()
    weight_sq = sum(abs(c) ** 2 for c in obs.coeffs.tolist())
    expect = 2.0 / (0.7 ** 2 * 0.2 ** 2) * (norm2 ** 2 + 3 * weight_sq)
    assert n >= expect and n - expect <= 2
    assert n_h == n_s == n // 2
    with pytest.raises(DegenerateObservableError):
        shot_budget(PauliSum.zero(2), 1.0, 0.1)


def test_one_word_norm_is_coefficient_modulus(monkeypatch):
    rng = np.random.default_rng(52)
    words = [rand_word(n, rng) for n in range(1, 7) for _ in range(4)]
    cases = [word_sum(w, c) for w in words for c in (1.0, 0.37, -2.5)]
    dense = [float(np.abs(np.linalg.eigvalsh(to_matrix(a))).max()) for a in cases]

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("a one-word norm needs no eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    for a, want in zip(cases, dense):
        assert observable_norms(a) == (want, a.frobenius_norm_sq(), 1)


def test_bell_amplitude_examples():
    rho = maximally_mixed(1)
    assert abs(bell_amplitude(rho, "I") - 1.0) < 1e-12
    assert abs(bell_amplitude(rho, "Z")) < 1e-12


def test_bell_amplitude_dual_path():
    rng = np.random.default_rng(52)
    for n in (1, 2, 3):
        rho = rand_rho(n, rng)
        p = rand_word(n, rng)
        got = bell_amplitude(rho, p)
        # direct inner product against the Pauli-indexed Bell vector
        bell_vec = MaskWord.from_letters(p).to_matrix().reshape(-1) / 2 ** (n / 2)
        v = vectorize(rho)
        expect = np.vdot(bell_vec, v.amplitudes)
        assert abs(got - expect) < 1e-11


def test_negative_seed_is_a_validation_error():
    # a negative seed used to be masked to 64 bits: seed -1 drew exactly
    # the shots of seed 2^64 - 1
    rho = steady_state(build_liouvillian(sigma_minus_spec()))[0]
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    with pytest.raises(ValidationError, match="non-negative"):
        sampled_estimate(a, rho, 1.0, 100, None, seed=-1)
    with pytest.raises(ValidationError, match="non-negative"):
        hadamard_sample(a, rho, 10, seed=-1, stream=0)
    sampled_estimate(a, rho, 1.0, 100, None, seed=0)


def test_shot_budget_past_the_float_range_is_a_validation_error():
    a = PauliSum.from_letter_terms([(1.0, "ZZ")])
    for eps in (1e-300, 1e-160):
        with pytest.raises(ValidationError, match="more shots than a float"):
            shot_budget(a, 1.0, eps)
    # finite, but more than numpy's binomial can draw
    half = half_shots(a, 1.0, None, 1e-10)
    with pytest.raises(ValidationError, match="cannot be sampled"):
        MeasurementPlan.build(a, half, half, seed=1)
    MeasurementPlan.build(a, 2 ** 63 - 1, 2 ** 63 - 1, seed=1)
