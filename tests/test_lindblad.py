import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from conftest import (
    EXCEPTIONAL_POINT_SPEC,
    IDENTITY_JUMP_SPEC,
    RANK_FLOOR_SPEC,
    assert_factors_match_dense,
    assert_gather_matches_dense,
    assert_ldl_checks_match_dense,
    assert_ldl_matches_dense,
    assert_matches_dense,
    assert_null_basis_matches_oracle,
    assert_st_norm_matches_dense,
    block_null_space,
    bisect_all_halvings,
    exchange_conjugate,
    exchange_matrix,
    maximally_mixed,
    rand_lme_spec,
    rand_pure_rho,
    rand_rho,
    sigma_minus,
    sigma_minus_spec,
    unique_steady_spec,
    vec_overlap,
)
from lgw import lindblad
from lgw.errors import (
    CapacityError,
    DimensionError,
    NormalizationError,
    ValidationError,
    WorkbenchError,
)
from lgw.lindblad import (
    DensityMatrix,
    JumpChannel,
    LmeSpec,
    SpectralReport,
    SuperOp,
    _expm,
    _mixing_time_estimate,
    _null_space,
    build_ldl,
    build_liouvillian,
    evolve,
    evolve_vector,
    exchange_symmetry_defect,
    integration_steps,
    lme_from_json_dict,
    lme_to_json_dict,
    runtime_bound,
    spectral_diagnostics,
    steady_state,
    trace_norm,
    vectorize,
    verify_ldl_properties,
)
from lgw.pauli import PauliSum, to_matrix
from lgw.tolerances import DIAGONALIZABLE_COND_MAX, LDL_FORMS_TOL
from lgw.xl import LiouvillianAnsatz

# a jump at rate 5e-324 puts subnormal entries in blocks
# [[-1, 5e-324], [1, -5e-324]], for which LAPACK's eig returns V = I
SUBNORMAL_RATE_SPEC = {
    "n": 2, "hamiltonian": [],
    "jumps": [{"rate": 1.0, "op": [[0.5, 0.0, "IX"], [0.0, -0.5, "IY"]]},
              {"rate": 5e-324, "op": [[0.5, 0.0, "IX"], [0.0, 0.5, "IY"]]}]}


def lme_rhs(spec, rho):
    """Direct dense evaluation of the master equation right-hand side."""
    h = to_matrix(spec.hamiltonian)
    out = -1j * (h @ rho - rho @ h)
    for ch in spec.jumps:
        f = to_matrix(ch.op)
        fdf = f.conj().T @ f
        out += ch.rate * (f @ rho @ f.conj().T - 0.5 * (fdf @ rho + rho @ fdf))
    return out


def diagonal_superop(n, diag):
    """The diagonal operator with the entries ``diag``, each its own block."""
    return SuperOp(n, [np.array([i]) for i in range(4 ** n)],
                   [np.array([[entry]], dtype=complex) for entry in diag])


def test_sigma_minus_spectrum():
    liouv = build_liouvillian(sigma_minus_spec())
    evals = sorted(np.linalg.eigvals(liouv.matrix).real)
    assert np.allclose(evals, [-1.0, -0.5, -0.5, 0.0], atol=1e-12)


def test_closed_system_spectrum_imaginary():
    rng = np.random.default_rng(2)
    from conftest import rand_hermitian_sum

    spec = LmeSpec(2, rand_hermitian_sum(2, rng, 4), ())
    evals = np.linalg.eigvals(build_liouvillian(spec).matrix)
    assert np.abs(evals.real).max() < 1e-12


def test_depolarizing_steady_is_maximally_mixed():
    jumps = tuple(
        JumpChannel(0.25, PauliSum.from_letter_terms([(1.0, p)])) for p in "XYZ"
    )
    liouv = build_liouvillian(LmeSpec(1, PauliSum.zero(1), jumps))
    states = steady_state(liouv)
    assert len(states) == 1
    assert np.abs(states[0].matrix - np.eye(2) / 2).max() < 1e-10


def test_generator_matches_master_equation_rhs():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        spec = rand_lme_spec(n, rng)
        liouv = build_liouvillian(spec)
        rho = rand_rho(n, rng)
        lhs = (liouv.matrix @ rho.matrix.reshape(-1)).reshape(rho.matrix.shape)
        assert np.abs(lhs - lme_rhs(spec, rho.matrix)).max() < 1e-11


def test_trace_preservation_left_null_vector():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        spec = rand_lme_spec(n, rng)
        liouv = build_liouvillian(spec)
        vec_id = np.eye(2 ** n, dtype=complex).reshape(-1)
        assert np.abs(vec_id @ liouv.matrix).max() < 1e-10


def test_spectrum_in_left_half_plane():
    rng = np.random.default_rng(10)
    for n in (1, 2):
        evals = np.linalg.eigvals(build_liouvillian(rand_lme_spec(n, rng)).matrix)
        assert evals.real.max() <= 1e-9


def test_hermiticity_preservation_exchange_relation():
    # S conj(L) S = L, the operator form of "evolution keeps rho Hermitian"
    rng = np.random.default_rng(12)
    for n in (1, 2):
        lmat = build_liouvillian(rand_lme_spec(n, rng)).matrix
        s = exchange_matrix(n)
        assert np.abs(s @ lmat.conj() @ s - lmat).max() < 1e-10


def test_negative_rate_rejected():
    with pytest.raises(ValidationError):
        JumpChannel(-0.1, sigma_minus())


def test_non_hermitian_hamiltonian_rejected():
    with pytest.raises(ValidationError):
        LmeSpec(1, PauliSum.from_letter_terms([(1j, "X")]), ())


def test_ldl_sigma_minus_eigenvalues():
    # dense eigendecomposition oracle: singular values of L are
    # {0, 1/2, 1/2, sqrt(2)}, so L^dag L has {0, 1/4, 1/4, 2}
    ldl, _ = build_ldl(sigma_minus_spec())
    evals = np.linalg.eigvalsh((ldl.matrix + ldl.matrix.conj().T) / 2)
    assert np.allclose(evals, [0.0, 0.25, 0.25, 2.0], atol=1e-12)


def test_ldl_zero_for_trivial_spec():
    ldl, sym = build_ldl(LmeSpec(1, PauliSum.zero(1), ()))
    assert np.abs(ldl.matrix).max() == 0.0 and len(sym) == 0


def test_ldl_dual_path_random():
    rng = np.random.default_rng(14)
    for _ in range(5):
        spec = rand_lme_spec(2, rng)
        ldl, sym = build_ldl(spec)  # raises if the two paths disagree
        from lgw.pauli import pauli_decompose

        assert sym.max_coeff_diff(pauli_decompose(ldl.matrix)) < 1e-10


def test_exchange_conjugate_matches_dense_map():
    rng = np.random.default_rng(15)
    from conftest import rand_pauli_sum

    p = rand_pauli_sum(4, rng, terms=6)  # doubled register of n=2
    s = exchange_matrix(2)
    lhs = to_matrix(exchange_conjugate(p))
    rhs = s @ to_matrix(p).conj() @ s
    assert np.abs(lhs - rhs).max() < 1e-12
    symmetrized = (p + exchange_conjugate(p)) * 0.5
    assert exchange_symmetry_defect(symmetrized) < 1e-12


def test_exchange_symmetry_defect_matches_conjugate_oracle():
    # the integer-mask defect equals the max coefficient difference from the
    # term-by-term conjugate, bit for bit, on sums with and without partners
    rng = np.random.default_rng(16)
    from conftest import rand_pauli_sum

    for n, terms in ((2, 3), (4, 6), (6, 40), (34, 30), (70, 12)):
        p = rand_pauli_sum(n, rng, terms=terms)
        for s in (p, (p + exchange_conjugate(p)) * 0.5, p.dagger() @ p):
            assert exchange_symmetry_defect(s) == s.max_coeff_diff(
                exchange_conjugate(s)
            )
    assert exchange_symmetry_defect(PauliSum.zero(4)) == 0.0
    with pytest.raises(DimensionError):
        exchange_symmetry_defect(PauliSum.zero(3))


def test_vectorize_bell_example():
    rho = maximally_mixed(1)
    v = vectorize(rho)
    assert np.abs(v.amplitudes - np.array([1, 0, 0, 1]) / np.sqrt(2)).max() < 1e-14


def test_vectorize_pure_state():
    rho = DensityMatrix.pure(np.array([1.0, 0.0]))
    v = vectorize(rho)
    assert np.abs(v.amplitudes - np.array([1, 0, 0, 0])).max() < 1e-14


def test_vectorize_inner_product_is_trace():
    rng = np.random.default_rng(16)
    for _ in range(10):
        r1, r2 = rand_rho(2, rng), rand_rho(2, rng)
        lhs = vec_overlap(vectorize(r1), vectorize(r2))
        expect = np.trace(r1.matrix.conj().T @ r2.matrix) / (
            np.linalg.norm(r1.matrix) * np.linalg.norm(r2.matrix)
        )
        assert abs(lhs - expect) < 1e-12


def test_vectorize_zero_matrix_rejected():
    zero = DensityMatrix(1, np.zeros((2, 2)), validate=False)
    with pytest.raises(NormalizationError):
        vectorize(zero)


def test_steady_state_sigma_minus():
    states = steady_state(build_liouvillian(sigma_minus_spec()))
    assert len(states) == 1
    assert np.abs(states[0].matrix - np.diag([1.0, 0.0])).max() < 1e-10


def test_steady_state_degenerate_commutant():
    spec = LmeSpec(1, PauliSum.from_letter_terms([(1.0, "Z")]), ())
    liouv = build_liouvillian(spec)
    states = steady_state(liouv)
    assert len(states) >= 2
    for s in states:
        # stationary states of a bare Z Hamiltonian are diagonal
        off = s.matrix - np.diag(np.diag(s.matrix))
        assert np.abs(off).max() < 1e-10


def test_steady_state_unrepairable_basis_warns():
    # with a zero generator everything is steady; the null basis holds
    # traceless directions that cannot be trace-normalized
    spec = LmeSpec(1, PauliSum.zero(1), ())
    liouv = build_liouvillian(spec)
    with pytest.warns(UserWarning, match="degenerate"):
        states = steady_state(liouv)
    assert len(states) == 4


def test_steady_residual_small():
    rng = np.random.default_rng(20)
    spec, liouv = unique_steady_spec(2, rng)
    rho = steady_state(liouv)[0]
    assert np.linalg.norm(liouv.matrix @ rho.matrix.reshape(-1)) < 1e-9


def test_evolve_amplitude_damping_analytic():
    liouv = build_liouvillian(sigma_minus_spec())
    rho0 = DensityMatrix.pure(np.array([0.0, 1.0]))
    for t in (0.3, np.log(2.0), 2.0):
        out = evolve(liouv, rho0, t, 400)
        assert abs(out.matrix[1, 1].real - np.exp(-t)) < 1e-9


def test_evolve_zero_time_identity():
    rng = np.random.default_rng(22)
    spec, liouv = unique_steady_spec(1, rng)
    rho0 = rand_rho(1, rng)
    out = evolve(liouv, rho0, 0.0, 1)
    assert np.abs(out.matrix - rho0.matrix).max() < 1e-14


def test_evolve_reaches_steady_state():
    rng = np.random.default_rng(24)
    spec, liouv = unique_steady_spec(1, rng)
    report = spectral_diagnostics(liouv, mixing_probes=0)
    t = 20.0 / report.gap
    rho0 = rand_rho(1, rng)
    out = evolve(liouv, rho0, t, max(400, int(40 * t)))
    target = steady_state(liouv)[0]
    assert trace_norm(out.matrix - target.matrix) < 1e-6


def test_evolve_consistency_composition():
    rng = np.random.default_rng(26)
    spec, liouv = unique_steady_spec(1, rng)
    rho0 = rand_rho(1, rng)
    one_shot = evolve(liouv, rho0, 1.5, 600)
    two_step = evolve(liouv, evolve(liouv, rho0, 0.9, 360), 0.6, 240)
    assert np.abs(one_shot.matrix - two_step.matrix).max() < 1e-8


def test_evolve_drift_and_convergence():
    liouv = build_liouvillian(sigma_minus_spec())
    rho0 = DensityMatrix.pure(np.array([0.0, 1.0]))
    v = evolve_vector(liouv.matrix, rho0.matrix.reshape(-1), 2.0, 200)
    mat = v.reshape(2, 2)
    assert abs(np.trace(mat).real - 1.0) < 1e-8
    assert np.abs(mat - mat.conj().T).max() < 1e-8
    # halving the step size moves the result by less than 1e-8
    fine = evolve_vector(liouv.matrix, rho0.matrix.reshape(-1), 2.0, 400)
    assert np.abs(v - fine).max() < 1e-8


def test_purity_ratio_lower_bound():
    # sqrt(Tr rho_ss^2 / Tr rho_0^2) >= 2^(-n/2) for pure rho_0
    rng = np.random.default_rng(28)
    for n in (1, 2):
        spec, liouv = unique_steady_spec(n, rng)
        rho_ss = steady_state(liouv)[0]
        rho0 = rand_pure_rho(n, rng)
        zeta = np.sqrt(rho_ss.purity() / rho0.purity())
        assert zeta >= 2 ** (-n / 2) - 1e-12


def test_spectral_diagnostics_gaps():
    assert abs(spectral_diagnostics(
        build_liouvillian(sigma_minus_spec()), mixing_probes=0).gap - 0.5) < 1e-12
    jumps = tuple(
        JumpChannel(0.25, PauliSum.from_letter_terms([(1.0, p)])) for p in "XYZ"
    )
    dep = build_liouvillian(LmeSpec(1, PauliSum.zero(1), jumps))
    assert abs(spectral_diagnostics(dep, mixing_probes=0).gap - 1.0) < 1e-12
    closed = build_liouvillian(
        LmeSpec(1, PauliSum.from_letter_terms([(1.0, "Z")]), ())
    )
    report = spectral_diagnostics(closed, mixing_probes=2, seed=0)
    assert report.gap is None and report.mixing_time_estimate is None


def counting_factorizations(monkeypatch, liouv, names=("eig", "eigvals", "svd", "inv")):
    """Record the size of every ``np.linalg`` call in ``names``, split into
    ``svd`` (singular values alone) and ``svd_uv`` (with vectors); the
    full 4^n x 4^n matrix of a several-block ``liouv`` must never be
    factored, and an SVD with vectors must be of a generator block or, for
    the self-paired block, of its real form R."""
    calls = {name: [] for name in names} | {"svd_uv": []}
    full = (4 ** liouv.n, 4 ** liouv.n)
    owned = list(liouv.block_matrices) + [data[0] for kind, data in liouv.forms
                                          if kind == "real"]

    def counting(name):
        inner = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            assert len(liouv.blocks) == 1 or a.shape != full
            key = name
            if name == "svd" and kwargs.get("compute_uv", True):
                assert any(blk is a for blk in owned)
                key = "svd_uv"
            calls[key].append(len(a))
            return inner(a, *args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


def own_block_sizes(liouv):
    """Sizes of the blocks factored on their own: one per exchange pair,
    the self-paired block and any block that failed its pairing check."""
    return sorted(len(idx) for idx, (kind, _) in zip(liouv.blocks, liouv.forms)
                  if kind != "partner")


def test_generator_is_factored_once(monkeypatch):
    rng = np.random.default_rng(38)
    spec, _ = unique_steady_spec(2, rng)
    liouv = build_liouvillian(spec)
    ldl, _ = build_ldl(spec, liouv)
    calls = counting_factorizations(monkeypatch, liouv)
    steady_state(liouv)
    spectral_diagnostics(liouv, mixing_probes=2)
    report = verify_ldl_properties(ldl, liouv)
    assert integration_steps(liouv, 1.0) >= 200
    assert report.steady_dim == 1
    own = own_block_sizes(liouv)
    # one eig per block factored on its own (of R for the self-paired
    # block); singular values of each of those blocks and of each V; one
    # inverse each; vectors of the one block that holds the steady state
    assert sorted(calls["eig"]) == own and calls["eigvals"] == []
    assert sorted(calls["inv"]) == own
    sizes = [size for size in calls["svd"] if size in own]
    assert sorted(sizes) == sorted(own + own)
    assert len(calls["svd_uv"]) == 1
    # none of these reads the full matrix, so it was never scattered
    assert "matrix" not in vars(liouv)


def xxz_spec(sites, seed):
    """A random XXZ chain with one raising channel per site; its generator
    conserves the ket-minus-bra magnetization, so it has 2*sites + 1
    blocks.  One site is a Z field with a raising channel."""
    rng = np.random.default_rng(seed)
    if sites == 1:
        raising = PauliSum.from_letter_terms([(0.5, "X"), (-0.5j, "Y")])
        ham = PauliSum.from_letter_terms([(rng.uniform(0.0, 1.0), "Z")])
        return LmeSpec(1, ham, (JumpChannel(rng.uniform(0.2, 1.0), raising),))
    ansatz = LiouvillianAnsatz.xxz_chain(sites)
    ham, jumps = ansatz.instantiate(rng.uniform(0.0, 1.0, ansatz.num_h),
                                    rng.uniform(0.2, 1.0, ansatz.num_jumps))
    return LmeSpec(sites, ham, tuple(JumpChannel(r, op) for r, op in jumps))


def xxz_liouvillian(sites, seed):
    return build_liouvillian(xxz_spec(sites, seed))


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_xxz_blocks_equal_the_dense_oracle(sites):
    liouv = assert_matches_dense(xxz_spec(sites, 90 + sites))
    assert len(liouv.blocks) == 2 * sites + 1


@pytest.mark.parametrize("sites", [2, 3])
def test_xxz_ldl_is_squared_on_the_generator_blocks(sites):
    ldl, split = assert_ldl_matches_dense(xxz_spec(sites, 80 + sites))
    assert len(ldl.blocks) == 2 * sites + 1 < len(split.blocks)


def test_random_spec_blocks_equal_the_dense_oracle():
    rng = np.random.default_rng(91)
    for n in (1, 2, 3):
        for _ in range(8):
            assert_matches_dense(rand_lme_spec(n, rng, jumps=int(rng.integers(0, 4))))
    for spec in (IDENTITY_JUMP_SPEC, RANK_FLOOR_SPEC, EXCEPTIONAL_POINT_SPEC):
        assert_matches_dense(lme_from_json_dict(spec)[0])
    assert_matches_dense(LmeSpec(2, PauliSum.zero(2), ()))


def test_subnormal_generator_entries_are_zero():
    liouv = assert_matches_dense(lme_from_json_dict(SUBNORMAL_RATE_SPEC)[0])
    for blk, (lam, v) in zip(liouv.block_matrices, liouv.eig):
        assert (np.abs(blk[blk != 0]) >= np.finfo(float).tiny).all()
        assert np.abs(blk @ v - v * lam).max() <= 1e-12 * np.abs(blk).max()
    assert_factors_match_dense(liouv)


def test_cancelling_terms_split_a_pattern_block():
    # each of the jumps X and Y links |0><1| and |1><0| through F(x)F*,
    # with entries +1 and -1 that cancel at equal rates, so the summed
    # generator splits the block that the terms' patterns join
    jumps = tuple(JumpChannel(0.7, PauliSum.from_letter_terms([(1.0, p)]))
                  for p in "XY")
    spec = LmeSpec(1, PauliSum.from_letter_terms([(0.4, "Z")]), jumps)
    liouv = assert_matches_dense(spec)
    assert [idx.tolist() for idx in liouv.blocks] == [[0, 3], [1], [2]]


def test_superop_blocks_must_partition_the_indices():
    mats = [np.zeros((2, 2), complex), np.zeros((2, 2), complex)]
    superop = SuperOp(1, [np.array([0, 3]), np.array([1, 2])], mats)
    assert np.array_equal(superop.matrix, np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        SuperOp(1, [np.array([0, 3])], mats[:1])
    with pytest.raises(DimensionError):
        SuperOp(1, [np.array([0, 3]), np.array([1, 2])], [mats[0], np.zeros((1, 1))])
    with pytest.raises(DimensionError):
        SuperOp(2, [np.arange(4)], [np.zeros((4, 4), complex)])


def test_superop_blocks_that_overlap_are_refused():
    # the sizes add up to 4, but index 1 is in both blocks and 3 in none
    with pytest.raises(DimensionError):
        SuperOp(1, [np.array([0, 1]), np.array([1, 2])], [np.eye(2), 2 * np.eye(2)])
    with pytest.raises(DimensionError):
        SuperOp(1, [np.array([0, 1, 2, 4])], [np.eye(4)])


@pytest.mark.parametrize("sites", [3, 4])
def test_block_factorizations_match_dense_oracle(sites):
    liouv = xxz_liouvillian(sites, 70 + sites)
    mat = liouv.matrix
    assert len(liouv.blocks) == 2 * sites + 1
    assert sorted(np.concatenate(liouv.blocks)) == list(range(4 ** sites))
    # the oracle factors the full matrix
    evals, evecs = np.linalg.eig(mat)
    _, svals, vh = np.linalg.svd(mat)
    null = vh[int(np.sum(svals > 1e-10 * svals[0])):].conj().T
    nonzero_re = np.abs(evals.real)[np.abs(evals.real) > 1e-9]

    blockwise = liouv.eigenvalues
    dist = np.abs(blockwise[:, None] - evals[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() <= 1e-12 * np.abs(evals).max()

    report = spectral_diagnostics(liouv, mixing_probes=2, seed=5)
    assert report.steady_dim == null.shape[1] == 1
    assert abs(report.gap - nonzero_re.min()) <= 1e-12 * np.abs(evals).max()
    assert report.diagonalizable == (np.linalg.cond(evecs) < 1e8)
    blockwise_vecs = scipy.linalg.block_diag(*[vecs for _, vecs in liouv.eig])
    assert report.eigvec_condition == pytest.approx(
        np.linalg.cond(blockwise_vecs), rel=1e-10)
    basis = liouv.null_basis
    assert np.abs(basis @ basis.conj().T - null @ null.conj().T).max() < 1e-10

    radius = np.abs(evals).max()
    assert integration_steps(liouv, 50.0) == int(np.ceil(200.0 * radius)) > 200

    rho0 = rand_rho(sites, np.random.default_rng(sites))
    steps = integration_steps(liouv, 0.7)
    vec = evolve_vector(mat, rho0.matrix.reshape(-1), 0.7, steps)
    want = vec.reshape(2 ** sites, 2 ** sites)
    want = (want + want.conj().T) / 2
    want /= np.trace(want).real
    assert np.abs(evolve(liouv, rho0, 0.7, steps).matrix - want).max() < 1e-12


def test_blocks_that_rho0_misses_stay_zero():
    liouv = xxz_liouvillian(3, 9)
    rho0 = DensityMatrix.pure(np.eye(8)[:, 0])
    out = evolve(liouv, rho0, 0.5, 200).matrix.reshape(-1)
    (home,) = [idx for idx in liouv.blocks if 0 in idx]
    rest = np.setdiff1d(np.arange(64), home)
    assert np.all(out[rest] == 0)
    assert np.any(out[home[1:]] != 0)


def dephasing_spec():
    """Two qubits under Z fields and Z dephasing: a diagonal generator."""
    ham = PauliSum.from_letter_terms([(0.7, "ZI"), (0.3, "IZ")])
    jumps = tuple(
        JumpChannel(0.5, PauliSum.from_letter_terms([(1.0, w)])) for w in ("ZI", "IZ")
    )
    return LmeSpec(2, ham, jumps)


def test_pure_dephasing_has_singleton_blocks():
    n = 2
    liouv = build_liouvillian(dephasing_spec())
    assert np.count_nonzero(liouv.matrix - np.diag(np.diag(liouv.matrix))) == 0
    assert [idx.tolist() for idx in liouv.blocks] == [[i] for i in range(4 ** n)]
    assert spectral_diagnostics(liouv, mixing_probes=2).steady_dim == 2 ** n
    # the steady space is spanned by the diagonal matrices
    diagonal = np.arange(2 ** n) * (2 ** n + 1)
    assert set(np.flatnonzero(np.abs(liouv.null_basis).sum(axis=1))) == set(diagonal)


GATHER_SPECS = {
    **{f"xxz{sites}": lambda sites=sites: xxz_spec(sites, 40 + sites)
       for sites in (2, 3, 4, 5)},
    "dephasing": dephasing_spec,
    "subnormal_rate": lambda: lme_from_json_dict(SUBNORMAL_RATE_SPEC)[0],
    "zero": lambda: LmeSpec(2, PauliSum.zero(2), ()),
    "cancelling": lambda: lme_from_json_dict(IDENTITY_JUMP_SPEC)[0],
}


@pytest.mark.parametrize("name", sorted(GATHER_SPECS))
def test_edge_gather_matches_the_dense_gather(name):
    liouv = assert_gather_matches_dense(GATHER_SPECS[name]())
    assert liouv.null_dim == liouv.null_basis.shape[1]


def test_steady_count_takes_no_singular_vectors(monkeypatch):
    # the count reads the cached singular values; only steady_state takes
    # vectors, one full SVD of each block that holds null vectors
    spec = xxz_spec(4, 17)
    liouv = build_liouvillian(spec)
    ldl, _ = build_ldl(spec, liouv)
    calls = counting_factorizations(monkeypatch, liouv, ("svd",))
    report = spectral_diagnostics(liouv)
    props = verify_ldl_properties(ldl, liouv)
    assert calls["svd_uv"] == []
    assert report.steady_dim == props.steady_dim == liouv.null_dim == 1
    steady_state(liouv)
    holding = [len(idx) for idx in liouv.blocks
               if np.abs(liouv.null_basis[idx]).any()]
    assert calls["svd_uv"] == holding and len(holding) == 1


@pytest.mark.parametrize("sites", [2, 3, 4, 5])
def test_real_form_condition_from_the_real_basis(sites):
    # each conjugate pair (w, conj w) of W becomes sqrt2 Re w, sqrt2 Im w,
    # a unitary mix of the pair, so the singular values are W's
    liouv = xxz_liouvillian(sites, 30 + sites)
    assert liouv.forms[0][0] == "real"
    own = [vecs for (_, vecs) in filter(None, liouv._own_eig)]
    assert np.iscomplexobj(own[0])
    got = liouv.eigvec_singular_values[0]
    want = np.linalg.cond(own[0])
    assert abs(got[0] / got[-1] - want) <= 1e-12 * want
    svals = [np.linalg.svd(vecs, compute_uv=False) for vecs in own]
    cond = max(s[0] for s in svals) / min(s[-1] for s in svals)
    report = spectral_diagnostics(liouv, mixing_probes=0)
    assert abs(report.eigvec_condition - cond) <= 1e-12 * cond
    assert report.diagonalizable == (cond < DIAGONALIZABLE_COND_MAX)


@pytest.mark.parametrize("n", [1, 2])
def test_zero_generator_null_basis_is_identity(n):
    liouv = diagonal_superop(n, np.zeros(4 ** n))
    assert len(liouv.blocks) == 4 ** n
    assert np.array_equal(liouv.null_basis, np.eye(4 ** n))
    assert liouv.null_dim == 4 ** n


@pytest.mark.parametrize("sites", [2, 3, 4, 5, 6])
def test_null_basis_matches_the_block_svd_oracle(sites):
    liouv = xxz_liouvillian(sites, 20 + sites)
    assert liouv.forms[0][0] == "real" and liouv.null_dim == 1
    assert_null_basis_matches_oracle(liouv)


def closed_xxz_spec(sites, seed):
    """``xxz_spec`` with every rate 0: the steady space is H's commutant,
    which holds |a><b| for eigenstates a, b of different magnetization."""
    spec = xxz_spec(sites, seed)
    return LmeSpec(sites, spec.hamiltonian,
                   tuple(JumpChannel(0.0, ch.op) for ch in spec.jumps))


def chiral_degenerate_spec():
    """XX + YY with a Dzyaloshinskii-Moriya term 0.75 (XY - YX), whose
    one-excitation eigenvectors (|01> + e^(i theta)|10>)/sqrt2 are complex,
    and a field 1.25 (ZI + IZ) that puts |00> at the energy 2.5 of one of
    them: the steady space of the closed system holds the coherence
    between them, in a complex block of its exchange pair."""
    ham = PauliSum.from_letter_terms([(1.0, "XX"), (1.0, "YY"), (0.75, "XY"),
                                      (-0.75, "YX"), (1.25, "ZI"), (1.25, "IZ")])
    return LmeSpec(2, ham, ())


def one_site_dephasing_spec():
    """Z dephasing of the first of two qubits: a diagonal generator whose
    steady space holds the exchange-paired entries |0b><0b'|, b != b'."""
    jump = JumpChannel(0.5, PauliSum.from_letter_terms([(1.0, "ZI")]))
    return LmeSpec(2, PauliSum.zero(2), (jump,))


@pytest.mark.parametrize("spec", [closed_xxz_spec(2, 21), closed_xxz_spec(3, 22),
                                  chiral_degenerate_spec(), one_site_dephasing_spec()])
def test_partner_blocks_take_their_null_vectors_from_their_own_block(spec):
    liouv = build_liouvillian(spec)
    holding = {kind for (kind, _), idx in zip(liouv.forms, liouv.blocks)
               if np.abs(liouv.null_basis[idx]).any()}
    assert "partner" in holding and liouv.null_dim > 1
    assert_null_basis_matches_oracle(liouv)


@pytest.mark.parametrize("name", ["xxz", "rank_floor", "zero", "rank_one"])
def test_null_space_is_the_one_block_oracle_bit_for_bit(name):
    mat = {
        "xxz": lambda: xxz_liouvillian(2, 5).matrix,
        "rank_floor": lambda: build_liouvillian(
            lme_from_json_dict(RANK_FLOOR_SPEC)[0]).matrix,
        "zero": lambda: np.zeros((4, 4), dtype=complex),
        "rank_one": lambda: np.outer([1.0, 2.0, 0.5j], [0.5, -1.0, 1.0j]),
    }[name]()
    got = np.ascontiguousarray(_null_space(mat))
    want = block_null_space([mat], [np.arange(len(mat))], 0.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_null_space_rank_rule_uses_global_sigma_max():
    # each diagonal entry is its own block; 1e-12 is a null direction
    # against the largest singular value of all blocks, not its own
    liouv = diagonal_superop(1, [1.0, 1e-12, 2.0, 0.0])
    assert len(liouv.blocks) == 4
    want = np.eye(4)[:, [1, 3]]
    assert np.abs(np.abs(liouv.null_basis) - want).max() < 1e-15
    assert np.abs(np.abs(_null_space(liouv.matrix)) - want).max() < 1e-15


def test_null_space_rank_rule_floored_at_rounding_of_the_terms():
    # sigma_max of L is 2e-8, so the relative cut sits at 2e-18, below the
    # rounding residue that the cancelling c*I terms leave on the null
    # directions; the floor at 4^n * eps * (term scale) recovers the exact
    # steady space, the commutant of X on the second qubit
    spec = lme_from_json_dict(RANK_FLOOR_SPEC)[0]
    liouv = build_liouvillian(spec)
    assert liouv.rounding_floor > 0 and liouv.null_basis.shape[1] == 8
    assert _null_space(liouv.matrix).shape[1] == 0
    x2 = to_matrix(PauliSum.from_letter_terms([(1.0, "IX")]))
    for vec in liouv.null_basis.T:
        mat = vec.reshape(4, 4)
        assert np.abs(x2 @ mat - mat @ x2).max() < 1e-6
    assert verify_ldl_properties(build_ldl(spec)[0], liouv).ground_dim == 8


def test_blocks_are_factored_once_each(monkeypatch):
    liouv = xxz_liouvillian(3, 12)
    kinds = [kind for kind, _ in liouv.forms]
    assert kinds == ["real"] + ["complex"] * 3 + ["partner"] * 3
    calls = counting_factorizations(monkeypatch, liouv, ("eig", "svd"))
    steady_state(liouv)
    spectral_diagnostics(liouv, mixing_probes=2)
    steps = integration_steps(liouv, 1.0)
    evolve(liouv, maximally_mixed(3), 1.0, steps)
    # one eig per exchange pair and one of R; vectors only of the block
    # whose smallest singular value is at or below the cut
    own = own_block_sizes(liouv)
    assert sorted(calls["eig"]) == own == [1, 6, 15, 20]
    (home,) = [idx for idx in liouv.blocks if 0 in idx]
    assert calls["svd_uv"] == [len(home)]
    assert "matrix" not in vars(liouv)


@pytest.mark.parametrize("sites", [1, 2, 3, 4, 5])
def test_paired_and_real_form_factors_match_dense_oracle(sites):
    liouv = xxz_liouvillian(sites, 60 + sites)
    kinds = [kind for kind, _ in liouv.forms]
    # the block of magnetization difference 0 holds every diagonal entry
    # and is self-paired; the block of q pairs with that of -q
    assert kinds == ["real"] + ["complex"] * sites + ["partner"] * sites
    assert_factors_match_dense(liouv)


def test_random_spec_factors_match_dense_oracle():
    # complex jumps: F^dag F comes from BLAS, so pairs agree only to rounding
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        for _ in range(6):
            assert_factors_match_dense(
                build_liouvillian(rand_lme_spec(n, rng, jumps=int(rng.integers(0, 4)))))


def test_partner_past_the_tolerance_is_factored_on_its_own():
    liouv = xxz_liouvillian(2, 7)
    k = [kind for kind, _ in liouv.forms].index("partner")
    own, _ = liouv.forms[k][1]
    scale = np.abs(liouv.block_matrices[own]).max()
    for shift, kind in ((1e-14, "partner"), (1e-10, "complex")):
        mats = list(liouv.block_matrices)
        mats[k] = mats[k].copy()
        mats[k][0, -1] += shift * scale
        op = SuperOp(liouv.n, liouv.blocks, mats)
        assert op.forms[k][0] == kind and op.forms[own][0] == "complex"
        assert_factors_match_dense(op)
    assert np.array_equal(op.eig[k][0], np.linalg.eig(mats[k])[0])


def test_self_paired_block_past_the_residue_takes_the_complex_path():
    liouv = xxz_liouvillian(2, 8)
    assert liouv.forms[0][0] == "real"
    scale = np.abs(liouv.block_matrices[0]).max()
    for shift, kind in ((1e-14j, "real"), (1e-10j, "complex")):
        mats = list(liouv.block_matrices)
        mats[0] = mats[0] + shift * scale * np.eye(len(mats[0]))
        op = SuperOp(liouv.n, liouv.blocks, mats)
        assert op.forms[0][0] == kind
        assert_factors_match_dense(op)
    vals, vecs = np.linalg.eig(mats[0])
    assert np.array_equal(op.eig[0][0], vals) and np.array_equal(op.eig[0][1], vecs)


def test_fill_partners_restores_the_image_of_a_hermitian_matrix():
    # L maps vec(X) of a Hermitian X to vec of a Hermitian matrix, so the
    # partners' slices follow from their own blocks'
    liouv = xxz_liouvillian(3, 13)
    herm = rand_rho(3, np.random.default_rng(13)).matrix
    want = liouv.matrix @ herm.reshape(-1)
    got = want.copy()
    for idx, (kind, _) in zip(liouv.blocks, liouv.forms):
        if kind == "partner":
            got[idx] = np.nan
    liouv.fill_partners(got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_both_probe_routes_fill_partners_alike():
    # the eigendecomposition and the matrix exponential propagate the same
    # probes, each over one block per pair
    liouv = xxz_liouvillian(3, 14)
    assert "partner" in [kind for kind, _ in liouv.forms]
    gap = spectral_diagnostics(liouv, mixing_probes=1).gap
    by_eig = _mixing_time_estimate(liouv, gap, True, 2, 4)
    by_expm = _mixing_time_estimate(liouv, gap, False, 2, 4)
    assert by_eig == pytest.approx(by_expm, rel=1e-9)


@pytest.mark.parametrize("spec", [xxz_spec(3, 4), xxz_spec(4, 5),
                                  lme_from_json_dict(EXCEPTIONAL_POINT_SPEC)[0]])
def test_bisection_stop_is_bit_identical(monkeypatch, spec):
    liouv = build_liouvillian(spec)
    calls = []
    norm = lindblad.trace_norm
    monkeypatch.setattr(lindblad, "trace_norm", lambda m: calls.append(1) or norm(m))
    fast = spectral_diagnostics(liouv, mixing_probes=4, seed=9).mixing_time_estimate
    fast_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(lindblad, "_bisect", bisect_all_halvings)
    full = spectral_diagnostics(liouv, mixing_probes=4, seed=9).mixing_time_estimate
    assert fast is not None and fast.hex() == full.hex()
    assert fast_calls < len(calls)


def test_spectral_report_json_keys():
    report = spectral_diagnostics(build_liouvillian(sigma_minus_spec()),
                                  mixing_probes=2, seed=1)
    data = report.to_json_dict()
    for key in ("gap", "steady_dim", "diagonalizable", "mixing_time_estimate"):
        assert key in data
    json.dumps(data)


def test_spectral_report_sorts_eigenvalues():
    rng = np.random.default_rng(31)
    evals = np.array([-1.0 + 2.0j, 0.0, -1.0 - 2.0j, -0.5, -1.0 + 1e-14j, -3.0])
    want = [[-3.0, 0.0], [-1.0, -2.0], [-1.0, 1e-14], [-1.0, 2.0],
            [-0.5, 0.0], [0.0, 0.0]]
    for _ in range(4):
        shuffled = evals[rng.permutation(evals.size)]
        report = SpectralReport(shuffled, 0.5, 1, True, None)
        assert report.to_json_dict()["eigenvalues"] == want
        # only the report is sorted; the array keeps the order given
        assert np.array_equal(report.eigenvalues, shuffled)


def test_mixing_estimate_none_when_distance_overflows():
    # the 0.5 mode grows, so the propagated difference overflows to inf
    liouv = diagonal_superop(1, [0.0, -1.0, -1.0, 0.5])
    assert _mixing_time_estimate(liouv, 1.0, True, 2, 0) is None


def test_mixing_estimate_none_when_matrix_exponential_overflows():
    # the same growing mode on the route of non-diagonalizable generators
    liouv = diagonal_superop(1, [0.0, -1.0, -1.0, 0.5])
    assert _mixing_time_estimate(liouv, 1.0, False, 2, 0) is None


def test_mixing_estimate_halves_trace_distance():
    rng = np.random.default_rng(30)
    spec, liouv = unique_steady_spec(1, rng)
    report = spectral_diagnostics(liouv, mixing_probes=4, seed=5)
    t = report.mixing_time_estimate
    assert t is not None and t > 0
    d1, d2 = rand_rho(1, rng), rand_rho(1, rng)
    delta = (d1.matrix - d2.matrix).reshape(-1)
    prop = scipy.linalg.expm(liouv.matrix * t)
    assert trace_norm((prop @ delta).reshape(2, 2)) <= trace_norm(
        delta.reshape(2, 2)
    ) / 2 + 1e-9


def test_non_diagonalizable_mixing_estimate_halves_trace_distance():
    liouv = build_liouvillian(lme_from_json_dict(EXCEPTIONAL_POINT_SPEC)[0])
    report = spectral_diagnostics(liouv, mixing_probes=4, seed=5)
    assert not report.diagonalizable and report.steady_dim == 1
    t = report.mixing_time_estimate
    assert t is not None and t > 0
    prop = scipy.linalg.expm(liouv.matrix * t)
    rng = np.random.default_rng(32)
    for _ in range(8):
        delta = rand_rho(2, rng).matrix - rand_rho(2, rng).matrix
        after = (prop @ delta.reshape(-1)).reshape(4, 4)
        assert trace_norm(after) <= trace_norm(delta) / 2 + 1e-9


def expm_gap(a):
    """Largest deviation of _expm from scipy's expm, relative to the
    largest entry of the latter."""
    want = scipy.linalg.expm(a)
    return np.abs(_expm(a) - want).max() / np.abs(want).max()


def test_expm_matches_scipy_on_xxz_blocks():
    liouv = xxz_liouvillian(4, 5)
    assert len(liouv.blocks) == 9
    for mat in liouv.block_matrices:
        for t in (0.01, 0.3, 3.0, 30.0, 300.0):
            assert expm_gap(mat * t) < 1e-11


@pytest.mark.parametrize("size", [1, 2, 7, 40, 252])
def test_expm_matches_scipy_on_random_decaying_matrices(size):
    rng = np.random.default_rng(size)
    for scale in (1e-3, 0.4, 3.0, 30.0, 300.0):
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        # the shift by -1.1 * scale moves the spectrum of a matrix of
        # 1-norm scale into the open left half plane
        a = g * (scale / np.abs(g).sum(axis=0).max()) - 1.1 * scale * np.eye(size)
        assert expm_gap(a) < 1e-11


@pytest.mark.parametrize("size", [2, 3])
def test_expm_matches_scipy_on_jordan_blocks(size):
    jordan = -1.5 * np.eye(size) + np.eye(size, k=1)
    for t in (0.01, 1.0, 10.0, 100.0):
        assert expm_gap(jordan * t) < 1e-11


def test_expm_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))


def test_runtime_bound_values():
    assert abs(runtime_bound("hermitian", 1.0, 2, np.exp(-2.0))
               - (np.log(2.0) + 1.0)) < 1e-12
    assert abs(runtime_bound("mixing", 1.0, 4, 1.0) - 2.0) < 1e-12
    with pytest.raises(ValidationError):
        runtime_bound("hermitian", 0.0, 2, 0.5)
    with pytest.raises(ValidationError):
        runtime_bound("hermitian", 1.0, 2, 1.5)
    with pytest.raises(ValidationError):
        runtime_bound("sideways", 1.0, 2, 0.5)


def test_runtime_bound_monotonicity():
    base = runtime_bound("hermitian", 1.0, 4, 0.1)
    assert runtime_bound("hermitian", 2.0, 4, 0.1) < base
    assert runtime_bound("hermitian", 1.0, 6, 0.1) > base
    assert runtime_bound("hermitian", 1.0, 4, 0.01) > base
    mix = runtime_bound("mixing", 1.0, 4, 0.1)
    assert runtime_bound("mixing", 1.0, 8, 0.1) > mix


def test_runtime_bound_suffices_for_sigma_minus():
    liouv = build_liouvillian(sigma_minus_spec())
    gap = spectral_diagnostics(liouv, mixing_probes=0).gap
    t = runtime_bound("hermitian", gap, 1, 0.01)
    rho0 = DensityMatrix.pure(np.array([0.0, 1.0]))
    out = evolve(liouv, rho0, t, max(400, int(40 * t)))
    target = steady_state(liouv)[0]
    overlap = abs(vec_overlap(vectorize(out), vectorize(target)))
    assert overlap >= 0.99


def test_verify_ldl_properties_sigma_minus():
    liouv = build_liouvillian(sigma_minus_spec())
    ldl, _ = build_ldl(sigma_minus_spec())
    report = verify_ldl_properties(ldl, liouv)
    assert report.all_passed
    data = report.to_json_dict()
    assert "ground_energy" in data and "st_commutator_norm" in data


def test_verify_ldl_degenerate_commutant():
    spec = LmeSpec(1, PauliSum.from_letter_terms([(1.0, "Z")]), ())
    liouv = build_liouvillian(spec)
    ldl, _ = build_ldl(spec)
    report = verify_ldl_properties(ldl, liouv)
    assert report.ground_energy < 1e-8
    assert report.ground_dim == 2
    assert report.ground_matches_steady


# a random 3-qubit spec with one steady state and a slow mode at
# sigma/sigma_max = 1.9e-5 of L, i.e. lambda/lambda_max = 3.6e-10 of L^dag L:
# the slow mode is not a steady state, so it must not count as ground
SLOW_MODE_SPEC = """{"n": 3, "hamiltonian": [[0.04254562419776962, 0.0, "IIY"],
 [0.4688161555488117, 0.0, "IZX"], [-1.5990559916401776, 0.0, "ZIX"]],
 "jumps": [{"rate": 0.9623631445475793, "op": [
   [-0.5523238869393083, 1.6480151274453896, "XXI"],
   [2.2045407115482014, 0.4822304409636505, "ZYZ"],
   [-0.7976049415131837, -0.5556476922482163, "ZZI"]]},
  {"rate": 0.2792265036693706, "op": [
   [1.2239137876568966, 0.4469449395799527, "YYX"],
   [2.5489556577927783, 0.22567442239282395, "ZIX"],
   [1.1594666324838385, 1.8684184780145432, "ZYZ"]]}]}"""


def test_ground_dim_ignores_slow_modes():
    spec, _ = lme_from_json_dict(json.loads(SLOW_MODE_SPEC))
    ldl, _ = build_ldl(spec)
    report = verify_ldl_properties(ldl, build_liouvillian(spec))
    assert report.steady_dim == 1
    assert report.ground_dim == 1
    assert report.ground_matches_steady


def test_st_commutator_random_specs():
    rng = np.random.default_rng(32)
    for _ in range(3):
        spec = rand_lme_spec(2, rng)
        ldl, _ = build_ldl(spec)
        report = verify_ldl_properties(ldl, build_liouvillian(spec))
        assert report.st_commutator_norm < 1e-9


@pytest.mark.parametrize("sites", [2, 3, 4, 5])
def test_block_checks_match_their_dense_forms(sites):
    spec = xxz_spec(sites, 50 + sites)
    liouv = build_liouvillian(spec)
    ldl, sym = build_ldl(spec, liouv)
    assert_ldl_checks_match_dense(ldl, sym, liouv)


def test_st_norm_where_the_exchange_maps_no_block_onto_a_block():
    # on one qubit S swaps indices 1 and 2, so it maps the block {0, 1}
    # onto {0, 2}, which straddles two blocks
    rng = np.random.default_rng(54)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 1, 1)]
    op = SuperOp(1, [np.array([0, 1]), np.array([2]), np.array([3])], mats)
    assert_st_norm_matches_dense(op, op)
    assert verify_ldl_properties(op, op).st_commutator_norm > 1.0


def _without(s, keep):
    """The sum ``s`` with only the terms where ``keep`` is true."""
    return PauliSum.from_letter_terms(
        [(c, w) for c, w, k in zip(s.coeffs.tolist(), s.letters(), keep) if k])


@pytest.mark.parametrize("case", ["stray_word", "dropped_word", "dropped_flip"])
def test_pauli_cross_check_sees_every_entry(monkeypatch, case):
    # a word whose flip leaves the blocks reaches only entries off them; a
    # dropped word leaves its flip's sums off by its coefficient; a flip
    # with every word dropped is compared only through the blocks
    spec = xxz_spec(3, 55)
    liouv = build_liouvillian(spec)
    ldl, sym = build_ldl(spec, liouv)
    base = lindblad._pauli_gap(ldl, sym)
    flip = lindblad._signed_permutations(sym.word_keys, sym.n)[0]
    big = int(np.argmax(np.abs(sym.coeffs)))
    if case == "stray_word":
        # X on the first ket qubit changes the ket magnetization alone
        eps = 1e-6
        bad = sym + PauliSum.from_letter_terms([(eps, "X" + "I" * (2 * spec.n - 1))])
        label, cols = ldl._owner[0], np.arange(4 ** spec.n)
        assert (label[cols ^ (4 ** spec.n // 2)] != label[cols]).all()
    elif case == "dropped_word":
        eps = abs(sym.coeffs[big])
        bad = _without(sym, np.arange(len(sym)) != big)
    else:
        bad = _without(sym, flip != flip[big])
        eps = np.abs(to_matrix(_without(sym, flip == flip[big]))).max()
    gap = lindblad._pauli_gap(ldl, bad)
    assert gap == np.abs(to_matrix(bad) - ldl.matrix).max()
    assert gap >= eps - base and eps > LDL_FORMS_TOL
    check = lindblad._pauli_gap
    monkeypatch.setattr(lindblad, "_pauli_gap", lambda op, s: check(op, bad))
    with pytest.raises(WorkbenchError, match="disagree"):
        build_ldl(spec, liouv)


def test_steady_space_equals_ldl_ground_space():
    rng = np.random.default_rng(34)
    spec, liouv = unique_steady_spec(2, rng)
    ldl, _ = build_ldl(spec)
    rho_ss = steady_state(liouv)[0]
    v = vectorize(rho_ss).amplitudes
    evals, vecs = np.linalg.eigh((ldl.matrix + ldl.matrix.conj().T) / 2)
    ground = vecs[:, 0]
    # subspace angle below 1e-7
    assert 1.0 - abs(np.vdot(ground, v)) < 1e-7


def test_lme_json_roundtrip(tmp_path):
    rng = np.random.default_rng(36)
    spec = rand_lme_spec(2, rng)
    data = lme_to_json_dict(spec, clock_dim=3)
    back, extras = lme_from_json_dict(json.loads(json.dumps(data)))
    assert extras == {"clock_dim": 3}
    assert back.hamiltonian.max_coeff_diff(spec.hamiltonian) < 1e-15
    assert len(back.jumps) == len(spec.jumps)
    for a, b in zip(back.jumps, spec.jumps):
        assert a.rate == b.rate and a.op.max_coeff_diff(b.op) < 1e-15


def test_build_liouvillian_refuses_past_dense_cap():
    # a 7-qubit generator is a 2^14-square matrix: 14 qubits, past the
    # 12-qubit cap, refused before even the 2^7-square Hamiltonian is built
    spec = rand_lme_spec(7, np.random.default_rng(7))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="14 qubits"):
            build_liouvillian(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18


def test_spectral_diagnostics_refuses_a_negative_seed():
    liouv = build_liouvillian(sigma_minus_spec())
    with pytest.raises(ValidationError, match="non-negative"):
        spectral_diagnostics(liouv, seed=-1)
    assert spectral_diagnostics(liouv, seed=0).mixing_time_estimate is not None
