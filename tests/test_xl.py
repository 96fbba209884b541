import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import matmul_by_pairs, terms
from lgw.errors import (
    BudgetExceededError,
    CapacityError,
    StructuralRejectionError,
    UnsolvableError,
    ValidationError,
)
from lgw.lindblad import JumpChannel, LmeSpec, build_ldl, pauli_liouvillian
from lgw.pauli import PauliSum
from lgw.xl import (
    COEFF_PRUNE_TOL,
    EXPANSION_IMAG_TOL,
    INFEASIBLE_TOL,
    LinearizedSystem,
    LiouvillianAnsatz,
    QuadraticSystem,
    _acceptable_roots,
    _extract_univariates,
    _filter_by_all,
    asymptotic_ratio,
    build_mq_system,
    count_terms,
    eliminate,
    extend_equations,
    linearize,
    site_channel,
    verify_solution,
    xl_round,
    xl_solve,
)


def one_site_ansatz():
    return LiouvillianAnsatz(
        1,
        (PauliSum.from_letter_terms([(1.0, "Z")]),),
        (site_channel(1, 0, "+"),),
        locality=2,
    )


def recovered_params(ansatz, solution):
    h = [solution.assignment[f"h_{i}"] for i in range(ansatz.num_h)]
    lam = [solution.assignment[f"lam_{i}"] for i in range(ansatz.num_jumps)]
    return np.array(h), np.array(lam)


# -- counting ------------------------------------------------------------------


def test_count_terms_examples():
    assert count_terms(1, 1, 3) == 4
    assert count_terms(4, 2, 3) == 67


def test_count_terms_brute_force():
    for n in range(1, 7):
        for k in range(0, n + 1):
            for m in (3, 5):
                brute = 0
                for weights in itertools.product(range(m + 1), repeat=n):
                    if sum(1 for w in weights if w > 0) <= k:
                        brute += 1
                assert count_terms(n, k, m) == brute


def test_count_terms_upper_bound():
    for n in range(1, 21):
        for k in range(1, min(n, 6) + 1):
            bound = n ** k / (2 * math.factorial(k)) * (3 ** (k + 1) - 1)
            assert count_terms(n, k, 3) <= bound + 1e-9


def test_count_terms_validation():
    with pytest.raises(ValidationError):
        count_terms(2, 3, 3)
    with pytest.raises(ValidationError):
        count_terms(2, 1, 0)


def test_asymptotic_ratio_reference_constants():
    r4 = asymptotic_ratio(4)
    r6 = asymptotic_ratio(6)
    assert abs(r4 - 0.031) < 0.002
    assert abs(r6 - 0.015) < 0.002
    assert abs(1 / np.sqrt(r4) - 5.678) < 0.05
    assert abs(1 / np.sqrt(r6) - 8.111) < 0.05
    with pytest.raises(ValidationError):
        asymptotic_ratio(3)


# -- system generation ------------------------------------------------------------


def test_build_mq_forward_one_site():
    ansatz = one_site_ansatz()
    h0, lam0 = 0.7, 0.3
    target = ansatz.forward_ldl([h0], [lam0])
    system = build_mq_system(ansatz, target)
    assert system.n_u == 3
    truth = np.array([h0, lam0, np.sqrt(lam0)])
    assert np.abs(system.residuals(truth)).max() < 1e-12


def test_forward_expansion_matches_dense_path():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3])
    spec = LmeSpec(
        1,
        PauliSum.from_letter_terms([(0.7, "Z")]),
        (JumpChannel(0.3, site_channel(1, 0, "+")),),
    )
    _, sym = build_ldl(spec)
    assert target.max_coeff_diff(sym) < 1e-12


def test_build_mq_full_local_family_forward():
    # identity words and the complex +/- channels give cross terms between
    # distinct unknowns that the XXZ family never produces
    ansatz = LiouvillianAnsatz.full_local_family(2, 2)
    rng = np.random.default_rng(22)
    h = rng.uniform(-1, 1, ansatz.num_h)
    lam = rng.uniform(0.2, 1, ansatz.num_jumps)
    system = build_mq_system(ansatz, ansatz.forward_ldl(h, lam))
    truth = np.concatenate([h, lam, np.sqrt(lam)])
    assert np.abs(system.residuals(truth)).max() < 1e-12


def system_to_text(system):
    """One VAR line per unknown and one EQ line per equation, monomials
    by descending degree, coefficients by repr: fixed to the byte."""
    lines = [f"VAR {name} {role}"
             for name, role in zip(system.var_names, system.var_roles)]
    for eq in system.equations:
        parts = []
        for mono in sorted(eq, key=lambda m: (-len(m), m)):
            coeff = eq[mono]
            if mono == ():
                parts.append(f"{coeff!r}")
            else:
                names = "*".join(system.var_names[i] for i in mono)
                parts.append(f"{coeff!r}*{names}")
        lines.append("EQ " + " ".join(parts) + " = 0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "ansatz, h, lam, digest",
    [
        (
            LiouvillianAnsatz.xxz_chain(3),
            [0.5, 0.25, 0.75, 1.0],
            [0.5, 0.25, 1.0],
            "73eed54e6dae3862d4aef51e37c28b391832b9ffc86a30190359803846d7ec2d",
        ),
        (
            one_site_ansatz(),
            [0.75],
            [0.5],
            "99e20c8f6914dece310c79420661f4b301082c4225e50b93818c268cd2ddfaea",
        ),
    ],
    ids=["xxz3", "one_site"],
)
def test_build_mq_system_text_pinned(ansatz, h, lam, digest):
    # dyadic parameters keep every coefficient exact, so the serialized
    # system is fixed to the byte
    text = system_to_text(build_mq_system(ansatz, ansatz.forward_ldl(h, lam)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_build_mq_zero_target():
    ansatz = one_site_ansatz()
    system = build_mq_system(ansatz, PauliSum.zero(2))
    assert np.abs(system.residuals(np.zeros(3))).max() == 0.0


def test_build_mq_rejects_asymmetric_target():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3])
    # breaking one off-diagonal pair violates the exchange pairing
    broken = target + PauliSum.from_letter_terms([(0.05, "XI")])
    with pytest.raises(StructuralRejectionError):
        build_mq_system(ansatz, broken)
    with pytest.raises(StructuralRejectionError):
        build_mq_system(ansatz, PauliSum.from_letter_terms([(1j, "XY")]))


def build_mq_system_by_pairs(ansatz, target, include_ground_energy=True):
    """The matching equations from one PauliSum product per pair and
    direction, word by word: the oracle of the batched
    ``build_mq_system`` (structural checks left out)."""
    nh, nj = ansatz.num_h, ansatz.num_jumps
    parts = [pauli_liouvillian(ansatz.n, op, []) for op in ansatz.hamiltonian_ops]
    zero = PauliSum.zero(ansatz.n)
    parts += [pauli_liouvillian(ansatz.n, zero, [(1.0, op)]) for op in ansatz.jump_ops]
    daggers = [p.dagger() for p in parts]
    polys = {}
    pairs = sorted(
        itertools.combinations_with_replacement(range(len(parts)), 2),
        key=lambda jk: (jk[0] >= nh) + (jk[1] >= nh),
    )
    for j, k in pairs:
        product = matmul_by_pairs(daggers[j], parts[k])
        if j != k:
            product = product + matmul_by_pairs(daggers[k], parts[j])
        for word, coeff in terms(product):
            polys.setdefault(word, {})[(j, k)] = coeff

    equations = []
    target_terms = dict(terms(target))
    for word in sorted(set(polys) | set(target_terms)):
        if not include_ground_energy and set(word) <= {"I"}:
            continue
        poly = polys.get(word, {})
        assert max((abs(c.imag) for c in poly.values()), default=0.0) <= EXPANSION_IMAG_TOL
        eq = {m: c.real for m, c in poly.items()}
        tgt = target_terms.get(word, 0.0).real
        if tgt:
            eq[()] = -tgt
        eq = {m: c for m, c in eq.items() if abs(c) >= COEFF_PRUNE_TOL}
        if eq:
            equations.append(eq)
    for i in range(nj):
        equations.append({(nh + nj + i, nh + nj + i): 1.0, (nh + i,): -1.0})
    return equations


def assert_bit_identical_to_oracle(ansatz, target, include_ground_energy=True):
    """Same equations, same monomials in the same order, same float bits."""
    system = build_mq_system(ansatz, target, include_ground_energy)
    oracle = build_mq_system_by_pairs(ansatz, target, include_ground_energy)
    as_bits = lambda eqs: [[(m, c.hex()) for m, c in eq.items()] for eq in eqs]
    assert as_bits(system.equations) == as_bits(oracle)
    return system


@pytest.mark.parametrize("sites", range(2, 10))
def test_batched_pair_products_match_the_pair_loop(sites):
    rng = np.random.default_rng(400 + sites)
    ansatz = LiouvillianAnsatz.xxz_chain(sites)
    h = rng.uniform(0, 1, ansatz.num_h)
    lam = rng.uniform(0, 1, ansatz.num_jumps)
    target = ansatz.forward_ldl(h, lam)
    for include_ground_energy in (True, False):
        assert_bit_identical_to_oracle(ansatz, target, include_ground_energy)


def test_batched_pair_products_full_local_family():
    # identity parts (empty sums), complex +/- channels and every
    # cross term between distinct unknowns
    ansatz = LiouvillianAnsatz.full_local_family(2, 2)
    rng = np.random.default_rng(401)
    target = ansatz.forward_ldl(rng.uniform(-1, 1, ansatz.num_h),
                                rng.uniform(0.2, 1, ansatz.num_jumps))
    for include_ground_energy in (True, False):
        assert_bit_identical_to_oracle(ansatz, target, include_ground_energy)


def test_batched_pair_products_across_mask_limbs():
    # 33 sites double to 66 qubits: operators on sites 0, 31 and 32 put
    # letters on both sides of the 32-qubit key limbs and the 64-bit masks
    n = 33

    def word(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    ham = (
        PauliSum._from_words(n, {word({0: "Z", 32: "Z"}): 1.0}),
        PauliSum._from_words(n, {word({31: "X", 32: "X"}): 1.0,
                                 word({31: "Y", 32: "Y"}): 1.0}),
        PauliSum._from_words(n, {word({31: "Y"}): 1.0}),
    )
    jumps = (site_channel(n, 0, "+"), site_channel(n, 31, "-"), site_channel(n, 32, "Z"))
    ansatz = LiouvillianAnsatz(n, ham, jumps, locality=4)
    rng = np.random.default_rng(402)
    h = rng.uniform(-1, 1, ansatz.num_h)
    lam = rng.uniform(0.2, 1, ansatz.num_jumps)
    target = ansatz.forward_ldl(h, lam)
    system = assert_bit_identical_to_oracle(ansatz, target)
    assert_bit_identical_to_oracle(ansatz, target, include_ground_energy=False)
    truth = np.concatenate([h, lam, np.sqrt(lam)])
    assert np.abs(system.residuals(truth)).max() < 1e-12


def test_build_mq_target_words_outside_the_products():
    # a target word that no pair product reaches gives a constant-only
    # equation, in letter order among the others
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3]) + PauliSum.from_letter_terms(
        [(0.25, "XX"), (0.5, "YY")]
    )
    system = assert_bit_identical_to_oracle(ansatz, target)
    assert {(): -0.25} in system.equations and {(): -0.5} in system.equations


def test_build_mq_drop_ground_energy():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3])
    full = build_mq_system(ansatz, target, include_ground_energy=True)
    dropped = build_mq_system(ansatz, target, include_ground_energy=False)
    assert dropped.n_e == full.n_e - 1
    solution = xl_solve(dropped)
    h, lam = recovered_params(ansatz, solution)
    # the single-site family is exactly degenerate under h -> -h, so only
    # the magnitude is identified; the rate is unique
    assert abs(abs(h[0]) - 0.7) < 1e-8 and abs(lam[0] - 0.3) < 1e-8
    assert verify_solution(ansatz, solution.assignment, target) < 1e-8


def test_xxz_counts_and_structure():
    ansatz = LiouvillianAnsatz.xxz_chain(5)
    target = ansatz.forward_ldl(np.ones(ansatz.num_h), np.ones(ansatz.num_jumps))
    system = build_mq_system(ansatz, target)
    assert system.n_u == 4 * 5 - 2
    assert system.n_e > system.n_u  # well inside the over-defined regime
    # w variables only appear via the slack pattern w^2 - lambda
    nh, nj = ansatz.num_h, ansatz.num_jumps
    w_range = range(nh + nj, nh + 2 * nj)
    for eq in system.equations:
        touched = [m for m in eq if any(i in w_range for i in m)]
        for mono in touched:
            assert len(mono) == 2 and mono[0] == mono[1]
            assert set(eq) == {mono, (mono[0] - nj,)}


def test_full_local_family_unknown_count():
    for n, k in ((2, 2), (3, 2)):
        ansatz = LiouvillianAnsatz.full_local_family(n, k)
        expect = 2 * count_terms(n, k // 2, 5) + count_terms(n, k // 2, 3)
        assert len(ansatz.var_names()) == expect


# -- rounds ------------------------------------------------------------------


def test_xl_round_direct_univariate():
    system = QuadraticSystem(
        ["x", "y"],
        ["h", "h"],
        [{(0, 0): 1.0, (): -1.0}, {(0, 1): 1.0, (1,): -1.0}],
    )
    lin, ech, univariates = xl_round(system.equations, system.n_u, 2)
    assert isinstance(lin, LinearizedSystem) and not ech.inconsistent
    assert any(var == 0 and abs(np.polyval(c[::-1], 1.0)) < 1e-12
               for var, c in univariates)


def test_xl_round_needs_higher_degree():
    # a cyclic product system has no univariate row at degree 2
    system = QuadraticSystem(
        ["x", "y", "z"],
        ["h", "h", "h"],
        [
            {(0, 1): 1.0, (): -1.0},
            {(1, 2): 1.0, (): -1.0},
            {(0, 2): 1.0, (): -1.0},
        ],
    )
    _, ech, univariates = xl_round(system.equations, system.n_u, 2)
    assert univariates == [] and not ech.inconsistent


def test_xl_round_chain15_univariates_at_degree_two():
    # the 15-site chain with every parameter set to 1 already yields
    # univariate rows after one degree-2 elimination pass
    ansatz = LiouvillianAnsatz.xxz_chain(15)
    target = ansatz.forward_ldl(
        np.ones(ansatz.num_h), np.ones(ansatz.num_jumps)
    )
    system = build_mq_system(ansatz, target)
    _, ech, univariates = xl_round(system.equations, system.n_u, 2)
    assert not ech.inconsistent
    assert len(univariates) > 0


def test_extension_soundness():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.4], [0.9])
    system = build_mq_system(ansatz, target)
    truth = np.array([0.4, 0.9, np.sqrt(0.9)])
    extended = extend_equations(system.equations, system.n_u, 3)
    assert len(extended) == len(system.equations) * (1 + system.n_u)
    for eq in extended:
        total = sum(c * np.prod([truth[i] for i in m]) for m, c in eq.items())
        assert abs(total) < 1e-10


def test_xl_round_rejects_low_degree():
    system = QuadraticSystem(["x"], ["h"], [{(0, 0): 1.0, (): -1.0}])
    with pytest.raises(ValidationError):
        xl_round(system.equations, system.n_u, 1)


# -- solving ------------------------------------------------------------------


def test_xl_solve_one_site_recovery():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3])
    solution = xl_solve(build_mq_system(ansatz, target))
    h, lam = recovered_params(ansatz, solution)
    assert abs(h[0] - 0.7) < 1e-8 and abs(lam[0] - 0.3) < 1e-8
    assert solution.report.residual < 1e-8
    assert verify_solution(ansatz, solution.assignment, target) < 1e-8


def test_xl_solve_inconsistent_system():
    system = QuadraticSystem(
        ["x"], ["h"], [{(0, 0): 1.0, (): -1.0}, {(0, 0): 1.0, (): -2.0}]
    )
    with pytest.raises(UnsolvableError):
        xl_solve(system)


def test_xl_solve_budget_exceeded(monkeypatch):
    monkeypatch.setattr("lgw.xl.NODE_BUDGET", 1)
    system = QuadraticSystem(["x"], ["h"], [{(0, 0): 1.0, (): -1.0}])
    with pytest.raises(BudgetExceededError) as err:
        xl_solve(system)
    assert hasattr(err.value, "partial_assignment")


def test_xl_solve_branches_on_sign_ambiguity():
    # x^2 = 1 with a second equation selecting the negative root
    system = QuadraticSystem(
        ["x", "y"],
        ["h", "h"],
        [
            {(0, 0): 1.0, (): -1.0},
            {(1, 1): 1.0, (): -4.0},
            {(0, 1): 1.0, (): 2.0},
        ],
    )
    solution = xl_solve(system)
    x, y = solution.assignment["x"], solution.assignment["y"]
    assert abs(x * y + 2.0) < 1e-9 and abs(x ** 2 - 1.0) < 1e-9


def test_xl_solve_eliminates_each_distinct_equation_once(monkeypatch):
    rng = np.random.default_rng(403)
    ansatz = LiouvillianAnsatz.xxz_chain(6)
    target = ansatz.forward_ldl(rng.uniform(0, 1, ansatz.num_h),
                                rng.uniform(0, 1, ansatz.num_jumps))
    system = build_mq_system(ansatz, target)
    repeated = QuadraticSystem(system.var_names, system.var_roles,
                               [dict(eq) for eq in system.equations for _ in range(2)])
    distinct = len({tuple(eq.items()) for eq in system.equations})
    assert distinct < system.n_e           # the chain repeats equations
    seen = []
    real_linearize = linearize

    def counting_linearize(equations, nv, d):
        seen.append(len(equations))
        return real_linearize(equations, nv, d)

    monkeypatch.setattr("lgw.xl.linearize", counting_linearize)
    solution, again = xl_solve(system), xl_solve(repeated)
    # the root round sees each distinct equation once, either way
    assert seen[0] == seen[len(seen) // 2] == distinct
    assert solution.assignment == again.assignment
    one, two = solution.report, again.report
    assert (one.rounds, one.d_used, one.nodes) == (two.rounds, two.d_used, two.nodes)
    assert (one.n_e, two.n_e) == (system.n_e, 2 * system.n_e)
    assert one.matrix_density == two.matrix_density
    # the density counts every equation, repeats included
    assert one.d_used == 2
    lin = real_linearize(system.equations, system.n_u, 2)
    assert one.matrix_density == lin.density([1] * system.n_e)


def test_xxz_recovery_small():
    rng = np.random.default_rng(60)
    for sites in (5, 6):
        ansatz = LiouvillianAnsatz.xxz_chain(sites)
        h = rng.uniform(0, 1, ansatz.num_h)
        lam = rng.uniform(0, 1, ansatz.num_jumps)
        target = ansatz.forward_ldl(h, lam)
        solution = xl_solve(build_mq_system(ansatz, target))
        rec_h, rec_lam = recovered_params(ansatz, solution)
        assert np.abs(rec_h - h).max() < 1e-6
        assert np.abs(rec_lam - lam).max() < 1e-6
        assert verify_solution(ansatz, solution.assignment, target) < 1e-8


def test_verify_solution_sensitivity():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.7], [0.3])
    good = {"h_0": 0.7, "lam_0": 0.3, "w_0": np.sqrt(0.3)}
    assert verify_solution(ansatz, good, target) < 1e-8
    bumped = {"h_0": 0.7, "lam_0": 0.4, "w_0": np.sqrt(0.4)}
    assert verify_solution(ansatz, bumped, target) > 1e-3
    assert verify_solution(ansatz, {"h_0": 0.0, "lam_0": 0.0, "w_0": 0.0},
                           PauliSum.zero(2)) == 0.0
    with pytest.raises(ValidationError):
        verify_solution(ansatz, {"h_0": 0.0, "lam_0": -0.5}, target)


def test_density_decreases_with_chain_length():
    densities = []
    rng = np.random.default_rng(61)
    for sites in (5, 7, 9):
        ansatz = LiouvillianAnsatz.xxz_chain(sites)
        target = ansatz.forward_ldl(
            rng.uniform(0, 1, ansatz.num_h), rng.uniform(0, 1, ansatz.num_jumps)
        )
        solution = xl_solve(build_mq_system(ansatz, target))
        densities.append(solution.report.matrix_density)
    assert densities[0] > densities[1] > densities[2]


def test_solver_report_fields():
    ansatz = one_site_ansatz()
    target = ansatz.forward_ldl([0.2], [0.5])
    solution = xl_solve(build_mq_system(ansatz, target))
    data = solution.report.to_json_dict()
    for key in ("n_e", "n_u", "d_used", "rounds", "residual",
                "wall_time_ms", "matrix_density"):
        assert key in data


# -- elimination oracle -------------------------------------------------------


def _root_sets(ech, roles):
    """Per variable, the roots the solver would take from an echelon form."""
    by_var = {}
    for var, coeffs in _extract_univariates(ech):
        by_var.setdefault(var, []).append(coeffs)
    return {
        var: _filter_by_all(_acceptable_roots(polys[0], roles[var]), polys[1:])
        for var, polys in by_var.items()
    }


EXACT_COLUMN_CAP = 200              # rational elimination stays small


def _eliminate_exact(lin: LinearizedSystem) -> LinearizedSystem:
    """Rational-arithmetic elimination, the oracle ``eliminate`` is
    tested against; small column spaces only."""
    cols = len(lin.col_monomials)
    if cols > EXACT_COLUMN_CAP:
        raise CapacityError(
            f"exact elimination is capped at {EXACT_COLUMN_CAP} columns, "
            f"got {cols}"
        )
    rows = [
        {j: Fraction(v).limit_denominator(10 ** 15) for j, v in row.items()}
        for row in lin.rows
    ]
    rhs = [Fraction(v).limit_denominator(10 ** 15) for v in lin.rhs]
    pivoted: set[int] = set()
    for c in range(cols):
        cand = [i for i in range(len(rows)) if i not in pivoted and rows[i].get(c)]
        if not cand:
            continue
        p = max(cand, key=lambda i: (abs(rows[i][c]), -i))
        pval = rows[p][c]
        rows[p] = {j: v / pval for j, v in rows[p].items()}
        rhs[p] /= pval
        pivoted.add(p)
        for i in range(len(rows)):
            if i == p:
                continue
            factor = rows[i].get(c)
            if not factor:
                continue
            for j, v in rows[p].items():
                new = rows[i].get(j, Fraction(0)) - factor * v
                if new:
                    rows[i][j] = new
                elif j in rows[i]:
                    del rows[i][j]
            rhs[i] -= factor * rhs[p]
    out_rows, out_rhs, inconsistent = [], [], False
    for row, b in zip(rows, rhs):
        if not row:
            if abs(float(b)) > INFEASIBLE_TOL:
                inconsistent = True
            continue
        out_rows.append({j: float(v) for j, v in row.items()})
        out_rhs.append(float(b))
    return LinearizedSystem(lin.col_monomials, out_rows, out_rhs, inconsistent)


def test_float_elimination_matches_exact_oracle():
    rng = np.random.default_rng(63)
    for sites in (2, 3, 4):
        ansatz = LiouvillianAnsatz.xxz_chain(sites)
        h = rng.uniform(0, 1, ansatz.num_h)
        lam = rng.uniform(0, 1, ansatz.num_jumps)
        system = build_mq_system(ansatz, ansatz.forward_ldl(h, lam))
        truth = np.concatenate([h, lam, np.sqrt(lam)])
        lin = linearize(system.equations, system.n_u, 2)
        ech, oracle = eliminate(lin), _eliminate_exact(lin)
        assert len(ech.rows) == len(oracle.rows)
        assert not ech.inconsistent and not oracle.inconsistent
        roots = _root_sets(ech, system.var_roles)
        oracle_roots = _root_sets(oracle, system.var_roles)
        assert roots and roots.keys() == oracle_roots.keys()
        for var, found in roots.items():
            assert len(found) == len(oracle_roots[var])
            assert np.allclose(found, oracle_roots[var], rtol=0, atol=1e-8)
        for out in (ech, oracle):
            for row, rhs in zip(out.rows, out.rhs):
                val = sum(
                    c * np.prod(truth[list(out.col_monomials[j])])
                    for j, c in row.items()
                )
                assert abs(val - rhs) < 1e-8


def test_exact_rational_elimination_mode():
    ansatz = one_site_ansatz()
    system = build_mq_system(ansatz, ansatz.forward_ldl([0.7], [0.3]))
    lin = linearize(system.equations, system.n_u, 2)
    oracle = _eliminate_exact(lin)
    assert len(oracle.rows) == len(eliminate(lin).rows)
    roots = _root_sets(oracle, system.var_roles)
    assert np.allclose(np.abs(roots[0]), 0.7, rtol=0, atol=1e-8)
    assert np.allclose(roots[1], 0.3, rtol=0, atol=1e-8)

    # the rational oracle is for small column spaces only
    big = LiouvillianAnsatz.xxz_chain(9)
    rng = np.random.default_rng(70)
    big_target = big.forward_ldl(
        rng.uniform(0, 1, big.num_h), rng.uniform(0, 1, big.num_jumps)
    )
    big_system = build_mq_system(big, big_target)
    big_lin = linearize(big_system.equations, big_system.n_u, 2)
    assert len(big_lin.col_monomials) > EXACT_COLUMN_CAP
    with pytest.raises(CapacityError):
        _eliminate_exact(big_lin)
