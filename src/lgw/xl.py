"""Inverse problem: recover a generator from a target squared form.

Given a structured generator ansatz (Hermitian terms with unknown real
coefficients, jump channels with unknown non-negative rates), the
vectorized generator L_P is a 2n-qubit Pauli sum linear in the
unknowns, so every Pauli coefficient of the squared generator
L_P^dag L_P is a degree-<=2 polynomial in them, read off from numeric
products of the per-unknown parts of L_P.  Coefficient matching against
a target produces an over-defined multivariate quadratic system, made
rate-safe by slack roots w_i with w_i^2 = lambda_i.  The system is
solved by extension / linearization / sparse Gaussian elimination with
univariate extraction and depth-first back-substitution.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    DimensionError,
    StructuralRejectionError,
    UnsolvableError,
    ValidationError,
    WorkbenchError,
)
from .lindblad import exchange_symmetry_defect, pauli_liouvillian
from .pauli import (
    PauliSum,
    dagger_products,
    key_letters,
    pruned_sums,
    word_ids,
)
from .tolerances import (
    COEFF_PRUNE_TOL,
    EXCHANGE_PAIRING_TOL,
    EXPANSION_IMAG_TOL,
    INFEASIBLE_TOL,
    NEGATIVE_RATE_TOL,
    PIVOT_RTOL,
    RESIDUAL_TOL,
    ROOT_DEDUPE_RTOL,
    ROOT_FILTER_RTOL,
    ROOT_IMAG_TOL,
    SUBST_PRUNE_TOL,
    TARGET_HERMITICITY_TOL,
    ZERO_FLOOR,
)

Monomial = tuple[int, ...]          # sorted variable indices, () = constant

NODE_BUDGET = 10_000                # search nodes before BudgetExceededError


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(sorted(a + b))


# -- counting ------------------------------------------------------------------


def count_terms(n: int, k: int, m: int) -> int:
    """Number of words on n sites touching at most k of them, with m
    choices per touched site: sum_l C(n,l) m^l."""
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    if m < 1:
        raise ValidationError("m must be at least 1")
    return sum(math.comb(n, l) * m ** l for l in range(k + 1))


def overdefined_ratio_at(n: int, k: int) -> float:
    """N_e / N_u^2 for the full k-local family at doubled size n."""
    half_jump = count_terms(n // 2, k // 2, 5)
    n_e = count_terms(n, k, 3) / 2 + half_jump
    n_u = 2 * half_jump + count_terms(n // 2, k // 2, 3)
    return n_e / n_u ** 2


def asymptotic_ratio(k: int) -> float:
    """Large-n limit of the over-defined ratio, by polynomial-in-1/n
    extrapolation over n = N/4, N/2 and N, with N = max(4096, 4k)."""
    if k < 2 or k % 2:
        raise ValidationError("locality k must be even and at least 2")
    base = max(4 * k, 4096)
    ns = [base // 4, base // 2, base]
    hs = [1.0 / n for n in ns]
    vals = [overdefined_ratio_at(n, k) for n in ns]
    # Neville's scheme evaluated at h = 0
    for level in range(1, len(ns)):
        for i in range(len(ns) - level):
            vals[i] = (
                hs[i + level] * vals[i] - hs[i] * vals[i + 1]
            ) / (hs[i + level] - hs[i])
    return vals[0]


# -- ansatz --------------------------------------------------------------------


def site_channel(n: int, site: int, kind: str) -> PauliSum:
    def on_site(letter: str) -> str:
        return "I" * site + letter + "I" * (n - 1 - site)

    # built from the words as given: the raising channel's -0.5j has real
    # part -0.0, which from_letter_terms would sum to +0.0
    if kind in ("X", "Y", "Z"):
        return PauliSum._from_words(n, {on_site(kind): 1.0})
    if kind == "+":      # |1><0| = (X - iY)/2
        return PauliSum._from_words(n, {on_site("X"): 0.5, on_site("Y"): -0.5j})
    if kind == "-":      # |0><1| = (X + iY)/2
        return PauliSum._from_words(n, {on_site("X"): 0.5, on_site("Y"): 0.5j})
    raise ValidationError(f"unknown channel kind {kind!r}")


@dataclass(frozen=True)
class LiouvillianAnsatz:
    """Generator structure with unknown Hamiltonian weights and rates.

    ``hamiltonian_ops`` are Hermitian patterns sharing one unknown real
    coefficient each; ``jump_ops`` are fixed channel operators with one
    unknown non-negative rate each.  ``locality`` records the Pauli
    weight bound k of the squared generator this family targets.
    """

    n: int
    hamiltonian_ops: tuple[PauliSum, ...]
    jump_ops: tuple[PauliSum, ...]
    locality: int

    def __post_init__(self):
        bound = max(1, self.locality // 2)
        for op in (*self.hamiltonian_ops, *self.jump_ops):
            if op.n != self.n:
                raise DimensionError("ansatz operator width differs from n")
            if op.max_weight() > bound:
                raise ValidationError(
                    f"ansatz operator exceeds declared locality {self.locality}"
                )
        for op in self.hamiltonian_ops:
            if not op.is_hermitian():
                raise ValidationError("Hamiltonian patterns must be Hermitian")

    @property
    def num_h(self) -> int:
        return len(self.hamiltonian_ops)

    @property
    def num_jumps(self) -> int:
        return len(self.jump_ops)

    def var_names(self) -> list[str]:
        return (
            [f"h_{i}" for i in range(self.num_h)]
            + [f"lam_{i}" for i in range(self.num_jumps)]
            + [f"w_{i}" for i in range(self.num_jumps)]
        )

    def var_roles(self) -> list[str]:
        return ["h"] * self.num_h + ["lambda"] * self.num_jumps + [
            "w"
        ] * self.num_jumps

    @classmethod
    def xxz_chain(cls, sites: int) -> "LiouvillianAnsatz":
        """Open 1-D chain: per bond one ZZ weight and one shared XX+YY
        weight; per site one raising channel with unknown rate."""
        if sites < 2:
            raise ValidationError("chain needs at least 2 sites")
        ham = []
        for b in range(sites - 1):
            left, right = "I" * b, "I" * (sites - 2 - b)
            ham.append(PauliSum._from_words(sites, {left + "ZZ" + right: 1.0}))
            ham.append(PauliSum._from_words(
                sites, {left + "XX" + right: 1.0, left + "YY" + right: 1.0}))
        jumps = [site_channel(sites, i, "+") for i in range(sites)]
        return cls(sites, tuple(ham), tuple(jumps), locality=4)

    @classmethod
    def full_local_family(cls, n: int, k: int) -> "LiouvillianAnsatz":
        """Every Hamiltonian word of weight <= k/2 and every {X,Y,Z,+,-}
        channel word of weight <= k/2, identity included; the unknown
        count then matches the closed-form family size."""
        if k < 2 or k % 2:
            raise ValidationError("locality k must be even and at least 2")
        half = k // 2
        ham = [PauliSum.identity(n)]
        jumps = [PauliSum.identity(n)]
        for l in range(1, half + 1):
            for sites in itertools.combinations(range(n), l):
                for letters in itertools.product("XYZ", repeat=l):
                    word = "".join(letters[sites.index(q)] if q in sites else "I"
                                   for q in range(n))
                    ham.append(PauliSum._from_words(n, {word: 1.0}))
                for kinds in itertools.product("XYZ+-", repeat=l):
                    op = PauliSum.identity(n)
                    for site, kind in zip(sites, kinds):
                        op = op @ site_channel(n, site, kind)
                    jumps.append(op)
        return cls(n, tuple(ham), tuple(jumps), locality=k)

    # -- numeric instantiation ------------------------------------------

    def instantiate(self, h_values, rates) -> tuple[PauliSum, list]:
        if len(h_values) != self.num_h or len(rates) != self.num_jumps:
            raise ValidationError("assignment length does not match ansatz")
        ham = PauliSum.zero(self.n)
        for coeff, op in zip(h_values, self.hamiltonian_ops):
            ham = ham + op * float(coeff)
        return ham, [(float(r), op) for r, op in zip(rates, self.jump_ops)]

    def forward_ldl(self, h_values, rates) -> PauliSum:
        """Squared generator L_P^dag L_P of a concrete parameter
        assignment, by Pauli algebra (no dense matrices, any size)."""
        ham, jumps = self.instantiate(h_values, rates)
        lp = pauli_liouvillian(self.n, ham, jumps)
        return lp.dagger() @ lp

    def split_assignment(self, assignment: dict) -> tuple[list[float], list[float]]:
        """(h values, rates) out of a name-keyed assignment, with rates
        taken from the slack roots (lambda_i = w_i^2)."""
        h_values = [float(assignment[f"h_{i}"]) for i in range(self.num_h)]
        rates = []
        for i in range(self.num_jumps):
            w = assignment.get(f"w_{i}")
            if w is not None:
                rates.append(float(w) ** 2)
            else:
                rates.append(float(assignment[f"lam_{i}"]))
        return h_values, rates


# -- systems -------------------------------------------------------------------


@dataclass
class QuadraticSystem:
    """Sparse degree-<=2 polynomial equations over named real unknowns."""

    var_names: list[str]
    var_roles: list[str]
    equations: list[dict[Monomial, float]]

    def __post_init__(self):
        if len(self.var_names) != len(self.var_roles):
            raise ValidationError("names and roles length mismatch")
        for eq in self.equations:
            if not eq:
                raise ValidationError("empty equation")
            if max(len(m) for m in eq) > 2:
                raise ValidationError("equation degree exceeds 2")

    @property
    def n_u(self) -> int:
        return len(self.var_names)

    @property
    def n_e(self) -> int:
        return len(self.equations)

    def residuals(self, values) -> np.ndarray:
        out = np.empty(len(self.equations))
        for i, eq in enumerate(self.equations):
            total = 0.0
            for mono, coeff in eq.items():
                term = coeff
                for idx in mono:
                    term *= values[idx]
                total += term
            out[i] = total
        return out


def build_mq_system(
    ansatz: LiouvillianAnsatz, target: PauliSum, include_ground_energy: bool = True
) -> QuadraticSystem:
    """Match the ansatz's squared generator L_P^dag L_P against a target,
    word by word.

    Every Pauli coefficient of L_P^dag L_P is a degree-<=2 polynomial
    in the unknowns; each target word contributes one real equation.
    Rate non-negativity enters through slack equations w_i^2 = lambda_i.
    With ``include_ground_energy`` false the identity-word equation is
    dropped, which removes the dependence on the target's energy offset.
    """
    if target.n != 2 * ansatz.n:
        raise DimensionError(
            f"target on {target.n} qubits does not double the {ansatz.n}-qubit ansatz"
        )
    herm = target.hermiticity_defect()
    if herm > TARGET_HERMITICITY_TOL:
        raise StructuralRejectionError(
            f"target is not Hermitian (imaginary weight {herm:.3e})"
        )
    defect = exchange_symmetry_defect(target)
    if defect > EXCHANGE_PAIRING_TOL:
        raise StructuralRejectionError(
            f"target violates the exchange-conjugation pairing by {defect:.3e}; "
            f"no generator squares to it"
        )

    # L is linear in the unknowns, L = sum_j theta_j L_j, so the
    # coefficient of theta_j theta_k in L^dag L is L_j^dag L_k + L_k^dag L_j
    # (j < k) or L_j^dag L_j (j = k), word by word
    nh, nj = ansatz.num_h, ansatz.num_jumps
    parts = [pauli_liouvillian(ansatz.n, op, []) for op in ansatz.hamiltonian_ops]
    zero = PauliSum.zero(ansatz.n)
    parts += [pauli_liouvillian(ansatz.n, zero, [(1.0, op)]) for op in ansatz.jump_ops]
    # Hamiltonian pairs, then mixed, then jump pairs: the order in which
    # monomials enter an equation fixes the float summation order of
    # ``QuadraticSystem.residuals`` and ``_substitute``
    pairs = sorted(
        itertools.combinations_with_replacement(range(len(parts)), 2),
        key=lambda jk: (jk[0] >= nh) + (jk[1] >= nh),
    )
    # directed products: L_j^dag L_k for every pair, then L_k^dag L_j for
    # j < k; ``owner`` is the pair each one adds into
    mixed = [p for p, (j, k) in enumerate(pairs) if j != k]
    owner = np.array([*range(len(pairs)), *mixed], dtype=np.int64)
    left, right = np.array([*pairs, *(pairs[p][::-1] for p in mixed)],
                           dtype=np.int64).reshape(-1, 2).T
    directed, keys, re, im = dagger_products(parts, left, right)
    word, word_keys, _ = word_ids(np.concatenate([keys, target.word_keys]))
    tgt = np.zeros(len(word_keys))
    tgt[word[len(keys):]] = target.coeffs.real
    # each directed product summed word by word in product order and
    # pruned, then each pair's two products added, L_j^dag L_k first, and
    # pruned again, as PauliSum.__matmul__ and __add__ do; the entries come
    # out ordered by word, then by pair
    directed, word, re, im = pruned_sums(directed, word[:len(keys)],
                                         len(word_keys), re, im)
    word, pair, re, im = pruned_sums(word, owner[directed], len(pairs), re, im)
    if not include_ground_energy and len(word_keys) and not word_keys[0].any():
        # the identity word has the all-zero key, so it is word 0
        kept = word != 0
        word, pair, re, im = word[kept], pair[kept], re[kept], im[kept]
        tgt[0] = 0.0
    bad = np.abs(im) > EXPANSION_IMAG_TOL
    if bad.any():
        first = word[bad][0]
        raise WorkbenchError(
            f"expansion coefficient of {key_letters(word_keys[[first]], target.n)[0]} "
            f"has imaginary part {np.abs(im[word == first]).max():.3e}"
        )

    # one equation per word with a monomial or a constant left after
    # pruning, monomials in pair order and the constant last
    kept = np.abs(re) >= COEFF_PRUNE_TOL
    word, re = word[kept], re[kept].tolist()
    monos = [pairs[p] for p in pair[kept].tolist()]
    const = np.where(np.abs(tgt) >= COEFF_PRUNE_TOL, -tgt, 0.0)
    # the rows by a presence mask: np.union1d would load numpy.ma
    present = const != 0
    present[word] = True
    rows = np.flatnonzero(present)
    equations: list[dict[Monomial, float]] = []
    for lo, hi, c in zip(np.searchsorted(word, rows, "left").tolist(),
                         np.searchsorted(word, rows, "right").tolist(),
                         const[rows].tolist()):
        eq = dict(zip(monos[lo:hi], re[lo:hi]))
        if c:
            eq[()] = c
        equations.append(eq)
    for i in range(nj):
        equations.append({(nh + nj + i, nh + nj + i): 1.0, (nh + i,): -1.0})

    return QuadraticSystem(
        var_names=ansatz.var_names(),
        var_roles=ansatz.var_roles(),
        equations=equations,
    )


# -- extension / linearization / elimination -----------------------------------


def monomials_up_to(nv: int, d: int) -> list[Monomial]:
    """All monomials over nv variables with 1 <= degree <= d, graded
    (highest degree first) and lexicographic within a degree."""
    out: list[Monomial] = []
    for deg in range(d, 0, -1):
        out.extend(itertools.combinations_with_replacement(range(nv), deg))
    return out


@dataclass
class LinearizedSystem:
    """Monomial-indexed linear system: rows over the monomial columns
    plus a separate right-hand side."""

    col_monomials: list[Monomial]
    rows: list[dict[int, float]]
    rhs: list[float]
    inconsistent: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.col_monomials)

    def density(self, copies: list[int]) -> float:
        """Nonzero share of the matrix in which row i stands ``copies[i]``
        times."""
        rows, cols = sum(copies), len(self.col_monomials)
        if rows == 0 or cols == 0:
            return 0.0
        return sum(c * len(r) for c, r in zip(copies, self.rows)) / (rows * cols)


def extend_equations(
    equations: list[dict[Monomial, float]], nv: int, d: int
) -> list[dict[Monomial, float]]:
    """Multiply every equation by every monomial of degree <= d-2."""
    if d < 2:
        raise ValidationError("extension degree must be at least 2")
    multipliers: list[Monomial] = [()]
    for deg in range(1, d - 1):
        multipliers.extend(itertools.combinations_with_replacement(range(nv), deg))
    out = []
    for eq in equations:
        for g in multipliers:
            if g == ():
                out.append(dict(eq))
            else:
                out.append({mono_mul(m, g): c for m, c in eq.items()})
    return out


def linearize(
    equations: list[dict[Monomial, float]], nv: int, d: int
) -> LinearizedSystem:
    cols = monomials_up_to(nv, d)
    index = {m: j for j, m in enumerate(cols)}
    rows, rhs = [], []
    for eq in equations:
        row: dict[int, float] = {}
        const = 0.0
        for mono, coeff in eq.items():
            if mono == ():
                const += coeff
            else:
                row[index[mono]] = row.get(index[mono], 0.0) + coeff
        rows.append(row)
        rhs.append(-const)
    return LinearizedSystem(cols, rows, rhs)


def eliminate(lin: LinearizedSystem) -> LinearizedSystem:
    """Sparse Gauss-Jordan reduction with column-ordered pivots: each
    column pivots on its largest entry among the rows not yet pivoted."""
    rows = [dict(r) for r in lin.rows]
    rhs = list(lin.rhs)
    cols = len(lin.col_monomials)
    members: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            members[j].add(i)
    active = [bool(r) or abs(b) > INFEASIBLE_TOL for r, b in zip(rows, rhs)]
    pivoted: set[int] = set()

    def clean_row(i: int) -> None:
        row = rows[i]
        if not row:
            return
        mx = max(abs(v) for v in row.values())
        drop = [j for j, v in row.items() if abs(v) < PIVOT_RTOL * mx]
        for j in drop:
            del row[j]
            members[j].discard(i)

    for i in range(len(rows)):
        clean_row(i)
    for c in range(cols):
        cand = [i for i in members[c] if active[i] and i not in pivoted]
        if not cand:
            continue
        p = max(cand, key=lambda i: (abs(rows[i].get(c, 0.0)), -i))
        pval = rows[p][c]
        for j in list(rows[p]):
            rows[p][j] /= pval
        rhs[p] /= pval
        pivoted.add(p)
        for i in list(members[c]):
            if i == p or not active[i]:
                continue
            factor = rows[i].get(c)
            if factor is None:
                continue
            for j, v in rows[p].items():
                new = rows[i].get(j, 0.0) - factor * v
                if abs(new) < ZERO_FLOOR:
                    if j in rows[i]:
                        del rows[i][j]
                        members[j].discard(i)
                else:
                    rows[i][j] = new
                    members[j].add(i)
            rhs[i] -= factor * rhs[p]
            clean_row(i)
            if not rows[i] and abs(rhs[i]) <= INFEASIBLE_TOL:
                active[i] = False

    out_rows, out_rhs, inconsistent = [], [], False
    for i, row in enumerate(rows):
        if not active[i]:
            continue
        if not row:
            if abs(rhs[i]) > INFEASIBLE_TOL:
                inconsistent = True
            continue
        out_rows.append(dict(row))
        out_rhs.append(rhs[i])
    return LinearizedSystem(lin.col_monomials, out_rows, out_rhs, inconsistent)


def _extract_univariates(
    ech: LinearizedSystem,
) -> list[tuple[int, np.ndarray]]:
    """Rows whose support involves a single variable, as ascending
    coefficient arrays p with p(x) = 0."""
    out = []
    for row, b in zip(ech.rows, ech.rhs):
        vars_seen: set[int] = set()
        max_deg = 0
        for j in row:
            mono = ech.col_monomials[j]
            vars_seen.update(mono)
            max_deg = max(max_deg, len(mono))
        if len(vars_seen) != 1:
            continue
        var = vars_seen.pop()
        coeffs = np.zeros(max_deg + 1)
        coeffs[0] = -b
        for j, v in row.items():
            coeffs[len(ech.col_monomials[j])] += v
        out.append((var, coeffs))
    return out


def xl_round(
    equations: list[dict[Monomial, float]], nv: int, d: int
) -> tuple[LinearizedSystem, LinearizedSystem, list[tuple[int, np.ndarray]]]:
    """One extension + linearization + elimination pass over equations
    in nv variables.

    Returns the linearized extension, its echelon form, and the
    univariate rows found; a consistent echelon form without univariate
    rows asks for a larger extension degree.
    """
    if d < 2:
        raise ValidationError("extension degree must be at least 2")
    extended = extend_equations(equations, nv, d)
    lin = linearize(extended, nv, d)
    ech = eliminate(lin)
    return lin, ech, _extract_univariates(ech)


# -- the solve loop --------------------------------------------------------------


def _acceptable_roots(coeffs: np.ndarray, role: str) -> list[float]:
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0.0:
        deg -= 1
    if deg == 0:
        return []
    scale = np.abs(coeffs[: deg + 1]).max()
    roots = np.roots(coeffs[deg::-1] / scale)
    out: list[float] = []
    for root in roots:
        if abs(root.imag) > ROOT_IMAG_TOL * max(1.0, abs(root)):
            continue
        x = float(root.real)
        if role == "w":
            x = abs(x)               # slack roots carry a free sign; fix >= 0
        elif role == "lambda":
            if x < -NEGATIVE_RATE_TOL:
                continue
            x = max(x, 0.0)
        if not any(abs(x - y) <= ROOT_DEDUPE_RTOL * (1.0 + abs(x)) for y in out):
            out.append(x)
    return sorted(out)


def _filter_by_all(
    roots: list[float], polys: list[np.ndarray]
) -> list[float]:
    out = []
    for x in roots:
        ok = True
        for coeffs in polys:
            scale = np.abs(coeffs).max() or 1.0
            bound = ROOT_FILTER_RTOL * scale * max(1.0, abs(x)) ** (len(coeffs) - 1)
            if abs(np.polyval(coeffs[::-1], x)) > bound:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def _closing_residual(equations, var: int, root: float) -> float:
    """Total residual left in the equations a root fully determines."""
    total = 0.0
    for eq in equations:
        if any(idx != var for mono in eq for idx in mono):
            continue
        total += abs(sum(c * root ** len(m) for m, c in eq.items()))
    return total


def _substitute(
    equations: list[dict[Monomial, float]], values: dict[int, float]
) -> tuple[list[dict[Monomial, float]], bool]:
    """Partial-evaluate; returns (reduced equations, feasible)."""
    out = []
    for eq in equations:
        new: dict[Monomial, float] = {}
        for mono, coeff in eq.items():
            c = coeff
            kept = []
            for idx in mono:
                if idx in values:
                    c *= values[idx]
                else:
                    kept.append(idx)
            if abs(c) < COEFF_PRUNE_TOL:
                continue
            key = tuple(kept)
            new[key] = new.get(key, 0.0) + c
        new = {m: c for m, c in new.items() if abs(c) >= COEFF_PRUNE_TOL}
        if not new:
            continue
        if set(new) == {()}:
            if abs(new[()]) > SUBST_PRUNE_TOL:
                return [], False
            continue
        out.append(new)
    return out, True


@dataclass
class XlReport:
    n_e: int
    n_u: int
    d_used: int
    rounds: int
    nodes: int
    residual: float
    wall_time_ms: float
    matrix_density: float

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class XlSolution:
    assignment: dict[str, float]
    report: XlReport


def xl_solve(system: QuadraticSystem, d_max: int = 4) -> XlSolution:
    """Solve an over-defined quadratic system by repeated rounds of
    extension, elimination and univariate back-substitution.

    Univariate rows with a single acceptable real root are substituted
    in bulk; multi-root rows open a depth-first branch ordered by the
    residual each root leaves behind.  Branches die on inconsistent
    rows, on residuals above the prune threshold, or when no univariate
    appears up to ``d_max``.  A returned assignment always satisfies the
    original equations to ``RESIDUAL_TOL`` with rates fixed to w_i^2.
    """
    if d_max < 2:
        raise ValidationError("d_max must be at least 2")
    t0 = time.perf_counter()
    nv = system.n_u
    roles = system.var_roles
    name_index = {name: i for i, name in enumerate(system.var_names)}
    slack_of = {
        i: name_index.get("lam_" + system.var_names[i].split("_", 1)[1])
        for i, role in enumerate(roles)
        if role == "w"
    }
    # repeated equations add nothing to an elimination: the search runs on
    # the distinct ones, first occurrences in order, and the density
    # counts each with its multiplicity, as over all n_e equations
    multiplicity = Counter(tuple(eq.items()) for eq in system.equations)
    first_density = None
    rounds = 0
    nodes = 0
    d_seen = 2
    stack: list[tuple[list[dict[Monomial, float]], dict[int, float]]] = [
        ([dict(items) for items in multiplicity], {})
    ]
    deepest: dict[int, float] = {}

    while stack:
        nodes += 1
        if nodes > NODE_BUDGET:
            raise BudgetExceededError(
                f"node budget {NODE_BUDGET} exhausted",
                partial_assignment={
                    system.var_names[i]: v for i, v in deepest.items()
                },
            )
        equations, assign = stack.pop()
        if len(assign) > len(deepest):
            deepest = assign
        while True:
            if not equations:
                values = np.zeros(nv)
                for i, v in assign.items():
                    values[i] = v
                # rates follow their slack roots exactly
                for w_index, lam_index in slack_of.items():
                    if lam_index is not None:
                        values[lam_index] = values[w_index] ** 2
                residual = float(np.abs(system.residuals(values)).max())
                if residual <= RESIDUAL_TOL:
                    report = XlReport(
                        n_e=system.n_e,
                        n_u=nv,
                        d_used=d_seen,
                        rounds=rounds,
                        nodes=nodes,
                        residual=residual,
                        wall_time_ms=(time.perf_counter() - t0) * 1e3,
                        matrix_density=first_density or 0.0,
                    )
                    assignment = {
                        name: float(values[i])
                        for i, name in enumerate(system.var_names)
                    }
                    return XlSolution(assignment, report)
                break
            for d in range(2, d_max + 1):
                rounds += 1
                lin, ech, univariates = xl_round(equations, nv, d)
                if not univariates and not ech.inconsistent:
                    continue
                if first_density is None:
                    # only the root gets here: every deeper node follows a
                    # round that set the density
                    per_equation = len(lin.rows) // len(equations)
                    first_density = lin.density([
                        m for m in multiplicity.values() for _ in range(per_equation)
                    ])
                break
            if ech.inconsistent or not univariates:
                break
            d_seen = max(d_seen, d)
            by_var: dict[int, list[np.ndarray]] = {}
            for var, coeffs in univariates:
                by_var.setdefault(var, []).append(coeffs)
            root_sets: dict[int, list[float]] = {}
            for var, polys in by_var.items():
                roots = _acceptable_roots(polys[0], roles[var])
                if len(polys) > 1:
                    roots = _filter_by_all(roots, polys[1:])
                root_sets[var] = roots
            if any(not r for r in root_sets.values()):
                break
            singles = {v: r[0] for v, r in root_sets.items() if len(r) == 1}
            if singles:
                equations, feasible = _substitute(equations, singles)
                if not feasible:
                    break
                assign = {**assign, **singles}
                continue
            # every univariate is ambiguous: branch on the smallest root set
            var = min(root_sets, key=lambda v: (len(root_sets[v]), v))
            children = []
            for root in root_sets[var]:
                child_eqs, feasible = _substitute(equations, {var: root})
                if not feasible:
                    continue
                closing = _closing_residual(equations, var, root)
                children.append((closing, root, child_eqs))
            if not children:
                break
            children.sort(key=lambda t: -t[0])   # best (smallest residual) on top
            for closing, root, child_eqs in children:
                stack.append((child_eqs, {**assign, var: root}))
            break

    raise UnsolvableError(
        f"no consistent assignment found up to extension degree {d_max}"
    )


def verify_solution(
    ansatz: LiouvillianAnsatz, assignment: dict[str, float], target: PauliSum
) -> float:
    """Max coefficient residual between the squared generator of the
    assignment and the target."""
    h_values, rates = ansatz.split_assignment(assignment)
    for i, rate in enumerate(rates):
        if rate < 0:
            raise ValidationError(f"rate lam_{i} = {rate} is negative")
    rebuilt = ansatz.forward_ldl(h_values, rates)
    return rebuilt.max_coeff_diff(target)

