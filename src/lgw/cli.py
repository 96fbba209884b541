"""Command-line front door: spec files in, reproduction artifacts out.

Subcommands: pipeline (inverse-solve a target, evolve to steadiness,
measure), xl-bench (solver scaling sweep), verify (structural property
checks), steady, measure and encode-circuit.  All artifacts are written
atomically and are byte-reproducible for a fixed seed, except for the
wall-clock columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import encodings, lindblad, measure, pauli, xl
from .errors import (
    BudgetExceededError,
    NoSteadyStateError,
    StructuralRejectionError,
    UnsolvableError,
    ValidationError,
    WorkbenchError,
)
from .pauli import PauliSum, parse_pauli_sum, pauli_decompose
from .tolerances import (
    HERMITICITY_TOL,
    LEFT_HALF_PLANE_SLACK,
    SPOT_CHECK_TOL,
    SUBSTITUTE_TABLE_TOL,
)

DEFAULT_SEED = 0x4C4D4531

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_UNSOLVABLE = 3
EXIT_NO_STEADY_STATE = 4
EXIT_BUDGET = 5
EXIT_STRUCTURAL = 6

_EXIT_BY_ERROR = (
    (StructuralRejectionError, EXIT_STRUCTURAL),
    (UnsolvableError, EXIT_UNSOLVABLE),
    (BudgetExceededError, EXIT_BUDGET),
    (NoSteadyStateError, EXIT_NO_STEADY_STATE),
    (ValidationError, EXIT_VALIDATION),
    (WorkbenchError, EXIT_FAILURE),
)


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.cause = cause


def _exit_code(err: Exception) -> int:
    for cls, code in _EXIT_BY_ERROR:
        if isinstance(err, cls):
            return code
    return EXIT_FAILURE


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-lgw-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_observable(path: str) -> PauliSum:
    return lindblad.read_input(path, parse_pauli_sum)


def _load_ansatz(path: str) -> xl.LiouvillianAnsatz:
    data = lindblad.read_input(path)
    as_int = lindblad._json_int
    try:
        kind = data["type"]
        if kind == "xxz_chain":
            return xl.LiouvillianAnsatz.xxz_chain(as_int(data["sites"], "sites"))
        if kind == "full_local_family":
            return xl.LiouvillianAnsatz.full_local_family(
                as_int(data["n"], "n"), as_int(data["locality"], "locality")
            )
        if kind == "custom":
            n = as_int(data["n"], "n")
            ham = tuple(
                lindblad._sum_from_triples(entry, n) for entry in data["hamiltonian"]
            )
            jumps = tuple(
                lindblad._sum_from_triples(entry, n) for entry in data["jumps"]
            )
            return xl.LiouvillianAnsatz(
                n, ham, jumps, as_int(data.get("locality", 2 * n), "locality")
            )
    except KeyError as exc:
        raise ValidationError(f"ansatz is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad ansatz: {exc}") from exc
    raise ValidationError(f"unknown ansatz type {kind!r}")


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except WorkbenchError as err:
        raise StageError(name, err) from err


# -- subcommands ---------------------------------------------------------------


def cmd_pipeline(args) -> int:
    target = _stage("load_target", _load_observable, args.target)
    ansatz = _stage("load_ansatz", _load_ansatz, args.ansatz)
    observable = _stage("load_observable", _load_observable, args.observable)

    system = _stage("build_mq", xl.build_mq_system, ansatz, target,
                    not args.drop_ground_energy)
    solution = _stage("xl_solve", xl.xl_solve, system, d_max=args.d_max)
    residual = _stage("verify_solution", xl.verify_solution, ansatz,
                      solution.assignment, target)

    h_values, rates = ansatz.split_assignment(solution.assignment)
    ham, jump_pairs = ansatz.instantiate(h_values, rates)
    spec = lindblad.LmeSpec(
        ansatz.n,
        ham,
        tuple(lindblad.JumpChannel(r, op) for r, op in jump_pairs),
    )
    liouv = _stage("build_liouvillian", lindblad.build_liouvillian, spec)
    report = _stage("spectral", lindblad.spectral_diagnostics, liouv,
                    mixing_probes=4, seed=args.seed)
    if report.steady_dim != 1:
        raise StageError(
            "steady_state",
            NoSteadyStateError(
                f"steady space has dimension {report.steady_dim}; the "
                f"measurement step needs a unique steady state"
            ),
        )

    if liouv.hermiticity_defect() < HERMITICITY_TOL and report.gap is not None:
        bound_kind, bound_value = "hermitian", report.gap
    elif report.mixing_time_estimate is not None:
        bound_kind, bound_value = "mixing", report.mixing_time_estimate
    elif report.gap is not None:
        bound_kind, bound_value = "hermitian", report.gap
    else:
        raise StageError(
            "runtime_bound",
            NoSteadyStateError("no decay gap and no finite mixing estimate"),
        )
    t_evolve = lindblad.runtime_bound(bound_kind, bound_value, ansatz.n, args.eps)
    rho0 = lindblad.DensityMatrix.pure(
        np.eye(2 ** ansatz.n, dtype=complex)[:, 0]
    )
    rho_t = _stage(
        "evolve", lindblad.evolve, liouv, rho0, t_evolve,
        lindblad.integration_steps(liouv, t_evolve),
    )

    gamma = args.gamma if args.gamma is not None else rho_t.purity()
    _, estimate = _stage("measure", measure.sampled_estimate, observable, rho_t,
                         gamma, args.shots, args.eps, args.seed)
    exact = _stage("measure_exact", measure.exact_expectation, observable, rho_t)

    dump_json(
        os.path.join(args.out, "pipeline_report.json"),
        {
            "solver": solution.report.to_json_dict(),
            "assignment": solution.assignment,
            "solution_residual": residual,
            "spectral": report.to_json_dict(),
            "runtime_bound": {"kind": bound_kind, "value": bound_value,
                              "time": t_evolve},
            "gamma": gamma,
            "exact_expectation": exact,
            "estimate": estimate.to_json_dict(),
            "seed": args.seed,
        },
    )
    atomic_write(os.path.join(args.out, "estimates.csv"), estimate.to_csv())
    print(f"pipeline: residual={residual:.3e} exact={exact:.6f} "
          f"estimate={estimate.value:.6f} (t={t_evolve:.3f}, gamma={gamma:.4f})")
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    if not text.strip():
        return []
    try:
        if ":" in text:
            lo, _, hi = text.partition(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --sizes {text!r}: {exc}") from exc


def cmd_xl_bench(args) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.d_max < 2:
        raise ValidationError(f"--d-max must be at least 2, got {args.d_max}")
    if args.reps < 0:
        raise ValidationError(f"--reps must be non-negative, got {args.reps}")
    rows = []
    for n_sites in sizes:
        for rep in range(args.reps):
            seed_seq = np.random.SeedSequence([args.seed, n_sites, rep])
            rng = np.random.default_rng(seed_seq)
            ansatz = xl.LiouvillianAnsatz.xxz_chain(n_sites)
            h = rng.uniform(0.0, 1.0, ansatz.num_h)
            lam = rng.uniform(0.0, 1.0, ansatz.num_jumps)
            target = ansatz.forward_ldl(h, lam)
            system = xl.build_mq_system(ansatz, target)
            t0 = time.perf_counter()
            try:
                solution = xl.xl_solve(system, d_max=args.d_max)
                wall_ms = (time.perf_counter() - t0) * 1e3
                residual = xl.verify_solution(
                    ansatz, solution.assignment, target
                )
                density = solution.report.matrix_density
            except WorkbenchError as err:
                wall_ms = (time.perf_counter() - t0) * 1e3
                residual = float("nan")
                density = float("nan")
                print(f"xl-bench: N={n_sites} rep={rep} failed: {err}",
                      file=sys.stderr)
            rows.append(
                (n_sites, rep, system.n_e, system.n_u, wall_ms, residual, density)
            )
            print(f"xl-bench: N={n_sites} rep={rep} wall={wall_ms:.1f}ms "
                  f"residual={residual:.2e}")
    lines = ["N,rep,n_e,n_u,wall_time_ms,residual,matrix_density"]
    for n_sites, rep, n_e, n_u, wall, res, dens in rows:
        lines.append(f"{n_sites},{rep},{n_e},{n_u},{wall!r},{res!r},{dens!r}")
    atomic_write(os.path.join(args.out, "xl_bench.csv"), "\n".join(lines) + "\n")

    summary = ["N,reps,mean_wall_time_ms,std_wall_time_ms,max_residual"]
    for n_sites in sizes:
        walls = [r[4] for r in rows if r[0] == n_sites]
        resids = [r[5] for r in rows if r[0] == n_sites]
        if walls:
            # fmax skips failed (NaN) reps, and gives NaN, without a
            # warning, when every rep failed
            summary.append(
                f"{n_sites},{len(walls)},{float(np.mean(walls))!r},"
                f"{float(np.std(walls))!r},{float(np.fmax.reduce(resids))!r}"
            )
    atomic_write(
        os.path.join(args.out, "xl_bench_summary.csv"), "\n".join(summary) + "\n"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, _ = _stage("load_spec", lindblad.load_lme, args.spec)
    liouv = _stage("build_liouvillian", lindblad.build_liouvillian, spec)
    ldl, sym = _stage("build_ldl", lindblad.build_ldl, spec, liouv)
    props = lindblad.verify_ldl_properties(ldl, liouv)
    spectral = lindblad.spectral_diagnostics(liouv, mixing_probes=3, seed=args.seed)

    # each brute-force entry against its own matrix, against the closed-form
    # substitute, and against the word read of the gather every read uses
    table_ok = True
    rho1 = lindblad.random_density_matrix(1, np.random.default_rng(args.seed))
    two_copies = np.kron(rho1.matrix, rho1.matrix)
    table = measure.build_table()
    reads = measure.word_reads(PauliSum.from_letter_terms(
        [(1.0, letters) for letters in table]), rho1)
    for (letters, entry), read in zip(table.items(), reads.tolist()):
        table_ok &= bool(
            np.abs(entry.b.to_matrix() - entry.matrix).max() <= SUBSTITUTE_TABLE_TOL
            and (measure.substitute_pauli(letters).max_coeff_diff(entry.b)
                 <= SUBSTITUTE_TABLE_TOL)
            and abs(read - np.trace(entry.matrix @ two_copies))
            <= SUBSTITUTE_TABLE_TOL
        )

    rng = np.random.default_rng(args.seed)
    spot_err = 0.0
    for _ in range(8):
        rho = lindblad.random_density_matrix(spec.n, rng)
        herm = rng.normal(size=(4 ** spec.n, 4 ** spec.n)) + 1j * rng.normal(
            size=(4 ** spec.n, 4 ** spec.n)
        )
        herm = herm + herm.conj().T
        obs = pauli_decompose(herm)
        vec = lindblad.vectorize(rho)
        # the dense side uses the original matrix, so the check also
        # covers the Pauli decomposition and its conversion back
        direct = float(np.vdot(vec.amplitudes, herm @ vec.amplitudes).real)
        spot_err = max(spot_err, abs(measure.exact_expectation(obs, rho) - direct))

    checks = [
        ("spectrum_nonnegative", props.spectrum_nonnegative),
        ("ground_energy_zero", props.ground_energy_zero),
        ("st_symmetric", props.st_symmetric),
        ("ground_matches_steady", props.ground_matches_steady),
        ("spectrum_left_half_plane",
         bool(np.max(spectral.eigenvalues.real) <= LEFT_HALF_PLANE_SLACK)),
        ("substitute_table", table_ok),
        ("ratio_identity_spot_checks", bool(spot_err < SPOT_CHECK_TOL)),
    ]
    width = max(len(name) for name, _ in checks)
    for name, ok in checks:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    dump_json(
        os.path.join(args.out, "verify_report.json"),
        {
            "properties": props.to_json_dict(),
            "spectral": spectral.to_json_dict(),
            "spot_check_error": spot_err,
            "checks": dict(checks),
        },
    )
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_FAILURE


def cmd_steady(args) -> int:
    spec, _ = _stage("load_spec", lindblad.load_lme, args.spec)
    liouv = _stage("build_liouvillian", lindblad.build_liouvillian, spec)
    # warnings (a failed PSD repair of a degenerate steady space, say)
    # go into the report instead of onto stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        states = _stage("steady_state", lindblad.steady_state, liouv)
        report = lindblad.spectral_diagnostics(
            liouv, mixing_probes=args.probes, seed=args.seed
        )
    dump_json(
        os.path.join(args.out, "steady_report.json"),
        {
            "spectral": report.to_json_dict(),
            "states": [_matrix_to_json(s.matrix) for s in states],
            "purities": [s.purity() for s in states],
            "warnings": [str(w.message) for w in caught],
        },
    )
    gap = "none" if report.gap is None else f"{report.gap:.6g}"
    print(f"steady: dim={report.steady_dim} gap={gap} "
          f"diagonalizable={report.diagonalizable}")
    return EXIT_OK


def cmd_measure(args) -> int:
    spec, _ = _stage("load_spec", lindblad.load_lme, args.spec)
    observable = _stage("load_observable", _load_observable, args.observable)
    liouv = _stage("build_liouvillian", lindblad.build_liouvillian, spec)
    # refuse a degenerate steady space before steady_state warns about it
    steady_dim = liouv.null_dim
    if steady_dim > 1:
        raise StageError(
            "steady_state",
            NoSteadyStateError(f"need a unique steady state, found {steady_dim}"),
        )
    rho = _stage("steady_state", lindblad.steady_state, liouv)[0]
    gamma = args.gamma if args.gamma is not None else rho.purity()
    plan, estimate = _stage("measure", measure.sampled_estimate, observable, rho,
                            gamma, args.shots, args.eps, args.seed)
    exact = _stage("measure_exact", measure.exact_expectation, observable, rho)
    dump_json(
        os.path.join(args.out, "measure_report.json"),
        {
            "exact": exact,
            "estimate": estimate.to_json_dict(),
            "plan": plan.to_json_dict(),
            "gamma": gamma,
        },
    )
    atomic_write(os.path.join(args.out, "measure.csv"), estimate.to_csv())
    print(f"measure: exact={exact:.6f} estimate={estimate.value:.6f} "
          f"shots={estimate.shots}")
    return EXIT_OK


def cmd_encode_circuit(args) -> int:
    circuit = _stage("load_circuit", encodings.load_circuit, args.circuit)
    clock_qubits = encodings.clock_qubit_count(circuit.depth)
    clock = _stage(f"encode {circuit.n}+{clock_qubits} clock qubits, doubled",
                   encodings.circuit_to_lme, circuit)
    rho = encodings.feynman_steady_state(circuit)
    p1 = encodings.p1_from_steady(rho, circuit.depth)
    dump_json(os.path.join(args.out, "clock_lme.json"), clock.to_json_dict())
    print(f"encode-circuit: n={circuit.n} T={circuit.depth} "
          f"clock_dim={clock.clock_dim} purity={rho.purity():.6f} p1={p1:.6f}")
    return EXIT_OK


# -- argument plumbing -----------------------------------------------------------


def _non_negative(flag: str):
    """The argparse type of ``flag``, a non-negative integer (a seed, which
    numpy takes only so, or a count); anything else is a one-line
    validation error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = -1
        if value < 0:
            raise ValidationError(
                f"{flag} must be a non-negative integer, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgw",
        description=(
            "Dissipation-driven ground-state workbench. The default seed is "
            f"0x{DEFAULT_SEED:08X}; dense matrices are capped at "
            f"{pauli.DENSE_QUBIT_CAP} qubits "
            f"({pauli.DENSE_QUBIT_CAP // 2}-qubit generators)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shots=True):
        p.add_argument("--seed", type=_non_negative("--seed"), default=DEFAULT_SEED)
        p.add_argument("--out", default=".", help="output directory")
        if shots:
            p.add_argument("--shots", type=int, default=None,
                           help="total shot count (otherwise from --eps budget)")
            p.add_argument("--eps", type=float, default=0.05,
                           help="target accuracy for the shot budget")
            p.add_argument("--gamma", type=float, default=None,
                           help="purity floor (default: exact purity)")

    p = sub.add_parser("pipeline", help="inverse-solve, evolve, measure")
    p.add_argument("--target", required=True, help="target Hamiltonian (Pauli text)")
    p.add_argument("--ansatz", required=True, help="ansatz description (JSON)")
    p.add_argument("--observable", required=True, help="observable (Pauli text)")
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--drop-ground-energy", action="store_true",
                   help="drop the identity-word equation")
    common(p)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("xl-bench", help="solver scaling sweep on random chains")
    p.add_argument("--sizes", default="5:13", help="e.g. 5:13 or 5,7,9")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--d-max", type=int, default=4)
    common(p, shots=False)
    p.set_defaults(fn=cmd_xl_bench)

    p = sub.add_parser("verify", help="structural property checks for a spec")
    p.add_argument("--spec", required=True, help="LME spec (JSON)")
    common(p, shots=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("steady", help="steady states and spectral report")
    p.add_argument("--spec", required=True)
    p.add_argument("--probes", type=_non_negative("--probes"), default=4)
    common(p, shots=False)
    p.set_defaults(fn=cmd_steady)

    p = sub.add_parser("measure", help="measure an observable on the steady state")
    p.add_argument("--spec", required=True)
    p.add_argument("--observable", required=True)
    common(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("encode-circuit", help="clock-register encoding of a circuit")
    p.add_argument("--circuit", required=True, help="circuit spec (JSON)")
    common(p, shots=False)
    p.set_defaults(fn=cmd_encode_circuit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except StageError as err:
        print(f"error{err}", file=sys.stderr)
        return _exit_code(err.cause)
    except WorkbenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return _exit_code(err)
    except np.linalg.LinAlgError as err:
        print(f"error: linear algebra failed: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
