"""The benchmark's workloads: seeded inputs, operations and output checks.

Each workload has three parts:

* ``make_<workload>(seed, units, tiny, out)`` generates the inputs from
  the workload seed and writes them under ``out`` (this is set-up);
* ``run_<workload>(harness, inputs)`` runs the fixed work, one
  operation after another (a closed loop with one client);
* the checks passed to ``harness.op`` decide, outside the timed region,
  whether each operation's output is correct.

A unit is the piece of fixed work that ``unit_cost_s`` prices: one
operation for ``pipeline-xxz5`` and ``verify-spec3``, one chain at each
size for ``xl-chain``, one circuit for ``readout-clock``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from lgw import cli, encodings, lindblad, measure, xl
from lgw.pauli import PauliString, PauliSum, format_pauli_sum, parse_pauli_sum

LETTERS = "IXYZ"

PIPELINE_SITES = 5
PIPELINE_SITES_TINY = 3
PIPELINE_SHOTS = 20_000
XL_SIZES = (9, 13, 17)
XL_SIZES_TINY = (3,)
CIRCUIT_QUBITS, CIRCUIT_QUBITS_TINY, CIRCUIT_DEPTH = 2, 1, 3
READ_SHOTS = 100_000
READS_PER_CIRCUIT = 5          # seeded fixed-shot reads, plus one eps read
READ_EPS = 0.05
SPEC_QUBITS, SPEC_QUBITS_TINY = 3, 1

# Output-check gates (the acceptance criteria use the same ones).
PARAM_TOL = 1e-6               # recovered parameters, criterion 08
RESIDUAL_TOL = 1e-8            # squared-generator residual, criterion 08
EXACT_P1_TOL = 1e-10           # exact p1 against the statevector, criterion 09
# A sampled estimate passes when it lies within BOUND_SIGMAS root-MSE
# bounds of the exact value.  The variance bound is tight to within a
# factor of about two, so the error of an estimate is close to normal
# with a standard deviation of at most one root-MSE bound, about 0.7
# when the exact value is near 0: one bound would fail about one
# estimate in six, four fewer than one in 10**4 even at the worst.
BOUND_SIGMAS = 4.0


class Harness:
    """Times operations, runs their checks untimed, counts failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.op_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.op_sizes: dict[int, int] = {}
        self.worst_sampled = 0.0    # largest sampled error / root-MSE bound
        self.widest_gate = 0.0      # largest BOUND_SIGMAS * root-MSE bound

    def op(self, label: str, fn: Callable[[], object],
           check: Callable[[object], str | None], size: int | None = None) -> None:
        """Run one operation; ``check`` returns None when the output is
        correct, else the reason it is not."""
        op_id = self.attempted
        self.attempted += 1
        if size is not None:
            self.op_sizes[op_id] = size
        if self.tracer is not None:
            self.tracer.op_id = op_id
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as err:  # a failed operation, counted below
            result, reason = None, f"{type(err).__name__}: {err}"
        else:
            reason = None
        self.op_times.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.op_id = None
        if reason is None:
            with self.untraced():
                try:
                    reason = check(result)
                except Exception as err:  # a check that cannot run fails the op
                    reason = f"check raised {type(err).__name__}: {err}"
        if reason is not None:
            self.failed += 1
            print(f"perfbench: FAILED {label}: {reason}", file=sys.stderr)

    def sampled_error(self, err: float, root_mse: float) -> str | None:
        """Gate one sampled estimate whose error against the exact value
        is ``err``; None when it is within BOUND_SIGMAS root-MSE bounds."""
        self.worst_sampled = max(self.worst_sampled, err / root_mse)
        self.widest_gate = max(self.widest_gate, BOUND_SIGMAS * root_mse)
        if err <= BOUND_SIGMAS * root_mse:
            return None
        return f"sampled error {err:.4g} > {BOUND_SIGMAS:g} root-MSE bounds of {root_mse:.4g}"

    def untraced(self):
        """Context for benchmark-side work that the trace must not see."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    @property
    def wall_s(self) -> float:
        return sum(self.op_times)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _run_cli(argv: list[str]) -> int:
    """One ``lgw`` command in this process, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- pipeline-xxz5 ---------------------------------------------------------------


def make_pipeline(seed: int, units: int, tiny: bool, out: Path) -> None:
    sites = PIPELINE_SITES_TINY if tiny else PIPELINE_SITES
    ansatz = xl.LiouvillianAnsatz.xxz_chain(sites)
    _write(out / "ansatz.json", json.dumps({"type": "xxz_chain", "sites": sites}))
    ops = []
    for i in range(units):
        rng = seeded_rng(seed, 1, i)
        h = rng.uniform(0.0, 1.0, ansatz.num_h)
        # rates bounded away from 0 keep the mixing time, and with it the
        # RK4 step count, of the same order from target to target
        lam = rng.uniform(0.2, 1.0, ansatz.num_jumps)
        _write(out / f"target_{i}.txt", format_pauli_sum(ansatz.forward_ldl(h, lam)))
        letters = "I" * sites
        while set(letters) == {"I"}:
            letters = "".join(rng.choice(list(LETTERS), size=sites))
        observable = PauliSum.from_letter_terms([(1.0, letters + "I" * sites)])
        _write(out / f"observable_{i}.txt", format_pauli_sum(observable))
        ops.append({"cli_seed": int(rng.integers(2 ** 31))})
    _write(out / "ops.json", json.dumps(ops))


def check_pipeline(harness: Harness, rc: int, run_dir: Path) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    report = json.loads((run_dir / "pipeline_report.json").read_text())
    if not report["solution_residual"] < RESIDUAL_TOL:
        return f"solution residual {report['solution_residual']:.3e}"
    est = report["estimate"]
    return harness.sampled_error(abs(est["value"] - report["exact_expectation"]),
                                 math.sqrt(est["mse_bound"]))


def run_pipeline(harness: Harness, inputs: Path) -> None:
    ops = json.loads((inputs / "ops.json").read_text())
    for i, op in enumerate(ops):
        run_dir = inputs / f"run_{i}"
        argv = [
            "pipeline",
            "--target", str(inputs / f"target_{i}.txt"),
            "--ansatz", str(inputs / "ansatz.json"),
            "--observable", str(inputs / f"observable_{i}.txt"),
            "--shots", str(PIPELINE_SHOTS),
            "--seed", str(op["cli_seed"]),
            "--out", str(run_dir),
        ]
        harness.op(f"pipeline target {i}", lambda: _run_cli(argv),
                   lambda rc: check_pipeline(harness, rc, run_dir))


# -- xl-chain --------------------------------------------------------------------


def make_xl_chain(seed: int, units: int, tiny: bool, out: Path) -> None:
    """One random chain per size; rep r > 0 scales its parameters by a
    seeded factor c in [0.5, 1.5].  The generator is linear in (h, rates),
    so the target scales by c**2 and forward_ldl runs once per size
    however many reps the run does."""
    ops = []
    for sites in XL_SIZES_TINY if tiny else XL_SIZES:
        rng = seeded_rng(seed, 2, sites)
        ansatz = xl.LiouvillianAnsatz.xxz_chain(sites)
        h = rng.uniform(0.0, 1.0, ansatz.num_h)
        lam = rng.uniform(0.0, 1.0, ansatz.num_jumps)
        target = ansatz.forward_ldl(h, lam)
        for rep, c in enumerate([1.0, *rng.uniform(0.5, 1.5, units - 1)]):
            name = f"target_{rep}_{sites}.txt"
            _write(out / name, format_pauli_sum(target * (c * c)))
            ops.append({"sites": sites, "rep": rep, "target": name,
                        "h": (c * h).tolist(), "lam": (c * lam).tolist()})
    ops.sort(key=lambda op: (op["rep"], op["sites"]))
    _write(out / "ops.json", json.dumps(ops))


def _xl_op(ansatz, target):
    system = xl.build_mq_system(ansatz, target)
    solution = xl.xl_solve(system)
    residual = xl.verify_solution(ansatz, solution.assignment, target)
    return solution.assignment, residual


def check_xl(result, h, lam) -> str | None:
    assignment, residual = result
    rec_h = np.array([assignment[f"h_{i}"] for i in range(len(h))])
    rec_l = np.array([assignment[f"lam_{i}"] for i in range(len(lam))])
    err = max(np.abs(rec_h - h).max(), np.abs(rec_l - lam).max())
    if not err < PARAM_TOL:
        return f"parameter error {err:.3e}"
    if not residual < RESIDUAL_TOL:
        return f"residual {residual:.3e}"
    return None


def run_xl_chain(harness: Harness, inputs: Path) -> None:
    for op in json.loads((inputs / "ops.json").read_text()):
        ansatz = xl.LiouvillianAnsatz.xxz_chain(op["sites"])
        target = parse_pauli_sum((inputs / op["target"]).read_text())
        h, lam = np.array(op["h"]), np.array(op["lam"])
        harness.op(f"xl N={op['sites']} rep {op['rep']}",
                   lambda: _xl_op(ansatz, target),
                   lambda result: check_xl(result, h, lam), size=op["sites"])


# -- readout-clock ---------------------------------------------------------------


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_readout(seed: int, units: int, tiny: bool, out: Path) -> None:
    n = CIRCUIT_QUBITS_TINY if tiny else CIRCUIT_QUBITS
    ops = []
    for c in range(units):
        rng = seeded_rng(seed, 3, c)
        circuit = encodings.CircuitSpec(
            n, tuple(_haar_unitary(2 ** n, rng) for _ in range(CIRCUIT_DEPTH))
        )
        _write(out / f"circuit_{c}.json", json.dumps(circuit.to_json_dict()))
        seeds = rng.integers(2 ** 31, size=READS_PER_CIRCUIT + 1)
        ops.append({"circuit": f"circuit_{c}.json",
                    "read_seeds": [int(s) for s in seeds]})
    _write(out / "ops.json", json.dumps(ops))


def _readout_root_mse(n: int, depth: int) -> tuple[float, float]:
    """Root-MSE bounds on p1 of a fixed-shot read and of an eps-budget read."""
    obs = encodings.final_qubit_one_observable(n, depth)
    gamma = 1.0 / (depth + 1)
    _, eps_half, _ = measure.shot_budget(obs, gamma, READ_EPS)
    bounds = []
    for half in (READ_SHOTS // 2, eps_half):
        _, _, mse = measure.error_bounds(obs, gamma, half, half)
        # p1 = (1 - (T+1) v) / 2 scales the error of v by (T+1)/2
        bounds.append((depth + 1) / 2 * math.sqrt(mse))
    return bounds[0], bounds[1]


def _readout_op(circuit, seeds):
    depth = circuit.depth
    clock = encodings.circuit_to_lme(circuit)
    rho = encodings.feynman_steady_state(circuit)
    exact = encodings.p1_from_steady(rho, depth)
    sampled = [encodings.p1_from_steady(rho, depth, shots=READ_SHOTS, seed=s)
               for s in seeds[:-1]]
    by_eps = encodings.p1_from_steady(rho, depth, eps=READ_EPS, seed=seeds[-1])
    return clock, exact, sampled, by_eps


def check_readout(harness: Harness, result, circuit, root_mse_shots: float,
                  root_mse_eps: float) -> str | None:
    clock, exact, sampled, by_eps = result
    if clock.spec.n != circuit.n + encodings.clock_qubit_count(circuit.depth):
        return f"clock encoding has {clock.spec.n} qubits"
    psi = circuit.statevectors()[-1]
    p1_true = float((np.abs(psi) ** 2).reshape(2, -1)[1].sum())
    if not abs(exact - p1_true) < EXACT_P1_TOL:
        return f"exact p1 off by {abs(exact - p1_true):.3e}"
    reads = [(value, root_mse_shots) for value in sampled] + [(by_eps, root_mse_eps)]
    for value, root_mse in reads:
        reason = harness.sampled_error(abs(value - p1_true), root_mse)
        if reason is not None:
            return f"p1 read: {reason}"
    return None


def run_readout(harness: Harness, inputs: Path) -> None:
    ops = json.loads((inputs / "ops.json").read_text())
    circuits = [encodings.load_circuit(inputs / op["circuit"]) for op in ops]
    with harness.untraced():
        root_mse = _readout_root_mse(circuits[0].n, circuits[0].depth)
    for c, (circuit, op) in enumerate(zip(circuits, ops)):
        seeds = op["read_seeds"]
        harness.op(f"readout circuit {c}", lambda: _readout_op(circuit, seeds),
                   lambda result: check_readout(harness, result, circuit, *root_mse))


# -- verify-spec3 ----------------------------------------------------------------


def _random_sum(n: int, rng: np.random.Generator, terms: int, real: bool) -> PauliSum:
    out: dict[PauliString, complex] = {}
    while len(out) < min(terms, 4 ** n):
        word = PauliString.from_letters("".join(rng.choice(list(LETTERS), size=n)))
        out[word] = rng.normal() if real else rng.normal() + 1j * rng.normal()
    return PauliSum(n, out)


def random_spec(n: int, rng: np.random.Generator) -> lindblad.LmeSpec:
    """A 3-term Hermitian Hamiltonian and two jump channels of 3 complex
    terms each, rates in [0.2, 1]; drawn without any filtering."""
    ham = _random_sum(n, rng, 3, real=True)
    jumps = tuple(
        lindblad.JumpChannel(float(rng.uniform(0.2, 1.0)),
                             _random_sum(n, rng, 3, real=False))
        for _ in range(2)
    )
    return lindblad.LmeSpec(n, ham, jumps)


def make_verify(seed: int, units: int, tiny: bool, out: Path) -> None:
    n = SPEC_QUBITS_TINY if tiny else SPEC_QUBITS
    ops = []
    for i in range(units):
        rng = seeded_rng(seed, 4, i)
        spec = random_spec(n, rng)
        _write(out / f"spec_{i}.json", json.dumps(lindblad.lme_to_json_dict(spec)))
        ops.append({"cli_seed": int(rng.integers(2 ** 31))})
    _write(out / "ops.json", json.dumps(ops))


def check_verify(rc: int, run_dir: Path) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    checks = json.loads((run_dir / "verify_report.json").read_text())["checks"]
    failing = sorted(name for name, ok in checks.items() if not ok)
    return f"checks FAIL: {', '.join(failing)}" if failing else None


def run_verify(harness: Harness, inputs: Path) -> None:
    ops = json.loads((inputs / "ops.json").read_text())
    for i, op in enumerate(ops):
        run_dir = inputs / f"run_{i}"
        argv = ["verify", "--spec", str(inputs / f"spec_{i}.json"),
                "--seed", str(op["cli_seed"]), "--out", str(run_dir)]
        harness.op(f"verify spec {i}", lambda: _run_cli(argv),
                   lambda rc: check_verify(rc, run_dir))


# -- registry --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    unit_cost_s: float      # seconds one unit adds to a run, set-up included,
                            # measured at the seed commit on a 2-core x86-64 box
    setup_samples: int      # fresh-process set-ups whose median is setup_s
    make: Callable[[int, int, bool, Path], None]
    run: Callable[[Harness, Path], None]


# A set-up takes about 0.5 s, mostly interpreter start and imports, and
# its time drifts with the host over minutes, which more samples in one
# run do not average out.  On xl-chain, forward_ldl of the 17-site target
# makes a set-up take 3 s to 5 s, so three samples keep its runs within
# the time of the others.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline-xxz5", 13.0, 9, make_pipeline, run_pipeline),
        Workload("xl-chain", 11.0, 3, make_xl_chain, run_xl_chain),
        Workload("readout-clock", 3.8, 9, make_readout, run_readout),
        Workload("verify-spec3", 12.0, 9, make_verify, run_verify),
    )
}


def units_for(workload: Workload, seconds: float) -> int:
    """Units of fixed work for a run of about ``seconds``; at least one."""
    return max(1, int(seconds // workload.unit_cost_s))
