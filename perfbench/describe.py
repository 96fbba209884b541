"""Print, as JSON, the benchmark's environment and the input properties
behind each workload.

Run from the repository root:

    python3 perfbench/describe.py --seed 1 --draws 40

The environment is the Python, numpy, scipy and OpenBLAS versions, the
BLAS thread count in effect and the usable core count.  The input
properties are those the workloads' costs depend on: dense
dimensions, target term counts, n_e/n_u of the quadratic systems,
substitute words per read, and the share of ``verify-spec3`` specs whose
steady space has dimension 2 or more (over ``--draws`` specs drawn the
way the workload draws them, without filtering).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys

import run


def openblas() -> list[dict]:
    """Config string and thread count of every OpenBLAS this process
    has loaded (numpy and scipy may each bring one)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                out.append({"library": os.path.basename(path),
                            "config": config().decode().strip(), "threads": threads()})
                break
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--draws", type=int, default=40)
    args = parser.parse_args(argv)
    cap = run.limit_blas_threads()
    if run.import_lgw() is None:
        print("describe: cannot import lgw", file=sys.stderr)
        return 2
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)
    import workloads as wl
    from lgw import encodings, lindblad, measure, xl
    from lgw.pauli import PauliSum

    def chain(sites: int, rate_low: float) -> dict:
        rng = wl.seeded_rng(args.seed, 0, sites)
        ansatz = xl.LiouvillianAnsatz.xxz_chain(sites)
        target = ansatz.forward_ldl(rng.uniform(0, 1, ansatz.num_h),
                                    rng.uniform(rate_low, 1, ansatz.num_jumps))
        system = xl.build_mq_system(ansatz, target)
        return {"sites": sites, "target_terms": len(target),
                "n_e": system.n_e, "n_u": system.n_u}

    sites = wl.PIPELINE_SITES
    row_word = PauliSum.from_letter_terms([(1.0, "Z" + "I" * (2 * sites - 1))])
    pipeline = dict(chain(sites, 0.2),
                    generator_dim=4 ** sites,
                    substitute_words_per_read=len(measure.substitute(row_word)),
                    shots=wl.PIPELINE_SHOTS)

    n, depth = wl.CIRCUIT_QUBITS, wl.CIRCUIT_DEPTH
    observable = encodings.final_qubit_one_observable(n, depth)
    readout = {
        "system_qubits": n,
        "depth": depth,
        "state_dim": 2 ** (n + encodings.clock_qubit_count(depth)),
        "observable_terms": len(observable),
        "substitute_words_per_read": len(measure.substitute(observable)),
        "shots_per_fixed_read": wl.READ_SHOTS,
        "reads_per_circuit": wl.READS_PER_CIRCUIT + 1,
    }

    degenerate = 0
    ldl_terms = []
    for i in range(args.draws):
        spec = wl.random_spec(wl.SPEC_QUBITS, wl.seeded_rng(args.seed, 4, i))
        liouv = lindblad.build_liouvillian(spec)
        degenerate += lindblad._null_space(liouv.matrix).shape[1] >= 2
        ldl_terms.append(len(lindblad.build_ldl(spec)[1]))
    verify = {
        "qubits": wl.SPEC_QUBITS,
        "generator_dim": 4 ** wl.SPEC_QUBITS,
        "ldl_terms_min_max": [min(ldl_terms), max(ldl_terms)],
        "draws": args.draws,
        "steady_dim_ge_2_share": degenerate / args.draws,
    }
    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas(),
        "blas_threads": cap,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }
    print(json.dumps({
        "environment": environment,
        "seed": args.seed,
        "pipeline-xxz5": pipeline,
        "xl-chain": [chain(s, 0.0) for s in wl.XL_SIZES],
        "readout-clock": readout,
        "verify-spec3": verify,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
