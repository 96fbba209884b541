"""Fixed-seed artifact digests of every ``lgw`` subcommand.

Writes its own seeded inputs (XXZ chains, random 1-3 qubit specs,
observables, circuits), runs each subcommand in-process through
``lgw.cli.main``, and prints one line per artifact:

    <run> <exit code> <file> <sha256>

Wall-clock values (``wall_time_ms`` fields, the xl-bench wall-time
columns and ``wall=`` in its stdout) are blanked before hashing, so two
source trees that compute the same thing print the same lines.  stdout
and stderr count as the artifacts ``<stdout>`` and ``<stderr>``, and
warnings as ``<warnings>`` (their messages only, without source lines).
The BLAS thread count moves bytes, so it is set to 1 before numpy loads
unless the environment sets it, and printed first, as a ``#`` line.

    python tools/artifact_digests.py                  # this tree's src/
    python tools/artifact_digests.py --src ../base/src > base.txt

It takes under a minute on one core: ``verify`` runs on specs of at
most 3 qubits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import warnings

# BLAS thread counts move bytes, so pin them to one before numpy loads,
# unless the caller set them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

SEED = 20240125
LETTERS = "IXYZ"

_WALL_JSON = re.compile(r'("wall_time_ms": )[-+0-9.eE]+')
_WALL_STDOUT = re.compile(r"wall=[-+0-9.eE]+ms")


def _strip_json(text: str) -> str:
    return _WALL_JSON.sub(r"\1", text)


def _strip_csv(text: str) -> str:
    """Blank every column whose header names a wall time."""
    lines = text.splitlines()
    if not lines:
        return text
    header = lines[0].split(",")
    wall = [i for i, name in enumerate(header) if "wall_time" in name]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in wall:
            if i < len(cells):
                cells[i] = ""
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def _digest(name: str, text: str) -> str:
    if name.endswith(".json"):
        text = _strip_json(text)
    elif name.endswith(".csv"):
        text = _strip_csv(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- inputs ------------------------------------------------------------------


def _random_word(n, rng):
    return "".join(LETTERS[i] for i in rng.integers(0, 4, size=n))


def _random_triples(n, rng, terms, real):
    out = []
    for _ in range(terms):
        im = 0.0 if real else float(rng.normal())
        out.append([float(rng.normal()), im, _random_word(n, rng)])
    return out


def random_spec(n, rng):
    """3 real Hamiltonian terms and two 3-term complex jumps, rates in
    [0.2, 1]; duplicate words add up when the spec is read."""
    return {
        "n": n,
        "hamiltonian": _random_triples(n, rng, 3, real=True),
        "jumps": [
            {"rate": float(rng.uniform(0.2, 1.0)),
             "op": _random_triples(n, rng, 3, real=False)}
            for _ in range(2)
        ],
    }


def xxz_spec(sites, rng):
    """Open XXZ chain, ZZ and XX+YY weights per bond, one raising channel
    |1><0| = (X - iY)/2 per site."""
    def word(letters_at):
        return "".join(letters_at.get(k, "I") for k in range(sites))

    ham = []
    for b in range(sites - 1):
        jz, jxy = rng.uniform(0.0, 1.0, 2)
        ham.append([float(jz), 0.0, word({b: "Z", b + 1: "Z"})])
        ham.append([float(jxy), 0.0, word({b: "X", b + 1: "X"})])
        ham.append([float(jxy), 0.0, word({b: "Y", b + 1: "Y"})])
    jumps = [
        {"rate": float(rng.uniform(0.2, 1.0)),
         "op": [[0.5, 0.0, word({i: "X"})], [0.0, -0.5, word({i: "Y"})]]}
        for i in range(sites)
    ]
    return {"n": sites, "hamiltonian": ham, "jumps": jumps}


def pauli_text(terms):
    return "".join(f"{c!r} 0.0 {w}\n" for c, w in terms)


def random_unitary(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def circuit(n, depth, rng):
    layers = [random_unitary(2 ** n, rng) for _ in range(depth)]
    return {"n": n, "layers": [[[[z.real, z.imag] for z in row] for row in u]
                               for u in layers]}


def xxz_target(spec):
    """The squared generator of an XXZ spec, as Pauli text: the pipeline's
    target, computed by the tree under test."""
    from lgw import lindblad, pauli, xl

    lme, _ = lindblad.lme_from_json_dict(spec)
    ansatz = xl.LiouvillianAnsatz.xxz_chain(lme.n)
    weights = dict(zip(lme.hamiltonian.letters(), lme.hamiltonian.coeffs.tolist()))
    h = [weights[op.sorted().letters()[0]].real for op in ansatz.hamiltonian_ops]
    rates = [ch.rate for ch in lme.jumps]
    return pauli.format_pauli_sum(ansatz.forward_ldl(h, rates))


def write_inputs(directory):
    """Write every input file into ``directory``; returns the runs, as
    (run name, argv with {file name} placeholders)."""
    rng = np.random.default_rng(SEED)
    files = {}
    runs = []

    def put(name, text):
        files[name] = text
        return "{" + name + "}"

    for sites in (3, 5):
        spec_rng = np.random.default_rng([SEED, sites])
        chain = xxz_spec(sites, spec_rng)
        spec = put(f"xxz{sites}.json", json.dumps(chain))
        target = put(f"xxz{sites}_target.txt", xxz_target(chain))
        ansatz = put(f"xxz{sites}_ansatz.json",
                     json.dumps({"type": "xxz_chain", "sites": sites}))
        obs = put(f"xxz{sites}_obs.txt",
                  pauli_text([(1.0, "Z" + "I" * (2 * sites - 1))]))
        for budget in (["--shots", "20000"], ["--eps", "0.1"]):
            runs.append((f"pipeline-xxz{sites}{budget[0]}",
                         ["pipeline", "--target", target,
                          "--ansatz", ansatz, "--observable", obs, *budget]))
        if sites <= 3:
            runs.append((f"verify-xxz{sites}", ["verify", "--spec", spec]))
        runs.append((f"steady-xxz{sites}", ["steady", "--spec", spec]))
        runs.append((f"measure-xxz{sites}",
                     ["measure", "--spec", spec, "--observable", obs,
                      "--shots", "20000"]))

    for i in range(8):
        n = 1 + i % 3
        spec = put(f"spec{i}.json", json.dumps(random_spec(n, rng)))
        words = set()
        while len(words) < 2:
            words.add(_random_word(2 * n, rng))
        obs = put(f"spec{i}_obs.txt", pauli_text(
            [(float(rng.uniform(0.2, 1.0)), w) for w in sorted(words)]))
        runs.append((f"verify-spec{i}", ["verify", "--spec", spec]))
        runs.append((f"steady-spec{i}", ["steady", "--spec", spec]))
        for budget in (["--shots", "2000"], ["--eps", "0.2"], ["--shots", "2"]):
            runs.append((f"measure-spec{i}{budget[0]}{budget[1]}",
                         ["measure", "--spec", spec, "--observable", obs, *budget]))

    # H = 0 and one jump proportional to the identity: every state is steady
    spec = put("identity_jump.json", json.dumps({
        "n": 1, "hamiltonian": [],
        "jumps": [{"rate": 1.8912414057559308,
                   "op": [[-0.4236059554266051, 1.2461123127354776, "I"]]}],
    }))
    obs = put("identity_jump_obs.txt", pauli_text([(1.0, "ZI"), (0.5, "XX")]))
    for command in (["verify"], ["steady"],
                    ["measure", "--observable", obs, "--shots", "200"]):
        runs.append((f"{command[0]}-identity-jump",
                     [command[0], "--spec", spec, *command[1:]]))

    for i, (n, depth) in enumerate(((1, 1), (1, 2), (2, 3))):
        path = put(f"circuit{i}.json", json.dumps(circuit(n, depth, rng)))
        runs.append((f"encode-circuit{i}", ["encode-circuit", "--circuit", path]))

    runs.append(("xl-bench", ["xl-bench", "--sizes", "5:8", "--reps", "2"]))

    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return files, runs


# -- running -------------------------------------------------------------------


def run_all(inputs):
    """Digest lines of every input file (run ``input``, exit code ``-``)
    and of every run's artifacts."""
    from lgw import cli

    files, runs = write_inputs(inputs)
    lines = [f"input - {name} {_digest(name, text)}"
             for name, text in sorted(files.items())]
    for name, argv in runs:
        argv = [re.sub(r"\{([^}]+)\}", lambda m: os.path.join(inputs, m[1]), a)
                for a in argv]
        with tempfile.TemporaryDirectory() as out:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main([*argv, "--out", out])
            for artifact in sorted(os.listdir(out)):
                with open(os.path.join(out, artifact), encoding="utf-8") as fh:
                    lines.append(f"{name} {rc} {artifact} "
                                 f"{_digest(artifact, fh.read())}")
        streams = {
            "<stdout>": _WALL_STDOUT.sub("wall=", stdout.getvalue()),
            "<stderr>": stderr.getvalue(),
            "<warnings>": "".join(f"{w.category.__name__}: {w.message}\n"
                                  for w in caught),
        }
        for label, text in streams.items():
            lines.append(f"{name} {rc} {label} {_digest(label, text)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", default=os.path.join(os.path.dirname(__file__), "..", "src"),
        help="source tree holding the lgw package (default: this tree's src/)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    print("# BLAS threads: " + " ".join(f"{var}={os.environ[var]}"
                                        for var in BLAS_THREAD_VARS))
    with tempfile.TemporaryDirectory() as inputs:
        for line in run_all(inputs):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
