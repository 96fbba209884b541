"""Smoke test of the benchmark at tiny sizes: a 3-site chain, a 1-qubit
circuit and a 1-qubit spec.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

import run

assert run.import_lgw() is not None, "lgw must import from this checkout's src/"
import workloads  # noqa: E402  (needs lgw on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(capsys, workload, seed=1, trace=0):
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-1]), lines[:-1]


def expected(trace):
    return {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}


def test_benchmark_declares_every_metric_it_prints():
    assert NAMES == list(workloads.WORKLOADS)
    assert [tuple(m) for m in expected(1).items()] == run.per_layer_names()
    assert [tuple(m) for m in expected(0).items()] == list(run.END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    result, table = bench(capsys, workload, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected(trace)
    printed = {line.split()[0]: line.split()[-1] for line in table}
    for name, unit in expected(trace).items():
        assert printed[name] == unit
    assert "fail_ratio" in printed


def test_corrupted_output_counts_as_failed(capsys, monkeypatch):
    monkeypatch.setattr(workloads.xl, "verify_solution", lambda *args: 1.0)
    result, _ = bench(capsys, "xl-chain")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_sampled_read_outside_its_gate_counts_as_failed(capsys, monkeypatch):
    p1_from_steady = workloads.encodings.p1_from_steady

    def shifted(rho, depth, shots=None, eps=None, seed=0):
        value = p1_from_steady(rho, depth, shots=shots, eps=eps, seed=seed)
        return value if shots is None and eps is None else value + 0.5

    monkeypatch.setattr(workloads.encodings, "p1_from_steady", shifted)
    result, table = bench(capsys, "readout-clock")
    assert result["failed"] == result["attempted"] == 1
    assert any(line.startswith("# largest sampled error") for line in table)


@pytest.mark.parametrize("workload", NAMES)
def test_seed_changes_inputs_not_metrics(capsys, tmp_path, workload):
    w = workloads.WORKLOADS[workload]
    files = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        out.mkdir()
        w.make(seed, 1, True, out)
        files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert files[0].keys() == files[1].keys() and files[0] != files[1]
    first, _ = bench(capsys, workload, seed=1)
    second, _ = bench(capsys, workload, seed=2)
    assert first["metrics"].keys() == second["metrics"].keys()


def test_missing_program_exits_nonzero(tmp_path):
    import subprocess
    import sys

    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
