import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from conftest import (
    EXCEPTIONAL_POINT_SPEC,
    IDENTITY_JUMP_SPEC,
    RANK_FLOOR_SPEC,
    rand_lme_spec,
)

from lgw import cli, lindblad
from lgw.lindblad import JumpChannel, LmeSpec, lme_to_json_dict
from lgw.pauli import PauliSum, format_pauli_sum
from lgw.xl import LiouvillianAnsatz, site_channel


@pytest.fixture
def one_site_files(tmp_path):
    ansatz = LiouvillianAnsatz(
        1,
        (PauliSum.from_letter_terms([(1.0, "Z")]),),
        (site_channel(1, 0, "+"),),
        locality=2,
    )
    target = ansatz.forward_ldl([0.7], [0.3])
    target_path = tmp_path / "target.txt"
    target_path.write_text(format_pauli_sum(target))
    ansatz_path = tmp_path / "ansatz.json"
    ansatz_path.write_text(
        json.dumps(
            {
                "type": "custom",
                "n": 1,
                "locality": 2,
                "hamiltonian": [[[1.0, 0.0, "Z"]]],
                "jumps": [[[0.5, 0.0, "X"], [0.0, -0.5, "Y"]]],
            }
        )
    )
    obs_path = tmp_path / "obs.txt"
    obs_path.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    return tmp_path, target_path, ansatz_path, obs_path


def scrub_timing(obj):
    if isinstance(obj, dict):
        return {k: scrub_timing(v) for k, v in obj.items() if "wall_time" not in k}
    if isinstance(obj, list):
        return [scrub_timing(v) for v in obj]
    return obj


def test_pipeline_end_to_end(one_site_files):
    tmp, target, ansatz, obs = one_site_files
    out = tmp / "run"
    args = [
        "pipeline", "--target", str(target), "--ansatz", str(ansatz),
        "--observable", str(obs), "--out", str(out), "--eps", "0.05",
    ]
    assert cli.main(args) == cli.EXIT_OK
    report = json.loads((out / "pipeline_report.json").read_text())
    assert report["solution_residual"] < 1e-8
    assert abs(report["estimate"]["value"] - report["exact_expectation"]) < 0.15
    assert (out / "estimates.csv").read_text().startswith("value,")


def test_pipeline_deterministic_artifacts(one_site_files):
    tmp, target, ansatz, obs = one_site_files
    reports, csvs = [], []
    for name in ("a", "b"):
        out = tmp / name
        args = [
            "pipeline", "--target", str(target), "--ansatz", str(ansatz),
            "--observable", str(obs), "--out", str(out), "--seed", "99",
        ]
        assert cli.main(args) == cli.EXIT_OK
        reports.append(json.loads((out / "pipeline_report.json").read_text()))
        csvs.append((out / "estimates.csv").read_bytes())
    assert csvs[0] == csvs[1]
    assert scrub_timing(reports[0]) == scrub_timing(reports[1])


def test_pipeline_structural_rejection(one_site_files):
    tmp, target, ansatz, obs = one_site_files
    broken = PauliSum.from_letter_terms([(1.0, "II"), (0.3, "XI")])
    bad = tmp / "bad_target.txt"
    bad.write_text(format_pauli_sum(broken))
    args = [
        "pipeline", "--target", str(bad), "--ansatz", str(ansatz),
        "--observable", str(obs), "--out", str(tmp / "r"),
    ]
    assert cli.main(args) == cli.EXIT_STRUCTURAL


def test_pipeline_unsolvable(one_site_files):
    tmp, target, ansatz, obs = one_site_files
    # an ansatz without any jump cannot reproduce a dissipative target
    hamiltonian_only = tmp / "ansatz2.json"
    hamiltonian_only.write_text(
        json.dumps(
            {
                "type": "custom",
                "n": 1,
                "locality": 2,
                "hamiltonian": [[[1.0, 0.0, "Z"]]],
                "jumps": [],
            }
        )
    )
    args = [
        "pipeline", "--target", str(target), "--ansatz", str(hamiltonian_only),
        "--observable", str(obs), "--out", str(tmp / "r2"),
    ]
    assert cli.main(args) == cli.EXIT_UNSOLVABLE


def sigma_minus_spec_file(tmp_path, rate=1.0):
    spec = LmeSpec(
        1,
        PauliSum.zero(1),
        (JumpChannel(rate, PauliSum.from_letter_terms([(0.5, "X"), (0.5j, "Y")])),),
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(lme_to_json_dict(spec)))
    return path


def test_verify_passes_for_valid_spec(tmp_path):
    path = sigma_minus_spec_file(tmp_path)
    assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert all(report["checks"].values())


def test_verify_builds_the_generator_once(tmp_path, monkeypatch):
    path = sigma_minus_spec_file(tmp_path)
    calls = []
    build = lindblad.build_liouvillian
    monkeypatch.setattr(lindblad, "build_liouvillian",
                        lambda spec: calls.append(spec) or build(spec))
    assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    assert len(calls) == 1


def test_verify_rejects_negative_rate(tmp_path):
    path = sigma_minus_spec_file(tmp_path)
    data = json.loads(path.read_text())
    data["jumps"][0]["rate"] = -2.0
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command, field, value", [
    ("steady", "rate", float("nan")),
    ("verify", "rate", float("inf")),
    ("steady", "hamiltonian", float("-inf")),
    ("pipeline", "target", float("nan")),
    ("verify", "hamiltonian_twice", 1e308),
])
def test_non_finite_inputs_are_validation_errors(
    one_site_files, capsys, command, field, value
):
    tmp, target, ansatz, obs = one_site_files
    if field == "target":
        target.write_text(f"{value} 0.0 ZZ\n")
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz),
                "--observable", str(obs)]
    else:
        path = sigma_minus_spec_file(tmp)
        data = json.loads(path.read_text())
        if field == "rate":
            data["jumps"][0]["rate"] = value
        elif field == "hamiltonian_twice":
            # each entry is finite, but the two sum past the float range
            data["hamiltonian"] = [[value, 0.0, "Z"]] * 2
        else:
            data["hamiltonian"] = [[value, 0.0, "Z"]]
        path.write_text(json.dumps(data))
        args = [command, "--spec", str(path)]
    assert cli.main(args + ["--out", str(tmp / "r")]) == cli.EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command, spec, message", [
    # every input is finite, but F (x) F* and the scale overflow
    ("steady", {"n": 1, "hamiltonian": [[1e308, 0.0, "X"]],
                "jumps": [{"rate": 1e308, "op": [[1e308, 0.0, "X"]]}]},
     "generator overflows"),
    # the generator's entries (1e200) are finite, their squares are not
    ("verify", {"n": 1, "hamiltonian": [[1e200, 0.0, "X"]],
                "jumps": [{"rate": 1.0, "op": [[1.0, 0.0, "Z"]]}]},
     "squared generator overflows"),
    # the squares (about 1e308) are finite, M + M^dag is not
    ("verify", {"n": 1, "hamiltonian": [[7e153, 0.0, "X"]],
                "jumps": [{"rate": 1.0, "op": [[1.0, 0.0, "Z"]]}]},
     "squared generator overflows"),
])
def test_overflowing_generators_are_validation_errors(
    tmp_path, capsys, command, spec, message
):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([command, "--spec", str(path), "--out", str(tmp_path / "r")])
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


@pytest.mark.parametrize("budget", [["--shots", "100"], ["--eps", "0.1"]])
def test_overflowing_observable_norm_is_a_validation_error(tmp_path, capsys, budget):
    # the coefficient is finite, its square is past the float range
    spec = sigma_minus_spec_file(tmp_path)
    obs = tmp_path / "obs.txt"
    obs.write_text("1e300 0.0 ZI\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["measure", "--spec", str(spec), "--observable", str(obs),
                       "--out", str(tmp_path / "r")] + budget)
    assert rc == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "observable norm overflows" in err[0]


def _spec_with(tmp, field, value):
    path = sigma_minus_spec_file(tmp)
    data = json.loads(path.read_text())
    if field == "rate":
        data["jumps"][0]["rate"] = value
    else:
        data[field] = value
    path.write_text(json.dumps(data))
    return path


def _truncated(path):
    path.write_text(path.read_text()[:25])
    return path


@pytest.mark.parametrize("case", [
    "rate_not_a_number",
    "truncated_spec",
    "n_not_a_number",
    "n_negative",
    "missing_spec",
    "bad_sizes",
    "ansatz_without_sites",
    "truncated_circuit",
])
def test_malformed_inputs_are_one_line_validation_errors(
    one_site_files, capsys, case
):
    tmp, target, ansatz, obs = one_site_files
    if case == "rate_not_a_number":
        args = ["verify", "--spec", str(_spec_with(tmp, "rate", "abc"))]
    elif case == "truncated_spec":
        args = ["verify", "--spec", str(_truncated(sigma_minus_spec_file(tmp)))]
    elif case == "n_not_a_number":
        args = ["verify", "--spec", str(_spec_with(tmp, "n", "one"))]
    elif case == "n_negative":
        spec = tmp / "negative.json"
        spec.write_text(json.dumps({"n": -1, "hamiltonian": [], "jumps": []}))
        args = ["verify", "--spec", str(spec)]
    elif case == "missing_spec":
        args = ["verify", "--spec", str(tmp / "missing.json")]
    elif case == "bad_sizes":
        args = ["xl-bench", "--sizes", "5:x"]
    elif case == "ansatz_without_sites":
        ansatz.write_text(json.dumps({"type": "xxz_chain"}))
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz),
                "--observable", str(obs)]
    else:
        circuit = tmp / "circuit.json"
        circuit.write_text(json.dumps(
            {"n": 1, "layers": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]]}
        ))
        args = ["encode-circuit", "--circuit", str(_truncated(circuit))]
    assert cli.main(args + ["--out", str(tmp / "r")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error")


@pytest.mark.parametrize("case", ["hamiltonian", "jump", "observable", "target"])
def test_input_of_the_wrong_width_is_one_line_validation_error(
    one_site_files, capsys, case
):
    tmp, target, ansatz, obs = one_site_files
    spec = sigma_minus_spec_file(tmp)
    if case in ("hamiltonian", "jump"):
        data = {"n": 1, "hamiltonian": [[1.0, 0.0, "ZZ"]], "jumps": []}
        if case == "jump":
            data = {"n": 1, "hamiltonian": [],
                    "jumps": [{"rate": 1.0, "op": [[1.0, 0.0, "XX"]]}]}
        spec.write_text(json.dumps(data))
        args = ["steady", "--spec", str(spec)]
        message = "qubit count differs from spec"
    elif case == "observable":
        obs.write_text("1.0 0.0 ZZZ\n")
        args = ["measure", "--spec", str(spec), "--observable", str(obs)]
        message = "doubled (even) register"
    else:
        target.write_text("1.0 0.0 ZZZZ\n")
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz),
                "--observable", str(obs)]
        message = "does not double"
    assert cli.main(args + ["--out", str(tmp / "r")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error") and message in err[0]


@pytest.mark.parametrize("field, value", [
    ("n", 1.7), ("n", True), ("n", float("inf")),
    ("sites", 2.5), ("sites", True),
    ("custom_n", 1.5), ("custom_locality", False),
    ("family_n", True), ("family_locality", 2.5),
])
def test_count_that_is_not_an_integer_is_one_line_validation_error(
    one_site_files, capsys, field, value
):
    tmp, target, ansatz, obs = one_site_files
    if field == "n":
        args = ["steady", "--spec", str(_spec_with(tmp, "n", value))]
    else:
        if field == "sites":
            data = {"type": "xxz_chain", "sites": value}
        elif field.startswith("custom"):
            data = json.loads(ansatz.read_text())
            data[field.split("_")[1]] = value
        else:
            data = {"type": "full_local_family", "n": 1, "locality": 2}
            data[field.split("_")[1]] = value
        ansatz.write_text(json.dumps(data))
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz),
                "--observable", str(obs)]
    assert cli.main(args + ["--out", str(tmp / "r")]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error") and "integer" in err[0]


@pytest.mark.parametrize("shots", [-5, 0, 1, 3, 4])
def test_measure_and_pipeline_split_shots_alike(one_site_files, capsys, shots):
    # half the shots go to each of the Hadamard and Swap halves; below two
    # a half would be empty, and both commands refuse that alike
    tmp, target, ansatz, obs = one_site_files
    spec = sigma_minus_spec_file(tmp)
    runs = {
        "measure_report.json": ["measure", "--spec", str(spec)],
        "pipeline_report.json": ["pipeline", "--target", str(target),
                                 "--ansatz", str(ansatz)],
    }
    for report, args in runs.items():
        out = tmp / report
        code = cli.main(args + ["--observable", str(obs), "--shots", str(shots),
                                "--out", str(out)])
        if shots < 2:
            assert code == cli.EXIT_VALIDATION
            assert capsys.readouterr().err.splitlines() == [
                "error[measure] the observable has 1 terms and needs one "
                f"Hadamard shot per term: at least 1 (--shots 2), got {shots // 2}"]
            assert not (out / report).exists()
            continue
        assert code == cli.EXIT_OK
        data = json.loads((out / report).read_text())
        assert data["estimate"]["shots"] == 2 * (shots // 2)


@pytest.mark.parametrize("command", ["measure", "pipeline"])
@pytest.mark.parametrize("flag, value, message", [
    ("--eps", "1e-10", "shot counts above 9223372036854775807 cannot be sampled"),
    ("--eps", "1e-300", "gamma 1 and epsilon 1e-300 ask for more shots"),
    ("--shots", "100000000000000000000",
     "shot counts above 9223372036854775807 cannot be sampled"),
])
def test_shot_count_past_the_sampler_is_one_line_error(
    one_site_files, capsys, command, flag, value, message
):
    # numpy's binomial draws at most 2^63 - 1 shots, and an epsilon whose
    # square underflows makes no budget at all
    tmp, target, ansatz, obs = one_site_files
    if command == "measure":
        args = ["measure", "--spec", str(sigma_minus_spec_file(tmp))]
    else:
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz)]
    code = cli.main(args + ["--observable", str(obs), flag, value,
                            "--gamma", "1", "--out", str(tmp / "r")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[measure] {message}")


@pytest.mark.parametrize("command", ["measure", "pipeline"])
@pytest.mark.parametrize("shots", [1, 2, 3, 4])
def test_shots_below_one_per_term_is_one_line_error(
    one_site_files, capsys, command, shots
):
    tmp, target, ansatz, _ = one_site_files
    obs = tmp / "two_terms.txt"
    obs.write_text(format_pauli_sum(
        PauliSum.from_letter_terms([(1.0, "ZZ"), (0.3, "XX")])
    ))
    if command == "measure":
        args = ["measure", "--spec", str(sigma_minus_spec_file(tmp))]
    else:
        args = ["pipeline", "--target", str(target), "--ansatz", str(ansatz)]
    code = cli.main(args + ["--observable", str(obs), "--shots", str(shots),
                            "--out", str(tmp / "r")])
    if shots < 4:
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "2 terms" in err[0]
    else:
        assert code == cli.EXIT_OK


@pytest.mark.parametrize("command", ["steady", "verify", "measure", "encode-circuit"])
def test_past_dense_cap_is_one_line_error(tmp_path, capsys, command):
    # a 7-qubit spec and a 5-qubit, depth-3 circuit (2 clock qubits) both
    # need 14 dense qubits, past the 12-qubit cap
    if command == "encode-circuit":
        eye = [[[float(i == j), 0.0] for j in range(32)] for i in range(32)]
        path = tmp_path / "circuit.json"
        path.write_text(json.dumps({"n": 5, "layers": [eye] * 3}))
        args = ["encode-circuit", "--circuit", str(path)]
    else:
        spec = rand_lme_spec(7, np.random.default_rng(7))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(lme_to_json_dict(spec)))
        args = [command, "--spec", str(path)]
    if command == "measure":
        obs = tmp_path / "obs.txt"
        obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "Z" * 14)])))
        args += ["--observable", str(obs)]
    assert cli.main(args + ["--out", str(tmp_path / "r")]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[")
    assert "14 qubits exceeds the cap of 12" in err[0]
    if command == "encode-circuit":
        assert err[0].startswith("error[encode 5+2 clock qubits, doubled]")


def test_eps_budget_gives_one_hadamard_shot_per_term(tmp_path, capsys):
    # small weights make the --eps budget 2 shots, one per half, fewer
    # than the observable's two terms; the Hadamard half is raised to 2
    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(
        PauliSum.from_letter_terms([(0.01, "ZZ"), (0.01, "XX")])
    ))
    out = tmp_path / "r"
    assert cli.main(
        ["measure", "--spec", str(sigma_minus_spec_file(tmp_path)),
         "--observable", str(obs), "--eps", "0.5", "--out", str(out)]
    ) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    data = json.loads((out / "measure_report.json").read_text())
    assert data["plan"]["n_h"] == data["plan"]["n_s"] == 2
    assert data["estimate"]["mse_bound"] <= 0.5 ** 2


def test_steady_and_measure_commands(tmp_path):
    path = sigma_minus_spec_file(tmp_path)
    assert cli.main(["steady", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    report = json.loads((tmp_path / "steady_report.json").read_text())
    assert report["spectral"]["steady_dim"] == 1
    assert abs(report["spectral"]["gap"] - 0.5) < 1e-9
    assert report["warnings"] == []

    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    assert cli.main(
        ["measure", "--spec", str(path), "--observable", str(obs),
         "--out", str(tmp_path), "--shots", "4000"]
    ) == cli.EXIT_OK
    data = json.loads((tmp_path / "measure_report.json").read_text())
    assert abs(data["exact"] - 1.0) < 1e-10
    assert abs(data["estimate"]["value"] - 1.0) < 0.1


def test_steady_with_degenerate_steady_space(tmp_path):
    # a two-dimensional steady space: state differences need not contract,
    # so no mixing time is estimated (and none is attempted)
    spec = rand_lme_spec(3, np.random.default_rng(3), jumps=2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(lme_to_json_dict(spec)))
    # the failed PSD repair is reported in the artifact, not warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(
            ["steady", "--spec", str(path), "--seed", "0", "--probes", "3",
             "--out", str(tmp_path)]
        ) == cli.EXIT_OK
    report = json.loads((tmp_path / "steady_report.json").read_text())
    assert report["spectral"]["steady_dim"] == 2
    assert report["spectral"]["mixing_time_estimate"] is None
    assert len(report["warnings"]) == 1
    assert report["warnings"][0].startswith(
        "degenerate steady space: PSD repair failed"
    )


def test_cancelling_generator_has_every_state_steady(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(IDENTITY_JUMP_SPEC))
    assert cli.main(["steady", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    report = json.loads((tmp_path / "steady_report.json").read_text())
    assert report["spectral"]["steady_dim"] == 4 and len(report["states"]) == 4
    assert report["warnings"][0].startswith("degenerate steady space")
    assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    props = json.loads((tmp_path / "verify_report.json").read_text())["properties"]
    assert props["steady_dim"] == props["ground_dim"] == 4
    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    capsys.readouterr()
    # measure refuses the degenerate space before any PSD repair warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["measure", "--spec", str(path), "--observable", str(obs),
                       "--shots", "200", "--out", str(tmp_path)])
    assert rc == cli.EXIT_NO_STEADY_STATE
    assert caught == []
    assert capsys.readouterr().err == (
        "error[steady_state] need a unique steady state, found 4\n"
    )


def test_steady_space_below_rounding_of_the_terms(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(RANK_FLOOR_SPEC))
    assert cli.main(["steady", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    report = json.loads((tmp_path / "steady_report.json").read_text())
    assert report["spectral"]["steady_dim"] == 8 and len(report["states"]) == 8
    assert cli.main(["verify", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    props = json.loads((tmp_path / "verify_report.json").read_text())["properties"]
    assert props["steady_dim"] == props["ground_dim"] == 8
    assert capsys.readouterr().err == ""


def test_steady_at_exceptional_point(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(EXCEPTIONAL_POINT_SPEC))
    assert cli.main(["steady", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_OK
    spectral = json.loads((tmp_path / "steady_report.json").read_text())["spectral"]
    assert spectral["diagonalizable"] is False and spectral["steady_dim"] == 1
    assert spectral["mixing_time_estimate"] > 0


def test_runtime_needs_numpy_alone(tmp_path):
    # a None entry in sys.modules makes every scipy import raise
    steady_spec = tmp_path / "steady.json"
    steady_spec.write_text(json.dumps(EXCEPTIONAL_POINT_SPEC))
    spec = sigma_minus_spec_file(tmp_path)
    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    script = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        from lgw import cli
        runs = [
            ["steady", "--spec", {str(steady_spec)!r}],
            ["verify", "--spec", {str(spec)!r}],
            ["measure", "--spec", {str(spec)!r}, "--observable", {str(obs)!r},
             "--shots", "400"],
            ["xl-bench", "--sizes", "5:6", "--reps", "1"],
        ]
        for argv in runs:
            assert cli.main(argv + ["--out", {str(tmp_path)!r}]) == 0, argv
        loaded = [k for k, m in sys.modules.items()
                  if k.startswith("scipy") and m is not None]
        assert not loaded, loaded
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma takes about 15 ms and 1 MB to import, and np.union1d or a
    # plain np.unique loads it
    ansatz = LiouvillianAnsatz.xxz_chain(3)
    target = ansatz.forward_ldl([0.3 + 0.1 * k for k in range(ansatz.num_h)],
                                [0.4 + 0.2 * k for k in range(ansatz.num_jumps)])
    (tmp_path / "target.txt").write_text(format_pauli_sum(target))
    (tmp_path / "ansatz.json").write_text(json.dumps({"type": "xxz_chain",
                                                      "sites": 3}))
    (tmp_path / "xxz_obs.txt").write_text("1.0 0.0 ZIIIII\n")
    spec = sigma_minus_spec_file(tmp_path)
    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    script = textwrap.dedent(f"""
        import sys
        from lgw import cli
        runs = [
            ["pipeline", "--target", {str(tmp_path / "target.txt")!r},
             "--ansatz", {str(tmp_path / "ansatz.json")!r},
             "--observable", {str(tmp_path / "xxz_obs.txt")!r}, "--shots", "20000"],
            ["xl-bench", "--sizes", "5", "--reps", "1"],
            ["verify", "--spec", {str(spec)!r}],
            ["steady", "--spec", {str(spec)!r}],
            ["measure", "--spec", {str(spec)!r}, "--observable", {str(obs)!r},
             "--shots", "400"],
        ]
        for argv in runs:
            assert cli.main(argv + ["--out", {str(tmp_path)!r}]) == 0, argv
            assert "numpy.ma" not in sys.modules, argv
    """)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_linalg_error_is_one_error_line(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli.lindblad, "spectral_diagnostics", diverge)
    path = sigma_minus_spec_file(tmp_path)
    assert cli.main(["steady", "--spec", str(path), "--out", str(tmp_path)]) \
        == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: linear algebra failed: SVD did not converge"
    ]


def test_measure_needs_unique_steady_state(tmp_path):
    spec = LmeSpec(1, PauliSum.from_letter_terms([(1.0, "Z")]), ())
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(lme_to_json_dict(spec)))
    obs = tmp_path / "obs.txt"
    obs.write_text(format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    rc = cli.main(
        ["measure", "--spec", str(path), "--observable", str(obs),
         "--out", str(tmp_path), "--shots", "100"]
    )
    assert rc == cli.EXIT_NO_STEADY_STATE


def test_encode_circuit_command(tmp_path):
    circuit = {
        "n": 1,
        "layers": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(circuit))
    assert cli.main(
        ["encode-circuit", "--circuit", str(path), "--out", str(tmp_path)]
    ) == cli.EXIT_OK
    data = json.loads((tmp_path / "clock_lme.json").read_text())
    assert data["clock_dim"] == 2 and data["n"] == 2
    assert len(data["jumps"]) == 3


def test_verify_clock_encoding(tmp_path):
    circuit = {
        "n": 1,
        "layers": [[[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]],
    }
    cpath = tmp_path / "circuit.json"
    cpath.write_text(json.dumps(circuit))
    assert cli.main(
        ["encode-circuit", "--circuit", str(cpath), "--out", str(tmp_path)]
    ) == cli.EXIT_OK
    assert cli.main(
        ["verify", "--spec", str(tmp_path / "clock_lme.json"),
         "--out", str(tmp_path)]
    ) == cli.EXIT_OK


def test_pipeline_xxz_chain_end_to_end(tmp_path):
    ansatz = LiouvillianAnsatz.xxz_chain(5)
    rng_vals = ([0.6] * ansatz.num_h, [0.8] * ansatz.num_jumps)
    target = ansatz.forward_ldl(*rng_vals)
    (tmp_path / "target.txt").write_text(format_pauli_sum(target))
    (tmp_path / "ansatz.json").write_text(json.dumps({"type": "xxz_chain",
                                                      "sites": 5}))
    obs = PauliSum.from_letter_terms([(1.0, "Z" + "I" * 9)])
    (tmp_path / "obs.txt").write_text(format_pauli_sum(obs))
    out = tmp_path / "run"
    rc = cli.main(
        ["pipeline", "--target", str(tmp_path / "target.txt"),
         "--ansatz", str(tmp_path / "ansatz.json"),
         "--observable", str(tmp_path / "obs.txt"), "--out", str(out),
         "--shots", "20000"]
    )
    assert rc == cli.EXIT_OK
    report = json.loads((out / "pipeline_report.json").read_text())
    assert report["solution_residual"] < 1e-8
    assert report["runtime_bound"]["kind"] == "mixing"


def _jump_only_pipeline(tmp_path, letters, rates):
    """Run ``lgw pipeline`` on one qubit with no Hamiltonian patterns and one
    unit-weight jump per letter, targeting the square of ``rates``."""
    jumps = tuple(PauliSum.from_letter_terms([(1.0, letter)]) for letter in letters)
    target = LiouvillianAnsatz(1, (), jumps, locality=2).forward_ldl([], rates)
    (tmp_path / "target.txt").write_text(format_pauli_sum(target))
    (tmp_path / "ansatz.json").write_text(json.dumps(
        {"type": "custom", "n": 1, "locality": 2, "hamiltonian": [],
         "jumps": [[[1.0, 0.0, letter]] for letter in letters]}))
    (tmp_path / "obs.txt").write_text(
        format_pauli_sum(PauliSum.from_letter_terms([(1.0, "ZZ")])))
    return cli.main(
        ["pipeline", "--target", str(tmp_path / "target.txt"),
         "--ansatz", str(tmp_path / "ansatz.json"),
         "--observable", str(tmp_path / "obs.txt"), "--out", str(tmp_path)]
    )


def test_pipeline_hermitian_generator_takes_the_gap_bound(tmp_path):
    # X and Z dephasing give a Hermitian generator with decay rates
    # 2 * 0.4, 2 * 0.7 and 2 * (0.7 + 0.4)
    assert _jump_only_pipeline(tmp_path, "XZ", [0.7, 0.4]) == cli.EXIT_OK
    report = json.loads((tmp_path / "pipeline_report.json").read_text())
    bound = report["runtime_bound"]
    assert bound["kind"] == "hermitian"
    assert bound["value"] == report["spectral"]["gap"]
    assert abs(bound["value"] - 0.8) < 1e-8


def test_pipeline_needs_unique_steady_state(tmp_path, capsys):
    # Z dephasing alone keeps every diagonal state steady
    assert _jump_only_pipeline(tmp_path, "Z", [0.4]) == cli.EXIT_NO_STEADY_STATE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error[steady_state] steady space has dimension 2")
    assert not (tmp_path / "pipeline_report.json").exists()


def test_xl_bench_empty_and_small(tmp_path):
    assert cli.main(
        ["xl-bench", "--sizes", "", "--reps", "2", "--out", str(tmp_path)]
    ) == cli.EXIT_OK
    text = (tmp_path / "xl_bench.csv").read_text()
    assert text.strip() == "N,rep,n_e,n_u,wall_time_ms,residual,matrix_density"

    assert cli.main(
        ["xl-bench", "--sizes", "5,6", "--reps", "2", "--out", str(tmp_path)]
    ) == cli.EXIT_OK
    lines = (tmp_path / "xl_bench.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    for line in lines[1:]:
        residual = float(line.split(",")[5])
        assert residual < 1e-6
    summary = (tmp_path / "xl_bench_summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2


def test_xl_bench_rows_independent_of_order(tmp_path):
    # per-row seeding depends only on (seed, N, rep)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["xl-bench", "--sizes", "5,6", "--reps", "1", "--out", str(out_a)])
    cli.main(["xl-bench", "--sizes", "6", "--reps", "1", "--out", str(out_b)])
    row_a = [l for l in (out_a / "xl_bench.csv").read_text().splitlines()
             if l.startswith("6,0")][0]
    row_b = [l for l in (out_b / "xl_bench.csv").read_text().splitlines()
             if l.startswith("6,0")][0]
    # everything except wall time matches
    cols_a, cols_b = row_a.split(","), row_b.split(",")
    assert cols_a[:4] == cols_b[:4] and cols_a[5] == cols_b[5]


@pytest.mark.parametrize("command", [
    "pipeline", "xl-bench", "verify", "steady", "measure", "encode-circuit",
])
@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_seed_that_is_not_a_non_negative_integer_is_one_line_error(
    one_site_files, capsys, command, seed
):
    # numpy's seeding refuses negative integers; the parser refuses them
    # first, for every subcommand, before any input is read
    tmp, target, ansatz, obs = one_site_files
    args = {
        "pipeline": ["--target", str(target), "--ansatz", str(ansatz),
                     "--observable", str(obs)],
        "xl-bench": ["--sizes", "5", "--reps", "1"],
        "verify": ["--spec", str(sigma_minus_spec_file(tmp))],
        "steady": ["--spec", str(sigma_minus_spec_file(tmp))],
        "measure": ["--spec", str(sigma_minus_spec_file(tmp)), "--observable", str(obs)],
        "encode-circuit": ["--circuit", str(tmp / "missing.json")],
    }[command]
    out = tmp / "r"
    code = cli.main([command, *args, "--seed", seed, "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --seed must be a non-negative integer, got {seed!r}"]
    assert not out.exists()


def test_negative_probes_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "r"
    code = cli.main(["steady", "--spec", str(sigma_minus_spec_file(tmp_path)),
                     "--probes", "-3", "--out", str(out)])
    assert code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: --probes must be a non-negative integer, got '-3'"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("flag, value", [("--d-max", "1"), ("--reps", "-1")])
def test_xl_bench_bad_degree_or_reps_is_one_line_error(tmp_path, capsys, flag, value):
    code = cli.main(["xl-bench", "--sizes", "5", flag, value, "--out", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}")
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_xl_bench_summary_cells_are_plain_numbers(tmp_path):
    assert cli.main(
        ["xl-bench", "--sizes", "5,6", "--reps", "2", "--out", str(tmp_path)]
    ) == cli.EXIT_OK
    lines = (tmp_path / "xl_bench_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "N,reps,mean_wall_time_ms,std_wall_time_ms,max_residual"
    for line in lines[1:]:
        cells = [float(cell) for cell in line.split(",")]
        assert cells[1] == 2 and cells[4] < 1e-6


def test_xl_bench_with_every_rep_failed_writes_nan_without_warning(
    tmp_path, capsys, monkeypatch
):
    def unsolvable(system, d_max):
        raise cli.UnsolvableError("no root")

    monkeypatch.setattr("lgw.xl.xl_solve", unsolvable)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["xl-bench", "--sizes", "5", "--reps", "2",
                         "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err.count("failed: no root") == 2
    summary = (tmp_path / "xl_bench_summary.csv").read_text().splitlines()
    assert summary[1].startswith("5,2,") and summary[1].endswith(",nan")
