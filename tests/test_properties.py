"""Property tests at the command-line front door: small random specs with
zero rates, zero coefficients and identity-proportional jumps go through
``steady``, ``verify`` and ``measure`` and must end in a documented exit
code with a well-formed report."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import IDENTITY_JUMP_SPEC
from lgw import cli
from lgw.lindblad import _null_space, build_liouvillian, lme_from_json_dict

# a degenerate steady space with an anti-Hermitian null vector, whose
# Hermitian part is zero: steady_report.json once held NaN for it
ANTI_HERMITIAN_SPEC = {
    "n": 2,
    "hamiltonian": [],
    "jumps": [{"rate": 1.5, "op": [[0.0, 1.0, "XI"]]},
              {"rate": 2.6737030702429186e-109,
               "op": [[0.421875, 0.27469169734515164, "IX"]]}],
}

SPECTRAL_KEYS = {"gap", "steady_dim", "diagonalizable", "mixing_time_estimate",
                 "eigenvalues"}
REPORT_KEYS = {
    "steady": {"spectral", "states", "purities", "warnings"},
    "verify": {"properties", "spectral", "spot_check_error", "checks"},
    "measure": {"exact", "estimate", "plan", "gamma"},
}


def words(n):
    """Words on n qubits, the identity drawn on its own as well."""
    return st.one_of(st.just("I" * n),
                     st.text(alphabet="IXYZ", min_size=n, max_size=n))


coefficients = st.floats(-2.0, 2.0)


@st.composite
def cases(draw):
    """(spec dict, observable terms): 1-2 qubits, 0-3 real Hamiltonian
    terms, 0-3 jumps of rate 0 or U(0, 2) with 1-3 complex words, and a
    2-term observable on the doubled register."""
    n = draw(st.sampled_from([1, 2]))
    ham = draw(st.lists(st.tuples(coefficients, words(n)), max_size=3))
    jumps = draw(st.lists(
        st.fixed_dictionaries({
            "rate": st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
            "op": st.lists(st.tuples(coefficients, coefficients, words(n)),
                           min_size=1, max_size=3),
        }),
        max_size=3,
    ))
    obs_words = draw(st.lists(words(2 * n), min_size=2, max_size=2, unique=True))
    obs_coeffs = draw(st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2))
    spec = {
        "n": n,
        "hamiltonian": [[c, 0.0, w] for c, w in ham],
        "jumps": [{"rate": j["rate"], "op": [list(t) for t in j["op"]]}
                  for j in jumps],
    }
    return spec, list(zip(obs_coeffs, obs_words))


def _run(argv):
    """Exit code and stderr lines of ``cli.main(argv)``; warnings are
    dropped (``measure`` lets a failed PSD repair through)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main(argv)
    return rc, err.getvalue().splitlines()


def _strict_json(path):
    def refuse(const):
        raise ValueError(f"{path} holds {const}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=refuse)


def _check_front_door(spec, observable, out):
    spec_path = os.path.join(out, "spec.json")
    obs_path = os.path.join(out, "obs.txt")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    with open(obs_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{c!r} 0.0 {w}\n" for c, w in observable)

    rc, err = _run(["steady", "--spec", spec_path, "--out", out])
    assert rc == cli.EXIT_OK, err
    report = _strict_json(os.path.join(out, "steady_report.json"))
    assert set(report) == REPORT_KEYS["steady"]
    assert set(report["spectral"]) == SPECTRAL_KEYS
    steady_dim = report["spectral"]["steady_dim"]
    assert steady_dim >= 1 and len(report["states"]) == steady_dim

    rc, err = _run(["verify", "--spec", spec_path, "--out", out])
    assert rc in (cli.EXIT_OK, cli.EXIT_FAILURE)
    errors = [line for line in err if line.startswith("error")]
    if errors:
        assert rc == cli.EXIT_FAILURE and len(err) == 1
    else:
        report = _strict_json(os.path.join(out, "verify_report.json"))
        assert set(report) == REPORT_KEYS["verify"]
        assert set(report["spectral"]) == SPECTRAL_KEYS
        assert report["spectral"]["steady_dim"] == steady_dim
        assert (rc == cli.EXIT_OK) == all(report["checks"].values())

    rc, err = _run(["measure", "--spec", spec_path, "--observable", obs_path,
                    "--shots", "200", "--out", out])
    assert rc in (cli.EXIT_OK, cli.EXIT_NO_STEADY_STATE)
    if rc == cli.EXIT_OK:
        assert steady_dim == 1 and err == []
        report = _strict_json(os.path.join(out, "measure_report.json"))
        assert set(report) == REPORT_KEYS["measure"]
    else:
        assert steady_dim > 1
        assert len(err) == 1 and err[0].startswith("error")

    # library-level: trace preservation and the block rank rule
    liouv = build_liouvillian(lme_from_json_dict(spec)[0])
    dim = 2 ** spec["n"]
    left = np.eye(dim).reshape(-1) @ liouv.matrix
    assert np.abs(left).max() <= 1e-12 * max(1.0, np.abs(liouv.matrix).max())
    assert steady_dim == liouv.null_basis.shape[1]
    assert steady_dim == _null_space(liouv.matrix).shape[1]


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((IDENTITY_JUMP_SPEC, [(1.0, "ZI"), (0.5, "XX")]))
@example((ANTI_HERMITIAN_SPEC, [(1.0, "IIII"), (1.0, "IIIX")]))
def test_front_door_properties(case):
    spec, observable = case
    with tempfile.TemporaryDirectory() as out:
        _check_front_door(spec, observable, out)
