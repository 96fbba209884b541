"""Property tests at the command-line front door: small random specs with
zero rates, zero coefficients and identity-proportional jumps, and specs
whose generators split into several blocks, go through ``steady``,
``verify`` and ``measure`` and must end in a documented exit code with a
well-formed report."""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    block_null_space,
)
from lgw import cli, lindblad
from lgw.lindblad import lme_from_json_dict
from lgw.tolerances import HERMITICITY_TOL, PSD_SLACK, TRACE_TOL

# a degenerate steady space with an anti-Hermitian null vector, whose
# Hermitian part is zero: steady_report.json once held NaN for it
ANTI_HERMITIAN_SPEC = {
    "n": 2,
    "hamiltonian": [],
    "jumps": [{"rate": 1.5, "op": [[0.0, 1.0, "XI"]]},
              {"rate": 2.6737030702429186e-109,
               "op": [[0.421875, 0.27469169734515164, "IX"]]}],
}

# a degenerate steady space with a null vector i|11><11| whose Hermitian
# part is rounding residue of order 1e-285: its norm underflowed to zero
# and steady_report.json held NaN
SUBNORMAL_HERMITIAN_PART_SPEC = {
    "n": 2,
    "hamiltonian": [[0.7840800859455173, 0.0, "XX"],
                    [0.7840800859455173, 0.0, "YY"]],
    "jumps": [{"rate": 0.0, "op": [[0.5, 0.0, "XI"], [0.0, -0.5, "YI"]]},
              {"rate": 1e-300, "op": [[0.5, 0.0, "XI"], [0.0, 0.5, "YI"]]}],
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


# two-qubit Hamiltonian terms and one-qubit jumps as (re, im, letter)
# triples, all of which conserve the ket-minus-bra magnetization
BLOCK_HAMILTONIAN_TERMS = {"ZZ": ["ZZ"], "XX+YY": ["XX", "YY"],
                           "ZI": ["ZI"], "IZ": ["IZ"]}
BLOCK_JUMPS = {"+": [(0.5, 0.0, "X"), (0.0, -0.5, "Y")],
               "-": [(0.5, 0.0, "X"), (0.0, 0.5, "Y")],
               "Z": [(1.0, 0.0, "Z")]}


@st.composite
def block_cases(draw):
    """(spec dict, observable terms) on 2 qubits: 0-3 Hamiltonian terms
    from {ZZ, XX+YY, Z on one qubit} and 2-4 jumps sigma+, sigma- or Z on
    one qubit, so the generator conserves the ket-minus-bra magnetization
    and has at least two blocks."""
    ham = draw(st.lists(st.tuples(coefficients, st.sampled_from(
        sorted(BLOCK_HAMILTONIAN_TERMS))), max_size=3))
    jumps = draw(st.lists(st.tuples(st.floats(0.0, 2.0),
                                    st.sampled_from(sorted(BLOCK_JUMPS)),
                                    st.sampled_from([0, 1])), min_size=2, max_size=4))
    obs_words = draw(st.lists(words(4), min_size=2, max_size=2, unique=True))
    obs_coeffs = draw(st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2))
    spec = {
        "n": 2,
        "hamiltonian": [[c, 0.0, w] for c, term in ham
                        for w in BLOCK_HAMILTONIAN_TERMS[term]],
        "jumps": [{"rate": rate,
                   "op": [[re, im, letter + "I" if site == 0 else "I" + letter]
                          for re, im, letter in BLOCK_JUMPS[kind]]}
                  for rate, kind, site in jumps],
    }
    return spec, list(zip(obs_coeffs, obs_words))


def _run(argv):
    """Exit code and stderr lines of ``cli.main(argv)``, which must emit no
    warning: ``steady`` records them in its report."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert caught == [], [str(w.message) for w in caught]
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
    # a report without warnings holds repaired density matrices
    states = [] if report["warnings"] else np.array(report["states"]) @ [1.0, 1j]

    rc, err = _run(["verify", "--spec", spec_path, "--out", out])
    assert rc in (cli.EXIT_OK, cli.EXIT_FAILURE)
    errors = [line for line in err if line.startswith("error")]
    verified = not errors
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

    # library-level: the edge gather against the dense one, trace
    # preservation, the block rank rule against one SVD of the whole
    # generator, the null vectors against the per-block complex SVDs, the
    # steady states as density matrices that L annihilates, and the
    # block-native checks of verify against their dense forms
    parsed = lme_from_json_dict(spec)[0]
    liouv = assert_gather_matches_dense(parsed)
    dim = 2 ** spec["n"]
    lmat = liouv.matrix
    left = np.eye(dim).reshape(-1) @ lmat
    assert np.abs(left).max() <= 1e-12 * max(1.0, np.abs(lmat).max())
    assert steady_dim == liouv.null_dim == liouv.null_basis.shape[1]
    whole = block_null_space([lmat], [np.arange(dim * dim)], liouv.rounding_floor)
    assert steady_dim == whole.shape[1]
    assert_null_basis_matches_oracle(liouv)
    for rho in states:
        assert np.abs(rho - rho.conj().T).max() <= HERMITICITY_TOL
        assert abs(np.trace(rho) - 1.0) <= TRACE_TOL
        assert np.linalg.eigvalsh(rho).min() >= -PSD_SLACK
        assert np.abs(lmat @ rho.ravel()).max() <= 1e-10 * np.abs(lmat).max()
    if verified:
        assert_ldl_checks_match_dense(*lindblad.build_ldl(parsed, liouv), liouv)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example((IDENTITY_JUMP_SPEC, [(1.0, "ZI"), (0.5, "XX")]))
@example((ANTI_HERMITIAN_SPEC, [(1.0, "IIII"), (1.0, "IIIX")]))
@example((RANK_FLOOR_SPEC, [(1.0, "ZIII"), (0.5, "IXIX")]))
@example((EXCEPTIONAL_POINT_SPEC, [(1.0, "ZIZI"), (0.5, "XXII")]))
def test_front_door_properties(case):
    spec, observable = case
    with tempfile.TemporaryDirectory() as out:
        _check_front_door(spec, observable, out)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(block_cases())
@example((SUBNORMAL_HERMITIAN_PART_SPEC, [(1.0, "IIII"), (1.0, "IIIX")]))
def test_multi_block_front_door_properties(case):
    spec, observable = case
    parsed = lme_from_json_dict(spec)[0]
    liouv = assert_matches_dense(parsed)
    assert len(liouv.blocks) >= 2
    assert_factors_match_dense(liouv)
    assert_ldl_matches_dense(parsed)
    with tempfile.TemporaryDirectory() as out:
        _check_front_door(spec, observable, out)
