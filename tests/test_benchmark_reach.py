"""The names in ``src/`` that the benchmark under ``perfbench/`` reaches.

The benchmark runs this tree's ``src/``, and its own smoke test runs
outside Tier-1, so removing or renaming one of these names would
otherwise fail there first.  ``perfbench/`` is read here, never changed.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from lgw import lindblad, measure
from lgw.errors import DimensionError
from lgw.lindblad import SuperOp
from lgw.pauli import PauliString, PauliSum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A ``perfbench`` module, loaded from its file (and registered, as its
    dataclasses need)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_reaches_names_that_resolve():
    # every span target, resolved as the tracer resolves it: a method
    # from its class's own namespace, a function from its module
    for module, path, _, _ in load("spans").TARGETS:
        home = importlib.import_module(f"lgw.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(home, cls_name)), path
        else:
            assert callable(getattr(home, path)), path
    # the step counter reads evolve's fourth argument, or ``steps``
    assert list(inspect.signature(lindblad.evolve).parameters).index("steps") == 3
    # perfbench/describe.py reads these three
    assert callable(measure.substitute) and callable(lindblad._null_space)
    assert "matrix" in vars(SuperOp)


def test_the_spec_builders_dict_constructor_matches_from_letter_terms():
    # verify-spec3's builder keys a dict by PauliString.from_letters and
    # hands it to PauliSum; that is from_letter_terms on distinct words
    rng = np.random.default_rng(36)
    for n in (2, 3, 33):
        words = {}
        while len(words) < 5:
            words["".join(rng.choice(list("IXYZ"), size=n))] = complex(
                rng.normal(), rng.normal())
        # pruned alike: a coefficient below the tolerance is dropped
        words["I" * n] = 1e-15
        got = PauliSum(n, {PauliString.from_letters(w): c for w, c in words.items()})
        want = PauliSum.from_letter_terms((c, w) for w, c in words.items())
        assert got.letters() == want.letters() and len(got) == len(words) - 1
        assert np.array_equal(got.word_keys, want.word_keys)
        assert np.array_equal(got.coeffs.view(np.uint64), want.coeffs.view(np.uint64))
    # a word of another width is a DimensionError on both paths
    with pytest.raises(DimensionError):
        PauliSum(3, {PauliString.from_letters("XY"): 1.0})
    with pytest.raises(DimensionError):
        PauliSum.from_letter_terms([(1.0, "XYZ"), (1.0, "XY")])
    # and the benchmark's own builder still runs
    spec = load("workloads").random_spec(3, np.random.default_rng(36))
    assert spec.n == 3 and len(spec.jumps) == 2
