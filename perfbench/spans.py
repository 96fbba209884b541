"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the lgw modules at run time
(every module namespace that binds the same function object is
patched, so intra-package calls are seen too) and records one span per
call: name, module, start, end, parent span and operation id.  Counts
are taken at the same boundaries.  numpy.linalg factorizations on
matrices of FACTORIZATION_MIN_ROWS rows or more, including those that
numpy's own helpers (``cond``, ``pinv``, ``norm(ord=2)``) make
internally, are attributed to the innermost enclosing module span, or
to ``cli`` when there is none.

Nothing here changes what a wrapped function computes: each wrapper
calls the original with the same arguments and returns its result.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import time
from collections import defaultdict

MODULES = ("pauli", "lindblad", "measure", "xl", "encodings", "cli")
FACTORIZATIONS = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "inv")
FACTORIZATION_MIN_ROWS = 256

# The CLI documents its wall-clock fields as the only bytes that change
# between runs of one seed; cli.write_bytes leaves their values out so
# that the count repeats exactly.
_WALL_CLOCK_VALUE = re.compile(r'("wall_time_ms": )[-+0-9.eE]+')


def _bytes_without_wall_clock(text: str) -> int:
    return len(_WALL_CLOCK_VALUE.sub(r"\1", text).encode("utf-8"))


def _count_words(counts, args, kwargs, result):
    counts["pauli.to_matrix.words"] += len(args[0])


def _count_decompose(counts, args, kwargs, result):
    counts["pauli.decompose.calls"] += 1


def _count_word_products(counts, args, kwargs, result):
    counts["pauli.matmul.word_products"] += len(args[0]) * len(args[1])


def _count_steps(counts, args, kwargs, result):
    counts["lindblad.evolve.steps"] += int(
        args[3] if len(args) > 3 else kwargs["steps"]
    )


def _count_hadamard(counts, args, kwargs, result):
    counts["measure.hadamard_sample.calls"] += 1
    counts["measure.substitute_words"] += len(args[0])


def _count_norms(counts, args, kwargs, result):
    counts["measure.observable_norms.calls"] += 1


def _count_shots(counts, args, kwargs, result):
    counts["measure.shots"] += int(result.shots)


def _count_system(counts, args, kwargs, result):
    counts["xl.n_e"] += result.n_e
    counts["xl.n_u"] += result.n_u


def _count_solve(counts, args, kwargs, result):
    counts["xl.rounds"] += result.report.rounds
    counts["xl.nodes"] += result.report.nodes


def _count_linearized(counts, args, kwargs, result):
    rows, cols = result.shape
    counts["xl.lin_rows"] += rows
    counts["xl.lin_cols"] += cols
    counts["xl.lin_cells"] += rows * cols


def _count_write(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["cli.write_bytes"] += _bytes_without_wall_clock(text)


# (module, attribute path, span name or None, count hook or None)
TARGETS = (
    ("pauli", "to_matrix", "pauli.to_matrix", _count_words),
    ("pauli", "pauli_decompose", "pauli.decompose", _count_decompose),
    ("pauli", "PauliSum.__matmul__", "pauli.matmul", _count_word_products),
    ("lindblad", "build_liouvillian", "lindblad.build_liouvillian", None),
    ("lindblad", "spectral_diagnostics", "lindblad.spectral_diagnostics", None),
    ("lindblad", "evolve", "lindblad.evolve", _count_steps),
    ("lindblad", "build_ldl", "lindblad.build_ldl", None),
    ("lindblad", "verify_ldl_properties", "lindblad.verify_ldl_properties", None),
    ("measure", "MeasurementPlan.build", "measure.plan_build", None),
    ("measure", "estimate_expectation", "measure.estimate", _count_shots),
    ("measure", "hadamard_sample", "measure.hadamard_sample", _count_hadamard),
    ("measure", "observable_norms", "measure.observable_norms", _count_norms),
    ("measure", "exact_expectation", "measure.exact_expectation", None),
    ("encodings", "circuit_to_lme", "encodings.circuit_to_lme", None),
    ("encodings", "feynman_steady_state", "encodings.feynman_steady_state", None),
    ("encodings", "p1_from_steady", "encodings.p1_from_steady", None),
    ("xl", "LiouvillianAnsatz.forward_ldl", "xl.forward_ldl", None),
    ("xl", "build_mq_system", "xl.build_mq_system", _count_system),
    ("xl", "xl_solve", "xl.xl_solve", _count_solve),
    ("xl", "extend_equations", "xl.extend_equations", None),
    ("xl", "linearize", "xl.linearize", _count_linearized),
    ("xl", "eliminate", "xl.eliminate", None),
    ("xl", "verify_solution", "xl.verify_solution", None),
    ("cli", "main", "cli.main", None),
    ("cli", "atomic_write", None, _count_write),
)

SPAN_NAMES = tuple(name for _, _, name, _ in TARGETS if name is not None)
COUNT_NAMES = (
    "pauli.to_matrix.words",
    "pauli.decompose.calls",
    "pauli.matmul.word_products",
    "lindblad.evolve.steps",
    "measure.hadamard_sample.calls",
    "measure.substitute_words",
    "measure.observable_norms.calls",
    "measure.shots",
    "xl.n_e",
    "xl.n_u",
    "xl.rounds",
    "xl.nodes",
    "xl.lin_rows",
    "xl.lin_cols",
    "xl.lin_cells",
    "cli.write_bytes",
) + tuple(f"{module}.factorizations" for module in MODULES)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []     # [name, module, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, fn, name, module, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = None
            if name is not None:
                index = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(
                    [name, module, time.perf_counter(), None, parent, tracer.op_id]
                )
                tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                if index is not None:
                    tracer._stack.pop()
                    tracer.spans[index][3] = time.perf_counter()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_factorization(self, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if not tracer._paused and shape and shape[0] >= FACTORIZATION_MIN_ROWS:
                module = "cli"
                if tracer._stack:
                    module = tracer.spans[tracer._stack[-1]][1]
                tracer.counts[f"{module}.factorizations"] += 1
            return fn(a, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.linalg

        import lgw  # noqa: F401  (loads every lgw module)

        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "lgw" or key.startswith("lgw.")
        ]
        for module, path, name, hook in TARGETS:
            home = sys.modules[f"lgw.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, module, hook))
                else:
                    wrapped = self._wrap(raw, name, module, hook)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(home, path)
            wrapped = self._wrap(original, name, module, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)
        # numpy.linalg helpers such as cond, pinv and norm(ord=2) call svd
        # and inv through numpy's private module, so patch it as well.
        linalg_namespaces = [numpy.linalg, getattr(numpy.linalg, "_linalg", None)]
        for fname in FACTORIZATIONS:
            original = getattr(numpy.linalg, fname)
            wrapped = self._wrap_factorization(original)
            for ns in linalg_namespaces:
                if ns is not None and vars(ns).get(fname) is original:
                    self._patch(ns, fname, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are neither spanned nor counted."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, module, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {name: 0.0 for name in SPAN_NAMES}
        for i, (name, module, start, end, parent, op) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return totals

    def durations(self, name: str) -> list[tuple[int | None, float]]:
        """(operation id, inclusive duration) of every span with this name."""
        return [(s[5], s[3] - s[2]) for s in self.spans if s[0] == name]

    def all_counts(self) -> dict[str, int]:
        return {key: int(self.counts.get(key, 0)) for key in COUNT_NAMES}

    def write(self, path: str) -> None:
        keys = ("name", "module", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
