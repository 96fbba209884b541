"""The tolerance table: every numerical threshold of the package is a
named constant in ``lgw.tolerances``, with its reason beside it."""

import ast
import io
import pathlib
import re
import tokenize

import lgw

SRC = pathlib.Path(lgw.__file__).parent
TABLE = SRC / "tolerances.py"


def test_no_negative_exponent_literal_outside_the_table():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path == TABLE:
            continue
        tokens = tokenize.tokenize(io.BytesIO(path.read_bytes()).readline)
        found += [f"{path.name}:{tok.start[0]}: {tok.string}" for tok in tokens
                  if tok.type == tokenize.NUMBER
                  and re.search(r"[eE]-", tok.string)]
    assert found == [], "thresholds belong in lgw/tolerances.py:\n" + "\n".join(found)


def test_every_tolerance_has_a_reason_and_a_reader():
    lines = TABLE.read_text(encoding="utf-8").splitlines()
    readers = "\n".join(path.read_text(encoding="utf-8")
                        for path in SRC.glob("*.py") if path != TABLE)
    names = []
    for node in ast.parse("\n".join(lines)).body:
        if isinstance(node, ast.Assign):
            (target,) = node.targets
            names.append(target.id)
            assert lines[node.lineno - 2].startswith("# "), \
                f"{target.id} has no reason comment above it"
            assert isinstance(node.value, ast.Constant)
            assert isinstance(node.value.value, float), target.id
            assert re.search(rf"\b{target.id}\b", readers), \
                f"no module reads {target.id}"
    assert names and len(names) == len(set(names))
