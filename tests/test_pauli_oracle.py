"""Every ``PauliSum`` operation against the dict-backed oracle, bit for bit.

``PauliSum`` stores letter keys and a coefficient array;
``conftest.DictPauliSum`` is the dict of bitmask words it replaced.
Each operation must give the same words in the same term order with the
same float bits (``float.hex`` of each part, so signed zeros count), on
widths either side of the 32-qubit key limb.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DictPauliSum,
    MaskWord,
    exchange_symmetry_defect_by_words,
    format_by_letters,
    parse_by_words,
    sigma_minus_spec,
    sorted_by_letters,
    terms,
)
from lgw import cli, encodings, measure
from lgw.errors import DimensionError, ValidationError
from lgw.lindblad import DensityMatrix, exchange_symmetry_defect, lme_to_json_dict
from lgw.pauli import (
    PauliString,
    PauliSum,
    format_pauli_sum,
    parse_pauli_sum,
    pauli_decompose,
    to_matrix,
)
from lgw.xl import LiouvillianAnsatz, build_mq_system, site_channel

WIDTHS = (0, 1, 31, 32, 33, 64, 66)
# parts that are exactly +-0.0, prune-sized, and ordinary
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-14, 1e-15, -1e-15,
                     2.0 ** -45]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
COEFFS = st.builds(complex, PARTS, PARTS)
SCALARS = st.one_of(COEFFS, st.sampled_from([2, -1, 0, 0.5, -1j, 1e-15]))


def bits(s):
    """Words, term order and float bits of a sum."""
    return [(w, c.real.hex(), c.imag.hex()) for w, c in terms(s)]


@st.composite
def entries(draw, n, max_size=6):
    """(coeff, letters) pairs on n qubits; words may repeat."""
    words = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                          min_size=1, max_size=3))
    return draw(st.lists(st.tuples(COEFFS, st.sampled_from(words)),
                         min_size=1, max_size=max_size))


@st.composite
def pairs(draw, n):
    """Two sums on n qubits, as {letters: coeff} dicts, where the second
    repeats some of the first's words with a coefficient that cancels
    exactly, to below the prune tolerance or to just above it, or does not
    cancel."""
    first = {letters: c for c, letters in draw(entries(n))}
    second = {letters: c for c, letters in draw(entries(n))}
    for word, c in first.items():
        gap = draw(st.sampled_from([None, 0.0, 2.0 ** -50, 2.0 ** -45]))
        if gap is not None:
            second[word] = -c * (1.0 - gap)
    return first, second


def outcome(fn, *args):
    """The bits of fn(*args), or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (DimensionError, ValidationError) as exc:
        return type(exc), str(exc)
    return bits(out) if isinstance(out, (PauliSum, DictPauliSum)) else out


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(WIDTHS).flatmap(lambda n: st.tuples(
    pairs(n), st.sampled_from(WIDTHS).flatmap(pairs), SCALARS, entries(n))))
def test_every_operation_matches_the_dict_oracle(case):
    (first, second), (third, _), scalar, letter_terms = case
    n = len(next(iter(first)))

    def both(words):
        # the benchmark's dict constructor and the oracle's, on one dict
        width = len(next(iter(words)))
        return (PauliSum(width, {PauliString.from_letters(w): c
                                 for w, c in words.items()}),
                DictPauliSum(width, {MaskWord.from_letters(w): c
                                     for w, c in words.items()}))

    (a, da), (b, db), (c, dc) = both(first), both(second), both(third)
    assert bits(a) == bits(da) and bits(b) == bits(db) and bits(c) == bits(dc)
    assert len(a) == len(da) and dict(terms(a)) == dict(terms(da))
    # the exact word path that the builders take keeps them too
    assert bits(PauliSum._from_words(n, first)) == bits(DictPauliSum(
        n, {MaskWord.from_letters(w): complex(z) for w, z in first.items()}))
    for got, want in [
        (a + b, da + db), (a - b, da - db), (b + a, db + da), (-a, -da),
        (a * scalar, da * scalar), (scalar * a, scalar * da),
        (a @ b, da @ db), (b @ a, db @ da), (a.dagger() @ a, da.dagger() @ da),
        (a.dagger(), da.dagger()), (a.transpose(), da.transpose()),
        (a.conj(), da.conj()), (a.tensor(c), da.tensor(dc)),
        (c.tensor(a), dc.tensor(da)),
    ]:
        assert bits(got) == bits(want)
        assert got.n == want.n
    assert terms(a.sorted()) == sorted_by_letters(da)
    assert bits(a.sorted()) == bits(da.sorted())
    assert format_pauli_sum(a) == format_by_letters(da)
    assert repr(a) == repr(da)
    for query in ("is_hermitian", "hermiticity_defect", "frobenius_norm_sq",
                  "max_weight"):
        assert getattr(a, query)() == getattr(da, query)(), query
    assert a.max_coeff_diff(b) == da.max_coeff_diff(db)
    assert a.max_coeff_diff(a) == 0.0
    assert outcome(exchange_symmetry_defect, a) == outcome(
        exchange_symmetry_defect_by_words, da)
    if n <= 1:
        want = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for word, coeff in da.terms.items():
            want += coeff * word.to_matrix()
        assert np.array_equal(to_matrix(a), want)
    # repeated words are summed in entry order from +0.0
    assert outcome(PauliSum.from_letter_terms, letter_terms) == outcome(
        DictPauliSum.from_letter_terms, letter_terms)
    text = "".join(f"{z.real!r} {z.imag!r} {letters}\n"
                   for z, letters in letter_terms)
    assert outcome(parse_pauli_sum, text) == outcome(parse_by_words, text)
    text = format_pauli_sum(a)
    assert outcome(parse_pauli_sum, text) == outcome(parse_by_words, text)


def test_mixed_widths_in_sums_are_dimension_errors():
    for op in ("__add__", "__matmul__", "max_coeff_diff"):
        with pytest.raises(DimensionError):
            getattr(PauliSum.identity(2), op)(PauliSum.identity(3))
    with pytest.raises(DimensionError, match="term on 2 qubits in a 3-qubit sum"):
        PauliSum(3, {PauliString.from_letters("XY"): 1.0})
    for entries_ in ([(1.0, "XY"), (1.0, "X")], [(1.0, "XQ")], [(1e308, "X")] * 2):
        assert outcome(PauliSum.from_letter_terms, entries_) == outcome(
            DictPauliSum.from_letter_terms, entries_)


def test_negative_qubit_count_is_a_validation_error():
    for build in (PauliSum.zero, PauliSum.identity, PauliSum):
        with pytest.raises(ValidationError, match="non-negative"):
            build(-1)


BAD_TEXTS = [
    "1.0 0.0 XQZ\n",                       # a letter outside I, X, Y, Z
    "1.0 0.0 XX\n0.5 0.0 é\n",             # a non-ASCII letter
    "1.0 0.0 XX\n1.0 0.0 XYZ\n",           # mixed widths
    "nan 0.0 X\n",                         # non-finite coefficients
    "1.0 inf X\n",
    "1e308 0.0 X\n1e308 0.0 X\n",          # finite, but summed past the range
    "1.0 0.0 XQ\nnan 0.0 X\n",             # the first bad line is reported
    "1.0 XX\n",
    "a 0.0 X\n",
    "# only a comment\n",
]


@pytest.mark.parametrize("text", BAD_TEXTS)
def test_bad_pauli_text_keeps_its_message_and_exit_code(tmp_path, capsys, text):
    with pytest.raises(ValidationError) as got:
        parse_pauli_sum(text)
    with pytest.raises(ValidationError) as want:
        parse_by_words(text)
    assert str(got.value) == str(want.value)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(lme_to_json_dict(sigma_minus_spec())))
    obs = tmp_path / "obs.txt"
    obs.write_text(text, encoding="utf-8")
    rc = cli.main(["measure", "--spec", str(spec), "--observable", str(obs),
                   "--out", str(tmp_path / "out")])
    assert rc == cli.EXIT_VALIDATION == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(str(want.value))


def test_array_paths_build_no_pauli_string(monkeypatch):
    # the design: sums move as key and coefficient arrays, words enter and
    # leave as letters, and a PauliString is built only by a caller of the
    # dict constructor
    ansatz = LiouvillianAnsatz.xxz_chain(9)
    rng = np.random.default_rng(29)
    h = rng.uniform(0.2, 1.0, ansatz.num_h)
    lam = rng.uniform(0.2, 1.0, ansatz.num_jumps)
    target = ansatz.forward_ldl(h, lam)
    matrix = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    text = format_pauli_sum(target)
    built = []
    init = PauliString.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliString, "__init__", counted)
    rho = DensityMatrix(2, np.eye(4, dtype=complex) / 4)
    runs = {
        "pauli_decompose": lambda: pauli_decompose(matrix),
        "parse_pauli_sum": lambda: parse_pauli_sum(text),
        "format_pauli_sum": lambda: format_pauli_sum(target),
        "repr": lambda: repr(target),
        "forward_ldl": lambda: ansatz.forward_ldl(h, lam),
        "build_mq_system": lambda: build_mq_system(ansatz, target),
        "max_coeff_diff": lambda: target.max_coeff_diff(parse_pauli_sum(text)),
        "xxz_chain": lambda: LiouvillianAnsatz.xxz_chain(5),
        "full_local_family": lambda: LiouvillianAnsatz.full_local_family(2, 4),
        "site_channel": lambda: [site_channel(3, 1, kind) for kind in "XYZ+-"],
        "final_qubit_one_observable":
            lambda: encodings.final_qubit_one_observable.__wrapped__(2, 3),
        "substitute": lambda: measure.substitute(
            PauliSum.from_letter_terms([(1.0, "XYZY"), (0.5, "ZZII")])),
        "bell_amplitude": lambda: measure.bell_amplitude(rho, "XY"),
    }
    for name, run in runs.items():
        run()
        assert built == [], name
    # the dict constructor's callers build them, so the count is live
    PauliSum(1, {PauliString.from_letters("X"): 1.0})
    assert len(built) == 1
