import hashlib
import itertools

import numpy as np
import pytest

from conftest import rand_pauli_sum, rand_word
from lgw.errors import CapacityError, DimensionError, ValidationError
from lgw.pauli import (
    PauliString,
    PauliSum,
    format_pauli_sum,
    parse_pauli_sum,
    pauli_decompose,
    to_matrix,
)

SWAP_PATTERN = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_mul_xy_is_iz():
    phase, word = PauliString.from_letters("X").mul(PauliString.from_letters("Y"))
    assert phase == 1j and word.letters == "Z"


def test_mul_identity_case():
    p = PauliString.from_letters("XYZI")
    phase, word = PauliString.identity(4).mul(p)
    assert phase == 1 and word == p


def test_mul_xz_zx_dense_oracle():
    a = PauliString.from_letters("XZ")
    b = PauliString.from_letters("ZX")
    phase, word = a.mul(b)
    assert word.letters == "YY"
    assert np.array_equal(a.to_matrix() @ b.to_matrix(), phase * word.to_matrix())


def test_mul_dense_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a, b = rand_word(n, rng), rand_word(n, rng)
        phase, word = a.mul(b)
        # Pauli matrices are monomial, so the identity is exact
        assert np.array_equal(a.to_matrix() @ b.to_matrix(), phase * word.to_matrix())


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        PauliString.from_letters("X").mul(PauliString.from_letters("XX"))


def test_tensor_trivial():
    a = PauliSum.from_letter_terms([(1.0, "X")])
    b = PauliSum.from_letter_terms([(1.0, "Z")])
    out = a.tensor(b)
    assert out.n == 2 and out.terms.get(PauliString.from_letters("XZ")) == 1.0


def test_tensor_distributes():
    a = PauliSum.from_letter_terms([(0.5, "II"), (0.5, "XX")])
    b = PauliSum.from_letter_terms([(1.0, "I")])
    out = a.tensor(b)
    assert len(out) == 2
    for letters in ("III", "XXI"):
        assert out.terms.get(PauliString.from_letters(letters)) == 0.5


def test_tensor_kron_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rand_pauli_sum(1, rng, terms=3)
        b = rand_pauli_sum(1, rng, terms=2)
        expect = np.kron(to_matrix(a), to_matrix(b))
        assert np.abs(to_matrix(a.tensor(b)) - expect).max() < 1e-12


def test_halves_invert_tensor():
    rng = np.random.default_rng(11)
    for half in (1, 2, 3):
        for _ in range(10):
            row, col = rand_word(half, rng), rand_word(half, rng)
            word = row.tensor(col)
            assert word.halves() == (row, col)
            assert word.letters == row.letters + col.letters
    with pytest.raises(DimensionError):
        PauliString.from_letters("XYZ").halves()


def test_to_matrix_z():
    z = PauliSum.from_letter_terms([(1.0, "Z")])
    assert np.array_equal(to_matrix(z), np.diag([1.0 + 0j, -1.0 + 0j]))


def test_to_matrix_swap_pattern():
    s = PauliSum.from_letter_terms(
        [(0.5, "II"), (0.5, "XX"), (0.5, "YY"), (0.5, "ZZ")]
    )
    assert np.abs(to_matrix(s) - SWAP_PATTERN).max() < 1e-15


def kron_to_matrix(s):
    """Reference: the words' Kronecker products added in term order."""
    out = np.zeros((2 ** s.n, 2 ** s.n), dtype=complex)
    for word, coeff in s.terms.items():
        out += coeff * word.to_matrix()
    return out


def test_to_matrix_termwise_kron_oracle():
    # the scatter adds every entry's words in term order, as the reference
    # does, and each word's value is exact, so the results agree bit for bit
    rng = np.random.default_rng(3)
    sums = [PauliSum.zero(0), PauliSum.zero(3)]
    for n in range(9):
        for terms in (1, 6, 40):
            sums.append(rand_pauli_sum(n, rng, terms))
    words = ["".join(p) for p in itertools.product("IXYZ", repeat=6)]
    sums.append(PauliSum.from_letter_terms(
        (complex(rng.normal(), rng.normal()), words[i])
        for i in rng.permutation(len(words))
    ))
    for s in sums:
        assert np.array_equal(to_matrix(s), kron_to_matrix(s))


def test_qubit_zero_is_most_significant():
    zi = to_matrix(PauliSum.from_letter_terms([(1.0, "ZI")]))
    assert np.array_equal(np.diag(zi).real, [1, 1, -1, -1])


def test_decompose_identity():
    out = pauli_decompose(np.eye(2))
    assert len(out) == 1 and out.terms.get(PauliString.from_letters("I")) == 1.0


def test_decompose_swap_pattern():
    out = pauli_decompose(SWAP_PATTERN)
    for letters in ("II", "XX", "YY", "ZZ"):
        assert abs(out.terms.get(PauliString.from_letters(letters)) - 0.5) < 1e-15
    assert len(out) == 4


def test_decompose_roundtrip_random_hermitian():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m + m.conj().T
    dec = pauli_decompose(m)
    assert np.abs(to_matrix(dec) - m).max() < 1e-12
    assert all(abs(c.imag) < 1e-12 for _, c in dec)


@pytest.mark.parametrize(
    "n, digest",
    [
        (1, "d33c15f52c35961a126d08524dd3f841edc529647ac3646d08079edb61c2ae5a"),
        (2, "1366c8d6ab7ffd74ae80ad78e5b536e7528c513e47679423dbbe08288a3dfcc2"),
        (3, "2da0f823600a740985212ff0788cddd486a552cc1046422f1606136b7ee85162"),
        (4, "7db511d908de676d6a7c3ff5b40a883449b385d3bcf763deba18a5cfac301869"),
        (5, "95d3c058e84759284770182bdef6ba92180999e8ca58c4a57579c6285f53f8ce"),
        (6, "a72e00e2feba22ea667808043baa92bc008cd198c59a9db5a2f9d79731fb70f7"),
    ],
)
def test_decompose_text_pinned(n, digest):
    # digests recorded from a block-recursive decomposition that does the
    # same floating-point operations in the same order
    rng = np.random.default_rng(400 + n)
    m = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    text = format_pauli_sum(pauli_decompose(m))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decompose_insertion_order():
    # letters I, X, Y, Z, qubit 0 outermost
    rng = np.random.default_rng(8)
    for n in range(4):
        m = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
        dec = pauli_decompose(m)
        assert [w.letters for w in dec.terms] == [
            "".join(p) for p in itertools.product("IXYZ", repeat=n)
        ]


def test_decompose_rejects_non_power_of_two():
    with pytest.raises(DimensionError):
        pauli_decompose(np.eye(3))
    with pytest.raises(DimensionError):
        pauli_decompose(np.ones((2, 3)))


def test_sum_roundtrip_property():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        s = rand_pauli_sum(n, rng, terms=int(rng.integers(1, 6)))
        assert pauli_decompose(to_matrix(s)).max_coeff_diff(s) < 1e-12


def test_pruning_of_cancelled_terms():
    a = PauliSum.from_letter_terms([(1.0, "X"), (0.5, "Z")])
    b = PauliSum.from_letter_terms([(-1.0, "X")])
    out = a + b
    assert "X" not in {w.letters for w, _ in out}
    tiny = PauliSum.from_letter_terms([(1e-15, "X")])
    assert len(tiny) == 0


def test_matmul_against_dense():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rand_pauli_sum(2, rng, terms=3)
        b = rand_pauli_sum(2, rng, terms=3)
        assert np.abs(to_matrix(a @ b) - to_matrix(a) @ to_matrix(b)).max() < 1e-12


def test_involutions_against_dense():
    rng = np.random.default_rng(19)
    s = rand_pauli_sum(2, rng, terms=5)
    m = to_matrix(s)
    assert np.abs(to_matrix(s.dagger()) - m.conj().T).max() < 1e-12
    assert np.abs(to_matrix(s.transpose()) - m.T).max() < 1e-12
    assert np.abs(to_matrix(s.conj()) - m.conj()).max() < 1e-12


def test_hermitian_predicate():
    assert PauliSum.from_letter_terms([(1.0, "X"), (-2.0, "Z")]).is_hermitian()
    assert not PauliSum.from_letter_terms([(1j, "X")]).is_hermitian()


def test_text_format_roundtrip():
    rng = np.random.default_rng(23)
    s = rand_pauli_sum(3, rng, terms=4)
    assert parse_pauli_sum(format_pauli_sum(s)).max_coeff_diff(s) == 0.0


def test_text_format_rejects_bad_letters():
    with pytest.raises(ValidationError):
        parse_pauli_sum("1.0 0.0 XQZ")
    with pytest.raises(ValidationError):
        parse_pauli_sum("1.0 XX")
    with pytest.raises(ValidationError):
        parse_pauli_sum("# only a comment\n")


def test_dense_cap():
    with pytest.raises(CapacityError):
        to_matrix(PauliSum.identity(13))
    with pytest.raises(CapacityError):
        PauliSum.identity(13).unitarity_defect()
    # refused before any buffer is allocated: 2^60 entries could not be
    with pytest.raises(CapacityError):
        to_matrix(PauliSum.from_letter_terms([(1.0, "XYZ" * 10)]))


def loop_unitarity_defect(q):
    """Reference: the defect read off the word-by-word product Q†Q."""
    return (q.dagger() @ q).max_coeff_diff(PauliSum.identity(q.n))


def test_unitarity_defect_matches_loop_on_random_sums():
    rng = np.random.default_rng(71)
    empty = PauliSum.zero(3)
    assert empty.unitarity_defect() == loop_unitarity_defect(empty) == 1.0
    for n in range(1, 9):
        for terms in (1, 6, 40):
            q = rand_pauli_sum(n, rng, terms)
            want = loop_unitarity_defect(q)
            # the summation order differs from the loop's
            assert abs(q.unitarity_defect() - want) <= 1e-12 * max(1.0, want)
