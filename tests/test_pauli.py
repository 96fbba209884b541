import hashlib
import itertools

import numpy as np
import pytest

from conftest import (
    MaskWord,
    format_by_letters,
    matmul_by_pairs,
    rand_pauli_sum,
    rand_word,
    sorted_by_letters,
    terms,
)
from lgw.errors import CapacityError, DimensionError, ValidationError
from lgw.pauli import (
    PauliSum,
    dagger_products,
    format_pauli_sum,
    key_letters,
    parse_pauli_sum,
    pauli_decompose,
    to_matrix,
)

SWAP_PATTERN = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


# the bitmask word oracle (conftest.MaskWord) against dense matrices


def test_mul_xy_is_iz():
    phase, word = MaskWord.from_letters("X").mul(MaskWord.from_letters("Y"))
    assert phase == 1j and word.letters == "Z"


def test_mul_identity_case():
    p = MaskWord.from_letters("XYZI")
    phase, word = MaskWord(4).mul(p)
    assert phase == 1 and word == p


def test_mul_xz_zx_dense_oracle():
    a = MaskWord.from_letters("XZ")
    b = MaskWord.from_letters("ZX")
    phase, word = a.mul(b)
    assert word.letters == "YY"
    assert np.array_equal(a.to_matrix() @ b.to_matrix(), phase * word.to_matrix())


def test_mul_dense_consistency_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        a, b = (MaskWord.from_letters(rand_word(n, rng)) for _ in range(2))
        phase, word = a.mul(b)
        # Pauli matrices are monomial, so the identity is exact
        assert np.array_equal(a.to_matrix() @ b.to_matrix(), phase * word.to_matrix())


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        MaskWord.from_letters("X").mul(MaskWord.from_letters("XX"))


def test_tensor_trivial():
    a = PauliSum.from_letter_terms([(1.0, "X")])
    b = PauliSum.from_letter_terms([(1.0, "Z")])
    out = a.tensor(b)
    assert out.n == 2 and terms(out) == [("XZ", 1.0)]


def test_tensor_distributes():
    a = PauliSum.from_letter_terms([(0.5, "II"), (0.5, "XX")])
    b = PauliSum.from_letter_terms([(1.0, "I")])
    out = a.tensor(b)
    assert len(out) == 2
    for letters in ("III", "XXI"):
        assert dict(terms(out))[letters] == 0.5


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
            row, col = (MaskWord.from_letters(rand_word(half, rng)) for _ in range(2))
            word = row.tensor(col)
            assert word.halves() == (row, col)
            assert word.letters == row.letters + col.letters
    with pytest.raises(DimensionError):
        MaskWord.from_letters("XYZ").halves()


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
    for word, coeff in terms(s):
        out += coeff * MaskWord.from_letters(word).to_matrix()
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
    assert terms(out) == [("I", 1.0)]


def test_decompose_swap_pattern():
    out = pauli_decompose(SWAP_PATTERN)
    for letters in ("II", "XX", "YY", "ZZ"):
        assert abs(dict(terms(out))[letters] - 0.5) < 1e-15
    assert len(out) == 4


def test_decompose_roundtrip_random_hermitian():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = m + m.conj().T
    dec = pauli_decompose(m)
    assert np.abs(to_matrix(dec) - m).max() < 1e-12
    assert all(abs(c.imag) < 1e-12 for c in dec.coeffs.tolist())


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
        assert dec.letters() == [
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
    assert "X" not in out.letters()
    tiny = PauliSum.from_letter_terms([(1e-15, "X")])
    assert len(tiny) == 0


def test_matmul_against_dense():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a = rand_pauli_sum(2, rng, terms=3)
        b = rand_pauli_sum(2, rng, terms=3)
        assert np.abs(to_matrix(a @ b) - to_matrix(a) @ to_matrix(b)).max() < 1e-12


def as_bits(s):
    """Words, term order and float bits of a sum."""
    return [(w, c.real.hex(), c.imag.hex()) for w, c in terms(s)]


def distinct_words(n, rng, count):
    words = {}
    while len(words) < count:
        words[rand_word(n, rng)] = None
    return list(words)


def product_cases(rng):
    """Pairs of random sums on 1-8 qubits, with parts that are exactly
    +-0.0 and with products that cancel exactly or to below the prune
    tolerance."""
    cases = []
    for n in range(1, 9):
        for _ in range(5):
            cases.append((rand_pauli_sum(n, rng, int(rng.integers(1, 9))),
                          rand_pauli_sum(n, rng, int(rng.integers(1, 9)))))
        zeroed = {}
        for i, (w, c) in enumerate(terms(rand_pauli_sum(n, rng, 6))):
            zeroed[w] = [complex(c.real, 0.0), complex(-0.0, c.imag),
                         complex(c.real, -0.0), c][i % 4]
        zeroed = PauliSum._from_words(n, zeroed)
        cases.append((zeroed, rand_pauli_sum(n, rng, 5)))
        cases.append((rand_pauli_sum(n, rng, 3), zeroed))
        # p p and q q are both the identity: 1 - (1 - gap) cancels exactly,
        # to below the tolerance (2^-50) or to just above it (2^-45)
        p, q = distinct_words(n, rng, 2)
        for gap in (0.0, 2.0 ** -50, 2.0 ** -45):
            cases.append((PauliSum._from_words(n, {p: 1.0, q: 1.0}),
                          PauliSum._from_words(n, {p: 1.0, q: -(1.0 - gap)})))
        cases.append((PauliSum._from_words(n, {p: 1e-7j}),
                      PauliSum._from_words(n, {q: 1e-8})))
    return cases


def test_matmul_matches_the_pair_loop_bit_for_bit():
    rng = np.random.default_rng(26)
    for a, b in product_cases(rng):
        assert as_bits(a @ b) == as_bits(matmul_by_pairs(a, b))
        assert as_bits(a.dagger() @ a) == as_bits(matmul_by_pairs(a.dagger(), a))


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 66])
def test_matmul_across_key_limbs_and_mask_chunks(n):
    # 32 qubits to a key limb and 64 to a mask chunk
    rng = np.random.default_rng(600 + n)
    top = "I" * (n - 1) + "Y"
    a = rand_pauli_sum(n, rng, 7) + PauliSum._from_words(n, {top: 0.5 - 2j})
    b = rand_pauli_sum(n, rng, 6) + PauliSum._from_words(n, {top: -1j})
    for x, y in [(a, b), (b, a), (a.dagger(), a), (a, a)]:
        out = x @ y
        assert as_bits(out) == as_bits(matmul_by_pairs(x, y))
        assert format_pauli_sum(out) == format_by_letters(out)
        assert terms(out.sorted()) == sorted_by_letters(out)


def test_matmul_of_zero_qubit_and_empty_sums():
    rng = np.random.default_rng(27)
    scalar = PauliSum._from_words(0, {"": 2.0 - 1.0j})
    other = PauliSum._from_words(0, {"": 0.5j})
    some = rand_pauli_sum(3, rng, 4)
    pairs = [(scalar, other), (scalar, PauliSum.zero(0)), (PauliSum.zero(0), other),
             (PauliSum.zero(3), some), (some, PauliSum.zero(3)),
             (PauliSum.zero(3), PauliSum.zero(3))]
    for a, b in pairs:
        out = a @ b
        assert out.n == a.n
        assert as_bits(out) == as_bits(matmul_by_pairs(a, b))
        assert format_pauli_sum(out) == format_by_letters(out)
    assert as_bits(scalar @ other) == [("", (0.5).hex(), (1.0).hex())]
    with pytest.raises(DimensionError):
        scalar @ some


def test_format_and_sorted_terms_follow_the_letters():
    rng = np.random.default_rng(28)
    sums = [a @ b for a, b in product_cases(rng)]
    sums += [rand_pauli_sum(n, rng, 9) for n in (0, 1, 31, 32, 33, 63, 64, 65, 66)]
    # more terms than one letter_keys pass takes
    sums += [PauliSum.zero(0), PauliSum.zero(5), rand_pauli_sum(8, rng, 5000)]
    for s in sums:
        assert format_pauli_sum(s) == format_by_letters(s)
        assert terms(s.sorted()) == sorted_by_letters(s)


def test_max_coeff_diff_matches_the_word_by_word_difference():
    rng = np.random.default_rng(29)
    for n in (0, 1, 3, 33, 66):
        for _ in range(10):
            a = rand_pauli_sum(n, rng, int(rng.integers(0, 6)))
            b = rand_pauli_sum(n, rng, int(rng.integers(0, 6))) + a
            ta, tb = dict(terms(a)), dict(terms(b))
            expect = max((abs(ta.get(w, 0.0) - tb.get(w, 0.0))
                          for w in ta.keys() | tb.keys()), default=0.0)
            assert a.max_coeff_diff(b) == expect
            assert a.max_coeff_diff(a) == 0.0


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


@pytest.mark.parametrize("n", [1, 5, 32, 33, 64, 70])
def test_letter_keys_sort_as_letters_and_multiply_by_xor(n):
    # widths on both sides of the 32-qubit key limb and the 64-bit mask
    rng = np.random.default_rng(300 + n)
    dicts = [{rand_word(n, rng): complex(rng.normal(), rng.normal())
              for _ in range(4)} for _ in range(3)]
    sums = [PauliSum._from_words(n, words) for words in dicts]
    keys = np.concatenate([s.word_keys for s in sums])
    words = [w for d in dicts for w in d]
    # the words come back as they were given, in term order
    assert key_letters(keys, n) == words
    assert [w for s in sums for w in s.letters()] == words
    assert [c for s in sums for c in s.coeffs.tolist()] == [
        c for d in dicts for c in d.values()]
    order = np.lexsort(keys.T[::-1])
    assert [words[i] for i in order] == sorted(words)
    # one product per word pair, dagger word major, each as MaskWord.mul
    left, right = np.array([0, 2, 1]), np.array([1, 2, 0])
    product, word, re, im = dagger_products(sums, left, right)
    expect = []
    for d, (j, k) in enumerate(zip(left, right)):
        for wa, ca in terms(sums[j].dagger()):
            for wb, cb in terms(sums[k]):
                phase, w = MaskWord.from_letters(wa).mul(MaskWord.from_letters(wb))
                expect.append((d, w.letters, ca * cb * phase))
    got = [(d, k, complex(r, i))
           for d, k, r, i in zip(product, key_letters(word, n), re, im)]
    assert got == expect


def test_dense_cap():
    with pytest.raises(CapacityError):
        to_matrix(PauliSum.identity(13))
    # refused before any buffer is allocated: 2^60 entries could not be
    with pytest.raises(CapacityError):
        to_matrix(PauliSum.from_letter_terms([(1.0, "XYZ" * 10)]))
