"""Pauli algebra and dense linear algebra tests.

Expected values for products and decompositions come from test-local dense
oracles (np.kron chains and brute-force trace inner products), independent
of the library's fast paths.
"""

import re

import numpy as np
import pytest

from etlab.qcore import (
    PauliString,
    _pauli_table,
    _signed_permutations,
    anticommutes,
    basis_state,
    check_density_matrix,
    embed_single,
    evolve_unitary,
    fidelity,
    normalize,
    pauli_action,
    pauli_decompose,
    pauli_mul,
    pure_density,
    require_hermitian,
    to_dense,
    weight,
)

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2.astype(complex), "X": SX, "Y": SY, "Z": SZ}


def dense_pauli(letters, phase=1.0):
    """Independent oracle: explicit Kronecker chain."""
    out = np.array([[1.0 + 0j]])
    for ch in letters:
        out = np.kron(out, MATS[ch])
    return phase * out


class TestPauliString:
    def test_phase_snapping(self):
        p = PauliString("X", phase=1j * (1 + 1e-12))
        assert p.phase == 1j

    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            PauliString("X", phase=0.5)

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            PauliString("XQZ")

    def test_repr(self):
        assert repr(PauliString("XYZ", -1j)) == "-iXYZ"


class TestPauliMul:
    def test_x_times_z_single_qubit(self):
        # oracle: 2x2 matrix product
        got = pauli_mul(PauliString("X"), PauliString("Z"))
        expected = dense_pauli("X") @ dense_pauli("Z")
        assert np.allclose(to_dense(got), expected)
        assert got.letters == "Y"
        assert got.phase == -1j

    def test_identity_is_neutral(self):
        p = PauliString("XZIY", 1j)
        assert pauli_mul(PauliString.identity(4), p) == p
        assert pauli_mul(p, PauliString.identity(4)) == p

    def test_seven_qubit_product_against_dense_oracle(self):
        # oracle: 128x128 dense product
        p = PauliString("IIIIZII")
        q = PauliString("IIIIXXX")
        got = pauli_mul(p, q)
        expected = dense_pauli(p.letters) @ dense_pauli(q.letters)
        assert np.max(np.abs(to_dense(got) - expected)) == 0
        assert got.letters == "IIIIYXX"
        assert got.phase == 1j  # sigma_z sigma_x = +i sigma_y

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pauli_mul(PauliString("XX"), PauliString("X"))

    def test_group_closure_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            letters1 = "".join(rng.choice(list("IXYZ"), n))
            letters2 = "".join(rng.choice(list("IXYZ"), n))
            ph1 = [1, -1, 1j, -1j][rng.integers(4)]
            ph2 = [1, -1, 1j, -1j][rng.integers(4)]
            p, q = PauliString(letters1, ph1), PauliString(letters2, ph2)
            lhs = to_dense(pauli_mul(p, q))
            rhs = dense_pauli(letters1, ph1) @ dense_pauli(letters2, ph2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestWeightAndCommutation:
    @pytest.mark.parametrize(
        "letters,expected",
        [("III", 0), ("IIXYI", 2), ("XZZXI", 4)],
    )
    def test_weight(self, letters, expected):
        assert weight(PauliString(letters)) == expected

    def test_anticommutation_matches_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = "".join(rng.choice(list("IXYZ"), n))
            b = "".join(rng.choice(list("IXYZ"), n))
            pa, pb = dense_pauli(a), dense_pauli(b)
            dense_anti = np.allclose(pa @ pb, -pb @ pa)
            assert anticommutes(PauliString(a), PauliString(b)) == dense_anti


class TestToDense:
    def test_single_z(self):
        assert np.array_equal(to_dense(PauliString("Z")), np.diag([1.0, -1.0]))

    def test_zz_kronecker(self):
        # oracle: hand Kronecker product
        assert np.array_equal(
            to_dense(PauliString("ZZ")), np.diag([1.0, -1.0, -1.0, 1.0])
        )

    def test_negative_x(self):
        assert np.array_equal(
            to_dense(PauliString("X", -1)), np.array([[0, -1], [-1, 0]], dtype=complex)
        )

    def test_unitary(self):
        p = PauliString("XYZI", 1j)
        m = to_dense(p)
        assert np.allclose(m @ m.conj().T, np.eye(16))


class TestPauliAction:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_dense_product_exactly(self, n):
        rng = np.random.default_rng(100 + n)
        d = 2**n
        for phase in (1, -1, 1j, -1j):
            for _ in range(3):
                p = PauliString("".join(rng.choice(list("IXYZ"), n)), phase)
                m = to_dense(p)
                vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                mat = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
                for v in (vec, mat):
                    assert np.array_equal(pauli_action(p, v), m @ v)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pauli_action(PauliString("XX"), np.ones(8))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_rows_equal_one_string_builder(self, n):
        # each row of a table is its string's one-row table, and the signed
        # permutation of the dense matrix: one nonzero per row, at src
        rng = np.random.default_rng(200 + n)
        d = 2**n
        paulis = tuple(
            PauliString("".join(rng.choice(list("IXYZ"), n)), phase)
            for phase in (1, -1, 1j, -1j)
            for _ in range(3)
        )
        coef, src = _signed_permutations(paulis, d)
        assert coef.shape == src.shape == (len(paulis), d)
        for p, c, s in zip(paulis, coef, src):
            [c1], [s1] = _signed_permutations((p,), d)
            assert c.tobytes() == c1.tobytes() and s.tobytes() == s1.tobytes()
            m = to_dense(p)
            assert np.array_equal(m[np.arange(d), s], c) and np.count_nonzero(m) == d
        cached = _pauli_table(paulis, d)
        assert all(np.array_equal(a, b) for a, b in zip(cached, (coef, src)))

    def test_table_is_read_only(self):
        coef, src = _pauli_table((PauliString("XYZ"), PauliString("ZZI", -1j)), 8)
        for a in (coef, src):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0

    def test_one_string_action_leaves_the_cache_alone(self):
        _pauli_table.cache_clear()
        v = np.arange(16, dtype=complex)
        for letters in ("XYZI", "IIZZ", "YYYY"):
            pauli_action(PauliString(letters), v)
        assert _pauli_table.cache_info().currsize == 0


def brute_force_decompose(a):
    """Independent oracle: trace inner products over every Pauli string."""
    import itertools

    n = int(np.log2(a.shape[0]))
    terms = {}
    for letters in itertools.product("IXYZ", repeat=n):
        p = dense_pauli(letters)
        c = np.trace(p.conj().T @ a) / 2**n
        if abs(c) > 1e-12:
            terms["".join(letters)] = c
    return terms


class TestPauliDecompose:
    def test_single_z(self):
        terms = pauli_decompose(np.diag([1.0, -1.0]).astype(complex))
        assert terms == [(1 + 0j, PauliString("Z"))]

    def test_identity_any_n(self):
        for n in (1, 2, 3):
            terms = pauli_decompose(np.eye(2**n, dtype=complex))
            assert terms == [(1 + 0j, PauliString.identity(n))]

    def test_majority_sign_diagonal_against_brute_force(self):
        # the 3-qubit operator that is +1 on majority-zero bitstrings
        diag = [1, 1, 1, -1, 1, -1, -1, -1]
        a = np.diag(diag).astype(complex)
        oracle = brute_force_decompose(a)
        assert oracle == {
            "ZII": pytest.approx(0.5),
            "IZI": pytest.approx(0.5),
            "IIZ": pytest.approx(0.5),
            "ZZZ": pytest.approx(-0.5),
        }
        got = {p.letters: c for c, p in pauli_decompose(a)}
        assert got.keys() == oracle.keys()
        for k in oracle:
            assert got[k] == pytest.approx(oracle[k], abs=1e-12)

    def test_roundtrip_random_hermitian(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 4):
            d = 2**n
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a + a.conj().T
            terms = pauli_decompose(a)
            rec = sum(c * to_dense(p) for c, p in terms)
            assert np.max(np.abs(rec - a)) < 1e-10
            assert all(abs(c.imag) < 1e-10 for c, _ in terms)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        oracle = brute_force_decompose(a)
        got = {p.letters: c for c, p in pauli_decompose(a)}
        assert got.keys() == oracle.keys()
        for k, v in oracle.items():
            assert got[k] == pytest.approx(v, abs=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(3))


class TestEvolveUnitary:
    def test_full_period_z(self):
        # exp(-i Z pi) = -I on both components
        psi = normalize(np.array([1.0, 1.0]))
        out = evolve_unitary(SZ, np.pi, psi)
        assert np.allclose(out, -psi, atol=1e-12)

    def test_zero_time(self):
        psi = normalize(np.array([0.3, 1.2j]))
        assert np.allclose(evolve_unitary(SX, 0.0, psi), psi)

    def test_x_quarter_period(self):
        # exp(-i X pi/2) = -i X
        out = evolve_unitary(SX, np.pi / 2, basis_state(1, 0))
        assert np.allclose(out, -1j * basis_state(1, 1), atol=1e-12)

    def test_norm_preserved_and_composes(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = h + h.conj().T
        psi = normalize(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        a = evolve_unitary(h, 0.9, evolve_unitary(h, 0.4, psi))
        b = evolve_unitary(h, 1.3, psi)
        assert abs(np.linalg.norm(a) - 1) < 1e-10
        assert np.linalg.norm(a - b) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            evolve_unitary(np.array([[0, 1], [0, 0]], dtype=complex), 1.0, basis_state(1, 0))


class TestFidelity:
    def test_pure_match(self):
        psi = basis_state(1, 0)
        assert fidelity(psi, pure_density(psi)) == 1.0

    def test_orthogonal(self):
        assert fidelity(basis_state(1, 0), pure_density(basis_state(1, 1))) == 0.0

    def test_maximally_mixed(self):
        assert fidelity(basis_state(1, 0), np.eye(2) / 2) == pytest.approx(0.5)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(2, 0), np.eye(2) / 2)

    def test_clamped(self):
        rho = pure_density(basis_state(1, 0)) * (1 + 5e-11)
        assert fidelity(basis_state(1, 0), rho) == 1.0


_VALIDATORS = pytest.mark.parametrize(
    "validate, what", [(check_density_matrix, "density matrix"), (require_hermitian, "operator")]
)


class TestHelpers:
    def test_basis_state_bits(self):
        assert np.array_equal(basis_state(3, "011"), basis_state(3, 3))

    def test_embed_single(self):
        assert np.allclose(embed_single(3, 1, SX), dense_pauli("IXI"))

    def test_check_density_matrix_rejects(self):
        with pytest.raises(ValueError):
            check_density_matrix(np.eye(2, dtype=complex))  # trace 2
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            check_density_matrix(bad)

    def test_negative_eigenvalue_inside_zero_padding_named(self):
        # the eigenvalues come from the block of rows and columns holding a
        # nonzero; zero padding around it must not hide its negative one
        block = np.array([[1.2, 0.3j], [-0.3j, -0.2]])
        rho = np.zeros((8, 8), dtype=complex)
        rho[np.ix_([2, 5], [2, 5])] = block
        wmin = np.linalg.eigvalsh(block).min()
        assert wmin < -0.25
        with pytest.raises(ValueError, match=f"negative eigenvalue {wmin:.3e}"):
            check_density_matrix(rho)
        check_density_matrix(pure_density(normalize(rho[:, 2])))
        with pytest.raises(ValueError, match="trace 0.0 is not 1"):
            check_density_matrix(np.zeros((3, 3)))

    @_VALIDATORS
    def test_nan_matrix_rejected(self, validate, what):
        # every comparison with NaN is False, so a NaN matrix used to pass
        with pytest.raises(ValueError, match=f"{what} has non-finite entries"):
            validate(np.full((2, 2), np.nan, dtype=complex))

    @_VALIDATORS
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, validate, what, shape):
        # used to fail with numpy's bare broadcast or diag error
        msg = rf"{what} must be a square matrix, got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=msg):
            validate(np.ones(shape, dtype=complex) / 3)

    def test_non_square_hamiltonian_rejected(self):
        msg = r"Hamiltonian must be a square matrix, got shape \(2, 3\)"
        with pytest.raises(ValueError, match=msg):
            evolve_unitary(np.ones((2, 3)), 1.0, basis_state(1, 0))
