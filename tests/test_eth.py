"""ETH construction, transparency verification, and body-ness analysis."""

import numpy as np
import pytest

from etlab.codes import (
    DESIGNED_KINDS,
    _code_basis,
    _sectors,
    build_code,
    error_set,
    error_spaces_orthogonal,
    recover,
    recover_adjoint,
)
from etlab.eth import (
    LogicalHamiltonian,
    bodyness,
    conjugation_sign,
    controlled_eth,
    css7_counterexample,
    deduplicate_errors,
    encode_logical,
    extend_to_target,
    make_eth,
    swap_hamiltonian,
    verify_et,
)
from etlab.qcore import (
    SIGMA_PLUS,
    PauliString,
    _pauli_table,
    basis_state,
    evolve_unitary,
    normalize,
    pauli_action,
    pure_density,
    to_dense,
)


@pytest.fixture(scope="module")
def bitflip3():
    return build_code("bitflip3")


@pytest.fixture(scope="module")
def perfect5():
    return build_code("perfect5")


@pytest.fixture(scope="module")
def steane7():
    return build_code("steane7")


def kron_chain(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_eth(h0, errors):
    """Reference: h0 + sum_e E h0 E^dag with every error as a dense matrix."""
    h = h0.copy()
    for e in errors:
        m = to_dense(e)
        h += m @ h0 @ m.conj().T
    return h


@pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
def test_eth_equals_dense_formula_bitwise(name):
    code = build_code(name)
    es = error_set(code, DESIGNED_KINDS[name])
    h0 = encode_logical(code, LogicalHamiltonian(0.8, -1.3, 0.4 - 0.2j))
    assert np.array_equal(make_eth(code, h0, es), dense_eth(h0, es))
    swap = swap_hamiltonian(code, 0.9)
    assert np.array_equal(controlled_eth(code, es, 0.9), dense_eth(swap, extend_to_target(es)))


@pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
def test_phased_errors_equal_dense_formula_bitwise(name):
    # a phase cancels in E H0 E^dag only if the copy is scaled by
    # coef conj(coef), not coef coef
    code = build_code(name)
    phases = (1j, -1, -1j)
    es = [
        PauliString(e.letters, phases[i % 3])
        for i, e in enumerate(error_set(code, DESIGNED_KINDS[name]))
    ]
    h0 = encode_logical(code, LogicalHamiltonian(0.8, -1.3, 0.4 - 0.2j))
    assert np.array_equal(make_eth(code, h0, es), dense_eth(h0, es))
    swap = swap_hamiltonian(code, 0.9)
    assert np.array_equal(controlled_eth(code, es, 0.9), dense_eth(swap, extend_to_target(es)))


@pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
def test_swap_hamiltonian_equals_kron_formula_bitwise(name):
    # omega (K + K^dag) with K = L- (x) sigma+, L- = |0_L><1_L|
    code = build_code(name)
    k = np.kron(np.outer(code.codeword0, code.codeword1.conj()), SIGMA_PLUS)
    assert np.array_equal(swap_hamiltonian(code, 0.9), 0.9 * (k + k.conj().T))


class TestEncodeLogical:
    def test_sigma_z_type(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1.0, -1.0, 0))
        expected = np.zeros((8, 8), dtype=complex)
        expected[0, 0] = 1.0
        expected[7, 7] = -1.0
        assert np.allclose(h0, expected, atol=1e-14)

    def test_zero(self, bitflip3):
        assert np.count_nonzero(encode_logical(bitflip3, LogicalHamiltonian(0, 0, 0))) == 0

    def test_real_coupling(self, bitflip3):
        g = 0.7
        h0 = encode_logical(bitflip3, LogicalHamiltonian(0, 0, g))
        expected = np.zeros((8, 8), dtype=complex)
        expected[7, 0] = g
        expected[0, 7] = g
        assert np.allclose(h0, expected, atol=1e-14)

    def test_code_space_support(self, perfect5):
        h0 = encode_logical(perfect5, LogicalHamiltonian(0.3, -0.8, 0.2 + 0.5j))
        p0 = perfect5.projector()
        assert np.max(np.abs(p0 @ h0 @ p0 - h0)) < 1e-12
        assert np.max(np.abs(h0 - h0.conj().T)) < 1e-12


def _h0(code):
    return encode_logical(code, LogicalHamiltonian(0.8, -1.3, 0.4 - 0.2j))


def _random_state(d):
    v = np.array([1.0, 1j]) @ np.random.default_rng(7).standard_normal((2, d))
    return pure_density(normalize(v))


# every public function that takes an error set, called with one
ERROR_SET_CALLS = {
    "error_spaces_orthogonal": lambda code, errs: error_spaces_orthogonal(code, errs),
    "recover": lambda code, errs: recover(code, errs, _random_state(code.dim)),
    "recover_adjoint": lambda code, errs: recover_adjoint(code, errs, _random_state(code.dim)),
    "deduplicate_errors": lambda code, errs: deduplicate_errors(code, errs),
    "make_eth": lambda code, errs: make_eth(code, _h0(code), errs),
    # the plain H0 is not transparent, so the residual is far from zero
    "verify_et": lambda code, errs: verify_et(_h0(code), _h0(code), code, errs),
    "extend_to_target": lambda code, errs: extend_to_target(errs),
    "controlled_eth": lambda code, errs: controlled_eth(code, errs, 0.9),
}


@pytest.mark.parametrize("name", ERROR_SET_CALLS)
def test_error_set_as_tuple_list_or_iterator(perfect5, name):
    # an error set is a plain tuple; a list or a one-shot iterator of the
    # same errors must give the same result (verify_et reads them twice)
    errs = error_set(perfect5, "XYZ")
    assert type(errs) is tuple
    call = ERROR_SET_CALLS[name]
    expected = call(perfect5, errs)
    for form in (list, iter):
        np.testing.assert_equal(call(perfect5, form(errs)), expected)


@pytest.mark.parametrize("name", sorted(ERROR_SET_CALLS.keys() - {"extend_to_target"}))
def test_wrong_size_error_rejected(perfect5, name):
    errs = (*error_set(perfect5, "X"), PauliString("XX"))
    with pytest.raises(ValueError, match=r"^[23]-qubit Pauli cannot act on leading dimension"):
        ERROR_SET_CALLS[name](perfect5, errs)


@pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
def test_sectors_equal_per_error_actions(name):
    # W from one gather through the table, against one pauli_action per
    # error, bit for bit, on the code basis and on the controlled ETH's
    # code-plus-target basis
    code = build_code(name)
    errs = error_set(code, DESIGNED_KINDS[name])
    v0 = _code_basis(code)
    for basis, es in ((v0, errs), (np.kron(v0, np.eye(2)), extend_to_target(errs))):
        expected = np.concatenate([basis] + [pauli_action(e, basis) for e in es], axis=1)
        w = _sectors(basis, es)
        assert w.shape == expected.shape and w.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
def test_one_table_per_error_set(name):
    # construction, verification and recovery on one error set share its
    # table, in whichever form the set comes; the target-extended set has
    # its own
    code = build_code(name)
    errs = error_set(code, DESIGNED_KINDS[name])
    h0 = _h0(code)
    _pauli_table.cache_clear()
    h = make_eth(code, h0, errs)
    verify_et(h, h0, code, list(errs))
    recover(code, iter(errs), _random_state(code.dim))
    recover_adjoint(code, errs, _random_state(code.dim))
    assert _pauli_table.cache_info().currsize == 1
    controlled_eth(code, errs, 0.9)
    assert _pauli_table.cache_info().currsize == 2


class TestMakeEth:
    def test_majority_sign_diagonal(self, bitflip3):
        # expected operator built directly: +1 on majority-zero strings
        omega = 1.3
        h0 = encode_logical(bitflip3, LogicalHamiltonian(omega, -omega, 0))
        h = make_eth(bitflip3, h0, error_set(bitflip3, "X"))
        signs = [1, 1, 1, -1, 1, -1, -1, -1]
        assert np.allclose(h, omega * np.diag(signs), atol=1e-12)

    def test_coupling_becomes_xxx(self, bitflip3):
        g = 0.45
        h0 = encode_logical(bitflip3, LogicalHamiltonian(0, 0, g))
        h = make_eth(bitflip3, h0, error_set(bitflip3, "X"))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(h, g * kron_chain(sx, sx, sx), atol=1e-12)

    def test_empty_error_set(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0))
        assert np.array_equal(make_eth(bitflip3, h0, []), h0)

    def test_requires_code_space_support(self, bitflip3):
        with pytest.raises(ValueError, match="code space"):
            make_eth(bitflip3, np.eye(8, dtype=complex), error_set(bitflip3, "X"))

    @pytest.mark.parametrize("name", sorted(DESIGNED_KINDS))
    def test_zero_h0_gives_zero(self, name):
        # no nonzero row or column: the block to move is empty
        code = build_code(name)
        h = make_eth(code, np.zeros((code.dim, code.dim)), error_set(code, DESIGNED_KINDS[name]))
        assert h.dtype == complex and np.array_equal(h, np.zeros((code.dim, code.dim)))

    def test_code_space_support_tolerance(self, bitflip3):
        # |001> is orthogonal to the code space, so the check sees the whole
        # leak, against a tolerance of 1e-10
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0.3))
        errs = error_set(bitflip3, "X")
        h0[1, 1] = 1e-9
        with pytest.raises(ValueError, match="code space"):
            make_eth(bitflip3, h0, errs)
        h0[1, 1] = 1e-12
        assert np.array_equal(make_eth(bitflip3, h0, errs), dense_eth(h0, errs))

    def test_overlapping_error_spaces_rejected(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0))
        with pytest.raises(ValueError, match="orthogonal"):
            make_eth(bitflip3, h0, error_set(bitflip3, "Z"))

    def test_duplicate_errors_counted_once(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0.4))
        errs = list(error_set(bitflip3, "X"))
        with_dup = errs + [PauliString("XII", -1)]  # same action up to phase
        assert np.allclose(
            make_eth(bitflip3, h0, with_dup), make_eth(bitflip3, h0, errs), atol=1e-12
        )

    def test_hermitian(self, perfect5):
        h0 = encode_logical(perfect5, LogicalHamiltonian(0.9, -0.2, 0.3 - 0.7j))
        h = make_eth(perfect5, h0, error_set(perfect5, "XYZ"))
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestDeduplicateErrors:
    def test_builtin_sets_nondegenerate(self, perfect5):
        reps, dropped = deduplicate_errors(perfect5, error_set(perfect5, "XYZ"))
        assert dropped == 0
        assert len(reps) == 15

    def test_phase_variant_dropped(self, bitflip3):
        errs = [PauliString("XII"), PauliString("XII", 1j), PauliString("IXI")]
        reps, dropped = deduplicate_errors(bitflip3, errs)
        assert dropped == 1
        assert [e.letters for e in reps] == ["XII", "IXI"]

    def test_degenerate_action_dropped(self, bitflip3):
        # ZII and IZI act identically on {|000>, |111>}
        errs = [PauliString("ZII"), PauliString("IZI")]
        reps, dropped = deduplicate_errors(bitflip3, errs)
        assert dropped == 1
        assert len(reps) == 1

    @pytest.mark.parametrize(
        "name, kinds, dropped",
        [("bitflip3", "Z", 2), ("bitflip3", "XYZ", 2), ("perfect5", "XYZ", 0),
         ("steane7", "XYZ", 0)],
    )
    def test_representatives_equal_pairwise_loop(self, name, kinds, dropped):
        # the Gram-matrix candidates against comparing every error with every
        # kept one; on bitflip3 Z acts alike on every qubit
        code = build_code(name)
        errs = error_set(code, kinds)
        expected, kept = [], []
        for e in errs:
            v = np.stack([to_dense(e) @ code.codeword0, to_dense(e) @ code.codeword1], axis=1)
            for u in kept:
                ph = np.vdot(u[:, 0], v[:, 0])
                if abs(abs(ph) - 1.0) < 1e-9 and np.allclose(v, ph * u, atol=1e-9):
                    break
            else:
                expected.append(e)
                kept.append(v)
        assert deduplicate_errors(code, errs) == (expected, dropped)


class TestVerifyEt:
    def test_eth_is_transparent(self, bitflip3):
        es = error_set(bitflip3, "X")
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0))
        h = make_eth(bitflip3, h0, es)
        assert verify_et(h, h0, bitflip3, es) < 1e-12

    def test_bare_h0_residual_is_omega(self, bitflip3):
        # H0 annihilates the flipped state while X H0 |0_L> has norm omega
        omega = 0.8
        h0 = encode_logical(bitflip3, LogicalHamiltonian(omega, -omega, 0))
        residual = verify_et(h0, h0, bitflip3, [PauliString("XII")])
        assert residual == pytest.approx(omega, abs=1e-12)

    def test_residual_is_worst_case_over_code_space(self, bitflip3):
        # bare H0 against X errors: H0 annihilates the flipped code space, so
        # the residual is ||X1 H0 V0||_2, which no sampled state may exceed
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1.1, -0.7, 0.3 + 0.4j))
        es = error_set(bitflip3, "X")
        v0 = np.stack([bitflip3.codeword0, bitflip3.codeword1], axis=1)
        x1 = to_dense(PauliString("XII"))
        residual = verify_et(h0, h0, bitflip3, es)
        assert residual == pytest.approx(np.linalg.norm(x1 @ h0 @ v0, 2), abs=1e-12)
        rng = np.random.default_rng(5)
        for _ in range(50):
            psi = v0 @ normalize(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            for e in es:
                m = to_dense(e)
                assert np.linalg.norm((h0 @ m - m @ h0) @ psi) <= residual + 1e-12

    def test_perfect5_full_eth(self, perfect5):
        es = error_set(perfect5, "XYZ")
        h0 = encode_logical(perfect5, LogicalHamiltonian(1, -1, 0))
        h = make_eth(perfect5, h0, es)
        assert verify_et(h, h0, perfect5, es) < 1e-12

    def test_random_logical_generators_all_codes(self, bitflip3, perfect5, steane7):
        rng = np.random.default_rng(41)
        for code, kinds in ((bitflip3, "X"), (perfect5, "XYZ"), (steane7, "XYZ")):
            es = error_set(code, kinds)
            for _ in range(3):
                lh = LogicalHamiltonian(
                    rng.uniform(-2, 2),
                    rng.uniform(-2, 2),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                )
                h0 = encode_logical(code, lh)
                h = make_eth(code, h0, es)
                assert verify_et(h, h0, code, es) < 1e-10

    def test_restriction_identity(self, bitflip3):
        es = error_set(bitflip3, "X")
        h0 = encode_logical(bitflip3, LogicalHamiltonian(0.6, -1.4, 0.25j))
        h = make_eth(bitflip3, h0, es)
        p0 = bitflip3.projector()
        assert np.max(np.abs(p0 @ h @ p0 - h0)) < 1e-10

    def test_first_order_commutation(self, perfect5):
        rng = np.random.default_rng(43)
        es = error_set(perfect5, "XYZ")
        h0 = encode_logical(perfect5, LogicalHamiltonian(1.0, -1.0, 0.5))
        h = make_eth(perfect5, h0, es)
        for e in list(es)[::4]:
            m = to_dense(e)
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = normalize(amps[0] * perfect5.codeword0 + amps[1] * perfect5.codeword1)
            t = rng.uniform(0, np.pi)
            lhs = evolve_unitary(h, t, m @ psi)
            rhs = m @ evolve_unitary(h0, t, psi)
            assert np.linalg.norm(lhs - rhs) < 1e-8


class TestBodyness:
    def test_eq7_is_three_body(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0))
        h = make_eth(bitflip3, h0, error_set(bitflip3, "X"))
        assert bodyness(h) == 3

    def test_zero_operator(self):
        assert bodyness(np.zeros((8, 8), dtype=complex)) == 0

    def test_perfect5_needs_five_body(self, perfect5):
        h0 = encode_logical(perfect5, LogicalHamiltonian(1, -1, 0))
        h = make_eth(perfect5, h0, error_set(perfect5, "XYZ"))
        assert bodyness(h) == 5

    def test_bounded_by_qubit_count(self, steane7):
        h0 = encode_logical(steane7, LogicalHamiltonian(1, -1, 0))
        h = make_eth(steane7, h0, error_set(steane7, "XYZ"))
        assert bodyness(h) <= 7


class TestControlledEth:
    def test_noiseless_swap_completes(self, bitflip3):
        omega = 1.0
        h = controlled_eth(bitflip3, error_set(bitflip3, "X"), omega)
        psi0 = np.kron(bitflip3.codeword1, basis_state(1, 0))
        psi_t = evolve_unitary(h, np.pi / (2 * omega), psi0)
        excited = np.kron(np.eye(8), np.diag([0.0, 1.0])).astype(complex)
        prob = np.vdot(psi_t, excited @ psi_t).real
        assert prob == pytest.approx(1.0, abs=1e-10)

    def test_bitflip_controller_is_four_body(self, bitflip3):
        h = controlled_eth(bitflip3, error_set(bitflip3, "X"), 1.0)
        assert bodyness(h) == 4

    def test_perfect5_controller_is_six_body(self, perfect5):
        h = controlled_eth(perfect5, error_set(perfect5, "XYZ"), 1.0)
        assert bodyness(h) == 6

    def test_zero_coupling(self, bitflip3):
        h = controlled_eth(bitflip3, error_set(bitflip3, "X"), 0.0)
        assert np.count_nonzero(h) == 0

    def test_transparency_on_joint_space(self, bitflip3):
        es = error_set(bitflip3, "X")
        h = controlled_eth(bitflip3, es, 1.0)
        h0 = swap_hamiltonian(bitflip3, 1.0)
        assert verify_et(h, h0, bitflip3, extend_to_target(es)) < 1e-12


class TestCss7Counterexample:
    def test_report(self):
        report = css7_counterexample()
        assert report.conjugated_sign == -1
        assert report.naive_sum_is_zero is True

    def test_commuting_conjugation_is_positive(self):
        # Z off the support of the logical X commutes with it
        assert conjugation_sign(PauliString("IZIIIII"), PauliString("IIIIXXX")) == 1

    def test_dense_conjugation_oracle(self):
        z = to_dense(PauliString("IIIIZII"))
        x = to_dense(PauliString("IIIIXXX"))
        assert np.allclose(z @ x @ z, -x, atol=1e-14)


class TestEthReport:
    def test_bitflip_report(self, bitflip3):
        h0 = encode_logical(bitflip3, LogicalHamiltonian(1, -1, 0))
        reps, _ = deduplicate_errors(bitflip3, error_set(bitflip3, "X"))
        h = make_eth(bitflip3, h0, reps)
        assert 1 + len(reps) == 4
        assert bodyness(h) == 3
        assert verify_et(h, h0, bitflip3, reps) < 1e-12
