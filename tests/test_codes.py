"""Stabilizer code construction, syndromes, geometry, and recovery."""

import re

import numpy as np
import pytest

from etlab.codes import (
    DESIGNED_KINDS,
    build_code,
    codewords_from_stabilizers,
    error_set,
    error_spaces_orthogonal,
    recover,
    recover_adjoint,
    syndrome,
)
from etlab.qcore import (
    PauliString,
    basis_state,
    fidelity,
    normalize,
    pure_density,
    to_dense,
)


def anticommute_count(a: str, b: str) -> int:
    """Independent oracle: letter-wise clash counting."""
    return sum(1 for x, y in zip(a, b) if x != "I" and y != "I" and x != y)


@pytest.fixture(scope="module")
def bitflip3():
    return build_code("bitflip3")


@pytest.fixture(scope="module")
def perfect5():
    return build_code("perfect5")


@pytest.fixture(scope="module")
def steane7():
    return build_code("steane7")


class TestBitflip3:
    def test_codewords(self, bitflip3):
        assert np.array_equal(bitflip3.codeword0, basis_state(3, "000"))
        assert np.array_equal(bitflip3.codeword1, basis_state(3, "111"))

    def test_generators(self, bitflip3):
        assert [g.letters for g in bitflip3.generators] == ["ZZI", "IZZ"]
        assert bitflip3.logical_x.letters == "XXX"
        assert bitflip3.logical_z.letters == "ZII"

    def test_stabilizer_eigenvalue(self, bitflip3):
        zzi = to_dense(PauliString("ZZI"))
        assert np.allclose(zzi @ bitflip3.codeword0, bitflip3.codeword0)


class TestPerfect5:
    def test_generator_count_and_weight(self, perfect5):
        assert len(perfect5.generators) == 4
        assert all(
            sum(ch != "I" for ch in g.letters) == 4 for g in perfect5.generators
        )

    def test_codewords_orthogonal(self, perfect5):
        assert abs(np.vdot(perfect5.codeword0, perfect5.codeword1)) < 1e-12

    def test_codeword0_structure(self, perfect5):
        # 16 basis states, all amplitudes +-1/4 and real
        cw = perfect5.codeword0
        nz = np.nonzero(np.abs(cw) > 1e-12)[0]
        assert len(nz) == 16
        assert np.max(np.abs(cw.imag)) == 0
        assert np.allclose(np.abs(cw[nz]), 0.25)

    def test_codeword0_textbook_pattern(self, perfect5):
        # signs of the standard |0_L> for generators XZZXI + cyclic shifts
        plus = ["00000", "00101", "01001", "01010", "10010", "10100"]
        minus = ["00011", "00110", "01100", "01111", "10001", "10111", "11000", "11011", "11101", "11110"]
        cw = perfect5.codeword0
        for bits in plus:
            assert cw[int(bits, 2)].real == pytest.approx(0.25)
        for bits in minus:
            assert cw[int(bits, 2)].real == pytest.approx(-0.25)


class TestSteane7:
    def test_logical_operators(self, steane7):
        assert steane7.logical_x.letters == "IIIIXXX"
        assert len(steane7.generators) == 6

    def test_all_syndromes_distinct(self, steane7):
        errs = error_set(steane7, "XYZ")
        syn = [syndrome(steane7, e) for e in errs]
        assert len(syn) == 21
        assert len(set(syn)) == 21
        assert all(any(s) for s in syn)

    def test_codewords_stabilized(self, steane7):
        for g in steane7.generators:
            m = to_dense(g)
            for cw in (steane7.codeword0, steane7.codeword1):
                assert np.linalg.norm(m @ cw - cw) < 1e-10


class TestCodewordsFromStabilizers:
    def test_already_stabilized_seed(self):
        gens = [PauliString("ZZI"), PauliString("IZZ")]
        cw0, cw1 = codewords_from_stabilizers(gens, PauliString("XXX"))
        assert np.array_equal(cw0, basis_state(3, "000"))
        assert np.array_equal(cw1, basis_state(3, "111"))

    def test_noncommuting_generators_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            codewords_from_stabilizers(
                [PauliString("XII"), PauliString("ZII")], PauliString("XXX")
            )

    def test_annihilated_seed_rejected(self):
        # the -Z stabilizer fixes only |1>, so it annihilates |0>
        with pytest.raises(ValueError, match="annihilates"):
            codewords_from_stabilizers([PauliString("Z", -1)], PauliString("X"))

    def test_eigenstate_postcondition(self):
        code = build_code("perfect5")
        for g in code.generators:
            m = to_dense(g)
            assert np.linalg.norm(m @ code.codeword0 - code.codeword0) < 1e-10
            assert np.linalg.norm(m @ code.codeword1 - code.codeword1) < 1e-10


class TestErrorSet:
    def test_bitflip_x_order(self, bitflip3):
        errs = error_set(bitflip3, "X")
        assert [e.letters for e in errs] == ["XII", "IXI", "IIX"]

    def test_perfect5_all_kinds(self, perfect5):
        assert len(error_set(perfect5, "XYZ")) == 15

    def test_steane7_count(self, steane7):
        assert len(error_set(steane7, "XYZ")) == 21

    def test_qubit_major_then_xyz(self, bitflip3):
        errs = error_set(bitflip3, "ZX")
        assert [e.letters for e in errs[:2]] == ["XII", "ZII"]

    def test_empty_kinds_rejected(self, bitflip3):
        with pytest.raises(ValueError):
            error_set(bitflip3, "")

    @pytest.mark.parametrize("kinds", ["XQ", "Q", ["XY"]])
    def test_bad_kinds_named(self, perfect5, kinds):
        # "XQ" ended in "substring not found", and ["XY"] passed as a substring of "XYZ"
        with pytest.raises(ValueError, match=re.escape(f"X, Y, Z, got {kinds!r}")):
            error_set(perfect5, kinds)


class TestSyndrome:
    def test_identity_error(self, bitflip3):
        assert syndrome(bitflip3, PauliString.identity(3)) == (0, 0)

    def test_bitflip_syndromes_match_counting_oracle(self, bitflip3):
        for e in ["XII", "IXI", "IIX"]:
            expected = tuple(
                anticommute_count(e, g.letters) % 2 for g in bitflip3.generators
            )
            assert syndrome(bitflip3, PauliString(e)) == expected
        assert syndrome(bitflip3, PauliString("XII")) == (1, 0)
        assert syndrome(bitflip3, PauliString("IXI")) == (1, 1)

    def test_nondegenerate_builtins(self, bitflip3, perfect5):
        for code, kinds in ((bitflip3, "X"), (perfect5, "XYZ")):
            syn = [syndrome(code, e) for e in error_set(code, kinds)]
            assert len(set(syn)) == len(syn)
            assert all(any(s) for s in syn)


class TestErrorSpaceGeometry:
    def test_bitflip_x_orthogonal(self, bitflip3):
        assert error_spaces_orthogonal(bitflip3, error_set(bitflip3, "X")) < 1e-12

    def test_perfect5_all_orthogonal(self, perfect5):
        assert error_spaces_orthogonal(perfect5, error_set(perfect5, "XYZ")) < 1e-12

    def test_bitflip_z_overlaps(self, bitflip3):
        # Z errors act inside the code-space span: ZII|000> = |000>
        assert error_spaces_orthogonal(bitflip3, error_set(bitflip3, "Z")) == pytest.approx(1.0)

    def test_distance3_witness(self, perfect5, steane7):
        for code in (perfect5, steane7):
            errs = error_set(code, "XYZ")
            worst = 0.0
            for e1 in errs:
                m1 = to_dense(e1)
                for e2 in errs:
                    v = m1 @ (to_dense(e2) @ code.codeword0)
                    worst = max(worst, abs(np.vdot(code.codeword1, v)))
            assert worst < 1e-12


class TestRecover:
    def test_single_flip_restored(self, bitflip3):
        errs = error_set(bitflip3, "X")
        rho = pure_density(to_dense(PauliString("IIX")) @ bitflip3.codeword0)
        out = recover(bitflip3, errs, rho)
        assert np.allclose(out, pure_density(basis_state(3, "000")), atol=1e-12)

    def test_encoded_superposition_restored(self, bitflip3):
        rng = np.random.default_rng(23)
        errs = error_set(bitflip3, "X")
        for _ in range(20):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = normalize(amps[0] * bitflip3.codeword0 + amps[1] * bitflip3.codeword1)
            for e in errs:
                rho = pure_density(to_dense(e) @ psi)
                assert fidelity(psi, recover(bitflip3, errs, rho)) > 1 - 1e-10

    def test_double_error_miscorrects(self, bitflip3):
        # |011> = two flips on |000>; majority vote lands on |111>
        errs = error_set(bitflip3, "X")
        rho = pure_density(basis_state(3, "011"))
        out = recover(bitflip3, errs, rho)
        assert np.allclose(out, pure_density(basis_state(3, "111")), atol=1e-12)

    def test_trace_preserved(self, perfect5):
        rng = np.random.default_rng(29)
        errs = error_set(perfect5, "XYZ")
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = recover(perfect5, errs, rho)
        assert abs(np.trace(out).real - 1) < 1e-10

    def test_overlapping_spaces_rejected(self, bitflip3):
        with pytest.raises(ValueError, match="overlap"):
            recover(bitflip3, error_set(bitflip3, "Z"), pure_density(basis_state(3, 0)))

    def test_all_builtin_codes_recover_all_errors(self):
        rng = np.random.default_rng(31)
        for name, kinds in (("bitflip3", "X"), ("perfect5", "XYZ"), ("steane7", "XYZ")):
            code = build_code(name)
            errs = error_set(code, kinds)
            for _ in range(5):
                amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                psi = normalize(amps[0] * code.codeword0 + amps[1] * code.codeword1)
                for e in errs:
                    rho = pure_density(to_dense(e) @ psi)
                    assert fidelity(psi, recover(code, errs, rho)) > 1 - 1e-10

    @pytest.mark.parametrize("name", ["bitflip3", "perfect5", "steane7"])
    def test_equal_dense_projector_formula(self, name):
        # the sectors' rank-K complement against P_rest = I - sum_j P_j, with
        # P_j = V_j V_j^dag and V_j = E_j V0 from dense errors, on matrices
        # that are neither Hermitian nor states
        code = build_code(name)
        errs = error_set(code, DESIGNED_KINDS[name])
        v0 = np.stack([code.codeword0, code.codeword1], axis=1)
        mats = [to_dense(e) for e in errs]
        projs = [v @ v.conj().T for v in [v0] + [m @ v0 for m in mats]]
        p_rest = np.eye(code.dim) - sum(projs)
        rng = np.random.default_rng(41)
        for _ in range(2):
            a = rng.standard_normal((code.dim,) * 2) + 1j * rng.standard_normal((code.dim,) * 2)
            forward = p_rest @ a @ p_rest + projs[0] @ a @ projs[0]
            adjoint = p_rest @ a @ p_rest + projs[0] @ a @ projs[0]
            for m, pj in zip(mats, projs[1:]):
                forward += m @ pj @ a @ pj @ m.conj().T
                adjoint += pj @ m.conj().T @ a @ m @ pj
            assert np.max(np.abs(recover(code, errs, a) - forward)) < 1e-12
            assert np.max(np.abs(recover_adjoint(code, errs, a) - adjoint)) < 1e-12

    def test_adjoint_duality(self, bitflip3):
        # Tr(R(rho) B) = Tr(rho R*(B)) for random rho, B
        rng = np.random.default_rng(37)
        errs = error_set(bitflip3, "X")
        for _ in range(5):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            b = b + b.conj().T
            lhs = np.trace(recover(bitflip3, errs, rho) @ b)
            rhs = np.trace(rho @ recover_adjoint(bitflip3, errs, b))
            assert abs(lhs - rhs) < 1e-10


class TestBuildCode:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown code"):
            build_code("surface17")
