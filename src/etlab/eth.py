"""Error-transparent Hamiltonian (ETH) construction and verification.

Given a code-space Hamiltonian H0 and a set of correctable errors E_i, the
ETH is H = H0 + sum_i E_i H0 E_i^dag.  On every single-error sector it then
acts exactly as H0 acts on the code space, so evolution and a single error
commute.  The dagger ordering keeps the construction correct even for
non-self-inverse conjugators; for Pauli errors it coincides with the plain
sandwich E_i H0 E_i.

Errors are never densified, not even in the CSS-7 report.  A Pauli error
E is a signed permutation, row b of E v being coef[b] v[src[b]] with src
an involution, read from its error set's table
(:func:`~etlab.qcore._pauli_table`), so
(E H0 E^dag)[b, c] = coef[b] conj(coef[c]) H0[src[b], src[c]]:
H0's nonzero block, rows and columns R, moves to rows
and columns src[R], scaled by the outer product of coef[src[R]] and its
conjugate.  Every factor is +-1 or +-i, so the move is exact.  The support
check V (V^dag H0 V) V^dag = H0, V the orthonormal code basis, forms only
rank-k products; the other checks use the sector basis of
:mod:`etlab.codes`, and a controlled ETH the joint basis V0 (x) I_2.
:func:`verify_et` checks transparency, H E psi = E H0 psi, on every state
of the code space at once: the residual is linear in psi, so its worst case
is a largest singular value.

Every function takes its errors as any iterable of Pauli strings, such as
the tuple :func:`~etlab.codes.error_set` returns, and returns plain arrays
and numbers; there is no report type, and ``etlab eth inspect`` calls the
functions it summarizes directly.  The module builds on :mod:`etlab.qcore`
and :mod:`etlab.codes` only, never on the simulation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .codes import StabilizerCode, _code_basis, _orthonormal_sectors, _sectors
from .qcore import (
    PauliString,
    _pauli_table,
    anticommutes,
    pauli_decompose,
    pauli_mul,
    weight,
)

__all__ = [
    "LogicalHamiltonian",
    "Css7Report",
    "encode_logical",
    "deduplicate_errors",
    "make_eth",
    "verify_et",
    "bodyness",
    "swap_hamiltonian",
    "extend_to_target",
    "controlled_eth",
    "conjugation_sign",
    "css7_counterexample",
]

@dataclass(frozen=True)
class LogicalHamiltonian:
    """2x2 Hermitian logical generator: diag entries a, b and coupling c."""

    a: float
    b: float
    c: complex = 0j


@dataclass(frozen=True)
class Css7Report:
    conjugated_sign: int
    naive_sum_is_zero: bool


def encode_logical(code: StabilizerCode, lh: LogicalHamiltonian) -> np.ndarray:
    """Lift a 2x2 logical generator onto the code space (zero elsewhere)."""
    k0 = code.codeword0[:, None]
    k1 = code.codeword1[:, None]
    b0 = k0.conj().T
    b1 = k1.conj().T
    c = complex(lh.c)
    return lh.a * (k0 @ b0) + lh.b * (k1 @ b1) + c * (k1 @ b0) + np.conj(c) * (k0 @ b1)


def deduplicate_errors(
    code: StabilizerCode, errors: Iterable[PauliString]
) -> tuple[list[PauliString], int]:
    """Drop errors whose action on both codewords repeats an earlier one.

    Two errors count as duplicates when E|0_L> and F|0_L>, and E|1_L> and
    F|1_L>, agree up to one shared global phase -- the degenerate-code case
    where distinct physical errors implement the same logical mapping.
    Returns (representatives, number dropped).
    """
    return _deduplicate(_code_basis(code), errors)


def _deduplicate(
    basis: np.ndarray, errors: Iterable[PauliString]
) -> tuple[list[PauliString], int]:
    """deduplicate_errors for the code space spanned by the orthonormal
    columns of basis.  E_j V0 = ph E_i V0 needs |<u_i|u_j>| = 1 for the
    images u of V0's first column, so one Gram matrix of those images picks
    the candidate pairs, and only they are compared in full."""
    errors = tuple(errors)
    d, k = basis.shape
    images = _sectors(basis, errors)[:, k:].reshape(d, -1, k)
    gram = images[:, :, 0].conj().T @ images[:, :, 0]  # gram[i, j] = <u_i|u_j>
    candidate = np.abs(np.abs(gram) - 1.0) < 1e-9
    kept: list[int] = []
    for j in range(len(errors)):
        if not any(
            candidate[i, j] and np.allclose(images[:, j], gram[i, j] * images[:, i], atol=1e-9)
            for i in kept
        ):
            kept.append(j)
    return [errors[j] for j in kept], len(errors) - len(kept)


def make_eth(
    code: StabilizerCode,
    h0: np.ndarray,
    errors: Iterable[PauliString],
) -> np.ndarray:
    """H = H0 + sum_i E_i H0 E_i^dag over the deduplicated error set.

    Requires the (deduplicated) error spaces to be mutually orthogonal and
    orthogonal to the code space, and H0 to be supported on the code space.
    """
    return _eth(_code_basis(code), h0, errors)


def _eth(basis: np.ndarray, h0: np.ndarray, errors: Iterable[PauliString]) -> np.ndarray:
    """make_eth for the code space spanned by the orthonormal columns of basis."""
    h0 = np.asarray(h0, dtype=complex)
    vh = basis.conj().T
    if np.max(np.abs(basis @ ((vh @ h0) @ basis) @ vh - h0)) > 1e-10:
        raise ValueError("H0 must be supported on the code space")
    reps, _ = _deduplicate(basis, errors)
    _orthonormal_sectors(basis, reps)
    nz = h0 != 0
    rows = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    block = h0[np.ix_(rows, rows)]
    h = h0.copy()
    # E h0 E^dag as the block move the module docstring derives, one per
    # error; two errors may move the block onto the same rows, so no batching
    for coef, src in zip(*_pauli_table(tuple(reps), len(basis))):
        dst = src[rows]
        h[np.ix_(dst, dst)] += np.outer(coef[dst], coef[dst].conj()) * block
    return h


def verify_et(
    h: np.ndarray,
    h0: np.ndarray,
    code: StabilizerCode,
    errors: Iterable[PauliString],
) -> float:
    """Worst-case transparency residual: the largest ||H E psi - E H0 psi||
    over the errors E and every unit state psi of the code space.

    The residual is linear in psi, so for each error its supremum is the
    largest singular value of (H E - E H0) V, V the orthonormal code basis:
    the two codewords V0, or V0 (x) I_2 when H0 acts on code-plus-target.
    """
    h = np.asarray(h, dtype=complex)
    h0 = np.asarray(h0, dtype=complex)
    basis = _code_basis(code)
    if h0.shape[0] == 2 * code.dim:
        basis = np.kron(basis, np.eye(2))
    elif h0.shape[0] != code.dim:
        raise ValueError(
            f"H0 dimension {h0.shape[0]} matches neither the code ({code.dim}) "
            f"nor code-plus-target ({2 * code.dim})"
        )
    errs = tuple(errors)
    d, k = basis.shape
    # column block j >= 1 holds (H E_j - E_j H0) V, here resid[:, j - 1, :]
    resid = (h @ _sectors(basis, errs) - _sectors(h0 @ basis, errs))[:, k:]
    resid = resid.reshape(d, len(errs), k)
    return float(np.linalg.norm(resid, 2, axis=(0, 2)).max(initial=0.0))


def bodyness(h: np.ndarray) -> int:
    """Maximum Pauli weight among terms with |coefficient| above 1e-10."""
    terms = pauli_decompose(np.asarray(h, dtype=complex))
    return max((weight(p) for c, p in terms if abs(c) > 1e-10), default=0)


def swap_hamiltonian(code: StabilizerCode, omega: float) -> np.ndarray:
    """Coupling omega (L- sigma+ + L+ sigma-) on the code (x) target space.

    Exchanges the logical excitation with the target two-level system:
    |1_L>|g> <-> |0_L>|e> at Rabi rate omega, completing a full swap at
    t = pi / (2 omega).  It is omega (|a><b| + |b><a|), a = |0_L>|e> and
    b = |1_L>|g> (target last, |e> = |1>).
    """
    a, b = np.zeros((2, 2 * code.dim), dtype=complex)
    a[1::2], b[0::2] = code.codeword0, code.codeword1
    term = np.outer(a, b.conj())
    return omega * (term + term.conj().T)


def extend_to_target(errors: Iterable[PauliString]) -> list[PauliString]:
    """Append an identity target letter to each controller error (E -> E (x) I)."""
    return [PauliString(e.letters + "I", e.phase) for e in errors]


def controlled_eth(
    code: StabilizerCode,
    errors: Iterable[PauliString],
    omega: float,
) -> np.ndarray:
    """ETH for a logical controller driving a target qubit.

    Builds the swap coupling on the joint space and adds one conjugated copy
    per controller error (acting as identity on the target), yielding an
    (n+1)-body interaction that keeps driving the target through any single
    controller error.
    """
    h0 = swap_hamiltonian(code, omega)
    joint = np.kron(_code_basis(code), np.eye(2))
    return _eth(joint, h0, extend_to_target(errors))


def conjugation_sign(conjugator: PauliString, operator: PauliString) -> int:
    """+1 or -1 according to whether C P C^dag equals +P or -P: Pauli strings
    commute or anticommute, so C P C^dag = -P exactly when they anticommute."""
    return -1 if anticommutes(conjugator, operator) else 1


def css7_counterexample() -> Css7Report:
    """Why no 3-body ETH exists on the 7-qubit CSS code.

    Its weight-3 logical X on the last three qubits picks up a sign under
    conjugation by a Z error inside its support, so the conjugated term
    cancels the bare term and the naive two-term sum collapses to zero.  The
    sign is the clash count of :func:`conjugation_sign`; the vanishing sum
    is the letter-table product Z X-bar Z^dag = -X-bar (:func:`pauli_mul`).
    """
    xbar = PauliString("IIIIXXX")
    zerr = PauliString("IIIIZII")
    conjugated = pauli_mul(pauli_mul(zerr, xbar), zerr)  # Z^dag = Z
    return Css7Report(
        conjugated_sign=conjugation_sign(zerr, xbar),
        naive_sum_is_zero=conjugated == PauliString(xbar.letters, -xbar.phase),
    )
