"""Stabilizer codes: built-in definitions, syndromes, error-space geometry,
and the ideal recovery channel.

Error-space geometry and recovery work on one sector basis
W = [V0 | E_1 V0 | ... | E_m V0] of an orthonormal code-space basis V0 and
its images under the errors, applied as signed permutations, never as dense
matrices.  Each error set has one table of them, built once per process
(:func:`~etlab.qcore._pauli_table`), and W is one gather from it.  Recovery
works at the sectors' rank K = (m + 1) k: the projector I - W W^dag onto
the rest of the space is applied through products with W, never formed.

An error set is a plain tuple of Pauli strings (:func:`error_set` builds
the weight-1 ones); every function here and in :mod:`etlab.eth` takes any
iterable of them.

The built-in codes are the rows of one table, ``_CODES``: generators,
logical X and Z, and the error kinds the code is designed to correct.
:func:`build_code` builds one by name, and ``DESIGNED_KINDS`` is read off
the table.  Each encodes one logical qubit:

* ``bitflip3`` -- |0_L> = |000>, |1_L> = |111>; corrects bit flips only.
* ``perfect5`` -- the [[5,1,3]] code, generators XZZXI and its cyclic shifts.
* ``steane7``  -- the [[7,1,3]] CSS code.  The qubit ordering is the standard
  Hamming-parity ordering rotated left by three positions, which makes
  IIIIXXX (and IIIIZZZ) valid weight-3 logical operators on the last three
  qubits.  Any column permutation of the Hamming parity sets yields an
  equivalent code; this one is fixed so tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qcore import (
    PauliString,
    _pauli_table,
    anticommutes,
    basis_state,
    pauli_action,
    pure_density,
)

__all__ = [
    "StabilizerCode",
    "build_code",
    "DESIGNED_KINDS",
    "codewords_from_stabilizers",
    "error_set",
    "syndrome",
    "error_spaces_orthogonal",
    "recover",
    "recover_adjoint",
]


@dataclass(frozen=True, eq=False)
class StabilizerCode:
    """One logical qubit encoded in n physical qubits.

    Arrays are treated as immutable after construction; instances are safe
    to share across workers.
    """

    n: int
    generators: tuple[PauliString, ...]
    logical_x: PauliString
    logical_z: PauliString
    codeword0: np.ndarray
    codeword1: np.ndarray
    name: str = ""

    @property
    def dim(self) -> int:
        return 2**self.n

    def projector(self) -> np.ndarray:
        """Projector onto the 2D code space."""
        return pure_density(self.codeword0) + pure_density(self.codeword1)


def _fix_global_phase(psi: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude amplitude real and positive."""
    k = int(np.argmax(np.abs(psi)))
    ph = psi[k] / abs(psi[k])
    out = psi / ph
    # scrub -0.0 parts so printed amplitudes are tidy
    return out + 0.0


def codewords_from_stabilizers(
    generators: Sequence[PauliString], logical_x: PauliString
) -> tuple[np.ndarray, np.ndarray]:
    """Project |0...0> onto the +1 eigenspace of all generators.

    codeword0 is the normalized image of |0...0> under prod_i (I + S_i)/2;
    codeword1 = logical_x applied to codeword0.  Raises if the generators do
    not commute or the projector annihilates |0...0>.
    """
    gens = tuple(generators)
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if anticommutes(g, h):
                raise ValueError(f"generators {g!r} and {h!r} do not commute")
    n = gens[0].n
    psi = basis_state(n, 0)
    for g in gens:
        psi = (psi + pauli_action(g, psi)) / 2.0
    nrm = np.linalg.norm(psi)
    if nrm < 1e-9:
        raise ValueError(
            "stabilizer projector annihilates |0...0>: the code space has no codeword "
            "with a |0...0> component"
        )
    psi0 = _fix_global_phase(psi / nrm)
    psi1 = _fix_global_phase(pauli_action(logical_x, psi0))
    return psi0, psi1


# name: (generators, logical X, logical Z, the error kinds the code is designed to correct)
_CODES = {
    "bitflip3": (("ZZI", "IZZ"), "XXX", "ZII", "X"),
    "perfect5": (("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"), "XXXXX", "ZZZZZ", "XYZ"),
    "steane7": (
        ("XXXXIII", "IIXXIXX", "IXIXXIX", "ZZZZIII", "IIZZIZZ", "IZIZZIZ"),
        "IIIIXXX",
        "IIIIZZZ",
        "XYZ",
    ),
}

DESIGNED_KINDS = {name: row[3] for name, row in _CODES.items()}


def build_code(name: str) -> StabilizerCode:
    """The built-in code ``name``: one row of ``_CODES``, with its logicals
    checked to commute with the generators and to anticommute with each other."""
    if name not in _CODES:
        raise ValueError(f"unknown code {name!r}; choose from {sorted(_CODES)}")
    generators, logical_x, logical_z, _ = _CODES[name]
    gens = tuple(map(PauliString, generators))
    lx, lz = PauliString(logical_x), PauliString(logical_z)
    for g in gens:
        if anticommutes(lx, g) or anticommutes(lz, g):
            raise ValueError(f"logical operator clashes with generator {g!r}")
    if not anticommutes(lx, lz):
        raise ValueError("logical X and Z must anticommute")
    cw0, cw1 = codewords_from_stabilizers(gens, lx)
    return StabilizerCode(
        n=gens[0].n,
        generators=gens,
        logical_x=lx,
        logical_z=lz,
        codeword0=cw0,
        codeword1=cw1,
        name=name,
    )


def error_set(code: StabilizerCode, kinds: str | Iterable[str]) -> tuple[PauliString, ...]:
    """All weight-1 errors of the given kinds, qubit-major then X < Y < Z."""
    chosen = set(kinds)
    if not chosen:
        raise ValueError("kinds must be nonempty")
    if not chosen <= set("XYZ"):
        raise ValueError(f"kinds must be drawn from X, Y, Z, got {kinds!r}")
    return tuple(
        PauliString("I" * q + k + "I" * (code.n - q - 1))
        for q in range(code.n)
        for k in "XYZ"
        if k in chosen
    )


def syndrome(code: StabilizerCode, e: PauliString) -> tuple[int, ...]:
    """Commutation pattern of an error with the generators (1 = anticommutes)."""
    if e.n != code.n:
        raise ValueError(f"error acts on {e.n} qubits, code has {code.n}")
    return tuple(1 if anticommutes(e, g) else 0 for g in code.generators)


def _code_basis(code: StabilizerCode) -> np.ndarray:
    """V0: the two codewords as the columns of a (d, 2) matrix."""
    return np.stack([code.codeword0, code.codeword1], axis=1)


_OVERLAP_TOL = 1e-8


def _sectors(basis: np.ndarray, errors: Iterable[PauliString]) -> np.ndarray:
    """W = [V0 | E_1 V0 | ... | E_m V0] for a (d, k) code-space basis V0: one
    gather of V0's rows through the error set's table."""
    d = basis.shape[0]
    coef, src = _pauli_table(tuple(errors), d)
    # images[:, j] = E_j V0; np.take gathers rows several times faster than
    # fancy indexing at these sizes
    images = coef.T[:, :, None] * np.take(basis, src.T, axis=0)
    return np.concatenate([basis, images.reshape(d, -1)], axis=1)


def _orthonormal_sectors(basis: np.ndarray, errors: Iterable[PauliString]) -> np.ndarray:
    """W, checked to have mutually orthogonal (hence orthonormal) sectors."""
    w = _sectors(basis, errors)
    overlap = _max_overlap(w, basis.shape[1])
    if overlap > _OVERLAP_TOL:
        raise ValueError(f"error spaces are not orthogonal (max overlap {overlap:.3e})")
    return w


def _max_overlap(w: np.ndarray, k: int) -> float:
    """Largest |entry| of W^dag W outside its k x k diagonal blocks."""
    block = np.arange(w.shape[1]) // k
    gram = np.abs(w.conj().T @ w)
    return float(gram[block[:, None] != block[None, :]].max(initial=0.0))


def error_spaces_orthogonal(
    code: StabilizerCode, errors: Iterable[PauliString]
) -> float:
    """Largest overlap magnitude between distinct error spaces.

    The code space itself participates as sector 0, so the result also
    bounds each error space's overlap with the code space.  Zero (to
    rounding) means the recovery channel of :func:`recover` is well posed.
    """
    return _max_overlap(_sectors(_code_basis(code), errors), 2)


def _outside(w: np.ndarray, a: np.ndarray, aw: np.ndarray) -> np.ndarray:
    """P a P for P = I - W W^dag, given aw = a W: x - W (W^dag x) with
    x = a - aw W^dag.  For W of rank K that is 4 d^2 K work, where forming
    P and applying it costs 2 d^3."""
    x = a - aw @ w.conj().T
    return x - w @ (w.conj().T @ x)


def recover(
    code: StabilizerCode,
    errors: Iterable[PauliString],
    rho: np.ndarray,
) -> np.ndarray:
    """Ideal recovery channel: map each error space back to the code space.

    rho -> sum_j E_j P_j rho P_j E_j^dag + P_0 rho P_0 + P_rest rho P_rest,
    where P_j projects onto error space j.  Components outside the code and
    single-error spaces are left untouched (the channel stays trace
    preserving), so multi-error inputs pass through and may miscorrect.

    With V_j = E_j V0, E_j P_j = E_j^2 V0 V_j^dag and E_j^2 is a phase, so
    sector j contributes V0 (V_j^dag rho V_j) V0^dag, and
    P_rest = I - W W^dag.  One product rho W feeds both the sector blocks
    and P_rest rho P_rest, which is applied at W's rank (:func:`_outside`).
    """
    v0 = _code_basis(code)
    w = _orthonormal_sectors(v0, errors)
    d, k = v0.shape
    rho_w = rho @ w
    blocks = np.einsum("ask,asl->kl", w.conj().reshape(d, -1, k), rho_w.reshape(d, -1, k))
    return v0 @ blocks @ v0.conj().T + _outside(w, rho, rho_w)


def recover_adjoint(
    code: StabilizerCode,
    errors: Iterable[PauliString],
    observable: np.ndarray,
) -> np.ndarray:
    """Heisenberg picture of :func:`recover`: Tr(R(rho) B) = Tr(rho R*(B)).

    Used to fold ideal recovery into a measured observable, e.g. for
    trajectory simulations that never materialize the recovered state.
    Sector j receives V_j (V0^dag B V0) V_j^dag, and the rest
    P_rest B P_rest as in :func:`recover`.
    """
    v0 = _code_basis(code)
    w = _orthonormal_sectors(v0, errors)
    d, k = v0.shape
    logical = v0.conj().T @ observable @ v0
    lifted = (w.reshape(d, -1, k) @ logical).reshape(d, -1)
    return lifted @ w.conj().T + _outside(w, observable, observable @ w)
