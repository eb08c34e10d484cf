"""Dense complex linear algebra and Pauli-string algebra.

Everything downstream works with plain numpy arrays: operators are
``(d, d)`` complex matrices, pure states are length-``d`` complex vectors,
density matrices are ``(d, d)`` complex matrices with unit trace, where
``d = 2**n`` for ``n`` qubits (n <= 8 at desk scale).  hbar = 1 throughout,
so rates and frequencies share one time unit.

Qubit 0 is the leftmost tensor factor (most significant bit of the basis
index), so ``basis_state(3, "011")`` is the computational state |011>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "PAULI_MATS",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "PauliString",
    "pauli_mul",
    "anticommutes",
    "weight",
    "to_dense",
    "pauli_action",
    "pauli_decompose",
    "evolve_unitary",
    "fidelity",
    "basis_state",
    "normalize",
    "pure_density",
    "embed_single",
    "num_qubits",
    "require_hermitian",
    "check_density_matrix",
]

PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|, damping
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|, excitation

_PHASES = (1 + 0j, -1 + 0j, 1j, -1j)

# single-letter products: (a, b) -> (phase, letter) with a*b = phase*letter
_LETTER_PROD = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


def _canonical_phase(phase: complex) -> complex:
    phase = complex(phase)
    for p in _PHASES:
        if abs(phase - p) < 1e-9:
            return p
    raise ValueError(f"phase must be one of +1, -1, +i, -i, got {phase!r}")


@dataclass(frozen=True)
class PauliString:
    """Phased tensor product of single-qubit Pauli letters.

    ``letters`` is a string over {I, X, Y, Z}; index k acts on qubit k.
    ``phase`` is one of the four fourth-roots of unity (snapped exactly).
    """

    letters: str
    phase: complex = 1 + 0j

    def __post_init__(self):
        if not self.letters or any(ch not in "IXYZ" for ch in self.letters):
            raise ValueError(f"letters must be a nonempty string over IXYZ, got {self.letters!r}")
        object.__setattr__(self, "phase", _canonical_phase(self.phase))

    @property
    def n(self) -> int:
        return len(self.letters)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls("I" * n)

    def __repr__(self) -> str:
        prefix = {1 + 0j: "", -1 + 0j: "-", 1j: "i", -1j: "-i"}[self.phase]
        return f"{prefix}{self.letters}"


def pauli_mul(p: PauliString, q: PauliString) -> PauliString:
    """Group product p*q, tracking the overall phase exactly.

    Matches the dense matrix product: to_dense(pauli_mul(p, q)) equals
    to_dense(p) @ to_dense(q).
    """
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    phase = p.phase * q.phase
    out = []
    for a, b in zip(p.letters, q.letters):
        f, c = _LETTER_PROD[(a, b)]
        phase *= f
        out.append(c)
    return PauliString("".join(out), phase)


def anticommutes(p: PauliString, q: PauliString) -> bool:
    """True iff p and q anticommute (odd number of clashing letters)."""
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    clashes = sum(
        1 for a, b in zip(p.letters, q.letters) if a != "I" and b != "I" and a != b
    )
    return clashes % 2 == 1


def weight(p: PauliString) -> int:
    """Number of non-identity letters (the body-ness of the term)."""
    return sum(1 for ch in p.letters if ch != "I")


def to_dense(p: PauliString) -> np.ndarray:
    """Dense (2^n, 2^n) matrix: phase times the Kronecker product of letters."""
    mats = [PAULI_MATS[ch] for ch in p.letters]
    return p.phase * reduce(np.kron, mats)


def _signed_permutation(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """(coef, src) with row b of P v equal to coef[b] * v[src[b]].

    With bit masks x (X or Y letters) and z (Y or Z letters), qubit 0 the
    most significant bit, P|b> = phase i^{#Y} (-1)^{popcount(b & z)} |b ^ x>
    (Aaronson & Gottesman, PRA 70, 052328 (2004)), so src is b ^ x, an
    involution, and every coef is +-1 or +-i.
    """
    x = z = 0
    for ch in p.letters:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "YZ")
    src = np.arange(1 << p.n) ^ x
    base = p.phase * (1, 1j, -1, -1j)[p.letters.count("Y") % 4]
    coef = np.where(np.bitwise_count(src & z) & 1, -base, base)
    return coef, src


def pauli_action(p: PauliString, v: np.ndarray) -> np.ndarray:
    """P @ v as a signed permutation of rows; v is (2^n,) or (2^n, k).

    Every factor is +-1 or +-i (see :func:`_signed_permutation`), so the
    result equals to_dense(p) @ v exactly.
    """
    v = np.asarray(v)
    if v.shape[0] != 1 << p.n:
        raise ValueError(f"{p.n}-qubit Pauli cannot act on leading dimension {v.shape[0]}")
    coef, src = _signed_permutation(p)
    return coef.reshape((-1,) + (1,) * (v.ndim - 1)) * v[src]


def num_qubits(dim: int) -> int:
    """Qubit count for a Hilbert-space dimension; rejects non-powers of two."""
    n = int(dim).bit_length() - 1
    if dim <= 1 or (1 << n) != dim:
        raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
    return n


# change of basis (I, X, Y, Z) <- flattened (bra, ket) pair, including the 1/2
# from Tr(sigma^dag sigma) = 2
_DECOMP_T = np.stack([PAULI_MATS[ch].conj().reshape(4) for ch in "IXYZ"]) / 2.0


def pauli_decompose(a: np.ndarray) -> list[tuple[complex, PauliString]]:
    """Expand a dense operator in the Pauli-string basis.

    Returns ``[(c, P), ...]`` with c = Tr(P^dag A) / 2^n, sorted
    lexicographically by letters (I < X < Y < Z), entries with |c| < 1e-12
    dropped.  The coefficient tensor is built one qubit at a time, so the
    cost is n * 4^n rather than 8^n.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = num_qubits(a.shape[0])
    t = a.reshape((2,) * (2 * n))
    # pair each ket axis with its bra axis: (r0, c0, r1, c1, ...)
    perm = [ax for k in range(n) for ax in (k, n + k)]
    t = t.transpose(perm).reshape((4,) * n)
    for _ in range(n):
        # consume the leading qubit axis, append its Pauli axis at the end;
        # after n rounds the axes are back in qubit order
        t = np.tensordot(t, _DECOMP_T, axes=([0], [1]))
    terms = []
    for idx in np.argwhere(np.abs(t) >= 1e-12):
        letters = "".join("IXYZ"[k] for k in idx)
        terms.append((complex(t[tuple(idx)]), PauliString(letters)))
    return terms


def require_hermitian(a: np.ndarray, what: str = "operator") -> None:
    """Reject a non-square, non-finite or non-Hermitian ``a`` (an entry of
    A - A^dag above 1e-10 in magnitude), naming it as ``what``."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = np.max(np.abs(a - a.conj().T), initial=0.0)
    if dev > 1e-10:
        raise ValueError(f"{what} is not Hermitian (max |A - A^dag| = {dev:.3e})")


def evolve_unitary(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i H t) to a pure state via Hermitian eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if h.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: H is {h.shape}, state is {psi.shape}")
    require_hermitian(h, what="Hamiltonian")
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi|rho|psi>, real, clamped to [0, 1]."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: state {psi.shape[0]}, matrix {rho.shape[0]}")
    val = np.vdot(psi, rho @ psi)
    return float(min(max(val.real, 0.0), 1.0))


def basis_state(n: int, bits: int | str) -> np.ndarray:
    """Computational basis state of n qubits, from an index or a bit string."""
    if isinstance(bits, str):
        if len(bits) != n or any(b not in "01" for b in bits):
            raise ValueError(f"expected {n} bits, got {bits!r}")
        index = int(bits, 2)
    else:
        index = int(bits)
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    psi = np.zeros(2**n, dtype=complex)
    psi[index] = 1.0
    return psi


def normalize(psi: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(psi)
    if nrm < 1e-12:
        raise ValueError("cannot normalize a (near-)zero vector")
    return np.asarray(psi, dtype=complex) / nrm


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized pure state."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def embed_single(n: int, site: int, op: np.ndarray) -> np.ndarray:
    """Embed a single-qubit operator at the given site of an n-qubit register."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = np.asarray(op, dtype=complex)
    return reduce(np.kron, mats)


def check_density_matrix(rho: np.ndarray) -> None:
    """Validate finiteness, Hermiticity, unit trace (to 1e-8), and positivity
    (no eigenvalue below -1e-8) of a density matrix.  The eigenvalues are
    those of the principal block over the rows and columns that hold a
    nonzero: a Hermitian matrix that is 0 outside R x R has the spectrum of
    its R x R block and zeros, so a pure state costs checks and an eigvalsh
    of its support's size, not of the whole dimension."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 2 and rho.shape[0] == rho.shape[1]:
        # a non-finite or non-Hermitian entry is a nonzero, so it is inside
        nonzero = rho != 0
        held = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
        rho = rho[held[:, None], held]
    require_hermitian(rho, what="density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"density matrix trace {tr!r} is not 1")
    wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if wmin < -1e-8:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
