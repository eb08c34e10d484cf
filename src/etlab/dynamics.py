"""Open-system time evolution.

Two methods cross-validate each other:

* :func:`integrate_lindblad` -- deterministic evolution of the density
  matrix.  The generator is time independent, so by default the state is
  propagated exactly: a scaled Taylor series of exp(t L) applied to rho
  (the action-of-the-exponential method of Al-Mohy & Higham, SIAM J. Sci.
  Comput. 33, 488 (2011)).  Substeps are sized from a bound on the
  generator's norm built on ||G||_2, and each series stops once a rigorous
  bound on its whole remaining tail is below machine precision; the result
  reports how many generator applications it took.  An explicit step
  selects fixed-step RK4 instead, guarded against steps beyond its
  stability region.
* :func:`mc_trajectories` -- quantum-jump unravelling (Dalibard, Castin &
  Molmer, PRL 68, 580 (1992)).  Deterministic segments use the one-step
  propagator exp((-iH - K/2) dt), formed once per run by the same scaled
  Taylor series applied to the identity, and jumps fire when the decaying
  norm crosses a per-trajectory uniform threshold (no sub-step
  interpolation).  Every trajectory follows the same deterministic flow
  between jumps, so the no-jump backbone is computed once, and after a
  jump each no-jump stretch takes O(log n_steps) matvecs by binary lifting
  over the powers u^(2^b); the engine checks its own norms as it goes.

Both methods see the noise through one representation, built once per run:
each channel's jump is checked against H's dimension, and the no-jump
generator G = -iH - K/2 is formed, and rejected when non-finite, in one
place.  Every jump used here (Pauli letters, raising/lowering on one site)
has at most one nonzero per column, so L psi, L rho L^dag and L^dag L are
gathers and scatters; dense jumps fall back to matmuls.

Trajectory i draws every random number from its own stream,
``default_rng(SeedSequence([seed, i]))``, so results are bitwise
reproducible and independent of the order in which trajectories are
processed.  Most trajectories never jump and use only the first draw, their
jump threshold, so every threshold is computed in one vectorized pass,
bitwise equal to that stream's first draw; a ``Generator`` is built only for
a trajectory that jumps, and its first draw is checked against the
vectorized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .qcore import check_density_matrix

__all__ = [
    "NumericsError",
    "IntegrationError",
    "TrajectoryError",
    "NoiseChannel",
    "NoiseModel",
    "IntegrationConfig",
    "TrajectoryConfig",
    "LindbladResult",
    "McResult",
    "site_channels",
    "default_timestep",
    "lindblad_rhs",
    "integrate_lindblad",
    "mc_trajectories",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
]

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|, damping
SIGMA_PLUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |e><g|, excitation


class NumericsError(RuntimeError):
    """A simulation produced numerically inconsistent results."""


class IntegrationError(NumericsError):
    pass


class TrajectoryError(NumericsError):
    pass


@dataclass(frozen=True)
class NoiseChannel:
    jump: np.ndarray
    rate: float
    label: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")
        if not np.isfinite(self.jump).all():
            raise ValueError(f"jump {self.label!r} has non-finite entries")


@dataclass(frozen=True)
class NoiseModel:
    """Independent Lindblad channels sum_k rate_k D[L_k]."""

    channels: tuple[NoiseChannel, ...] = ()

    def __post_init__(self):
        dims = {ch.jump.shape[0] for ch in self.channels}
        if len(dims) > 1:
            raise ValueError(f"jump operators disagree on dimension: {sorted(dims)}")

    def max_rate(self) -> float:
        return max((ch.rate for ch in self.channels), default=0.0)


def site_channels(
    n: int, op: np.ndarray, rate: float, label: str, sites: Iterable[int] | None = None
) -> list[NoiseChannel]:
    """One channel per site applying a 2x2 jump operator at the given rate."""
    from .qcore import embed_single

    chosen = range(n) if sites is None else sites
    return [
        NoiseChannel(jump=embed_single(n, q, op), rate=rate, label=f"{label}{q}")
        for q in chosen
    ]


def _check_t_final(t_final: float) -> None:
    if not (np.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")


@dataclass(frozen=True, kw_only=True)
class IntegrationConfig:
    """dt=None propagates exactly; a float dt selects RK4 with that step."""

    dt: float | None = None
    t_final: float
    record_stride: int = 1

    def __post_init__(self):
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        _check_t_final(self.t_final)
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass(frozen=True)
class TrajectoryConfig:
    n_traj: int
    seed: int
    dt: float

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be at least 1")
        # trajectory i is one 32-bit entropy word of its stream's seed
        if self.n_traj > 2**32:
            raise ValueError(f"n_traj must be at most 2**32, got {self.n_traj}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class LindbladResult:
    """The recorded states, and ``applications``: how many times the
    generator was applied (Taylor terms, or 4 per RK4 step)."""

    times: np.ndarray
    states: list[np.ndarray]
    applications: int

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class McResult:
    """Final-time means and standard errors, with ``jumpers`` (trajectories
    that jumped at least once) and ``jumps`` (jumps over all trajectories)."""

    means: np.ndarray
    stderrs: np.ndarray
    n_traj: int
    jumpers: int
    jumps: int


def default_timestep(omega: float, max_rate: float) -> float:
    """dt = (1/2000) min(pi/omega, 1/max_rate), the Monte-Carlo step that
    places jumps; small enough that the jump-placement bias sits well below
    the statistical tolerances.  The Lindblad integrator needs no step."""
    scale = np.pi / omega
    if max_rate > 0:
        scale = min(scale, 1.0 / max_rate)
    return scale / 2000.0


def lindblad_rhs(rho: np.ndarray, h: np.ndarray, noise: NoiseModel) -> np.ndarray:
    """-i[H, rho] + sum_k rate_k (L rho L^dag - (L^dag L rho + rho L^dag L)/2).

    Reference implementation of the generator; the integrator applies the
    same map through the precomputed fast path.
    """
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(h, dtype=complex)
    if rho.shape != h.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, H {h.shape}")
    out = -1j * (h @ rho - rho @ h)
    for ch in noise.channels:
        l = ch.jump
        if l.shape != rho.shape:
            raise ValueError(f"dimension mismatch: rho {rho.shape}, jump {l.shape}")
        ld = l.conj().T
        ll = ld @ l
        out += ch.rate * (l @ rho @ ld - 0.5 * (ll @ rho + rho @ ll))
    return out


class _Jump:
    """One channel's jump operator ``l`` at its rate, as both engines use it.

    A monomial l (at most one nonzero per column, unique rows) is also held
    as its nonzeros ``mono`` = (rows, cols, vals), sorted by column, and its
    three operations are gathers and scatters in which each entry is a
    single product; otherwise ``mono`` is None and they are matmuls.
    """

    def __init__(self, l: np.ndarray, rate: float):
        self.l = l
        self.rate = rate
        self.mono = None
        rows, cols = np.nonzero(np.abs(l) > 0)
        if len(set(rows.tolist())) == len(rows) and len(set(cols.tolist())) == len(cols):
            order = np.argsort(cols)
            rows, cols = rows[order], cols[order]
            self.mono = rows, cols, l[rows, cols].astype(complex)

    def act(self, psi: np.ndarray) -> np.ndarray:
        """l @ psi."""
        if self.mono is None:
            return self.l @ psi
        rows, cols, vals = self.mono
        out = np.zeros(len(psi), dtype=complex)
        out[rows] = vals * psi[cols]
        return out

    def add_decay(self, k: np.ndarray) -> None:
        """k += rate l^dag l."""
        if self.mono is None:
            k += self.rate * (self.l.conj().T @ self.l)
        else:
            _, cols, vals = self.mono
            k[cols, cols] += self.rate * (vals.conj() * vals)

    def add_sandwich(self, rho: np.ndarray, out: np.ndarray) -> None:
        """out += rate l rho l^dag."""
        if self.mono is None:
            out += self.rate * (self.l @ rho @ self.l.conj().T)
        else:
            to, frm, weights = self._sandwich
            out[to] += weights * rho[frm]

    @cached_property
    def _sandwich(self) -> tuple[tuple, tuple, np.ndarray]:
        # the weights rate vals vals^* are d x d: built on first use, since
        # only the Lindblad rhs needs them, and scaled in place
        rows, cols, vals = self.mono
        weights = np.outer(vals, vals.conj())
        weights *= self.rate
        return np.ix_(rows, rows), np.ix_(cols, cols), weights


def _no_jump_generator(
    h: np.ndarray, noise: NoiseModel, error: type[NumericsError]
) -> tuple[np.ndarray, list[_Jump]]:
    """G = -iH - K/2, with K = sum_k rate_k L_k^dag L_k summed in channel
    order, and every channel's jump analysed once; a jump whose shape is
    not H's is rejected, and a non-finite H, checked before any arithmetic,
    or G raises the engine's ``error``."""
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(h).all():
        raise error("the Hamiltonian has non-finite entries")
    k = np.zeros(h.shape, dtype=complex)
    jumps = []
    for ch in noise.channels:
        l = np.asarray(ch.jump, dtype=complex)
        if l.shape != h.shape:
            raise ValueError(f"dimension mismatch: H {h.shape}, jump {ch.label!r} {l.shape}")
        jump = _Jump(l, ch.rate)
        jump.add_decay(k)
        jumps.append(jump)
    g = -1j * h - 0.5 * k
    if not np.isfinite(g).all():
        raise error("the generator has non-finite entries")
    return g, jumps


def _norm2_bound(a: np.ndarray) -> float:
    """sqrt(||a||_1 ||a||_inf), an upper bound on the spectral norm that is
    exact for a matrix with at most one nonzero per row and column."""
    m = np.abs(a)
    return float(np.sqrt(m.sum(axis=0).max() * m.sum(axis=1).max()))


class _Generator:
    """Precomputed Lindblad generator: rhs(rho) = G rho + rho G^dag + jumps.

    ``bound`` = 2 ||G||_2 + sum_k rate_k ||L_k||_2^2 bounds the generator's
    norm as a map on rho with the Frobenius norm.  ||G||_2 is the spectral
    norm itself (one SVD per run); each ||L_k||_2 is bounded as in
    :func:`_norm2_bound`, which is exact for monomial jumps.
    """

    def __init__(self, h: np.ndarray, noise: NoiseModel):
        self.g, self.jumps = _no_jump_generator(h, noise, IntegrationError)
        self.gd = self.g.conj().T
        jump_bound = sum(j.rate * _norm2_bound(j.l) ** 2 for j in self.jumps)
        self.bound = 2.0 * float(np.linalg.norm(self.g, 2)) + jump_bound

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = self.g @ rho + rho @ self.gd
        for jump in self.jumps:
            jump.add_sandwich(rho, out)
        return out


def _step_sizes(dt: float, t_final: float) -> list[float]:
    """round(t_final/dt) steps of dt with the final step resized to land
    exactly on t_final."""
    n_steps = max(1, round(t_final / dt))
    last = t_final - (n_steps - 1) * dt
    return [dt] * (n_steps - 1) + [last]


# RK4's stability region reaches -2.78 on the real axis; a step whose
# generator-norm bound exceeds it can blow up instead of failing loudly
_RK4_STABILITY = 2.78
# a Taylor substep spans x = substep * bound <= _TAYLOR_THETA; a larger x
# needs fewer substeps but more cancellation, since the largest term is
# about e^x / sqrt(2 pi x) times ||rho|| (11 times at x = 4)
_TAYLOR_THETA = 4.0
# a substep stops after term k once k + 1 > x and the tail bound below is
# under this fraction of its partial sum: term k+j is at most
# (x/(k+1))^j times term k, so the whole rest of the series is at most
# ||term_k|| x / (k + 1 - x)
_TAYLOR_TOL = 1e-15
# at x <= 4 term k is at most 4^k/k! times the start's Frobenius norm, and
# the partial sum keeps at least 1/55 of it (rho at d <= 256: trace 1 and
# ||rho||_F <= 1; the identity: exp(a) has singular values >= e^-4), so the
# tail bound is met by term 32 at the latest; needing this many terms means
# the bound does not hold
_TAYLOR_MAX_TERMS = 60


def _check_trace(rho: np.ndarray, t: float, advice: str) -> None:
    drift = abs(np.trace(rho).real - 1.0)
    if drift > 1e-5:
        raise IntegrationError(f"trace drifted by {drift:.3e} at t={t:.6g}{advice}")


def _taylor_substep(
    apply, x0: np.ndarray, step: float, bound: float, error: type[NumericsError]
) -> tuple[np.ndarray, int]:
    """sum_k (step A)^k x0 / k! for the linear map A = ``apply`` whose norm is
    at most ``bound``, stopped on the tail bound; returns the sum and the
    number of applications.  Needing more than _TAYLOR_MAX_TERMS terms raises
    ``error``."""
    x = step * bound
    acc = x0.copy()
    term = x0
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = apply(term) * (step / k)
        acc += term
        if k + 1 > x and (
            np.linalg.norm(term) * x / (k + 1 - x) <= _TAYLOR_TOL * np.linalg.norm(acc)
        ):
            return acc, k
    raise error(
        f"Taylor series did not converge in {_TAYLOR_MAX_TERMS} terms "
        f"(substep {step:.4g}, generator bound {bound:.4g})"
    )


def _n_substeps(t: float, bound: float) -> int:
    """ceil(t * bound / theta), at least one."""
    return max(1, int(np.ceil(t * bound / _TAYLOR_THETA)))


def _propagate_exact(
    gen: _Generator, rho: np.ndarray, t_final: float
) -> tuple[np.ndarray, int]:
    """exp(t_final L) rho as ceil(t_final * bound / theta) Taylor substeps;
    returns the state and the number of generator applications."""
    n_sub = _n_substeps(t_final, gen.bound)
    step = t_final / n_sub
    applications = 0
    for _ in range(n_sub):
        acc, k = _taylor_substep(gen.rhs, rho, step, gen.bound, IntegrationError)
        applications += k
        rho = 0.5 * (acc + acc.conj().T)
    return rho, applications


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by the same scaled Taylor series, applied to the identity by
    X -> a X; ||a||_2 is bounded as in :func:`_norm2_bound`, so no SVD."""
    bound = _norm2_bound(a)
    n_sub = _n_substeps(1.0, bound)
    u = np.eye(len(a), dtype=complex)
    for _ in range(n_sub):
        u, _ = _taylor_substep(a.__matmul__, u, 1.0 / n_sub, bound, TrajectoryError)
    return u


def integrate_lindblad(
    rho0: np.ndarray,
    h: np.ndarray,
    noise: NoiseModel,
    config: IntegrationConfig,
) -> LindbladResult:
    """Evolve rho0 under the master equation up to ``config.t_final``.

    With ``config.dt=None`` the state is propagated exactly and the result
    holds the states at 0 and t_final only.  With an explicit dt, classical
    fixed-step RK4 records every ``record_stride``-th step; a step beyond
    RK4's stability region for this generator is rejected up front.  Either
    way the state is re-Hermitized ((rho + rho^dag)/2) after every
    (sub)step, and a trace drift beyond 1e-5 at a recorded point raises
    :class:`IntegrationError`.  A rho0 or jump whose dimension is not H's
    raises ValueError.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    check_density_matrix(rho)
    gen = _Generator(h, noise)
    if rho.shape != gen.g.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, H {gen.g.shape}")
    if config.t_final == 0:
        return LindbladResult(times=np.array([0.0]), states=[rho], applications=0)
    if config.dt is None:
        final, applications = _propagate_exact(gen, rho, config.t_final)
        _check_trace(final, config.t_final, "")
        return LindbladResult(
            times=np.array([0.0, config.t_final]), states=[rho, final], applications=applications
        )
    sizes = _step_sizes(config.dt, config.t_final)
    if max(sizes) * gen.bound > _RK4_STABILITY:
        raise IntegrationError(
            f"RK4 step {max(sizes):.4g} exceeds the stability limit "
            f"{_RK4_STABILITY / gen.bound:.4g} of this generator; use a smaller dt"
        )
    times = [0.0]
    states = [rho.copy()]
    t = 0.0
    for i, s in enumerate(sizes):
        k1 = gen.rhs(rho)
        k2 = gen.rhs(rho + (0.5 * s) * k1)
        k3 = gen.rhs(rho + (0.5 * s) * k2)
        k4 = gen.rhs(rho + s * k3)
        rho = rho + (s / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        t += s
        last = i == len(sizes) - 1
        if (i + 1) % config.record_stride == 0 or last:
            _check_trace(rho, t, "; use a smaller dt")
            times.append(config.t_final if last else t)
            states.append(rho.copy())
    return LindbladResult(times=np.array(times), states=states, applications=4 * len(sizes))


# The first draw of default_rng(SeedSequence([seed, i])), reproduced in
# numpy's wrapping uint32/uint64 arithmetic: SeedSequence's entropy mixing
# (NumPy NEP 19, after O'Neill's randutils seed_seq) and PCG64's seeding,
# step and XSL-RR output (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905, 2014)
_M32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)


def _hasher(const: int, mult: int):
    """SeedSequence's running hash: each call xors the value with the hash
    constant, advances the constant by ``mult`` and multiplies by it."""

    def hash_(v: np.ndarray) -> np.ndarray:
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _M32
        v = v * np.uint32(const)
        return v ^ (v >> np.uint32(16))

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _SS_MIX_L * x - _SS_MIX_R * y
    return r ^ (r >> np.uint32(16))


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from 32-bit halves."""
    m, s = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m, a >> s, b & m, b >> s
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s) + (p01 & m) + (p10 & m)
    return a1 * b1 + (p01 >> s) + (p10 >> s) + (mid >> s)


def _thresholds(seed: int, n: int) -> np.ndarray:
    """default_rng(SeedSequence([seed, i])).random() for i = 0 .. n-1,
    bitwise, in one vectorized pass; n <= 2**32, so i is one entropy word.
    PCG64's 128-bit state and increment are held as (high, low) uint64
    limbs."""
    u32, u64 = np.uint32, np.uint64
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    entropy = [np.full(n, w, dtype=u32) for w in words] + [np.arange(n, dtype=u32)]
    # SeedSequence.mix_entropy: hash the first words into the pool, mix
    # every pool word into every other, then mix in any words beyond it
    hash_a = _hasher(_SS_INIT_A, _SS_MULT_A)
    pool = [hash_a(entropy[k] if k < len(entropy) else np.zeros(n, u32)) for k in range(_SS_POOL)]
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_SS_POOL:]:
        for dst in range(_SS_POOL):
            pool[dst] = _mix(pool[dst], hash_a(word))
    # generate_state(4, uint64): eight hashed 32-bit words, little-endian pairs
    hash_b = _hasher(_SS_INIT_B, _SS_MULT_B)
    state = [hash_b(pool[k % _SS_POOL]).astype(u64) for k in range(8)]
    init_hi, init_lo, seq_hi, seq_lo = (state[k] | state[k + 1] << u64(32) for k in (0, 2, 4, 6))
    inc_hi = seq_hi << u64(1) | seq_lo >> u64(63)
    inc_lo = seq_lo << u64(1) | u64(1)

    def step(hi, lo):
        # state * multiplier + increment, mod 2**128
        lo_mul = lo * _PCG_MULT_LO
        lo_new = lo_mul + inc_lo
        hi_new = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi(lo, _PCG_MULT_LO)
        return hi_new + inc_hi + (lo_new < lo_mul), lo_new

    # set_seed: state 0, one step (the state becomes inc), add the initial
    # state, one more step; then random() takes one step and its output
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    for _ in range(2):
        hi, lo = step(hi, lo)
    x, rot = hi ^ lo, hi >> u64(58)
    x = x >> rot | x << ((u64(64) - rot) & u64(63))
    return (x >> u64(11)) * (1.0 / 2**53)


def _stream(seed: int, i: int) -> np.random.Generator:
    """Trajectory i's stream; its first draw is ``_thresholds(seed, n)[i]``."""
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def mc_trajectories(
    psi0: np.ndarray,
    h: np.ndarray,
    noise: NoiseModel,
    t_final: float,
    observables: Sequence[np.ndarray],
    config: TrajectoryConfig,
) -> McResult:
    """Quantum-jump Monte Carlo estimate of final-time expectation values.

    Returns the trajectory mean and standard error (sample stddev / sqrt(n))
    of <psi|O|psi> at t_final for each observable, and how many trajectories
    jumped and how many jumps they made.

    Every trajectory follows the same deterministic flow between jumps: the
    no-jump path is computed once and places every first jump, and each
    later stretch up to the next jump or t_final costs O(log n_steps)
    matvecs with the powers u_step^(2^b).  Trajectory i draws from its
    (seed, i) stream in the order threshold, then per jump a channel and the
    next threshold; all first thresholds come from one vectorized pass, and
    the stream itself is built only when trajectory i jumps.  That stream's
    first draw must equal the vectorized threshold bitwise, or
    :class:`TrajectoryError` is raised.  For monomial jumps the channel
    weights rate_k ||L_k psi||^2 are one product with a matrix of rate_k
    |L_k|^2 rows.  A no-jump norm that grows by more than 1e-12 (relative)
    between steps or across one power, or a renormalization off by more than
    1e-10, raises :class:`TrajectoryError`.  A psi0 or jump whose dimension
    is not H's raises ValueError.
    """
    _check_t_final(t_final)
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {nrm!r} is not 1")
    g, jumps = _no_jump_generator(h, noise, TrajectoryError)
    if psi0.shape != g.shape[:1]:
        raise ValueError(f"dimension mismatch: psi0 {psi0.shape}, H {g.shape}")
    n_traj = config.n_traj

    def reduce_values(values: np.ndarray, jumpers: int = 0, jumps: int = 0) -> McResult:
        # a row whose trajectories all agree is deterministic: its stderr is
        # exactly 0, not the rounding left by subtracting the mean
        stderrs = np.zeros(len(values))
        spread = np.ptp(values, axis=1) > 0
        stderrs[spread] = values[spread].std(axis=1, ddof=1) / np.sqrt(n_traj)
        return McResult(
            means=values.mean(axis=1), stderrs=stderrs, n_traj=n_traj,
            jumpers=jumpers, jumps=jumps,
        )

    def value_of(psi: np.ndarray) -> np.ndarray:
        psi = psi / np.linalg.norm(psi)
        return np.array([np.vdot(psi, obs @ psi).real for obs in observables])

    if t_final == 0:
        return reduce_values(np.tile(value_of(psi0)[:, None], (1, n_traj)))

    n_steps = max(1, round(t_final / config.dt))
    u_step = _expm(g * (t_final / n_steps))

    # the deterministic no-jump backbone, shared by every trajectory
    states0 = np.empty((psi0.shape[0], n_steps + 1), dtype=complex)
    states0[:, 0] = psi0
    for s in range(1, n_steps + 1):
        states0[:, s] = u_step @ states0[:, s - 1]
    values = np.tile(value_of(states0[:, -1])[:, None], (1, n_traj))
    if not jumps:
        return reduce_values(values)
    norms2 = np.einsum("ds,ds->s", states0.conj(), states0).real
    if np.any(norms2[1:] > norms2[:-1] * (1 + 1e-12)):
        raise TrajectoryError("no-jump norm increased between steps")
    # enforce monotonicity against last-ulp rounding so searchsorted is valid
    norms2 = np.minimum.accumulate(norms2)

    thresholds = _thresholds(config.seed, n_traj)
    # first crossing step per trajectory: norms2[1:] is non-increasing, so
    # the number of entries <= r locates the crossing in O(log n_steps)
    ascending = norms2[1:][::-1]
    counts = np.searchsorted(ascending, thresholds, side="right")
    jumpers = np.nonzero(counts > 0)[0]

    # u_step^(2^b) for b = 0 .. floor(log2 n_steps), by repeated squaring
    powers = [u_step]
    while 2 ** len(powers) <= n_steps:
        powers.append(powers[-1] @ powers[-1])
    decay_rows = _decay_rows(jumps, len(psi0))

    def run_from(psi, step, rng):
        """Jump from the unnormalized state psi reached at step, then follow
        the trajectory to the end; returns its final observable values and
        its number of jumps.  Each no-jump stretch is one binary-lifting pass
        over the powers: the furthest step whose norm stays above a fresh
        threshold, in at most len(powers) matvecs (popcount(n_steps - step)
        when no jump comes)."""
        n_jumps = 0
        while True:
            n_jumps += 1
            phi = jumps[_select_channel(rng, psi, jumps, decay_rows)].act(psi)
            phi = phi / np.linalg.norm(phi)
            if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
                raise TrajectoryError("renormalization failed")
            threshold, n2 = rng.random(), np.vdot(phi, phi).real
            for b in reversed(range(len(powers))):
                if step + 2**b > n_steps:
                    continue
                nxt = powers[b] @ phi
                nxt_n2 = np.vdot(nxt, nxt).real
                if nxt_n2 > n2 * (1 + 1e-12):
                    raise TrajectoryError("no-jump norm increased between steps")
                if nxt_n2 > threshold:
                    phi, n2, step = nxt, nxt_n2, step + 2**b
            if step == n_steps:
                return value_of(phi), n_jumps
            psi, step = u_step @ phi, step + 1

    total_jumps = 0
    for i in jumpers:
        rng = _stream(config.seed, int(i))
        first = rng.random()
        if first != thresholds[i]:
            raise TrajectoryError(
                f"trajectory {i}: vectorized threshold {thresholds[i]!r} is not "
                f"the first draw {first!r} of its (seed, i) stream"
            )
        j = n_steps - int(counts[i]) + 1
        values[:, i], n_jumps = run_from(states0[:, j], j, rng)
        total_jumps += n_jumps
    return reduce_values(values, len(jumpers), total_jumps)


def _decay_rows(jumps: list[_Jump], dim: int) -> np.ndarray | None:
    """rows[k, cols_k] = rate_k |vals_k|^2, so that rows @ |psi|^2 holds every
    rate_k ||L_k psi||^2 when all jumps are monomial; None otherwise."""
    if any(j.mono is None for j in jumps):
        return None
    rows = np.zeros((len(jumps), dim))
    for k, j in enumerate(jumps):
        _, cols, vals = j.mono
        rows[k, cols] = j.rate * np.abs(vals) ** 2
    return rows


def _select_channel(rng, psi, jumps: list[_Jump], decay_rows: np.ndarray | None) -> int:
    """Channel index drawn with probability proportional to rate ||L psi||^2."""
    if decay_rows is None:
        weights = np.array([j.rate * np.linalg.norm(j.act(psi)) ** 2 for j in jumps])
    else:
        weights = decay_rows @ (psi.real**2 + psi.imag**2)
    total = weights.sum()
    if total <= 0:
        raise TrajectoryError("jump threshold crossed but every channel has zero rate")
    u = rng.random() * total
    k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    return min(k, len(jumps) - 1)
