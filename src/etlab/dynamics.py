"""Open-system time evolution.

Two methods cross-validate each other:

* :func:`integrate_lindblad` -- deterministic evolution of the density
  matrix.  The generator is time independent, so by default the state is
  propagated exactly: a scaled Taylor series of exp(t L) applied to rho
  (the action-of-the-exponential method of Al-Mohy & Higham, SIAM J. Sci.
  Comput. 33, 488 (2011)), summed to machine precision.  An explicit step
  selects fixed-step RK4 instead, guarded against steps beyond its
  stability region.  Both apply the generator through one fast path: every
  jump operator used here (Pauli letters, raising/lowering on one site) has
  at most one nonzero per column, so L rho L^dag is a gather/scatter
  instead of two dense matmuls; arbitrary dense jumps fall back to matmuls.
* :func:`mc_trajectories` -- quantum-jump unravelling (Dalibard, Castin &
  Molmer, PRL 68, 580 (1992)).  Deterministic segments use a precomputed
  one-step propagator exp((-iH - K/2) dt) and jumps fire when the decaying
  norm crosses a per-trajectory uniform threshold (no sub-step
  interpolation).  Every trajectory follows the same deterministic flow
  between jumps, so the no-jump backbone is computed once and first-jump
  continuations are memoized; the engine checks its own norms as it goes.

Trajectory i draws every random number from its own stream seeded by
(seed, i), so results are bitwise reproducible and independent of the
order in which trajectories are processed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm

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

    def decay_operator(self, dim: int) -> np.ndarray:
        """K = sum_k rate_k L_k^dag L_k as a dim x dim matrix (zero without
        channels), summed in channel order."""
        k = np.zeros((dim, dim), dtype=complex)
        for ch in self.channels:
            l = np.asarray(ch.jump, dtype=complex)
            k += ch.rate * (l.conj().T @ l)
        return k


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
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")


@dataclass(frozen=True)
class LindbladResult:
    times: np.ndarray
    states: list[np.ndarray]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def expectations(self, observable: np.ndarray) -> np.ndarray:
        return np.array([np.trace(observable @ rho).real for rho in self.states])


@dataclass(frozen=True)
class McResult:
    means: np.ndarray
    stderrs: np.ndarray
    n_traj: int


def default_timestep(omega: float, noise: NoiseModel | float) -> float:
    """dt = (1/2000) min(pi/omega, 1/max_rate), the Monte-Carlo step that
    places jumps; small enough that the jump-placement bias sits well below
    the statistical tolerances.  The Lindblad integrator needs no step."""
    max_rate = noise if isinstance(noise, (int, float)) else noise.max_rate()
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


class _MonomialJump:
    """Jump operator with at most one nonzero per column and unique rows."""

    def __init__(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, rate: float):
        self.rows = rows
        self.cols = cols
        self.outer = rate * np.outer(vals, vals.conj())

    def apply(self, rho: np.ndarray, out: np.ndarray) -> None:
        out[np.ix_(self.rows, self.rows)] += self.outer * rho[np.ix_(self.cols, self.cols)]


def _try_monomial(l: np.ndarray, rate: float) -> _MonomialJump | None:
    rows_all, cols_all = np.nonzero(np.abs(l) > 0)
    if len(cols_all) != len(set(cols_all.tolist())):
        return None
    if len(rows_all) != len(set(rows_all.tolist())):
        return None
    order = np.argsort(cols_all)
    rows = rows_all[order]
    cols = cols_all[order]
    return _MonomialJump(rows, cols, l[rows, cols].astype(complex), rate)


def _norm2_bound(a: np.ndarray) -> float:
    """sqrt(||a||_1 ||a||_inf), an upper bound on the spectral norm that is
    exact for a matrix with at most one nonzero per row and column."""
    m = np.abs(a)
    return float(np.sqrt(m.sum(axis=0).max() * m.sum(axis=1).max()))


class _Generator:
    """Precomputed Lindblad generator: rhs(rho) = G rho + rho G^dag + jumps.

    ``bound`` = 2 ||G||_2 + sum_k rate_k ||L_k||_2^2 (each norm bounded as in
    :func:`_norm2_bound`) bounds the generator's norm as a map on rho with
    the Frobenius norm.
    """

    def __init__(self, h: np.ndarray, noise: NoiseModel):
        self.monomials: list[_MonomialJump] = []
        self.dense: list[tuple[np.ndarray, float]] = []
        jump_bound = 0.0
        for ch in noise.channels:
            l = np.asarray(ch.jump, dtype=complex)
            jump_bound += ch.rate * _norm2_bound(l) ** 2
            mono = _try_monomial(l, ch.rate)
            if mono is not None:
                self.monomials.append(mono)
            else:
                self.dense.append((l, ch.rate))
        self.g = -1j * np.asarray(h, dtype=complex) - 0.5 * noise.decay_operator(h.shape[0])
        self.gd = self.g.conj().T
        self.bound = 2.0 * _norm2_bound(self.g) + jump_bound

    def rhs(self, rho: np.ndarray) -> np.ndarray:
        out = self.g @ rho + rho @ self.gd
        for mono in self.monomials:
            mono.apply(rho, out)
        for l, rate in self.dense:
            out += rate * (l @ rho @ l.conj().T)
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
# a Taylor substep stops adding terms below this fraction of its partial sum
_TAYLOR_TOL = 1e-15
# with substep * bound <= 1 each term is at most 1/k of the one before, so
# the first term below _TAYLOR_TOL also bounds the rest of the series, and
# about 18 terms reach it; needing this many means the bound does not hold
_TAYLOR_MAX_TERMS = 60


def _check_trace(rho: np.ndarray, t: float, advice: str) -> None:
    drift = abs(np.trace(rho).real - 1.0)
    if drift > 1e-5:
        raise IntegrationError(f"trace drifted by {drift:.3e} at t={t:.6g}{advice}")


def _propagate_exact(gen: _Generator, rho: np.ndarray, t_final: float) -> np.ndarray:
    """exp(t_final L) rho as ceil(t_final * bound) Taylor substeps."""
    n_sub = max(1, int(np.ceil(t_final * gen.bound)))
    step = t_final / n_sub
    for _ in range(n_sub):
        acc = rho.copy()
        term = rho
        for k in range(1, _TAYLOR_MAX_TERMS + 1):
            term = gen.rhs(term) * (step / k)
            acc += term
            if np.linalg.norm(term) <= _TAYLOR_TOL * np.linalg.norm(acc):
                break
        else:
            raise IntegrationError(
                f"Taylor series did not converge in {_TAYLOR_MAX_TERMS} terms "
                f"(substep {step:.4g}, generator bound {gen.bound:.4g})"
            )
        rho = 0.5 * (acc + acc.conj().T)
    return rho


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
    :class:`IntegrationError`.
    """
    rho = np.asarray(rho0, dtype=complex).copy()
    check_density_matrix(rho)
    if config.t_final == 0:
        return LindbladResult(times=np.array([0.0]), states=[rho])
    gen = _Generator(h, noise)
    if not np.isfinite(gen.bound):
        raise IntegrationError("the generator has non-finite entries")
    if config.dt is None:
        final = _propagate_exact(gen, rho, config.t_final)
        _check_trace(final, config.t_final, "")
        return LindbladResult(times=np.array([0.0, config.t_final]), states=[rho, final])
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
    return LindbladResult(times=np.array(times), states=states)


def _trajectory_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(n)]


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
    of <psi|O|psi> at t_final for each observable.

    Every trajectory follows the same deterministic flow between jumps: the
    no-jump path is computed once, first-jump continuations are memoized per
    (step, channel), and only the rare multi-jump stragglers step
    individually -- this is what makes large trajectory counts affordable
    when jumps are rare.  A no-jump norm that grows by more than 1e-12
    (relative) between steps, or a renormalization off by more than 1e-10,
    raises :class:`TrajectoryError`.
    """
    _check_t_final(t_final)
    psi0 = np.asarray(psi0, dtype=complex)
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"initial state norm {nrm!r} is not 1")
    n_traj = config.n_traj

    def reduce_values(values: np.ndarray) -> McResult:
        means = values.mean(axis=1)
        if values.shape[1] > 1:
            stderrs = values.std(axis=1, ddof=1) / np.sqrt(values.shape[1])
        else:
            stderrs = np.zeros(len(observables))
        return McResult(means=means, stderrs=stderrs, n_traj=n_traj)

    if t_final == 0:
        one = np.array([np.vdot(psi0, obs @ psi0).real for obs in observables])
        return reduce_values(np.tile(one[:, None], (1, n_traj)))

    n_steps = max(1, round(t_final / config.dt))
    dt = t_final / n_steps
    g = -1j * np.asarray(h, dtype=complex) - 0.5 * noise.decay_operator(psi0.shape[0])
    u_step = expm(g * dt)
    jumps = [(np.asarray(ch.jump, dtype=complex), ch.rate) for ch in noise.channels]
    return reduce_values(_mc_branched(psi0, u_step, jumps, n_steps, observables, config))


def _select_channel(rng, psi, jumps):
    """Channel index drawn with probability proportional to rate ||L psi||^2."""
    weights = np.array([rate * np.linalg.norm(l @ psi) ** 2 for l, rate in jumps])
    total = weights.sum()
    if total <= 0:
        raise TrajectoryError("jump threshold crossed but every channel has zero rate")
    u = rng.random() * total
    k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    return min(k, len(jumps) - 1)


def _mc_branched(psi0, u_step, jumps, n_steps, observables, config):
    n_traj = config.n_traj

    def value_of(psi: np.ndarray) -> np.ndarray:
        psi = psi / np.linalg.norm(psi)
        return np.array([np.vdot(psi, obs @ psi).real for obs in observables])

    # the deterministic no-jump backbone, shared by every trajectory
    states0 = np.empty((psi0.shape[0], n_steps + 1), dtype=complex)
    states0[:, 0] = psi0
    for s in range(1, n_steps + 1):
        states0[:, s] = u_step @ states0[:, s - 1]
    norms2 = np.einsum("ds,ds->s", states0.conj(), states0).real
    if jumps and np.any(norms2[1:] > norms2[:-1] * (1 + 1e-12)):
        raise TrajectoryError("no-jump norm increased between steps")
    # enforce monotonicity against last-ulp rounding so searchsorted is valid
    norms2 = np.minimum.accumulate(norms2)
    value0 = value_of(states0[:, -1])

    rngs = _trajectory_rngs(config.seed, n_traj)
    thresholds = np.array([rng.random() for rng in rngs])
    values = np.tile(value0[:, None], (1, n_traj))
    if not jumps:
        return values

    # first crossing step per trajectory: norms2[1:] is non-increasing, so
    # the number of entries <= r locates the crossing in O(log n_steps)
    ascending = norms2[1:][::-1]
    counts = np.searchsorted(ascending, thresholds, side="right")
    jumpers = np.nonzero(counts > 0)[0]

    def continue_individually(psi_unnorm, step, rng):
        """Jump now, then step to the end, handling any further jumps."""
        while True:
            k = _select_channel(rng, psi_unnorm, jumps)
            psi = jumps[k][0] @ psi_unnorm
            psi = psi / np.linalg.norm(psi)
            if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
                raise TrajectoryError("renormalization failed")
            threshold = rng.random()
            prev = 1.0
            crossed_again = False
            for s in range(step + 1, n_steps + 1):
                psi = u_step @ psi
                n2 = np.vdot(psi, psi).real
                if n2 > prev * (1 + 1e-12):
                    raise TrajectoryError("no-jump norm increased between steps")
                prev = n2
                if n2 <= threshold:
                    psi_unnorm, step, crossed_again = psi, s, True
                    break
            if not crossed_again:
                return value_of(psi)

    # memoized continuation after a first jump at (step j, channel k):
    # decreasing norm profile plus the final observable values of the
    # no-second-jump path
    branch_cache: dict = {}

    def branch(j: int, k: int):
        key = (j, k)
        if key not in branch_cache:
            psi = jumps[k][0] @ states0[:, j]
            psi = psi / np.linalg.norm(psi)
            profile = np.empty(n_steps - j + 1)
            profile[0] = 1.0
            cur = psi
            for m in range(1, n_steps - j + 1):
                cur = u_step @ cur
                profile[m] = np.vdot(cur, cur).real
            profile = np.minimum.accumulate(profile)
            branch_cache[key] = (profile, value_of(cur))
        return branch_cache[key]

    for i in jumpers:
        j = n_steps - int(counts[i]) + 1
        rng = rngs[i]
        k = _select_channel(rng, states0[:, j], jumps)
        r2 = rng.random()
        profile, final_value = branch(j, k)
        m_count = int(np.searchsorted(profile[1:][::-1], r2, side="right"))
        if m_count == 0:
            values[:, i] = final_value
            continue
        # rare second jump: rebuild the branch state at the crossing and
        # finish this trajectory step by step
        m = (len(profile) - 1) - m_count + 1
        psi = jumps[k][0] @ states0[:, j]
        psi = psi / np.linalg.norm(psi)
        for _ in range(m):
            psi = u_step @ psi
        values[:, i] = continue_individually(psi, j + m, rng)
    return values
