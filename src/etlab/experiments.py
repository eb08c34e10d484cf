"""Scenario definitions, sweep runners, and closed-form rate calculators.

Two experiment families reproduce the headline open-system comparisons:

* ``fig1a`` -- a logical qubit precessing under an encoded sigma_z for one
  full cycle (duration pi/omega) while every physical qubit suffers bit
  flips at rate gamma.  Four scenarios: a bare qubit at rate gamma, a bare
  qubit at the reduced rate 0.03*gamma, the encoded qubit without
  transparency, and the encoded qubit under the 3-body ETH.  Success is the
  probability of returning to the initial state, by default after ideal
  recovery.
* ``fig1b`` -- a logical controller swapping its excitation into a target
  qubit (duration pi/(2*omega)) while each controller qubit damps at rate
  gamma and the target sits in a weak fixed thermal environment.  Five
  scenarios: 5- and 7-qubit controllers with and without the full ETH, and
  a bare single-qubit controller.  Success is the target excitation
  probability at the end of the swap.

Sweeps fan grid points out over a process pool; per-job seeds are derived
deterministically from (master seed, scenario index, grid index), so merged
results do not depend on scheduling order.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import codes, eth
from .dynamics import (
    IntegrationConfig,
    NoiseChannel,
    NoiseModel,
    TrajectoryConfig,
    default_timestep,
    integrate_lindblad,
    mc_trajectories,
    SIGMA_MINUS,
    SIGMA_PLUS,
)
from .qcore import basis_state, embed_single, normalize, pure_density

__all__ = [
    "ScenarioSpec",
    "SweepRow",
    "SweepResult",
    "PerturbativeParams",
    "ExperimentError",
    "DEFAULT_SEED",
    "TARGET_EXCITATION_RATE",
    "TARGET_DAMPING_RATE",
    "default_gamma_grid",
    "fig1a_scenarios",
    "fig1b_scenarios",
    "run_scenario",
    "fig1a_sweep",
    "fig1b_sweep",
    "suggested_mc_sample",
    "effective_rate",
    "effective_error_prob",
    "breakeven",
    "predicted_logical_rate",
]

DEFAULT_SEED = 12345

# target-qubit environment for fig1b, in units of omega
TARGET_EXCITATION_RATE = 1e-4
TARGET_DAMPING_RATE = 2e-4


class ExperimentError(RuntimeError):
    pass


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully concrete simulation job (scenario at one grid point)."""

    label: str
    family: str  # "fig1a" | "fig1b"
    gamma: float
    omega: float
    code_name: str | None = None  # None = bare single qubit
    use_eth: bool = False
    error_kinds: str = "X"
    rate_factor: float = 1.0  # scales gamma for this scenario's noise
    apply_recovery: bool = True  # fig1a success metric option


@dataclass(frozen=True)
class SweepRow:
    gamma_over_omega: float
    scenario: str
    probability: float
    stderr: float
    method: str


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def scenarios(self) -> list[str]:
        return sorted({r.scenario for r in self.rows})

    def series(self, scenario: str) -> list[SweepRow]:
        return sorted(
            (r for r in self.rows if r.scenario == scenario),
            key=lambda r: r.gamma_over_omega,
        )


def default_gamma_grid(
    points: int = 21,
    lo: float = 1e-3,
    hi: float = 1e-1,
    include_zero: bool = True,
) -> np.ndarray:
    """21 logarithmic points on [1e-3, 1e-1], with gamma = 0 prepended."""
    grid = np.geomspace(lo, hi, points)
    if include_zero:
        grid = np.concatenate(([0.0], grid))
    return grid


def fig1a_scenarios(
    gamma: float, omega: float, apply_recovery: bool = True
) -> list[ScenarioSpec]:
    common = dict(family="fig1a", gamma=gamma, omega=omega, apply_recovery=apply_recovery)
    return [
        ScenarioSpec(label="single", **common),
        ScenarioSpec(label="single-reduced", rate_factor=0.03, **common),
        ScenarioSpec(label="logical-plain", code_name="bitflip3", **common),
        ScenarioSpec(label="logical-eth", code_name="bitflip3", use_eth=True, **common),
    ]


def fig1b_scenarios(gamma: float, omega: float) -> list[ScenarioSpec]:
    common = dict(family="fig1b", gamma=gamma, omega=omega, error_kinds="XYZ")
    return [
        ScenarioSpec(label="plain-5", code_name="perfect5", **common),
        ScenarioSpec(label="plain-7", code_name="steane7", **common),
        ScenarioSpec(label="eth-5", code_name="perfect5", use_eth=True, **common),
        ScenarioSpec(label="eth-7", code_name="steane7", use_eth=True, **common),
        ScenarioSpec(label="single", **common),
    ]


@dataclass(frozen=True)
class _Realized:
    hamiltonian: np.ndarray
    noise: NoiseModel
    psi0: np.ndarray
    duration: float
    observable: np.ndarray  # success probability = Tr(rho_final @ observable)


def _realize_fig1a(spec: ScenarioSpec) -> _Realized:
    omega, gamma = spec.omega, spec.gamma * spec.rate_factor
    duration = np.pi / omega
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    if spec.code_name is None:
        h = omega * np.diag([1.0, -1.0]).astype(complex)
        psi0 = normalize(basis_state(1, 0) + basis_state(1, 1))
        channels = [NoiseChannel(jump=sx, rate=gamma, label="X0")] if gamma > 0 else []
        return _Realized(h, NoiseModel(tuple(channels)), psi0, duration, pure_density(psi0))
    code = codes.build_code(spec.code_name)
    errorset = codes.error_set(code, spec.error_kinds)
    h0 = eth.encode_logical(code, eth.LogicalHamiltonian(omega, -omega, 0))
    h = eth.make_eth(code, h0, errorset) if spec.use_eth else h0
    psi0 = normalize(code.codeword0 + code.codeword1)
    channels = (
        [
            NoiseChannel(jump=embed_single(code.n, q, sx), rate=gamma, label=f"X{q}")
            for q in range(code.n)
        ]
        if gamma > 0
        else []
    )
    observable = pure_density(psi0)
    if spec.apply_recovery:
        observable = codes.recover_adjoint(code, errorset, observable)
    return _Realized(h, NoiseModel(tuple(channels)), psi0, duration, observable)


def _realize_fig1b(spec: ScenarioSpec) -> _Realized:
    omega, gamma = spec.omega, spec.gamma * spec.rate_factor
    duration = np.pi / (2 * omega)
    excited = np.diag([0.0, 1.0]).astype(complex)
    if spec.code_name is None:
        # bare two-level controller: same swap coupling without encoding
        l_minus = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1| on controller
        term = np.kron(l_minus, SIGMA_PLUS)
        h = omega * (term + term.conj().T)
        n_ctrl = 1
        psi0 = np.kron(basis_state(1, 1), basis_state(1, 0))
    else:
        code = codes.build_code(spec.code_name)
        errorset = codes.error_set(code, spec.error_kinds)
        if spec.use_eth:
            h = eth.controlled_eth(code, errorset, omega)
        else:
            h = eth.swap_hamiltonian(code, omega)
        n_ctrl = code.n
        psi0 = np.kron(code.codeword1, basis_state(1, 0))
    n_total = n_ctrl + 1
    channels = []
    if gamma > 0:
        for q in range(n_ctrl):
            channels.append(
                NoiseChannel(
                    jump=embed_single(n_total, q, SIGMA_MINUS), rate=gamma, label=f"damp{q}"
                )
            )
    channels.append(
        NoiseChannel(
            jump=embed_single(n_total, n_ctrl, SIGMA_PLUS),
            rate=TARGET_EXCITATION_RATE * omega,
            label="target-up",
        )
    )
    channels.append(
        NoiseChannel(
            jump=embed_single(n_total, n_ctrl, SIGMA_MINUS),
            rate=TARGET_DAMPING_RATE * omega,
            label="target-down",
        )
    )
    observable = embed_single(n_total, n_ctrl, excited)
    return _Realized(h, NoiseModel(tuple(channels)), psi0, duration, observable)


def _realize(spec: ScenarioSpec) -> _Realized:
    if spec.family == "fig1a":
        return _realize_fig1a(spec)
    if spec.family == "fig1b":
        return _realize_fig1b(spec)
    raise ValueError(f"unknown scenario family {spec.family!r}")


def _finalize_probability(p: float, context: str) -> float:
    if not (-1e-6 <= p <= 1 + 1e-6):
        raise ExperimentError(f"{context}: probability {p!r} is outside [0,1] beyond tolerance")
    return float(min(max(p, 0.0), 1.0))


def run_scenario(
    spec: ScenarioSpec,
    method: str = "lindblad",
    n_traj: int = 2000,
    seed: int = DEFAULT_SEED,
    dt: float | None = None,
) -> tuple[float, float]:
    """Simulate one scenario; returns (success probability, standard error).

    ``dt=None`` propagates the Lindblad equation exactly and places Monte
    Carlo jumps on :func:`default_timestep`; an explicit dt is the RK4 step
    or the jump-placement step.
    """
    from .dynamics import NumericsError

    realized = _realize(spec)
    context = f"{spec.family}/{spec.label} at gamma/omega={spec.gamma / spec.omega:.4g}"
    try:
        if method == "lindblad":
            config = IntegrationConfig(dt=dt, t_final=realized.duration, record_stride=10**9)
            result = integrate_lindblad(
                pure_density(realized.psi0), realized.hamiltonian, realized.noise, config
            )
            prob = float(np.trace(result.final @ realized.observable).real)
            return _finalize_probability(prob, context), 0.0
        if method == "mc":
            if dt is None:
                dt = default_timestep(spec.omega, realized.noise.max_rate())
            config = TrajectoryConfig(n_traj=n_traj, seed=seed, dt=dt)
            result = mc_trajectories(
                realized.psi0,
                realized.hamiltonian,
                realized.noise,
                realized.duration,
                [realized.observable],
                config,
            )
            return _finalize_probability(float(result.means[0]), context), float(result.stderrs[0])
    except NumericsError as exc:
        raise type(exc)(f"{context}: {exc}") from exc
    raise ValueError(f"unknown method {method!r}; use 'lindblad' or 'mc'")


def _job_seed(master: int, scenario_index: int, point_index: int) -> int:
    seq = np.random.SeedSequence([master, scenario_index, point_index])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_job(args) -> SweepRow:
    spec, method, n_traj, seed, dt = args
    prob, stderr = run_scenario(spec, method=method, n_traj=n_traj, seed=seed, dt=dt)
    return SweepRow(
        gamma_over_omega=spec.gamma / spec.omega,
        scenario=spec.label,
        probability=prob,
        stderr=stderr,
        method=method,
    )


def _run_sweep(
    specs_per_point: list[list[ScenarioSpec]],
    method: str,
    n_traj: int,
    seed: int,
    dt: float | None,
    max_workers: int | None,
) -> SweepResult:
    jobs = []
    for pi, specs in enumerate(specs_per_point):
        for si, spec in enumerate(specs):
            jobs.append((spec, method, n_traj, _job_seed(seed, si, pi), dt))
    if max_workers is not None and max_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            rows = list(pool.map(_run_job, jobs))
    else:
        rows = [_run_job(j) for j in jobs]
    rows.sort(key=lambda r: (r.scenario, r.gamma_over_omega))
    return SweepResult(rows=tuple(rows))


def fig1a_sweep(
    gammas: Iterable[float],
    omega: float = 1.0,
    method: str = "lindblad",
    n_traj: int = 2000,
    seed: int = DEFAULT_SEED,
    apply_recovery: bool = True,
    dt: float | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Four-scenario precession comparison over a gamma grid."""
    specs = [
        fig1a_scenarios(g, omega, apply_recovery=apply_recovery) for g in gammas
    ]
    return _run_sweep(specs, method, n_traj, seed, dt, max_workers)


def fig1b_sweep(
    gammas: Iterable[float],
    omega: float = 1.0,
    method: str = "mc",
    n_traj: int = 2000,
    seed: int = DEFAULT_SEED,
    dt: float | None = None,
    max_workers: int | None = None,
) -> SweepResult:
    """Five-scenario controller comparison over a gamma grid."""
    specs = [fig1b_scenarios(g, omega) for g in gammas]
    return _run_sweep(specs, method, n_traj, seed, dt, max_workers)


def suggested_mc_sample(
    spec: ScenarioSpec,
    target_events: int = 150,
    n_min: int = 2000,
    n_max: int = 150_000,
) -> int:
    """Trajectory count sized so statistically impactful events are sampled.

    Under an ETH a single controller jump barely moves the success metric
    (that is the point of transparency), so nearly all trajectories return
    the same value and the sample stderr collapses; it only becomes a sound
    uncertainty scale once the rare impactful events -- double jumps, or
    target-noise jumps in the swap experiment -- occur well over a hundred
    times (their impact spread is wide, so the effective sample is several
    times smaller than the raw event count).  The estimate below bounds the
    event probability per trajectory and asks for ``target_events`` of them.
    """
    # every physical qubit of the code (one bare qubit without a code) is noisy
    n_noisy = codes.build_code(spec.code_name).n if spec.code_name else 1
    if spec.family == "fig1a":
        tau = np.pi / spec.omega
        lam = n_noisy * spec.gamma * spec.rate_factor * tau
        p_event = 0.4 * lam * lam if spec.use_eth else 0.5 * lam
    else:
        tau = np.pi / (2 * spec.omega)
        lam = 0.5 * n_noisy * spec.gamma * tau
        p_target = (TARGET_EXCITATION_RATE + TARGET_DAMPING_RATE) * spec.omega * tau
        if spec.use_eth:
            p_event = 0.4 * lam * lam + p_target
        else:
            p_event = max(0.5 * lam, p_target)
    if p_event <= 0:
        return n_min
    return int(min(n_max, max(n_min, np.ceil(target_events / p_event))))


# ---------------------------------------------------------------------------
# closed-form calculators for perturbatively generated multi-body interactions


@dataclass(frozen=True)
class PerturbativeParams:
    """Inputs for the effective k-body interaction trade-off.

    n physical qubits decohere at rate gamma while a 2-body interaction of
    strength omega perturbs an auxiliary system with level spacing delta;
    the k-th order effective dynamics then runs at a reduced rate.
    """

    n: int
    gamma: float
    omega: float
    delta: float
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 2:
            raise ValueError("need n >= 1 and k >= 2")
        if self.gamma < 0 or self.omega <= 0 or self.delta <= 0:
            raise ValueError("rates must be positive (gamma may be zero)")
        if self.omega >= self.delta:
            warnings.warn(
                "omega >= delta: outside the perturbative regime, results are nominal",
                stacklevel=2,
            )


def effective_rate(omega: float, delta: float, k: int) -> float:
    """Rate of the effective k-body dynamics: omega * (omega/delta)^(k-1)."""
    return omega * (omega / delta) ** (k - 1)


def effective_error_prob(params: PerturbativeParams) -> tuple[float, float]:
    """(p_prime, p): logical error probability with the effective k-body
    interaction, and the bare single-interaction error probability p =
    gamma/omega it should be compared against."""
    p = params.gamma / params.omega
    omega_k = effective_rate(params.omega, params.delta, params.k)
    p_prime = params.n * (params.gamma / omega_k) ** 2
    return p_prime, p


def breakeven(params: PerturbativeParams) -> bool:
    """True when the effective k-body route reduces decoherence:
    n * (gamma/omega) < (omega/delta)^(2k-2).  Equality counts as False."""
    lhs = params.n * (params.gamma / params.omega)
    rhs = (params.omega / params.delta) ** (2 * params.k - 2)
    return lhs < rhs


def predicted_logical_rate(gamma: float, tau: float) -> float:
    """Effective logical error rate 3 * gamma^2 * tau for the encoded qubit
    (two independent flips on distinct qubits within one cycle)."""
    if gamma < 0 or tau < 0:
        raise ValueError("gamma and tau must be nonnegative")
    return 3.0 * gamma * gamma * tau
