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

A sweep job is a scenario, built once per process for its key, plus the
rate that gamma sets on its noisy sites.  A sweep runs in tasks, one per
scenario key: the key's jobs as one stacked run of either engine
(:func:`~etlab.dynamics.integrate_lindblad_stack`,
:func:`~etlab.dynamics.mc_trajectories_stack`) with a row of rates per job,
each row equal to the job run alone.  Tasks run in order of first
appearance on the grid, serially, or over a process pool of at most one
worker per task when ``max_workers`` > 1.  The master seed is Monte
Carlo's only: each MC job's seed is derived from (master seed, scenario
index, grid index), so merged results do not depend on worker count or
scheduling order; a Lindblad sweep draws no random numbers.  A sweep checks
every step, substep and trajectory count against its cap first
(:func:`check_budget`).
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import codes, eth
from .dynamics import (
    MAX_STEPS,
    IntegrationConfig,
    LindbladSupport,
    NoiseChannel,
    NumericsError,
    StepCountError,
    TrajectoryConfig,
    _check_integers,
    default_timestep,
    integrate_lindblad_stack,
    mc_trajectories_stack,
    min_substeps,
    site_channels,
    step_count,
)
from .qcore import (
    PAULI_MATS,
    SIGMA_MINUS,
    SIGMA_PLUS,
    basis_state,
    embed_single,
    normalize,
    pure_density,
)

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
    "sweep_specs",
    "check_budget",
    "run_sweep",
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
    rate_factor: float = 1.0  # scales gamma for this scenario's noise
    apply_recovery: bool = True  # fig1a success metric option

    def __post_init__(self):
        # the engines check a job's rates only when it runs, naming no
        # scenario; a bad one fails here, when the spec is built
        for name in ("gamma", "rate_factor"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{self.label}: {name} must be finite and >= 0, got {value!r}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"{self.label}: omega must be finite and > 0, got {self.omega!r}")

    @property
    def site_rate(self) -> float:
        """The rate of each noisy site's channel: gamma * rate_factor."""
        return self.gamma * self.rate_factor


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


def default_gamma_grid(points: int = 21, lo: float = 1e-3, hi: float = 1e-1) -> np.ndarray:
    """21 logarithmic points on [1e-3, 1e-1], with gamma = 0 prepended."""
    return np.concatenate(([0.0], np.geomspace(lo, hi, points)))


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
    common = dict(family="fig1b", gamma=gamma, omega=omega)
    return [
        ScenarioSpec(label="plain-5", code_name="perfect5", **common),
        ScenarioSpec(label="plain-7", code_name="steane7", **common),
        ScenarioSpec(label="eth-5", code_name="perfect5", use_eth=True, **common),
        ScenarioSpec(label="eth-7", code_name="steane7", use_eth=True, **common),
        ScenarioSpec(label="single", **common),
    ]


@dataclass(frozen=True)
class _Scenario:
    """A job's inputs without gamma, which only sets the site rates."""

    hamiltonian: np.ndarray
    psi0: np.ndarray
    duration: float
    observable: np.ndarray  # success probability = Tr(rho_final @ observable)
    sites: tuple[NoiseChannel, ...]  # each noisy site's jump, at gamma's rate
    fixed: tuple[NoiseChannel, ...] = ()  # jumps whose rate is not gamma's
    fixed_rates: tuple[float, ...] = ()  # their rates, one per channel of fixed

    def rates(self, rate: float) -> list[float]:
        """A job's row of rates over ``sites + fixed``, for either engine:
        every site at ``rate``, 0 included, then the fixed rates."""
        return [rate] * len(self.sites) + list(self.fixed_rates)

    @functools.cached_property
    def support(self) -> LindbladSupport:
        """The entries of rho that the master equation reaches from psi0 at
        every gamma, built by the first Lindblad job of the key."""
        rho0 = pure_density(self.psi0)
        return LindbladSupport(self.hamiltonian, self.sites + self.fixed, rho0)


def _fig1a_scenario(code, errorset, omega, apply_recovery, plain) -> _Scenario:
    if plain is not None:
        return replace(plain, hamiltonian=eth.make_eth(code, plain.hamiltonian, errorset))
    if code is None:
        n, h = 1, omega * np.diag([1.0, -1.0]).astype(complex)
        psi0 = normalize(basis_state(1, 0) + basis_state(1, 1))
    else:
        n, h = code.n, eth.encode_logical(code, eth.LogicalHamiltonian(omega, -omega, 0))
        psi0 = normalize(code.codeword0 + code.codeword1)
    observable = pure_density(psi0)
    if code is not None and apply_recovery:
        observable = codes.recover_adjoint(code, errorset, observable)
    sites = tuple(site_channels(n, PAULI_MATS["X"], "X"))
    return _Scenario(h, psi0, np.pi / omega, observable, sites)


def _fig1b_scenario(code, errorset, omega, apply_recovery, plain) -> _Scenario:
    if plain is not None:
        return replace(plain, hamiltonian=eth.controlled_eth(code, errorset, omega))
    if code is None:
        # bare two-level controller: same swap coupling without encoding
        n_ctrl, term = 1, np.kron(SIGMA_MINUS, SIGMA_PLUS)
        h = omega * (term + term.conj().T)
        psi0 = np.kron(basis_state(1, 1), basis_state(1, 0))
    else:
        n_ctrl, h = code.n, eth.swap_hamiltonian(code, omega)
        psi0 = np.kron(code.codeword1, basis_state(1, 0))
    n = n_ctrl + 1
    excited = embed_single(n, n_ctrl, np.diag([0.0, 1.0]).astype(complex))
    sites = tuple(site_channels(n, SIGMA_MINUS, "damp", range(n_ctrl)))
    target = ((SIGMA_PLUS, "target-up"), (SIGMA_MINUS, "target-down"))
    fixed = tuple(NoiseChannel.on_site(n, n_ctrl, op, label) for op, label in target)
    rates = (TARGET_EXCITATION_RATE * omega, TARGET_DAMPING_RATE * omega)
    return _Scenario(h, psi0, np.pi / (2 * omega), excited, sites, fixed, rates)


@functools.cache
def _build_scenario(family, code_name, use_eth, omega, apply_recovery) -> _Scenario:
    """Built once per process for each key and shared, read-only, by every job
    with it, whatever its gamma.  An ETH scenario is its plain twin with another
    H and shares the twin's other arrays: one copy of a register's jump
    nonzeros and observable per process, not per key."""
    build = {"fig1a": _fig1a_scenario, "fig1b": _fig1b_scenario}.get(family)
    if build is None:
        raise ValueError(f"unknown scenario family {family!r}")
    code = None if code_name is None else codes.build_code(code_name)
    errorset = None if code is None else codes.error_set(code, codes.DESIGNED_KINDS[code_name])
    plain = None
    if use_eth and code is not None:
        plain = _build_scenario(family, code_name, False, omega, apply_recovery)
    scenario = build(code, errorset, omega, apply_recovery, plain)
    jumps = [a for ch in scenario.sites + scenario.fixed for a in (ch.rows, ch.cols, ch.vals)]
    for a in (scenario.hamiltonian, scenario.psi0, scenario.observable, *jumps):
        a.flags.writeable = False
    return scenario


def _key(spec: ScenarioSpec) -> tuple:
    return spec.family, spec.code_name, spec.use_eth, spec.omega, spec.apply_recovery


def _scenario(spec: ScenarioSpec) -> _Scenario:
    return _build_scenario(*_key(spec))


def _job_step(spec: ScenarioSpec, method: str, dt: float | None) -> float | None:
    """A job's step: ``dt``, or for Monte Carlo when dt is None the
    :func:`default_timestep` of its largest rate (exact Lindblad propagation
    has none)."""
    if dt is None and method == "mc":
        dt = default_timestep(spec.omega, max(_scenario(spec).rates(spec.site_rate)))
    return dt


def _finalize_probability(p: float, context: str) -> float:
    if not (-1e-6 <= p <= 1 + 1e-6):
        raise ExperimentError(f"{context}: probability {p!r} is outside [0,1] beyond tolerance")
    return float(min(max(p, 0.0), 1.0))


def _context(spec: ScenarioSpec) -> str:
    return f"{spec.family}/{spec.label} at gamma/omega={spec.gamma / spec.omega:.4g}"


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
    or the jump-placement step.  A job is a task of one row, checked by
    :func:`check_budget` before it runs.
    """
    check_budget([[spec]], method, n_traj, dt)
    [row] = _run_task(((spec,), method, n_traj, (seed,), dt))
    return row.probability, row.stderr


def _job_seed(master: int, scenario_index: int, point_index: int) -> int:
    seq = np.random.SeedSequence([master, scenario_index, point_index])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _run_task(task) -> list[SweepRow]:
    """The rows of one sweep task ``(specs, method, n_traj, seeds, dt)``: jobs
    that share one scenario key, in order, as one stacked run of ``method``
    with a row of rates per job (:meth:`_Scenario.rates`); ``seeds`` holds
    each Monte Carlo job's seed, and Lindblad reads none.  A numerical
    failure names its own job's scenario and grid point."""
    specs, method, n_traj, seeds, dt = task
    s = _scenario(specs[0])
    channels, rates = s.sites + s.fixed, [s.rates(spec.site_rate) for spec in specs]
    if method == "lindblad":
        config = IntegrationConfig(dt=dt, t_final=s.duration)
        rho0 = pure_density(s.psi0)
        runs = integrate_lindblad_stack(rho0, s.hamiltonian, channels, rates, config, s.support)
        scores = ((np.einsum("ij,ji->", r.final, s.observable).real, 0.0) for r in runs)
    elif method == "mc":
        steps = [_job_step(spec, method, dt) for spec in specs]
        configs = [TrajectoryConfig(n_traj, seed, step) for seed, step in zip(seeds, steps)]
        runs = mc_trajectories_stack(
            s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs
        )
        scores = ((r.means[0], r.stderrs[0]) for r in runs)
    else:
        raise ValueError(f"unknown method {method!r}; use 'lindblad' or 'mc'")
    rows = []
    try:
        for spec, (prob, stderr) in zip(specs, scores):
            prob = _finalize_probability(float(prob), _context(spec))
            rows.append(SweepRow(spec.gamma / spec.omega, spec.label, prob, float(stderr), method))
    except NumericsError as exc:
        spec = specs[exc.row or 0]
        raise type(exc)(f"{_context(spec)}: {exc}", exc.row) from exc
    return rows


def sweep_specs(
    experiment: str, gammas: Iterable[float], omega: float = 1.0, apply_recovery: bool = True
) -> list[list[ScenarioSpec]]:
    """Each grid point's scenarios of ``experiment``, "fig1a" or "fig1b";
    ``apply_recovery`` is fig1a's only (fig1b has no recovery step)."""
    if experiment == "fig1a":
        return [fig1a_scenarios(g, omega, apply_recovery=apply_recovery) for g in gammas]
    if experiment == "fig1b":
        return [fig1b_scenarios(g, omega) for g in gammas]
    raise ValueError(f"unknown experiment {experiment!r}; use 'fig1a' or 'fig1b'")


def check_budget(
    specs_per_point: list[list[ScenarioSpec]], method: str, n_traj: int, dt: float | None
) -> list[tuple]:
    """Each scenario key's specs and their (scenario, grid) indices, keys in
    order of first appearance, once every job's fixed steps or exact
    Lindblad substeps (from below, by :func:`~etlab.dynamics.min_substeps`
    of the key's rates) and Monte Carlo config are checked before any runs:
    more than MAX_STEPS raises StepCountError, an ``n_traj`` above
    MAX_TRAJECTORIES ValueError."""
    keys = {}
    for pi, specs in enumerate(specs_per_point):
        for si, spec in enumerate(specs):
            keys.setdefault(_key(spec), []).append((spec, (si, pi)))
    jobs = [tuple(zip(*key_jobs)) for key_jobs in keys.values()]
    for specs, _ in jobs:
        s = _scenario(specs[0])
        for spec in specs:
            step = _job_step(spec, method, dt)
            if step is not None:
                step_count(step, s.duration)
            if method == "mc":
                TrajectoryConfig(n_traj=n_traj, seed=0, dt=step)
        if method == "lindblad" and dt is None:
            rates = [s.rates(spec.site_rate) for spec in specs]
            for spec, count in zip(specs, min_substeps(s.sites + s.fixed, rates, s.duration)):
                if count > MAX_STEPS:
                    raise StepCountError(
                        f"{_context(spec)}: exact propagation takes at least {count} substeps, "
                        f"more than the cap of {MAX_STEPS}"
                    )
    return jobs


def run_sweep(
    specs_per_point: list[list[ScenarioSpec]],
    method: str,
    n_traj: int,
    seed: int,
    dt: float | None,
    max_workers: int | None,
) -> SweepResult:
    """The rows of every job over the grid, sorted by (scenario, gamma/omega),
    run as one task per scenario key (:func:`_run_task`).  Only a Monte
    Carlo job takes a seed, :func:`_job_seed` of ``seed`` and its grid
    position; a Lindblad sweep derives none."""
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be at least 1, got {max_workers}")
    tasks = []
    for specs, at in check_budget(specs_per_point, method, n_traj, dt):
        seeds = None if method == "lindblad" else tuple(_job_seed(seed, *p) for p in at)
        tasks.append((specs, method, n_traj, seeds, dt))
    if max_workers is not None and max_workers > 1 and len(tasks) > 1:
        # a fork pool starts all its workers at the first submit, used or not
        with ProcessPoolExecutor(max_workers=min(max_workers, len(tasks))) as pool:
            rows = [row for task_rows in pool.map(_run_task, tasks) for row in task_rows]
    else:
        rows = [row for task in tasks for row in _run_task(task)]
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
    specs = sweep_specs("fig1a", gammas, omega, apply_recovery)
    return run_sweep(specs, method, n_traj, seed, dt, max_workers)


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
    return run_sweep(sweep_specs("fig1b", gammas, omega), method, n_traj, seed, dt, max_workers)


def suggested_mc_sample(spec: ScenarioSpec) -> int:
    """Trajectory count sized so statistically impactful events are sampled.

    Under an ETH a single controller jump barely moves the success metric
    (that is the point of transparency), so nearly all trajectories return
    the same value and the sample stderr collapses; it only becomes a sound
    uncertainty scale once the rare impactful events -- double jumps, or
    target-noise jumps in the swap experiment -- occur well over a hundred
    times (their impact spread is wide, so the effective sample is several
    times smaller than the raw event count).  The estimate below bounds the
    event probability per trajectory and asks for 150 of them, between 2000
    and 150,000 trajectories.
    """
    s = _scenario(spec)
    # expected site jumps per trajectory; a damped site jumps only from its
    # excited level, occupied about half the time
    lam = len(s.sites) * spec.site_rate * s.duration
    if spec.family == "fig1b":
        lam *= 0.5
    p_fixed = sum(s.fixed_rates) * s.duration
    p_event = 0.4 * lam * lam + p_fixed if spec.use_eth else max(0.5 * lam, p_fixed)
    if p_event <= 0:
        return 2000
    return int(min(150_000, max(2000, np.ceil(150 / p_event))))


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
        _check_integers(self, "n", "k")
        if self.n < 1 or self.k < 2:
            raise ValueError("need n >= 1 and k >= 2")
        for name in ("gamma", "omega", "delta"):  # NaN passes every comparison below
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.gamma < 0 or self.omega <= 0 or self.delta <= 0:
            raise ValueError("rates must be positive (gamma may be zero)")
        omega, delta = float(self.omega), float(self.delta)
        try:  # Python floats: an overflow raises or gives inf, an underflow gives 0
            omega_k = effective_rate(omega, delta, self.k)
            representable = (
                0 < omega_k < math.inf
                and math.isfinite(self.n * (float(self.gamma) / omega_k) ** 2)
                and math.isfinite((omega / delta) ** (2 * self.k - 2))
            )
        except OverflowError:
            representable = False
        if not representable:
            raise ValueError(
                f"omega={self.omega!r}, delta={self.delta!r}, k={self.k}: omega_k = "
                "omega (omega/delta)^(k-1), p' or (omega/delta)^(2k-2) is not a finite "
                "float above 0"
            )
        if self.omega >= self.delta:
            # stack: this method, the __init__ that dataclass generates, the caller
            warnings.warn(
                "omega >= delta: outside the perturbative regime, results are nominal",
                stacklevel=3,
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
