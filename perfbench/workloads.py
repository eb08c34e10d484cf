"""The benchmark's four workloads: inputs, main call and correctness oracle.

Each workload is timed as users run it. Together the four separate the
layers that the open performance work changes: RK4 Lindblad integration at
small and large dimension, the branched Monte-Carlo engine, and the Pauli,
code and ETH construction layer.

Why each workload exists
------------------------
``fig1a-lindblad``
    ``etlab sweep fig1a --workers 2``: the paper's fig1a exactly as a user
    runs it, 22 grid points x 4 scenarios = 88 jobs at d <= 8, RK4 at the
    default dt. That is 704,000 generator applications on tiny matrices, so
    the run is bound by Python per-step overhead. Over 99% of serial job time
    is in ``integrate_lindblad``; Monte Carlo never runs.
``fig1b-mc``
    ``etlab sweep fig1b --method mc --gamma-points 3 --traj 2000 --seed <seed>
    --workers 2``: the reduced fig1b Monte-Carlo case, 4 points x 5
    scenarios = 20 jobs at d = 4, 64 and 256. About 97% of serial time is in
    ``mc_trajectories``, most of it in first-jump continuations. Realizing
    the ETH per job adds about 3%; ``integrate_lindblad`` never runs.
``fig1b-lindblad``
    ``experiments.fig1b_sweep([0.05], method="lindblad", max_workers=2)``:
    5 jobs at d = 4, 64 and 256. The same Lindblad layer as
    ``fig1a-lindblad``, but BLAS-bound: at d = 256 one generator application
    costs milliseconds and two d = 256 jobs set the wall time. A change that
    trades per-call overhead against per-matvec cost shows on one of these
    two workloads. This is also the cost behind ``etlab verify`` and
    acceptance criterion c6.
``codes-eth``
    In-process and serial, for each built-in code with its designed error
    kinds: ``make_eth``, ``verify_et`` and ``bodyness`` on seeded random
    logical Hamiltonians; ``controlled_eth`` and ``verify_et`` on the
    target-extended errors; ``recover`` of every designed single error on
    seeded random logical states, and ``recover_adjoint`` on the same
    states. This is the paper's construction and exact-verification half
    and the cost of acceptance criteria c1, c2 and c8. No sweep runs, so the
    ``qcore``, ``codes`` and ``eth`` layers, which are a few percent of the
    sweeps, are measured here. Every logical Hamiltonian is distinct, so a
    build-once cache misses here while it hits in the sweeps.

Which end-to-end metric each per-layer metric should move
---------------------------------------------------------
* ``dynamics.integrate_lindblad.*``: ``wall_s`` and ``cpu_s`` on
  ``fig1a-lindblad`` (small d) and ``fig1b-lindblad`` (d = 256). No change
  on ``fig1b-mc`` and ``codes-eth``.
* ``dynamics.mc_trajectories.*``: ``wall_s`` on ``fig1b-mc``, and
  ``peak_rss_mb`` there if branches are batched as matrix columns. No change
  on the other three workloads.
* ``codes.*``, ``eth.*``, ``qcore.*``: ``wall_s`` on ``codes-eth``. They move
  ``fig1b-mc`` only by the few-percent share of realization, within noise.
* ``experiments.run_scenario.max_s`` and ``experiments.sweep.
  parallel_efficiency``: ``wall_s`` on ``fig1b-lindblad`` (straggler-bound)
  and ``fig1a-lindblad`` (88 short jobs, so pool overhead shows).

Coverage of the other end-to-end cases
--------------------------------------
``etlab verify``, the tier-1 suite and acceptance criteria c5, c6 and c8
spend their time in these same layers: RK4 Lindblad at d = 64 and 256 and
the branched MC engine (``verify``, c5, c6), and ``recover`` on steane7
(c8). As whole runs they take minutes each, too long to repeat for every
benchmark run, so they are covered through these layers at a size that can
be repeated.

Oracles
-------
An operation is one sweep job, or one construction, verification or
recovery call in ``codes-eth``. It fails if it raises, the sweep exits
nonzero, or the oracle rejects its output:

* Lindblad sweeps: every probability within 1e-8 of the committed
  reference CSV (room for a last-digit change of a better integrator).
* ``fig1b-mc``: |p_mc - p_ref| <= 4 max(stderr, sqrt(p_ref (1 - p_ref) /
  n_traj)) against the committed Lindblad solution. The binomial floor is
  needed: when all trajectories agree the sample stderr is 0.
* ``codes-eth``: ET residual < 1e-10, recovery fidelity > 1 - 1e-10, and
  body-ness n bare and n + 1 controlled (3/5/7 and 4/6/8).

Only the ``fig1b-mc`` and ``codes-eth`` inputs depend on the seed; the two
Lindblad workloads are deterministic and record the seed as unused.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from etlab import cli, codes, eth, experiments
from etlab.qcore import to_dense

REFS = Path(__file__).resolve().parent / "refs"

LINDBLAD_TOL = 1e-8
MC_PULL = 4.0
MC_TRAJ = 2000
RESIDUAL_TOL = 1e-10
FIDELITY_TOL = 1e-10

# codes-eth batch per code: ETH construction gets a visible share (about a
# third) next to recovery, which dominates through steane7 ``recover``. The
# batch is kept to about 2 s so that one run takes many iterations and their
# mean spreads over the host's slow and fast phases.
CODES_ETH_HAMILTONIANS = 2
CODES_ETH_STATES = 1


@dataclass
class Tally:
    """Operations attempted and failed, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def attempt(self, what: str, call, accept):
        """Run one operation; return its value, or None if it failed."""
        try:
            value = call()
        except Exception as exc:  # a raising operation is a failed operation
            self.record(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        ok = bool(accept(value))
        self.record(ok, what)
        return value if ok else None


def _read_csv(path: Path) -> list[tuple[str, float, float, float]]:
    """(scenario, gamma/omega, probability, stderr) rows of a sweep CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return [
            (r["scenario"], float(r["gamma_over_omega"]), float(r["probability"]),
             float(r["stderr"]))
            for r in reader
        ]


def _key(scenario: str, gamma: float) -> tuple[str, str]:
    return scenario, f"{gamma:.9e}"


def _check_rows(rows, ref_name: str, accept) -> Tally:
    """One operation per reference row; rows missing or rejected fail."""
    refs = {_key(s, g): p for s, g, p, _ in _read_csv(REFS / ref_name)}
    got = {_key(s, g): (p, e) for s, g, p, e in rows}
    tally = Tally()
    for key, p_ref in refs.items():
        if key not in got:
            tally.record(False, f"{key}: missing")
            continue
        p, stderr = got[key]
        tally.record(accept(p, stderr, p_ref), f"{key}: p={p!r} ref={p_ref!r} stderr={stderr!r}")
    return tally


def _lindblad_ok(p: float, _stderr: float, p_ref: float) -> bool:
    return abs(p - p_ref) <= LINDBLAD_TOL


def _mc_ok(p: float, stderr: float, p_ref: float) -> bool:
    floor = math.sqrt(max(p_ref * (1.0 - p_ref), 0.0) / MC_TRAJ)
    return abs(p - p_ref) <= MC_PULL * max(stderr, floor)


class _CliSweep:
    """A sweep run through ``etlab.cli.main``, its CSV checked against refs."""

    name = ""
    csv_name = ""
    ref_name = ""
    accept = staticmethod(_lindblad_ok)

    def __init__(self, seed: int, workers: int, workdir: Path):
        self.workdir = workdir
        self.argv = self.arguments(seed) + ["--workers", str(workers), "--out", str(workdir)]

    def arguments(self, seed: int) -> list[str]:
        raise NotImplementedError

    def run(self) -> int:
        return cli.main(self.argv)

    def check(self, exit_code: int) -> Tally:
        csv_path = self.workdir / self.csv_name
        if exit_code != 0 or not csv_path.is_file():
            tally = _check_rows([], self.ref_name, self.accept)
            tally.notes.insert(0, f"sweep exited {exit_code}")
            return tally
        return _check_rows(_read_csv(csv_path), self.ref_name, self.accept)


class Fig1aLindblad(_CliSweep):
    name = "fig1a-lindblad"
    csv_name = "fig1a-lindblad.csv"
    ref_name = "fig1a-lindblad.csv"
    seed_used = False

    def arguments(self, seed: int) -> list[str]:
        return ["sweep", "fig1a"]


class Fig1bMc(_CliSweep):
    name = "fig1b-mc"
    csv_name = "fig1b-mc.csv"
    ref_name = "fig1b-mc-lindblad.csv"
    accept = staticmethod(_mc_ok)
    seed_used = True

    def arguments(self, seed: int) -> list[str]:
        return ["sweep", "fig1b", "--method", "mc", "--gamma-points", "3",
                "--traj", str(MC_TRAJ), "--seed", str(seed)]


class Fig1bLindblad:
    name = "fig1b-lindblad"
    seed_used = False

    def __init__(self, seed: int, workers: int, workdir: Path):
        self.workers = workers

    def run(self):
        return experiments.fig1b_sweep([0.05], method="lindblad", max_workers=self.workers)

    def check(self, result) -> Tally:
        rows = [(r.scenario, r.gamma_over_omega, r.probability, r.stderr) for r in result.rows]
        return _check_rows(rows, "fig1b-lindblad.csv", _lindblad_ok)


class CodesEth:
    """Serial construction, exact verification and recovery on every code.

    The oracle runs inside the main call, next to each operation, so
    ``check`` only hands back the tally.
    """

    name = "codes-eth"
    seed_used = True

    def __init__(self, seed: int, workers: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.inputs = {}
        for code_name in codes.DESIGNED_KINDS:
            hams = [
                eth.LogicalHamiltonian(
                    rng.uniform(-2, 2), rng.uniform(-2, 2),
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                )
                for _ in range(CODES_ETH_HAMILTONIANS)
            ]
            omegas = rng.uniform(0.5, 2.0, CODES_ETH_HAMILTONIANS).tolist()
            amps = rng.standard_normal((CODES_ETH_STATES, 2, 2)) @ np.array([1.0, 1j])
            self.inputs[code_name] = (hams, omegas, amps / np.linalg.norm(amps, axis=1)[:, None])

    def run(self) -> Tally:
        tally = Tally()
        for code_name, kinds in codes.DESIGNED_KINDS.items():
            hams, omegas, amps = self.inputs[code_name]
            code = codes.build_code(code_name)
            errors = codes.error_set(code, kinds)
            self._construct(tally, code, errors, hams, omegas)
            self._recover(tally, code, errors, amps)
        return tally

    @staticmethod
    def _construct(tally, code, errors, hams, omegas) -> None:
        def build_and_verify(what, build, h0, verify_errors, body) -> None:
            h = tally.attempt(what, build, lambda h: h.shape == h0.shape)
            if h is None:
                tally.record(False, f"{what}: no ETH to verify")
                tally.record(False, f"{what}: no ETH to decompose")
                return
            tally.attempt(f"{what} verify_et", lambda: eth.verify_et(h, h0, code, verify_errors),
                          lambda r: r < RESIDUAL_TOL)
            tally.attempt(f"{what} bodyness", lambda: eth.bodyness(h), lambda b: b == body)

        for i, lh in enumerate(hams):
            h0 = eth.encode_logical(code, lh)
            build_and_verify(f"{code.name} H#{i} make_eth",
                             lambda: eth.make_eth(code, h0, errors), h0, errors, code.n)
        target_errors = eth.extend_to_target(errors)
        for omega in omegas:
            build_and_verify(f"{code.name} omega={omega!r} controlled_eth",
                             lambda: eth.controlled_eth(code, errors, omega),
                             eth.swap_hamiltonian(code, omega), target_errors, code.n + 1)

    @staticmethod
    def _recover(tally, code, errors, amps) -> None:
        def fidelity(psi, rho) -> float:
            return float(np.vdot(psi, rho @ psi).real)

        for i, (a0, a1) in enumerate(amps):
            psi = a0 * code.codeword0 + a1 * code.codeword1
            hit = [to_dense(e) @ psi for e in errors]
            for e, phi in zip(errors, hit):
                tally.attempt(
                    f"{code.name} state#{i} recover {e.letters}",
                    lambda: codes.recover(code, errors, np.outer(phi, phi.conj())),
                    lambda rho: fidelity(psi, rho) > 1 - FIDELITY_TOL,
                )
            # Tr(R(E rho E^dag) P_psi) = <E psi| R*(P_psi) |E psi> for every error
            tally.attempt(
                f"{code.name} state#{i} recover_adjoint",
                lambda: codes.recover_adjoint(code, errors, np.outer(psi, psi.conj())),
                lambda b: min(fidelity(phi, b) for phi in [psi, *hit]) > 1 - FIDELITY_TOL,
            )

    def check(self, tally: Tally) -> Tally:
        return tally


WORKLOADS = {w.name: w for w in (Fig1aLindblad, Fig1bMc, Fig1bLindblad, CodesEth)}
