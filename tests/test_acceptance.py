"""Acceptance suite: one test per numbered criterion, strict tolerances.

Each test prints a PASS line with the measured quantities so a verbose run
reads as a per-criterion report.  A criterion that states an invariant of
``etlab verify`` (c2, c3, c7, c8 and the MC half of c9) calls that check
and prints its detail, and c6 scores each point with the MC-vs-Lindblad
rule of ``checks._mc_pull``, so the invariant has one body, in
``etlab.checks``.
The heavy Monte-Carlo criteria pin their seeds; trajectory counts are sized
so the required separations clear their statistical thresholds with around
3 sigma to spare.
"""

import time

import numpy as np
import pytest

import etlab.cli as cli
from etlab import checks, codes, eth
from etlab.experiments import (
    ScenarioSpec,
    default_gamma_grid,
    fig1a_scenarios,
    fig1a_sweep,
    fig1b_scenarios,
    predicted_logical_rate,
    run_scenario,
)

OMEGA = 1.0


def test_c1_error_transparency_exactness():
    """Criterion 1: verify_et residual < 1e-10 for every built-in ETH."""
    start = time.perf_counter()
    lh = eth.LogicalHamiltonian(1.0, -1.0, 0.35 + 0.2j)
    worst = 0.0
    for name, kinds in codes.DESIGNED_KINDS.items():
        code = codes.build_code(name)
        es = codes.error_set(code, kinds)
        h0 = eth.encode_logical(code, lh)
        h = eth.make_eth(code, h0, es)
        worst = max(worst, eth.verify_et(h, h0, code, es))
        h0_swap = eth.swap_hamiltonian(code, OMEGA)
        hc = eth.controlled_eth(code, es, OMEGA)
        worst = max(worst, eth.verify_et(hc, h0_swap, code, eth.extend_to_target(es)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: max ET residual {worst:.2e} across 6 constructions ({elapsed:.1f}s)")


def test_c2_bodyness_theorems():
    """Criterion 2: body-ness 3/5 bare, 4/6 controlled; CSS-7 counterexample."""
    print(f"\nCRITERION 2 PASS: {checks.check_bodyness_bounds()}")


def test_c3_analytic_dynamics_oracle():
    """Criterion 3: analytic bit-flip relaxation to 1e-6; RK4 order ratio >= 12."""
    analytic, order = checks.check_analytic_xnoise(), checks.check_rk4_order()
    print(f"\nCRITERION 3 PASS: {analytic}; {order}")


def test_c4_fig1a_scaling():
    """Criterion 4: first-order bare vs second-order encoded error scaling.

    The encoded-with-ETH curve must behave like a bare qubit whose flip rate
    is P * gamma^2 * tau with P = 3 within 30%; P is extracted by calibrating
    against the simulated bare-qubit curve so the shared geometric factor
    between error events and fidelity loss divides out.
    """
    start = time.perf_counter()
    tau = np.pi / OMEGA
    alphas = np.geomspace(1e-3, 1e-2, 8)
    res = fig1a_sweep(alphas / tau, OMEGA, method="lindblad")

    def loglog_fit(label):
        rows = res.series(label)
        infid = np.array([1 - r.probability for r in rows])
        a = np.array([r.gamma_over_omega * tau for r in rows])
        slope, intercept = np.polyfit(np.log(a), np.log(infid), 1)
        return slope, float(np.exp(intercept))

    slope_single, c_single = loglog_fit("single")
    slope_eth, c_eth = loglog_fit("logical-eth")
    assert slope_single == pytest.approx(1.0, abs=0.1)
    assert slope_eth == pytest.approx(2.0, abs=0.1)
    prefactor = 2 * c_eth / (2 * c_single)  # equivalent-rate multiple of gamma^2 tau
    assert 3.0 * 0.7 <= prefactor <= 3.0 * 1.3

    # encoded curve vs a bare qubit run at the predicted reduced rate
    worst_gap = 0.0
    for alpha in (0.005, 0.01, 0.02):
        gamma = alpha / tau
        p_eth, _ = run_scenario(
            next(s for s in fig1a_scenarios(gamma, OMEGA) if s.label == "logical-eth"),
            method="lindblad",
        )
        reduced = predicted_logical_rate(gamma, tau)
        p_single, _ = run_scenario(
            ScenarioSpec(label="single", family="fig1a", gamma=reduced, omega=OMEGA),
            method="lindblad",
        )
        worst_gap = max(worst_gap, abs(p_eth - p_single))
    assert worst_gap <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(
        f"\nCRITERION 4 PASS: slopes {slope_single:.3f}/{slope_eth:.3f}, "
        f"rate prefactor {prefactor:.2f}, reduced-rate match {worst_gap:.2e} ({elapsed:.0f}s)"
    )


# trajectory counts per (gamma, scenario); the tight ETH-5 vs ETH-7 margin at
# gamma = 0.02 needs a large sample, elsewhere 4000 is already generous
_C5_TRAJ = {
    0.02: {"eth-5": 100_000, "eth-7": 100_000},
    0.05: {"eth-5": 16_000, "eth-7": 16_000},
    0.1: {"eth-5": 8_000, "eth-7": 8_000},
}
_C5_DEFAULT_TRAJ = 4_000


@pytest.mark.slow
def test_c5_fig1b_ordering():
    """Criterion 5: controller quality ordering with statistical separation."""
    start = time.perf_counter()
    results = {}
    for gi, gamma in enumerate((0.02, 0.05, 0.1)):
        for si, spec in enumerate(fig1b_scenarios(gamma, OMEGA)):
            n = _C5_TRAJ.get(gamma, {}).get(spec.label, _C5_DEFAULT_TRAJ)
            p, se = run_scenario(
                spec, method="mc", n_traj=n, seed=20127 + 100 * gi + si, dt=checks._FIG1B_MC_DT
            )
            results[(gamma, spec.label)] = (p, se)

    def separated(gamma, hi, lo):
        p_hi, se_hi = results[(gamma, hi)]
        p_lo, se_lo = results[(gamma, lo)]
        combined = np.hypot(se_hi, se_lo)
        margin = (p_hi - p_lo) / combined if combined > 0 else np.inf
        assert p_hi > p_lo, f"gamma={gamma}: {hi} not above {lo}"
        assert margin > 2, f"gamma={gamma}: {hi} vs {lo} separated by only {margin:.2f} stderr"
        return margin

    lines = []
    for gamma in (0.02, 0.05, 0.1):
        m1 = separated(gamma, "eth-5", "eth-7")
        m2 = separated(gamma, "eth-7", "single")
        m3 = min(separated(gamma, "single", "plain-5"), separated(gamma, "single", "plain-7"))
        lines.append(f"gamma={gamma}: separations {m1:.1f}/{m2:.1f}/{m3:.1f} stderr")
    elapsed = time.perf_counter() - start
    assert elapsed < 900
    print("\nCRITERION 5 PASS: " + "; ".join(lines) + f" ({elapsed:.0f}s)")


@pytest.mark.slow
def test_c6_mc_lindblad_cross_validation():
    """Criterion 6: both engines agree on the ETH-5 scenario across the grid.

    Trajectory counts scale with 1/P(impactful event): transparency makes
    single controller jumps nearly invisible in the metric, so at small
    gamma the sample needs enough rare double-jump / target-noise events
    for its stderr to be a sound comparison scale.
    """
    start = time.perf_counter()
    worst = max(
        checks._mc_pull(next(s for s in fig1b_scenarios(g, OMEGA) if s.label == "eth-5"), 808 + pi)
        for pi, g in enumerate(default_gamma_grid())
    )
    elapsed = time.perf_counter() - start
    print(f"\nCRITERION 6 PASS: worst disagreement {worst:.2f} stderr over 22 grid points ({elapsed:.0f}s)")


def test_c7_perturbative_formulas():
    """Criterion 7: closed-form calculators reproduce their worked values."""
    print(f"\nCRITERION 7 PASS: {checks.check_perturbative_formulas()}")


def test_c8_recovery_channel():
    """Criterion 8: ideal recovery restores every single error exactly."""
    print(f"\nCRITERION 8 PASS: {checks.check_recovery_identity()}")


def test_c9_sweep_determinism(tmp_path):
    """Criterion 9: repeated seeded sweeps emit byte-identical CSV."""
    digests = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["sweep", "fig1a", "--seed", "42", "--out", str(out)])
        assert code == 0
        digests.append((out / "fig1a-lindblad.csv").read_bytes())
    assert digests[0] == digests[1]
    # default grid: (21 log points + gamma=0) x 4 scenarios
    assert len(digests[0].decode().splitlines()) == 1 + 22 * 4
    # the seed contract matters once trajectories are involved
    mc = checks.check_sweep_determinism()
    print(f"\nCRITERION 9 PASS: lindblad sweep byte-identical, 88 rows; {mc}")
