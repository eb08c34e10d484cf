"""Scenario realization, sweep mechanics, and closed-form calculators."""

import numpy as np
import pytest

from etlab import codes, eth
from etlab.experiments import (
    ExperimentError,
    PerturbativeParams,
    ScenarioSpec,
    _finalize_probability,
    _realize,
    breakeven,
    default_gamma_grid,
    effective_error_prob,
    effective_rate,
    fig1a_scenarios,
    fig1a_sweep,
    fig1b_scenarios,
    predicted_logical_rate,
    run_scenario,
)
from etlab.qcore import evolve_unitary, normalize, to_dense


class TestEffectiveRate:
    def test_k1_is_identity(self):
        assert effective_rate(0.7, 5.0, 1) == 0.7

    def test_worked_value(self):
        # direct formula evaluation: omega (omega/delta)^(k-1)
        assert effective_rate(1.0, 10.0, 3) == 1.0 * (1.0 / 10.0) ** 2
        assert effective_rate(1.0, 10.0, 3) == pytest.approx(0.01, rel=1e-12)

    def test_second_worked_value(self):
        assert effective_rate(2.0, 20.0, 2) == 0.2


class TestEffectiveErrorProb:
    def test_worked_value(self):
        params = PerturbativeParams(n=3, gamma=1e-3, omega=1.0, delta=10.0, k=3)
        p_prime, p = effective_error_prob(params)
        assert p == pytest.approx(1e-3, rel=1e-12)
        assert p_prime == pytest.approx(0.03, rel=1e-12)

    def test_closed_forms_agree(self):
        params = PerturbativeParams(n=5, gamma=2e-4, omega=0.8, delta=9.0, k=4)
        p_prime, p = effective_error_prob(params)
        alt = params.n * p**2 * (params.delta / params.omega) ** (2 * params.k - 2)
        assert abs(p_prime - alt) <= 1e-12 * abs(p_prime)

    def test_perturbative_warning(self):
        with pytest.warns(UserWarning, match="perturbative"):
            PerturbativeParams(n=3, gamma=1e-3, omega=2.0, delta=1.0, k=2)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbativeParams(n=0, gamma=1e-3, omega=1.0, delta=10.0, k=3)
        with pytest.raises(ValueError):
            PerturbativeParams(n=3, gamma=1e-3, omega=1.0, delta=10.0, k=1)


class TestBreakeven:
    def test_false_case(self):
        assert breakeven(PerturbativeParams(n=3, gamma=1e-4, omega=1.0, delta=10.0, k=3)) is False

    def test_true_case(self):
        assert breakeven(PerturbativeParams(n=3, gamma=1e-6, omega=1.0, delta=10.0, k=3)) is True

    def test_zero_gamma(self):
        assert breakeven(PerturbativeParams(n=7, gamma=0.0, omega=1.0, delta=50.0, k=5)) is True

    def test_equality_is_false(self):
        # n gamma/omega exactly equal to (omega/delta)^(2k-2)
        params = PerturbativeParams(n=1, gamma=0.25, omega=1.0, delta=2.0, k=2)
        assert params.gamma / params.omega == (params.omega / params.delta) ** 2
        assert breakeven(params) is False


class TestPredictedLogicalRate:
    def test_matches_reduced_rate_curve(self):
        # gamma*tau = 0.01 => gamma_L = 0.03 gamma
        tau = np.pi
        gamma = 0.01 / tau
        assert predicted_logical_rate(gamma, tau) == pytest.approx(0.03 * gamma, rel=1e-12)

    def test_zero(self):
        assert predicted_logical_rate(0.0, 2.0) == 0.0


class TestGrid:
    def test_default_grid(self):
        grid = default_gamma_grid()
        assert len(grid) == 22
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-3)
        assert grid[-1] == pytest.approx(1e-1)


class TestScenarios:
    def test_fig1a_labels_unique(self):
        specs = fig1a_scenarios(0.01, 1.0)
        labels = [s.label for s in specs]
        assert len(labels) == 4
        assert len(set(labels)) == 4

    def test_fig1b_labels_unique(self):
        specs = fig1b_scenarios(0.01, 1.0)
        labels = [s.label for s in specs]
        assert sorted(labels) == ["eth-5", "eth-7", "plain-5", "plain-7", "single"]

    def test_reduced_rate_scenario(self):
        spec = next(s for s in fig1a_scenarios(0.5, 1.0) if s.label == "single-reduced")
        realized = _realize(spec)
        assert realized.noise.channels[0].rate == pytest.approx(0.03 * 0.5)

    def test_fig1b_target_noise_always_present(self):
        spec = next(s for s in fig1b_scenarios(0.0, 1.0) if s.label == "eth-5")
        realized = _realize(spec)
        labels = [c.label for c in realized.noise.channels]
        assert labels == ["target-up", "target-down"]
        assert [c.rate for c in realized.noise.channels] == [1e-4, 2e-4]

    def test_fig1b_controller_damping_per_qubit(self):
        spec = next(s for s in fig1b_scenarios(0.07, 1.0) if s.label == "plain-5")
        realized = _realize(spec)
        damp = [c for c in realized.noise.channels if c.label.startswith("damp")]
        assert len(damp) == 5
        assert all(c.rate == pytest.approx(0.07) for c in damp)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            _realize(ScenarioSpec(label="x", family="fig9", gamma=0.1, omega=1.0))


class TestRunScenario:
    def test_gamma_zero_fig1a_is_one(self):
        for spec in fig1a_scenarios(0.0, 1.0):
            p, se = run_scenario(spec, method="lindblad")
            assert p == pytest.approx(1.0, abs=1e-8)
            assert se == 0.0

    def test_gamma_zero_fig1b_eth_nearly_one(self):
        spec = next(s for s in fig1b_scenarios(0.0, 1.0) if s.label == "eth-5")
        p, _ = run_scenario(spec, method="lindblad")
        assert p >= 0.999

    def test_single_qubit_full_period_returns(self):
        spec = fig1a_scenarios(0.0, 2.0)[0]
        p, _ = run_scenario(spec, method="lindblad")
        assert p == pytest.approx(1.0, abs=1e-8)

    def test_mc_and_lindblad_agree_cheap_point(self):
        spec = fig1a_scenarios(0.05, 1.0)[0]  # single qubit
        p_l, _ = run_scenario(spec, method="lindblad")
        p_m, se = run_scenario(spec, method="mc", n_traj=1500, seed=11)
        assert abs(p_m - p_l) <= 4 * se

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            run_scenario(fig1a_scenarios(0.0, 1.0)[0], method="exact")


class TestSweeps:
    def test_fig1a_row_count_and_sorting(self):
        res = fig1a_sweep([0.0, 0.01, 0.1], 1.0, method="lindblad")
        assert len(res.rows) == 12
        keys = [(r.scenario, r.gamma_over_omega) for r in res.rows]
        assert keys == sorted(keys)

    def test_monotone_in_gamma(self):
        res = fig1a_sweep([0.0, 1e-3, 0.01, 0.05, 0.1], 1.0, method="lindblad")
        for label in res.scenarios():
            series = res.series(label)
            for lo, hi in zip(series, series[1:]):
                assert hi.probability <= lo.probability + 1e-6

    def test_parallel_matches_serial(self):
        grid = [0.0, 0.05]
        serial = fig1a_sweep(grid, 1.0, method="mc", n_traj=60, seed=5, max_workers=1)
        parallel = fig1a_sweep(grid, 1.0, method="mc", n_traj=60, seed=5, max_workers=2)
        assert serial == parallel

    def test_mc_rows_have_stderr(self):
        res = fig1a_sweep([0.05], 1.0, method="mc", n_traj=100, seed=2)
        assert all(r.stderr > 0 for r in res.rows if r.scenario != "gamma0")

    def test_seed_changes_mc_output(self):
        a = fig1a_sweep([0.05], 1.0, method="mc", n_traj=100, seed=1)
        b = fig1a_sweep([0.05], 1.0, method="mc", n_traj=100, seed=2)
        assert a != b


class TestEthCodeSizeScaling:
    def test_infidelity_ratio_tracks_qubit_count(self):
        # the 7-qubit controller sees 7/5 the physical error rate of the
        # 5-qubit one; with errors entering quadratically and a common
        # target-noise floor, the infidelity ratio sits in (7/5)^2 +- 40%
        specs = {s.label: s for s in fig1b_scenarios(0.05, 1.0)}
        p5, _ = run_scenario(specs["eth-5"], method="lindblad")
        p7, _ = run_scenario(specs["eth-7"], method="lindblad")
        ratio = (1 - p7) / (1 - p5)
        assert (7 / 5) ** 2 * 0.6 <= ratio <= (7 / 5) ** 2 * 1.4


class TestTwoErrorCancellation:
    def test_exact_identity(self):
        code = codes.build_bitflip3()
        es = codes.error_set(code, "X")
        h0 = eth.encode_logical(code, eth.LogicalHamiltonian(1.0, -1.0, 0))
        h = eth.make_eth(code, h0, es)
        psi = normalize(code.codeword0 + code.codeword1)
        x1 = to_dense(es.errors[0])
        tau = np.pi
        staged = evolve_unitary(
            h, tau - 1.9, x1 @ evolve_unitary(h, 1.9 - 0.7, x1 @ evolve_unitary(h, 0.7, psi))
        )
        assert np.linalg.norm(staged - evolve_unitary(h, tau, psi)) < 1e-10


class TestProbabilityGuard:
    def test_clamps_tiny_excursions(self):
        assert _finalize_probability(1.0000000001, "ctx") == 1.0
        assert _finalize_probability(-1e-9, "ctx") == 0.0

    def test_rejects_large_excursions(self):
        with pytest.raises(ExperimentError):
            _finalize_probability(1.001, "ctx")

    def test_rejects_nan_naming_context(self):
        with pytest.raises(ExperimentError, match="fig1b/eth-7 at gamma/omega=0.1"):
            _finalize_probability(float("nan"), "fig1b/eth-7 at gamma/omega=0.1")
