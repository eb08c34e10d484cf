"""Scenario realization, sweep mechanics, and closed-form calculators."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from etlab import codes, eth, experiments
from etlab.experiments import (
    ExperimentError,
    PerturbativeParams,
    ScenarioSpec,
    _finalize_probability,
    _scenario,
    breakeven,
    default_gamma_grid,
    effective_error_prob,
    effective_rate,
    fig1a_scenarios,
    fig1a_sweep,
    fig1b_scenarios,
    fig1b_sweep,
    predicted_logical_rate,
    run_scenario,
    suggested_mc_sample,
)
from etlab.dynamics import IntegrationError, StepCountError
from etlab.output import emit_csv


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

    def test_perturbative_warning_names_the_caller(self):
        # not the __init__ that dataclass generates, reported as <string>
        with pytest.warns(UserWarning, match="perturbative") as record:
            PerturbativeParams(n=3, gamma=1e-3, omega=2.0, delta=1.0, k=2)
        assert [w.filename for w in record] == [__file__]

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbativeParams(n=0, gamma=1e-3, omega=1.0, delta=10.0, k=3)
        with pytest.raises(ValueError):
            PerturbativeParams(n=3, gamma=1e-3, omega=1.0, delta=10.0, k=1)

    @pytest.mark.parametrize("field", ["gamma", "omega", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_rates_rejected(self, field, value):
        # NaN passed every range comparison
        kwargs = dict(n=3, gamma=1e-3, omega=1.0, delta=10.0, k=3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PerturbativeParams(**kwargs)

    @pytest.mark.parametrize(
        "omega, delta, k", [(1.0, 10.0, 400), (10.0, 1.0, 400), (1.0, 1e-100, 3), (1.0, 1e100, 3)]
    )
    def test_unrepresentable_rates_rejected(self, omega, delta, k):
        # omega_k underflows to 0, or omega_k, p' or (omega/delta)^(2k-2)
        # overflows: effective_error_prob or breakeven raised
        params = dict(n=3, gamma=1e-3, omega=omega, delta=delta, k=k)
        with pytest.raises(ValueError, match=re.escape(f"omega={omega!r}, delta={delta!r}, k={k}")):
            PerturbativeParams(**params)

    @pytest.mark.parametrize("field, value", [("n", True), ("n", 3.0), ("k", 3.5), ("k", False)])
    def test_integer_counts_required(self, field, value):
        # k=3.5 used to give a fractional body count in effective_error_prob
        kwargs = dict(n=3, gamma=1e-3, omega=1.0, delta=10.0, k=3)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite integer"):
            PerturbativeParams(**kwargs)


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


def _rates(spec):
    """The channels of the sweep job ``spec`` and its row of rates over them,
    as either engine takes them."""
    s = _scenario(spec)
    return s.sites + s.fixed, s.rates(spec.site_rate)


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
        assert spec.site_rate == pytest.approx(0.03 * 0.5)
        assert _rates(spec)[1] == [spec.site_rate]

    def test_fig1b_target_noise_always_present(self):
        # at gamma = 0 the sites hold rate 0 and the target keeps its own
        spec = next(s for s in fig1b_scenarios(0.0, 1.0) if s.label == "eth-5")
        channels, rates = _rates(spec)
        assert [c.label for c in channels[5:]] == ["target-up", "target-down"]
        assert rates == [0.0] * 5 + [1e-4, 2e-4]

    def test_fig1b_controller_damping_per_qubit(self):
        spec = next(s for s in fig1b_scenarios(0.07, 1.0) if s.label == "plain-5")
        damp = [r for c, r in zip(*_rates(spec)) if c.label.startswith("damp")]
        assert len(damp) == 5
        assert all(r == pytest.approx(0.07) for r in damp)

    @pytest.mark.parametrize("family", ["fig1a", "fig1b"])
    def test_gamma_independent_parts_built_once(self, family):
        # every grid point of a scenario shares one read-only H, psi0,
        # observable and set of jump arrays, and gamma only sets the site
        # rates; an ETH scenario shares all but H with its plain twin; a jump
        # holds its nonzeros only, at most d of each of rows, cols and vals
        def job(spec):
            return _scenario(spec), *_rates(spec)

        def arrays(job):
            s, channels, _ = job
            jumps = [x for c in channels for x in (c.rows, c.cols, c.vals)]
            assert all(x.size <= len(s.psi0) for x in jumps)
            return [s.hamiltonian, s.psi0, s.observable] + jumps

        make = fig1a_scenarios if family == "fig1a" else fig1b_scenarios
        fixed = {"fig1a": 0, "fig1b": 2}[family]
        for spec in make(0.01, 1.0):
            a, b, zero = (job(replace(spec, gamma=g)) for g in (0.01, 0.05, 0.0))
            assert a[0] is b[0] is zero[0]  # one scenario for every gamma
            pairs = zip(arrays(a), arrays(b), strict=True)
            assert all(x is y and not x.flags.writeable for x, y in pairs)
            twin = job(replace(spec, gamma=0.01, use_eth=False))
            assert all(x is y for x, y in zip(arrays(a)[1:], arrays(twin)[1:], strict=True))
            sites = len(a[1]) - fixed
            for (_, _, rates), g in ((a, 0.01), (b, 0.05), (zero, 0.0)):
                assert rates[:sites] == [g * spec.rate_factor] * sites
            assert zero[2][sites:] == a[2][sites:]  # the fixed ones
            doubled = _scenario(replace(spec, omega=2.0))
            assert np.array_equal(doubled.hamiltonian, 2.0 * a[0].hamiltonian)

    def test_sweep_builds_each_scenario_once(self, monkeypatch):
        # a serial sweep builds each scenario key once, however many grid
        # points it has; fig1a's reduced-rate qubit shares the bare one's
        # key, and an ETH key builds only its H and its Lindblad support; no
        # jump is built as a dense matrix, so embed_single serves fig1b's
        # observable only
        calls = {}

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for module, name in [
            (codes, "build_code"),
            (codes, "recover_adjoint"),
            (eth, "make_eth"),
            (eth, "controlled_eth"),
            (experiments, "site_channels"),
            (experiments, "embed_single"),
            (experiments, "LindbladSupport"),
        ]:
            count(module, name)
        experiments._build_scenario.cache_clear()
        fig1a_sweep([0.0, 0.01, 0.05], 1.0, method="lindblad", max_workers=1)
        assert calls == {
            "build_code": 2, "make_eth": 1, "recover_adjoint": 1, "site_channels": 2,
            "LindbladSupport": 3,
        }
        calls.clear()
        fig1b_sweep([0.0, 0.05], 1.0, method="lindblad", max_workers=1)
        expected = {
            "build_code": 4, "controlled_eth": 2, "site_channels": 3, "embed_single": 3,
            "LindbladSupport": 5,
        }
        assert calls == expected
        calls.clear()
        experiments._build_scenario.cache_clear()
        fig1b_sweep([0.05], 1.0, method="mc", n_traj=10, max_workers=1)
        assert "LindbladSupport" not in calls and calls["build_code"] == 4

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            _scenario(ScenarioSpec(label="x", family="fig9", gamma=0.1, omega=1.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gamma", np.nan),
            ("gamma", -0.05),
            ("gamma", np.inf),
            ("rate_factor", np.nan),
            ("rate_factor", -1.0),
            ("omega", 0.0),
            ("omega", -1.0),
            ("omega", np.nan),
            ("omega", np.inf),
        ],
    )
    def test_invalid_rates_rejected(self, field, value):
        # a NaN or negative gamma used to run noiseless: the site channels,
        # and with them their rate check, are attached only for a rate > 0;
        # omega = 0 raised a bare ZeroDivisionError
        spec = dict(label="single", family="fig1a", gamma=0.01, omega=1.0)
        spec[field] = value
        with pytest.raises(ValueError, match=f"single: {field} must be finite") as info:
            ScenarioSpec(**spec)
        assert repr(value) in str(info.value)

    def test_invalid_gamma_rejected_by_sweeps(self):
        with pytest.raises(ValueError, match="gamma"):
            run_scenario(fig1a_scenarios(np.nan, 1.0)[0])
        with pytest.raises(ValueError, match="plain-5: gamma must be finite and >= 0, got -0.05"):
            fig1b_sweep([-0.05], method="lindblad", max_workers=1)


class TestSuggestedMcSample:
    # pinned: where the noisy-qubit count comes from must not move any value
    EXPECTED = {
        ("fig1a", 0.0): {"single": 2000, "single-reduced": 2000, "logical-plain": 2000,
                         "logical-eth": 2000},
        ("fig1a", 1e-3): {"single": 95493, "single-reduced": 150000, "logical-plain": 31831,
                          "logical-eth": 150000},
        ("fig1a", 0.05): {"single": 2000, "single-reduced": 63662, "logical-plain": 2000,
                          "logical-eth": 2000},
        ("fig1b", 0.0): {"plain-5": 150000, "plain-7": 150000, "eth-5": 150000,
                         "eth-7": 150000, "single": 150000},
        ("fig1b", 1e-3): {"plain-5": 76395, "plain-7": 54568, "eth-5": 150000,
                          "eth-7": 150000, "single": 150000},
        ("fig1b", 0.05): {"plain-5": 2000, "plain-7": 2000, "eth-5": 9439, "eth-7": 4887,
                          "single": 7640},
    }

    @pytest.mark.parametrize("family, gamma", list(EXPECTED))
    def test_pinned_values(self, family, gamma):
        make = fig1a_scenarios if family == "fig1a" else fig1b_scenarios
        got = {s.label: suggested_mc_sample(s) for s in make(gamma, 1.0)}
        assert got == self.EXPECTED[family, gamma]


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

    def test_lindblad_score_is_trace_of_final_times_observable(self, monkeypatch):
        # the score sums the d^2 products of Tr(rho O) without forming rho O
        finals = []
        integrate = experiments.integrate_lindblad_stack

        def recording(*args, **kwargs):
            for result in integrate(*args, **kwargs):
                finals.append(result.final)
                yield result

        monkeypatch.setattr(experiments, "integrate_lindblad_stack", recording)
        for spec in fig1a_scenarios(0.05, 1.0) + fig1b_scenarios(0.05, 1.0):
            p, _ = run_scenario(spec)
            trace = np.trace(finals[-1] @ _scenario(spec).observable).real
            assert abs(p - _finalize_probability(trace, spec.label)) <= 1e-14, spec.label
        assert len(finals) == 9


class TestSweeps:
    def test_fig1a_row_count_and_sorting(self):
        res = fig1a_sweep([0.0, 0.01, 0.1], 1.0, method="lindblad")
        assert len(res.rows) == 12
        keys = [(r.scenario, r.gamma_over_omega) for r in res.rows]
        assert keys == sorted(keys)

    def test_parallel_matches_serial(self):
        # each job's seed comes from its grid position and each MC job draws
        # from one generator, so the worker count cannot move a result
        cases = [
            (fig1a_sweep, default_gamma_grid(), dict(method="lindblad")),
            (fig1a_sweep, [0.0, 0.05], dict(method="mc", n_traj=60, seed=5)),
            (fig1b_sweep, default_gamma_grid(points=3), dict(method="mc", n_traj=200, seed=7)),
            (fig1b_sweep, [0.05], dict(method="lindblad")),
        ]
        for sweep, grid, kwargs in cases:
            serial = sweep(grid, 1.0, max_workers=1, **kwargs)
            parallel = sweep(grid, 1.0, max_workers=2, **kwargs)
            assert serial == parallel, (sweep.__name__, kwargs["method"])

    @pytest.mark.parametrize("sweep", [fig1a_sweep, fig1b_sweep])
    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers_rejected(self, sweep, workers):
        # used to run serially without a word
        with pytest.raises(ValueError, match=f"max_workers must be at least 1, got {workers}"):
            sweep([0.0, 0.01], 1.0, method="lindblad", max_workers=workers)

    @pytest.mark.parametrize(
        "sweep, grid, kwargs",
        [
            (fig1a_sweep, [0.0, 0.05], dict(method="lindblad", dt=1e-300)),
            (fig1a_sweep, [0.0, 0.05], dict(method="mc", dt=1e-300)),
            # the default Monte Carlo step at gamma/omega = 1e6 is 5e-10
            (fig1b_sweep, [0.0, 1e6], dict(method="mc")),
        ],
        ids=["rk4-dt", "mc-dt", "mc-default-step"],
    )
    def test_step_cap_checked_before_any_job_runs(self, monkeypatch, sweep, grid, kwargs):
        # every task, a Lindblad key's stacked run or a Monte Carlo job, is
        # a call of _run_task
        def task(*args, **kwargs):
            raise AssertionError("a task ran")

        monkeypatch.setattr(experiments, "_run_task", task)
        with pytest.raises(StepCountError, match="more than the cap"):
            sweep(grid, 1.0, max_workers=1, **kwargs)

    def test_stacked_rk4_failure_names_its_row(self):
        # the bare qubit's key runs its six rows (single and single-reduced
        # at three gammas) as one stack; only single at gamma/omega = 30 has
        # a step past RK4's stability limit
        with pytest.raises(IntegrationError) as info:
            fig1a_sweep([0.0, 0.01, 30.0], 1.0, dt=0.05, max_workers=1)
        assert str(info.value).startswith("fig1a/single at gamma/omega=30: RK4 step 0.05 exceeds")
        assert info.value.row == 4

    def test_stacked_trace_drift_names_its_row(self, monkeypatch):
        # a drift in the fourth row of the bare qubit's key, the second row
        # of its second block of two, is single-reduced at gamma/omega = 0.01
        import etlab.dynamics as dyn

        check = dyn._check_trace

        def drifting(rho, t, advice, row):
            check(rho * (1.5 if row == 3 else 1.0), t, advice, row)

        row_bytes = 16 * _scenario(fig1a_scenarios(0.0, 1.0)[0]).support.size
        monkeypatch.setattr(dyn, "_check_trace", drifting)
        monkeypatch.setattr(dyn, "_BLOCK_BYTES", 2 * row_bytes)
        with pytest.raises(IntegrationError) as info:
            fig1a_sweep([0.0, 0.01, 0.05], 1.0, max_workers=1)
        message = "fig1a/single-reduced at gamma/omega=0.01: trace drifted by 5.000e-01"
        assert str(info.value).startswith(message)
        assert info.value.row == 3

    def test_stacked_mc_failure_names_its_row(self, monkeypatch):
        # a Monte Carlo key runs its rows as one stack too: a failure in the
        # fourth row of the bare qubit's key is single-reduced at 0.01
        import etlab.dynamics as dyn

        trajectories, calls = dyn._trajectories, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 4:
                raise dyn.TrajectoryError("renormalization failed")
            return trajectories(*args)

        monkeypatch.setattr(dyn, "_trajectories", failing)
        with pytest.raises(dyn.TrajectoryError) as info:
            fig1a_sweep([0.0, 0.01, 0.05], 1.0, method="mc", n_traj=20, max_workers=1)
        message = "fig1a/single-reduced at gamma/omega=0.01: renormalization failed"
        assert str(info.value) == message
        assert info.value.row == 3

    def test_pool_no_larger_than_job_count(self, monkeypatch):
        # a fork pool starts every worker it is allowed at the first submit;
        # a sweep runs one task per scenario key, 3 for fig1a (the
        # reduced-rate qubit shares the bare one's key), whatever the grid
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", Recorder)
        fig1a_sweep([0.0], 1.0, method="lindblad", max_workers=64)
        fig1a_sweep([0.0, 0.01, 0.05], 1.0, method="lindblad", max_workers=2)
        # a Monte Carlo sweep too: 5 keys for fig1b, however many grid points
        fig1b_sweep([0.0, 0.01, 0.05], 1.0, method="mc", n_traj=10, max_workers=64)
        assert sizes == [3, 2, 5]

    def test_cheapest_csv_contracts(self, tmp_path):
        # the CSV bytes of the default fig1a sweep, with and without recovery
        # (the latter scores the bare observable, not recover_adjoint's), of
        # the default fig1a MC sweep (every fig1a G is diagonal, so its
        # one-step propagator is exp of 1 x 1 stacks), of the default and the
        # reduced fig1b MC sweeps (`etlab sweep fig1b` and `--gamma-points 3
        # --traj 2000 --seed 7`, block stacks), of the default fig1b Lindblad
        # sweep and of RK4 sweeps of fig1a (`etlab sweep fig1a --dt 0.01`
        # and `--gamma-points 3 --dt 0.01`) and of fig1b (`etlab sweep fig1b
        # --method lindblad --dt 0.05` and `--gamma-points 3 --dt 0.05`,
        # block strips at d = 64 and 256), pinned for numpy 2.4 with
        # OpenBLAS 0.3.31 on x86-64; every RK4 row takes its rates from the
        # stack's rate array
        contracts = [
            (
                "fig1a-lindblad",
                fig1a_sweep(default_gamma_grid(), 1.0, max_workers=1),
                "cbeeba86248de84826e4fc610f0ec482e4d064a0110fd380a9f1d40d25e98b5a",
            ),
            (
                "fig1a-lindblad-no-recovery",
                fig1a_sweep(default_gamma_grid(), 1.0, apply_recovery=False, max_workers=1),
                "0c1e3e702db80071d4c432c630fcef6ce24b76abe8c1cb8127e97fd2ad0cacb0",
            ),
            (
                "fig1a-mc",
                fig1a_sweep(default_gamma_grid(), 1.0, method="mc", max_workers=1),
                "a523f69471bc6d0804eaabaa87e9100bb2ef8e2539020eb0db2d75bef25bb548",
            ),
            (
                "fig1b-mc",
                fig1b_sweep(default_gamma_grid(), 1.0, max_workers=1),
                "1bf30fbf833acfaf1d122bedd8ef1ec1f1ef172565ffa713c6cf2be36daad72e",
            ),
            (
                "fig1b-mc-reduced",
                fig1b_sweep(default_gamma_grid(3), 1.0, n_traj=2000, seed=7, max_workers=1),
                "227258609a15da980f0d1177f467bc06a97e485efa983b1ab9c451e3292474a3",
            ),
            (
                "fig1b-lindblad",
                fig1b_sweep(default_gamma_grid(), 1.0, method="lindblad", max_workers=1),
                "e865a04b6845de72f21da386510daf46845fa0ea202c7c764ee2c0544b5d6890",
            ),
            (
                "fig1a-rk4",
                fig1a_sweep(default_gamma_grid(), 1.0, dt=0.01, max_workers=1),
                "dbb4a7e67f66f3b6498e98a1f8b842de1a58a71691f7a0caa12e75be3735bd44",
            ),
            (
                "fig1a-rk4-reduced",
                fig1a_sweep(default_gamma_grid(3), 1.0, dt=0.01, max_workers=1),
                "274a7374da2eb824acce57e6e30b5de7c99d909000e5f406712d95b27c3d5073",
            ),
            (
                "fig1b-rk4",
                fig1b_sweep(default_gamma_grid(), 1.0, method="lindblad", dt=0.05, max_workers=1),
                "272ec3106d1b6d9b890d73d91f0ff11328b89d7439d1d2c64d158970205e3df1",
            ),
            (
                "fig1b-rk4-reduced",
                fig1b_sweep(default_gamma_grid(3), 1.0, method="lindblad", dt=0.05, max_workers=1),
                "f223415f9790e11b6d9c2f753adc42a7e12f6a18b7feb0a1454a338084edbbf6",
            ),
        ]
        for name, result, digest in contracts:
            path = tmp_path / f"{name}.csv"
            emit_csv(result, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, name

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
