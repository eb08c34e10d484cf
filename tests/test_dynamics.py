"""Lindblad integrator and quantum-jump Monte Carlo tests.

Analytic oracles: a qubit under bit-flip noise at rate gamma with H = 0 has
P0(t) = (1 + exp(-2 gamma t))/2, and independent qubits multiply.
"""

import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from etlab.dynamics import (
    MAX_STEPS,
    MAX_TRAJECTORIES,
    IntegrationConfig,
    IntegrationError,
    LindbladSupport,
    NoiseChannel,
    NumericsError,
    StepCountError,
    TrajectoryConfig,
    TrajectoryError,
    default_timestep,
    integrate_lindblad,
    integrate_lindblad_stack,
    lindblad_rhs,
    mc_trajectories,
    mc_trajectories_stack,
    min_substeps,
    site_channels,
    step_count,
)
from etlab.dynamics import (
    _TAYLOR_THETA,
    _component_index,
    _component_labels,
    _Components,
    _Generator,
    _expm,
    _n_substeps,
    _no_jump_diagonals,
    _spectral_norm,
)
from etlab.qcore import SIGMA_MINUS, SIGMA_PLUS, basis_state, embed_single, normalize, pure_density

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)


def _triple(rows, cols, label):
    """A channel on two levels built from its nonzeros directly, all ones."""
    return NoiseChannel(np.array(rows), np.array(cols), np.ones(len(cols)), 2, label)


def _noise(*parts):
    """One run's channels and its row of rates: each part is a channel, or a
    list of channels, and the rate they share."""
    channels, rates = [], []
    for chs, rate in parts:
        chs = [chs] if isinstance(chs, NoiseChannel) else list(chs)
        channels += chs
        rates += [rate] * len(chs)
    return channels, rates


def _one_row_runs(rate):
    """Each one-row entry point on X noise at ``rate``: the reference
    generator, exact Lindblad, and Monte Carlo."""
    x, rho = _noise((NoiseChannel.from_matrix(SX, "X"), rate)), pure_density(basis_state(1, 0))
    return [
        lambda: lindblad_rhs(rho, SZ, *x),
        lambda: integrate_lindblad(rho, SZ, *x, IntegrationConfig(t_final=1.0)),
        lambda: mc_trajectories(
            basis_state(1, 0), SZ, *x, 1.0, [P0], TrajectoryConfig(n_traj=2, seed=0, dt=0.1)
        ),
    ]


class TestNoiseModel:
    """Channels that are their jumps only, and one row of rates beside them."""

    def test_negative_rate_rejected(self):
        # a channel holds no rate: a one-row run's rates meet the stacks' check
        for run in _one_row_runs(-0.1):
            with pytest.raises(ValueError, match=r"row 0: jump 'X' has rate -0.1; need finite"):
                run()

    @pytest.mark.parametrize(
        "make",
        [
            # a channel holds no rate: these reach the rate row's check
            lambda: _one_row_runs(float("nan"))[1](),
            lambda: _one_row_runs(float("inf"))[2](),
            lambda: IntegrationConfig(dt=float("nan"), t_final=1.0),
            lambda: IntegrationConfig(dt=0.1, t_final=float("inf")),
            lambda: TrajectoryConfig(n_traj=1, seed=0, dt=float("nan")),
            lambda: IntegrationConfig(t_final=float("nan")),
            # a NaN entry used to drop out of the monomial scan, so MC
            # returned an estimate for a channel that exact Lindblad rejected
            lambda: NoiseChannel.from_matrix(np.array([[0, 1], [np.nan, 0]]), "nan-jump"),
            lambda: NoiseChannel.from_matrix(np.array([[0, 1], [np.inf, 0]]), "inf-jump"),
            # a non-integer seed or count used to pass validation and then
            # fail inside the engine with a bare TypeError
            lambda: TrajectoryConfig(n_traj=1, seed=1.5, dt=0.1),
            lambda: TrajectoryConfig(n_traj=2.5, seed=0, dt=0.1),
            # a bool is an int to Python: n_traj=True used to run one trajectory
            lambda: TrajectoryConfig(n_traj=True, seed=0, dt=0.1),
            lambda: TrajectoryConfig(n_traj=1, seed=False, dt=0.1),
        ],
    )
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_channels_compare_by_identity(self):
        # field equality over numpy arrays raised "truth value ... ambiguous"
        a = site_channels(2, SX, "X")[0]
        b = site_channels(2, SX, "X")[0]
        assert a == a and a != b

    def test_dim_mismatch_rejected(self):
        # jumps that disagree on dimension: every one is checked against H,
        # not only the first
        noise = _noise(
            (NoiseChannel.from_matrix(SX, "a"), 1.0), (NoiseChannel.from_matrix(np.eye(4), "b"), 1.0)
        )
        for method in ("exact", "rk4", "mc"):
            with pytest.raises(ValueError, match=r"mismatch: H \(2, 2\), jump 'b' \(4, 4\)"):
                _run(method, basis_state(1, 0), SZ, noise)

    def test_decay_operator_equals_dense_formula(self):
        # monomial jumps skip the dense product; the sum K must keep its bits.
        # With H = 0 the no-jump generator is exactly -K/2.
        from etlab.experiments import fig1a_scenarios, fig1b_scenarios

        for spec in fig1a_scenarios(0.3, 1.0) + fig1b_scenarios(0.05, 1.0):
            channels, rates = _job_noise(spec)
            dim = channels[0].dim
            dense = np.zeros((dim, dim), dtype=complex)
            for ch, rate in zip(channels, rates):
                dense += rate * (ch.matrix.conj().T @ ch.matrix)
            h = np.zeros((dim, dim))
            _, diag = _no_jump_diagonals(h, channels, np.array([rates]), IntegrationError)
            assert np.array_equal(np.diag(-2 * diag[0]), dense), spec.label

    def test_site_channels(self):
        chans = site_channels(3, SX, "X")
        assert [c.label for c in chans] == ["X0", "X1", "X2"]
        assert all(c.matrix.shape == (8, 8) for c in chans)

    @pytest.mark.parametrize(
        "op",
        [SX, SY, SZ, SIGMA_MINUS, SIGMA_PLUS, np.array([[0, 2.0], [0.5j, 0]]), 0.3 * SIGMA_MINUS],
        ids=["X", "Y", "Z", "sigma-", "sigma+", "skew", "0.3sigma-"],
    )
    def test_site_channels_match_kron_embedding(self, op):
        # the bit-arithmetic lift against the Kronecker product it replaces
        for n in range(1, 9):
            for q, ch in enumerate(site_channels(n, op, "s")):
                assert np.array_equal(ch.matrix, embed_single(n, q, op)), (n, q)

    @pytest.mark.parametrize(
        "op", [SX, SY, SIGMA_MINUS, np.array([[0, 2.0], [0.5j, 0]]), np.zeros((2, 2))],
        ids=["X", "Y", "sigma-", "skew", "zero"],
    )
    def test_norm_taken_at_build(self, op):
        # every substep bound reads ||L||_2^2 from the channel
        for ch in (NoiseChannel.from_matrix(op, "m"), *site_channels(3, op, "s")):
            assert np.isclose(ch.norm_sq, np.linalg.norm(ch.matrix, 2) ** 2, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "make, msg",
        [
            (lambda: NoiseChannel.from_matrix(np.ones((2, 2)), "ones"), "'ones' is not mono"),
            (lambda: NoiseChannel.from_matrix(np.ones((2, 3)), "wide"), "'wide' must be a sq"),
            (lambda: NoiseChannel.from_matrix(np.ones(4), "flat"), "'flat' must be a sq"),
            (lambda: site_channels(2, np.eye(4), "big"), "'big0' needs a 2x2 op"),
            (lambda: site_channels(2, SX, "far", [2]), "'far2' needs .* site in \\[0, 2\\)"),
            (lambda: _triple([0, 0], [0, 1], "rows"), "'rows' is not monomial"),
            (lambda: _triple([0, 1], [1, 0], "cols"), "'cols' is not monomial"),
            (lambda: _triple([0, 2], [0, 1], "range"), "'range' is not monomial"),
            (lambda: _triple([0], [0, 1], "lengths"), "'lengths' is not monomial"),
        ],
        ids=["ones", "non-square", "1-D", "4x4", "site", "rows", "cols", "range", "lengths"],
    )
    def test_malformed_jump_rejected(self, make, msg):
        with pytest.raises(ValueError, match=msg):
            make()

    def test_default_timestep(self):
        assert default_timestep(1.0, 0.0) == pytest.approx(np.pi / 2000)
        assert default_timestep(1.0, 10.0) == pytest.approx(0.1 / 2000)


class TestStepCount:
    """Both engines' fixed steps, capped before anything is allocated.  Every
    count above the cap here is rejected before a step list or a backbone
    exists."""

    def test_rounds_to_at_least_one(self):
        assert [step_count(dt, 1.0) for dt in (0.3, 0.01, 10.0)] == [3, 100, 1]
        assert step_count(0.1, 0.0) == 1
        assert step_count(1.0 / MAX_STEPS, 1.0) == MAX_STEPS

    # 1e-300 used to end in OverflowError from the step list, or in numpy's
    # "Maximum allowed dimension exceeded"; 5e-324 makes t_final / dt inf
    @pytest.mark.parametrize("dt", [1.0 / (MAX_STEPS + 1), 1e-300, 5e-324])
    def test_above_the_cap_rejected_naming_dt(self, dt):
        msg = rf"dt={dt:.6g} takes .* steps to t_final=1, more than the cap of {MAX_STEPS}"
        with pytest.raises(StepCountError, match=msg):
            step_count(dt, 1.0)
        with pytest.raises(StepCountError, match=msg):
            IntegrationConfig(dt=dt, t_final=1.0)
        with pytest.raises(StepCountError, match=msg):
            mc_trajectories(
                basis_state(1, 0), SZ, *_noise(), 1.0, [P0],
                TrajectoryConfig(n_traj=2, seed=0, dt=dt),
            )


class TestLindbladRhs:
    def test_maximally_mixed_fixed_point(self):
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 1.0))
        out = lindblad_rhs(np.eye(2, dtype=complex) / 2, np.zeros((2, 2)), *noise)
        assert np.max(np.abs(out)) < 1e-14

    def test_ground_state_under_x_noise(self):
        # hand computation: gamma (|1><1| - |0><0|)
        gamma = 0.7
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), gamma))
        out = lindblad_rhs(pure_density(basis_state(1, 0)), np.zeros((2, 2)), *noise)
        assert np.allclose(out, gamma * np.diag([-1.0, 1.0]), atol=1e-14)

    def test_empty_noise_is_commutator(self):
        rho = pure_density(normalize(np.array([1.0, 1j])))
        h = 0.3 * SZ
        out = lindblad_rhs(rho, h, *_noise())
        assert np.allclose(out, -1j * (h @ rho - rho @ h), atol=1e-14)

    def test_hermitian_traceless(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        h = rng.standard_normal((4, 4))
        h = (h + h.T).astype(complex)
        noise = _noise((site_channels(2, SIGMA_MINUS, "d"), 0.4))
        out = lindblad_rhs(rho, h, *noise)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            lindblad_rhs(np.eye(2) / 2, np.zeros((4, 4)), *_noise())

    def test_fast_generator_matches_reference(self):
        # the integrator's gather/scatter path must equal the textbook formula
        rng = np.random.default_rng(7)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        h = rng.standard_normal((8, 8))
        h = (h + h.T).astype(complex)
        noise = _noise(
            (site_channels(3, SX, "X"), 0.3),
            (site_channels(3, SIGMA_MINUS, "d"), 0.2),
            (NoiseChannel.from_matrix(_random_monomial(8, seed=7), "random"), 0.05),
        )
        gen = _full_generator(h, noise)
        assert np.max(np.abs(gen.rhs(rho) - lindblad_rhs(rho, h, *noise))) < 1e-12

    @pytest.mark.parametrize("case", ["monomial-d8", "fig1b-eth-7"])
    def test_generator_keeps_hermitian_exactly(self, case):
        # rhs forms G rho + rho G^dag as X + X^dag from the one product
        # X = G rho, which is right only for a Hermitian rho; the integrator
        # feeds rhs its own output, so with monomial jumps (complex Y
        # letters, sigma+/-) a Hermitian rho must give an exactly Hermitian
        # result
        if case == "monomial-d8":
            rng = np.random.default_rng(29)
            h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = h + h.conj().T
            noise = _noise(
                (site_channels(3, SY, "Y"), 0.37),
                (site_channels(3, SIGMA_MINUS, "d"), 0.21),
                (site_channels(3, SIGMA_PLUS, "u"), 0.013),
            )
        else:
            s, noise = _job("fig1b", "eth-7", gamma=0.05)
            h = s.hamiltonian
        d = h.shape[0]
        rng = np.random.default_rng(31)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = a + a.conj().T
        out = _full_generator(h, noise).rhs(rho)
        assert np.array_equal(out, out.conj().T)
        assert np.max(np.abs(out - lindblad_rhs(rho, h, *noise))) < 1e-12 * np.max(np.abs(out))


class TestIntegrateLindblad:
    def test_noiseless_full_period_returns(self):
        omega = 1.0
        psi = normalize(np.array([1.0, 1.0]))
        cfg = IntegrationConfig(dt=np.pi / 2000, t_final=np.pi / omega)
        res = integrate_lindblad(pure_density(psi), omega * SZ, *_noise(), cfg)
        assert np.max(np.abs(res.final - pure_density(psi))) < 1e-8

    def test_zero_duration(self):
        rho = pure_density(basis_state(1, 1))
        cfg = IntegrationConfig(dt=0.1, t_final=0.0)
        res = integrate_lindblad(rho, SZ, *_noise(), cfg)
        assert np.array_equal(res.final, rho)
        assert res.applications == 0

    def test_trace_stays_put(self):
        # ten runs of 20 steps, each from the last one's final state
        noise = _noise((site_channels(2, SIGMA_MINUS, "d"), 0.5))
        cfg = IntegrationConfig(dt=0.01, t_final=0.2)
        rho = pure_density(basis_state(2, 3))
        for _ in range(10):
            rho = integrate_lindblad(rho, np.zeros((4, 4)), *noise, cfg).final
            assert abs(np.trace(rho).real - 1) < 1e-7

    def test_positivity(self):
        # fifteen runs of 100 steps, each from the last one's final state
        noise = _noise(
            (NoiseChannel.from_matrix(SX, "X"), 1.0),
            (NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 0.3),
        )
        cfg = IntegrationConfig(dt=1e-3, t_final=0.1)
        rho = pure_density(normalize(np.array([1, 1j])))
        for _ in range(15):
            rho = integrate_lindblad(rho, SZ, *noise, cfg).final
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-7

    def test_chained_rk4_equals_one_run(self):
        # ten stretches of t/10 take the same 100 steps of 0.01 as one run of
        # t, up to the rounding of each stretch's resized last step
        h, noise, rho0 = _random_monomial_case()
        one = integrate_lindblad(rho0, h, *noise, IntegrationConfig(dt=0.01, t_final=1.0))
        rho = rho0
        for _ in range(10):
            res = integrate_lindblad(rho, h, *noise, IntegrationConfig(dt=0.01, t_final=0.1))
            assert res.applications == 4 * 10
            rho = res.final
        assert one.applications == 4 * 100
        assert np.max(np.abs(rho - one.final)) <= 1e-14

    def test_trace_drift_signals_failure(self):
        # absurdly large dt blows up the integration
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 50.0))
        cfg = IntegrationConfig(dt=0.5, t_final=5.0)
        with pytest.raises(IntegrationError, match="smaller dt"):
            integrate_lindblad(pure_density(basis_state(1, 0)), np.zeros((2, 2)), *noise, cfg)

    def test_invalid_initial_state_rejected(self):
        cfg = IntegrationConfig(dt=0.01, t_final=1.0)
        with pytest.raises(ValueError):
            integrate_lindblad(np.eye(2, dtype=complex), SZ, *_noise(), cfg)

    @pytest.mark.parametrize("dt", [None, 0.01])
    @pytest.mark.parametrize("rho0", [np.ones((2, 3)) / 3, np.full(2, 0.5)], ids=["2x3", "1-D"])
    def test_non_square_initial_state_rejected(self, rho0, dt):
        # used to fail with numpy's bare broadcast or diag error
        msg = rf"density matrix must be a square matrix, got shape {re.escape(str(rho0.shape))}"
        with pytest.raises(ValueError, match=msg):
            integrate_lindblad(rho0, SZ, *_noise(), IntegrationConfig(dt=dt, t_final=1.0))

    def test_unstable_step_rejected_before_stepping(self):
        # dt=10 over one period is a single resized step of pi; RK4 would
        # return a state with trace near 1 but populations far outside [0,1]
        cfg = IntegrationConfig(dt=10.0, t_final=np.pi)
        psi = normalize(np.array([1.0, 1.0]))
        with pytest.raises(IntegrationError, match=r"RK4 step 3\.142 .*smaller dt"):
            integrate_lindblad(pure_density(psi), SZ, *_noise(), cfg)

    @pytest.mark.parametrize("dt, steps", [(0.01, 100), (0.3, 3)])
    def test_rk4_reports_four_applications_per_step(self, dt, steps):
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 1.0))
        cfg = IntegrationConfig(dt=dt, t_final=1.0)
        res = integrate_lindblad(pure_density(basis_state(1, 0)), SZ, *noise, cfg)
        assert res.applications == 4 * steps

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_nonfinite_generator_raises(self, dt):
        h = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        with pytest.raises(IntegrationError, match="non-finite"):
            integrate_lindblad(
                pure_density(basis_state(1, 0)), h, *_noise(),
                IntegrationConfig(dt=dt, t_final=1.0),
            )


def _run(method, psi0, h, noise):
    """Evolve the pure state psi0 to t=1 by exact or RK4 Lindblad, or by MC."""
    if method == "mc":
        cfg = TrajectoryConfig(n_traj=200, seed=5, dt=0.01)
        return mc_trajectories(psi0, h, *noise, 1.0, [np.eye(len(psi0))], cfg)
    dt = None if method == "exact" else 0.01
    return integrate_lindblad(pure_density(psi0), h, *noise, IntegrationConfig(dt=dt, t_final=1.0))


_METHODS = pytest.mark.parametrize("method", ["exact", "rk4", "mc"])


@_METHODS
@pytest.mark.parametrize(
    "n_h, n_jump", [(2, 1), (1, 2)], ids=["jump-smaller-than-H", "jump-larger-than-H"]
)
def test_jump_dimension_mismatch_rejected(method, n_h, n_jump):
    # a one-qubit jump with a two-qubit H used to run silently (P00 = 0.5677
    # from either Lindblad method); the reverse raised a bare IndexError
    noise = _noise((site_channels(n_jump, SX, "X", [0]), 1.0))
    d_h, d_l = 2**n_h, 2**n_jump
    msg = rf"dimension mismatch: H \({d_h}, {d_h}\), jump 'X0' \({d_l}, {d_l}\)"
    with pytest.raises(ValueError, match=msg):
        _run(method, basis_state(n_h, 0), np.zeros((d_h, d_h)), noise)


@_METHODS
def test_state_dimension_mismatch_rejected(method):
    state = r"psi0 \(2,\)" if method == "mc" else r"rho \(2, 2\)"
    with pytest.raises(ValueError, match=rf"dimension mismatch: {state}, H \(4, 4\)"):
        _run(method, basis_state(1, 0), np.zeros((4, 4)), _noise())


@_METHODS
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_hamiltonian_raises(method, bad):
    # MC used to return mean and stderr NaN without a word
    h = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(NumericsError, match="non-finite"):
        _run(method, basis_state(1, 0), h, _noise((NoiseChannel.from_matrix(SX, "X"), 0.5)))


@_METHODS
def test_non_hermitian_hamiltonian_rejected(method):
    # H = [[0, 1], [0, 0]] used to run without a word: both Lindblad methods
    # returned rho0 and MC returned 1.0.  G rho + rho G^dag is the one
    # product X + X^dag only for H = H^dag: rhs(|+><+|) was
    # [[0, -0.5i], [0.5i, 0]], where lindblad_rhs gives [[-0.5i, 0], [0, 0.5i]]
    with pytest.raises(ValueError, match="Hamiltonian is not Hermitian"):
        _run(method, normalize(np.array([1.0, 1.0])), SIGMA_MINUS, _noise())


@_METHODS
def test_nonfinite_state_rejected(method):
    # every comparison with NaN is False: MC used to return a NaN row with
    # stderr 0, and Lindblad failed later with a misleading Taylor error
    what = "psi0" if method == "mc" else "density matrix"
    with pytest.raises(ValueError, match=f"{what} has non-finite entries"):
        _run(method, np.full(2, np.nan), SZ, _noise((NoiseChannel.from_matrix(SX, "X"), 0.5)))


def _liouvillian(h, noise):
    """The generator as a dense d^2 x d^2 matrix on row-major vec(rho), one
    column per matrix unit, from the reference :func:`lindblad_rhs`."""
    d = h.shape[0]
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    return np.array([lindblad_rhs(e, h, *noise).reshape(-1) for e in units]).T


def _random_monomial(dim, seed):
    """A random monomial dim x dim matrix: a random permutation whose
    entries have random phases and moduli in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    m = np.zeros((dim, dim), dtype=complex)
    vals = rng.uniform(0.5, 1.5, dim) * np.exp(2j * np.pi * rng.random(dim))
    m[rng.permutation(dim), np.arange(dim)] = vals
    return m


def _random_monomial_case():
    """A random two-qubit H, a random monomial jump at rate 0.3 plus sigma-
    at 0.5 per site, and a random full-rank rho0."""
    rng = np.random.default_rng(19)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h + h.conj().T
    noise = _noise(
        (NoiseChannel.from_matrix(_random_monomial(4, seed=20), "random"), 0.3),
        (site_channels(2, SIGMA_MINUS, "d"), 0.5),
    )
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho0 = a @ a.conj().T
    rho0 /= np.trace(rho0)
    return h, noise, rho0


def _job_noise(spec):
    """The noise of the sweep job ``spec`` run alone: its scenario's channels
    and their rates in the job's rate row, those at rate 0 left out."""
    from etlab.experiments import _scenario

    s = _scenario(spec)
    kept = [(ch, r) for ch, r in zip(s.sites + s.fixed, s.rates(spec.site_rate)) if r]
    return [ch for ch, _ in kept], [r for _, r in kept]


def _job(family, label, gamma):
    """A sweep job's cached scenario and its noise at gamma (omega = 1)."""
    from etlab.experiments import _scenario, fig1a_scenarios, fig1b_scenarios

    scenarios = fig1a_scenarios if family == "fig1a" else fig1b_scenarios
    spec = next(s for s in scenarios(gamma, 1.0) if s.label == label)
    return _scenario(spec), _job_noise(spec)


def _dense_generator(h, noise):
    """G = -iH - K/2 as a d x d matrix."""
    channels, rates = noise
    g, diag = _no_jump_diagonals(h, channels, np.array([rates]), IntegrationError)
    g[np.diag_indices(len(g))] = diag[0]
    return g


def _full_generator(h, noise):
    """The generator on every entry of rho, a stack of one row."""
    channels, rates = noise
    support = LindbladSupport(h, channels, np.ones(h.shape))
    return _Generator(h, channels, np.array([rates], dtype=float), support)


def _liouvillian_propagator(h, noise, t):
    """exp(t L) as a dense matrix on row-major vec(rho), built independently
    of the integrator: vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(h.shape[0])
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for ch, rate in zip(*noise):
        l = ch.matrix
        ll = l.conj().T @ l
        sup += rate * (np.kron(l, l.conj()) - 0.5 * np.kron(ll, eye) - 0.5 * np.kron(eye, ll.T))
    return expm(t * sup)


class TestExactPropagation:
    def test_analytic_x_noise(self):
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 1.0))
        for t in (0.3, 1.0, 4.0):
            res = integrate_lindblad(
                pure_density(basis_state(1, 0)), np.zeros((2, 2)), *noise,
                IntegrationConfig(t_final=t),
            )
            assert abs(res.final[0, 0].real - (1 + np.exp(-2 * t)) / 2) <= 1e-12

    def test_noiseless_fig1a_matches_unitary(self):
        from etlab.qcore import evolve_unitary

        for label in ("single", "single-reduced", "logical-plain", "logical-eth"):
            s, noise = _job("fig1a", label, gamma=0.0)
            t = 0.37 * s.duration
            res = integrate_lindblad(
                pure_density(s.psi0), s.hamiltonian, *noise, IntegrationConfig(t_final=t)
            )
            expected = pure_density(evolve_unitary(s.hamiltonian, t, s.psi0))
            assert np.max(np.abs(res.final - expected)) <= 1e-12

    def test_fig1b_eth5_matches_fine_rk4(self):
        s, noise = _job("fig1b", "eth-5", gamma=0.05)
        assert s.hamiltonian.shape == (64, 64)

        def final(dt):
            cfg = IntegrationConfig(dt=dt, t_final=s.duration)
            return integrate_lindblad(pure_density(s.psi0), s.hamiltonian, *noise, cfg).final

        assert np.max(np.abs(final(None) - final(s.duration / 1024))) <= 1e-9

    def test_random_monomial_jump_matches_liouvillian_exponential(self):
        h, noise, rho0 = _random_monomial_case()
        t = 1.7
        res = integrate_lindblad(rho0, h, *noise, IntegrationConfig(t_final=t))
        expected = (_liouvillian_propagator(h, noise, t) @ rho0.reshape(-1)).reshape(4, 4)
        assert np.max(np.abs(res.final - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "case", ["fig1b-single", "fig1a-logical-eth", "random-monomial", "strong-jump"]
    )
    def test_bound_covers_liouvillian_norm(self, case):
        # the substep count and the tail stop rely on bound >= ||L||_2
        if case == "random-monomial":
            h, noise, _ = _random_monomial_case()
        elif case == "strong-jump":
            # ||L||_2 = 4 far from 1: the jump term must be rate ||L||_2^2
            h = np.zeros((2, 2))
            noise = _noise((NoiseChannel.from_matrix([[0, 4.0], [0.5, 0]], "strong"), 1.0))
        else:
            s, noise = _job(*case.split("-", 1), gamma=0.05)
            h = s.hamiltonian
        assert _full_generator(h, noise).bound >= np.linalg.norm(_liouvillian(h, noise), 2)

    def test_several_substeps_match_liouvillian_exponential(self):
        # strong noise: bound * t_final spans many theta-sized substeps
        s, noise = _job("fig1a", "logical-eth", gamma=3.0)
        h, t = s.hamiltonian, s.duration
        assert np.ceil(t * _full_generator(h, noise).bound / _TAYLOR_THETA) >= 2
        rho0 = pure_density(s.psi0)
        res = integrate_lindblad(rho0, h, *noise, IntegrationConfig(t_final=t))
        expected = (_liouvillian_propagator(h, noise, t) @ rho0.reshape(-1)).reshape(h.shape)
        assert np.max(np.abs(res.final - expected)) <= 1e-12

    def test_fig1b_eth7_applications(self):
        # one theta-sized substep of 27 terms
        s, noise = _job("fig1b", "eth-7", gamma=0.05)
        rho0 = pure_density(s.psi0)
        cfg = IntegrationConfig(t_final=s.duration)
        runs = [integrate_lindblad(rho0, s.hamiltonian, *noise, cfg) for _ in "ab"]
        assert runs[0].applications == 27
        assert runs[0].applications == runs[1].applications
        assert np.array_equal(runs[0].final, runs[1].final)

    @pytest.mark.parametrize("dt", [None, 0.01])
    def test_nearly_hermitian_rho0_is_hermitized(self, dt):
        # the density-matrix check allows an anti-Hermitian part, which the
        # one-product generator would not see; rho0 is Hermitized on entry,
        # so it propagates exactly as its Hermitian part does
        s, noise = _job("fig1a", "logical-eth", gamma=0.3)
        rho0 = pure_density(s.psi0)
        b = np.random.default_rng(37).standard_normal(rho0.shape)
        rho0 = rho0 + 1e-12j * (b + b.T)
        assert not np.array_equal(rho0, rho0.conj().T)
        hermitized = 0.5 * (rho0 + rho0.conj().T)
        cfg = IntegrationConfig(dt=dt, t_final=s.duration)
        final = integrate_lindblad(rho0, s.hamiltonian, *noise, cfg).final
        expected = integrate_lindblad(hermitized, s.hamiltonian, *noise, cfg).final
        assert np.array_equal(final, expected)

    def test_zero_duration(self):
        rho = pure_density(basis_state(1, 1))
        res = integrate_lindblad(rho, SZ, *_noise(), IntegrationConfig(t_final=0.0))
        assert np.array_equal(res.final, rho)
        assert res.applications == 0

    def test_term_cap_raises(self, monkeypatch):
        import etlab.dynamics as dyn

        monkeypatch.setattr(dyn, "_TAYLOR_MAX_TERMS", 2)
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 1.0))
        with pytest.raises(IntegrationError, match="did not converge in 2 terms"):
            integrate_lindblad(
                pure_density(basis_state(1, 0)), SZ, *noise, IntegrationConfig(t_final=1.0)
            )


def _hidden_blocks(seed):
    """A matrix of blocks of sizes 1, 2, 3 and 8 and a 40-state chain, its
    states shuffled by a random permutation, and its components as sorted
    index tuples of the shuffled matrix.  Each block is upper triangular and
    the chain couples each state to the next but only every other state
    back, so half of the couplings lie above the diagonal and half below."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 3, 8, 40]
    d = sum(sizes)
    a = np.zeros((d, d), dtype=complex)
    start = 0
    for m in sizes:
        block = np.triu(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        if m == 40:
            block = np.diag(np.diag(block)) + np.diag(1.0 + rng.random(m - 1), 1)
            block[np.arange(2, m, 2), np.arange(1, m - 1, 2)] = 0.5
        a[start : start + m, start : start + m] = block
        start += m
    perm = rng.permutation(d)
    inv = np.argsort(perm)
    bounds = np.cumsum([0] + sizes)
    parts = {tuple(sorted(inv[lo:hi])) for lo, hi in zip(bounds, bounds[1:]) if hi - lo >= 2}
    return a[perm][:, perm], parts


def _one_row(a):
    """A square matrix by the components of its own pattern, a stack of one
    row."""
    return _Components.of(a, np.diagonal(a)[None], _component_index(_component_labels(a)))


class TestComponents:
    """G held by the connected components of its nonzero pattern."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hidden_blocks_recovered_exactly(self, seed):
        a, parts = _hidden_blocks(seed)
        comps = _one_row(a)
        found = {tuple(row) for idx, _ in comps.stacks for row in idx}
        assert found == parts
        assert sorted(len(p) for p in parts) == [2, 3, 8, 40]
        for idx, blocks in comps.stacks:
            assert np.array_equal(blocks[0], a[idx[:, :, None], idx[:, None, :]])
        assert np.array_equal(comps.diag[0], np.diagonal(a))

    def test_apply_matches_matrix_product(self):
        rng = np.random.default_rng(5)
        a, _ = _hidden_blocks(5)
        d = len(a)
        dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        diagonal = np.diag(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        vector = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        columns = rng.standard_normal((d, 7)) + 1j * rng.standard_normal((d, 7))
        for g in (a, dense, diagonal):
            for x in (vector, columns):
                out = _one_row(g).apply(x)
                assert out.shape == x.shape
                assert np.max(np.abs(out - g @ x)) <= 1e-13 * np.max(np.abs(g @ x))
        assert [idx.shape for idx, _ in _one_row(dense).stacks] == [(1, d)]
        assert _one_row(diagonal).stacks == []

    @pytest.mark.parametrize(
        "family, label",
        [("fig1a", lab) for lab in ("single", "single-reduced", "logical-plain", "logical-eth")]
        + [("fig1b", lab) for lab in ("single", "plain-5", "eth-5", "plain-7", "eth-7")],
    )
    def test_bound_equals_dense_svd_formula(self, family, label):
        s, noise = _job(family, label, gamma=0.05)
        h = s.hamiltonian
        g = _dense_generator(h, noise)
        jumps = sum(rate * np.max(np.abs(ch.vals)) ** 2 for ch, rate in zip(*noise))
        expected = 2.0 * np.linalg.norm(g, 2) + jumps
        assert _full_generator(h, noise).bound == pytest.approx(expected, rel=1e-12, abs=0)


_ALL_SCENARIOS = pytest.mark.parametrize(
    "family, label",
    [("fig1a", lab) for lab in ("single", "single-reduced", "logical-plain", "logical-eth")]
    + [("fig1b", lab) for lab in ("single", "plain-5", "eth-5", "plain-7", "eth-7")],
)


def _sweep_support(family, label):
    """The support a sweep's Lindblad jobs of this scenario share."""
    from etlab.experiments import _scenario, fig1a_scenarios, fig1b_scenarios

    scenarios = fig1a_scenarios if family == "fig1a" else fig1b_scenarios
    return _scenario(next(s for s in scenarios(0.05, 1.0) if s.label == label)).support


class TestLindbladSupport:
    """rho evolved on the entries it can reach, packed."""

    @_ALL_SCENARIOS
    def test_closed_under_the_generator(self, family, label):
        # the reference generator maps any Hermitian rho on the support to a
        # matrix with no weight off it: products with the zeros off the
        # support are exact zeros
        s, noise = _job(family, label, gamma=0.05)
        support = _sweep_support(family, label)
        rng = np.random.default_rng(43)
        v = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        rho = support.unpack(v)
        rho = rho + rho.conj().T
        out = lindblad_rhs(rho, s.hamiltonian, *noise).reshape(-1)
        off = np.ones(out.size, dtype=bool)
        off[support.flat] = False
        assert np.any(out[support.flat]) and not np.any(out[off])

    @pytest.mark.parametrize(
        "family, label, size",
        [("fig1a", "single", 4), ("fig1a", "logical-plain", 16), ("fig1a", "logical-eth", 16),
         ("fig1b", "single", 6), ("fig1b", "plain-5", 1926), ("fig1b", "eth-5", 2048),
         ("fig1b", "plain-7", 1434), ("fig1b", "eth-7", 2022)],
    )
    def test_support_sizes(self, family, label, size):
        # pinned at gamma = 0.05, as built by a job and as shared by a sweep:
        # a closure that grows back towards d^2 shows here
        s, noise = _job(family, label, gamma=0.05)
        rho0, cfg = pure_density(s.psi0), IntegrationConfig(t_final=0.0)
        res = integrate_lindblad(rho0, s.hamiltonian, *noise, cfg)
        assert res.support_size == _sweep_support(family, label).size == size

    @pytest.mark.parametrize("label", ["plain-5", "eth-7"])
    def test_packed_equals_full_support(self, label):
        # every entry as the support: the dense computation
        s, noise = _job("fig1b", label, gamma=0.05)
        h = s.hamiltonian
        rho0 = pure_density(s.psi0)
        cfg = IntegrationConfig(t_final=s.duration)
        packed = integrate_lindblad(rho0, h, *noise, cfg)
        every = LindbladSupport(h, noise[0], np.ones(h.shape))
        full = integrate_lindblad(rho0, h, *noise, cfg, every)
        assert full.support_size == h.size > packed.support_size
        assert packed.applications == full.applications
        assert np.max(np.abs(packed.final - full.final)) <= 1e-15

    @pytest.mark.parametrize("label", ["plain-7", "eth-7"])
    def test_sweep_support_serves_zero_rate(self, label):
        # at gamma = 0 the site channels are absent and rho reaches a subset
        # of the shared support: 384 entries of it
        s, noise = _job("fig1b", label, gamma=0.0)
        h = s.hamiltonian
        rho0 = pure_density(s.psi0)
        cfg = IntegrationConfig(t_final=s.duration)
        own = integrate_lindblad(rho0, h, *noise, cfg)
        shared = integrate_lindblad(rho0, h, *noise, cfg, _sweep_support("fig1b", label))
        assert own.support_size == 384 < shared.support_size
        assert own.applications == shared.applications
        assert np.max(np.abs(own.final - shared.final)) <= 1e-15

    def test_support_that_does_not_fit_rejected(self):
        h, noise, rho0 = _random_monomial_case()
        diagonal = np.diag(np.diag(h))
        pure = pure_density(basis_state(2, 0))
        cases = [
            # built without one of the jumps
            (h, noise, LindbladSupport(h, noise[0][1:], rho0), "jump 'random' is not one"),
            # built for an H whose states are all apart
            (h, noise, LindbladSupport(diagonal, noise[0], rho0), "H couples states that"),
            # built from another rho0
            (diagonal, _noise(), LindbladSupport(diagonal, (), pure), "entries outside the"),
            (h, noise, LindbladSupport(SZ, (), np.eye(2)), r"mismatch: H \(4, 4\), support"),
        ]
        cfg = IntegrationConfig(t_final=1.0)
        for h_case, noise_case, support, msg in cases:
            with pytest.raises(ValueError, match=msg):
                integrate_lindblad(rho0, h_case, *noise_case, cfg, support)

    def test_hermitize_by_transpose(self):
        support = _sweep_support("fig1b", "eth-7")
        rng = np.random.default_rng(47)
        v = rng.standard_normal(support.size) + 1j * rng.standard_normal(support.size)
        rho = support.unpack(v)
        assert np.array_equal(support.unpack(support.hermitize(v)), 0.5 * (rho + rho.conj().T))


def _stacks(family, grid=None):
    """Each scenario key of a sweep over ``grid`` (the default grid): its
    scenario, its jobs' specs in grid order and their stack input, the
    channels and a row of rates per job, every site channel present, at rate
    0 where gamma is 0."""
    from etlab import experiments as ex

    groups = {}
    grid = ex.default_gamma_grid() if grid is None else grid
    for specs in ex.sweep_specs(family, grid):
        for spec in specs:
            groups.setdefault(ex._key(spec), []).append(spec)
    stacks = []
    for specs in groups.values():
        s = ex._scenario(specs[0])
        rates = np.array([[sp.site_rate] * len(s.sites) + list(s.fixed_rates) for sp in specs])
        stacks.append((s, specs, (s.sites + s.fixed, rates)))
    return stacks


class TestLindbladStack:
    """Every rate of a scenario key as one stacked run, row by row."""

    @pytest.mark.parametrize("dt", [None, 0.1], ids=["exact", "rk4"])
    @pytest.mark.parametrize("family", ["fig1a", "fig1b"])
    def test_rows_equal_one_rate_runs(self, family, dt):
        # each row keeps its own bound, substeps and Taylor stop, so it is
        # its job run alone, to the last bit and in as many applications; a
        # gamma = 0 row holds the site channels at rate 0 and equals the run
        # without them
        for s, specs, (channels, rates) in _stacks(family):
            rho0, cfg = pure_density(s.psi0), IntegrationConfig(dt=dt, t_final=s.duration)
            rows = integrate_lindblad_stack(rho0, s.hamiltonian, channels, rates, cfg, s.support)
            for spec, row in zip(specs, rows, strict=True):
                alone = integrate_lindblad(rho0, s.hamiltonian, *_job_noise(spec), cfg, s.support)
                assert np.array_equal(row.final, alone.final), (spec.label, spec.gamma)
                assert row.applications == alone.applications, (spec.label, spec.gamma)

    @pytest.mark.parametrize("family, label", [("fig1a", "logical-eth"), ("fig1b", "eth-5")])
    def test_rows_beyond_one_block(self, monkeypatch, family, label):
        # rows are propagated in blocks of at most _BLOCK_BYTES of state: two
        # rows a block here, each row still its job run alone
        import etlab.dynamics as dyn

        grid = [0.0, 1e-3, 0.01, 0.05, 0.1]
        [(s, specs, (channels, rates))] = [
            x for x in _stacks(family, grid) if x[1][0].label == label
        ]
        rho0, cfg = pure_density(s.psi0), IntegrationConfig(t_final=s.duration)
        blocks = []
        propagate = dyn._propagate_exact

        def recording(apply, x, rows, *args):
            blocks.append(rows.tolist())
            return propagate(apply, x, rows, *args)

        monkeypatch.setattr(dyn, "_propagate_exact", recording)
        monkeypatch.setattr(dyn, "_BLOCK_BYTES", 2 * 16 * s.support.size)
        rows = list(integrate_lindblad_stack(rho0, s.hamiltonian, channels, rates, cfg, s.support))
        assert blocks == [[0, 1], [2, 3], [4]]
        for spec, row in zip(specs, rows, strict=True):
            alone = integrate_lindblad(rho0, s.hamiltonian, *_job_noise(spec), cfg, s.support)
            assert np.array_equal(row.final, alone.final), spec.gamma
            assert row.applications == alone.applications, spec.gamma

    @staticmethod
    def _unpropagated(monkeypatch):
        """fig1b eth-5's stack input at gamma = 0.05, with both propagators
        replaced by ones that fail: a rejected rate array must stop the run
        before any propagation."""
        import etlab.dynamics as dyn

        def propagate(*args):
            raise AssertionError("a row was propagated")

        monkeypatch.setattr(dyn, "_propagate_exact", propagate)
        monkeypatch.setattr(dyn, "_propagate_rk4", propagate)
        [(s, _, stack)] = [x for x in _stacks("fig1b", [0.05]) if x[1][0].label == "eth-5"]
        return s, *stack

    @pytest.mark.parametrize("dt", [None, 0.01], ids=["exact", "rk4"])
    def test_rate_array_of_other_shape_rejected(self, monkeypatch, dt):
        # a row per job and a column per channel: eth-5 has 7 channels
        s, channels, rates = self._unpropagated(monkeypatch)
        assert rates.shape == (1, 7)
        rho0, cfg = pure_density(s.psi0), IntegrationConfig(dt=dt, t_final=s.duration)
        cases = [np.zeros((0, 7)), rates[0], rates[:, :-1], np.hstack([rates, rates]), rates[None]]
        for bad in cases:
            message = f"rates must be (rows >= 1, 7 channels), got {bad.shape}"
            for support in (s.support, None):
                with pytest.raises(ValueError, match=re.escape(message)):
                    list(integrate_lindblad_stack(rho0, s.hamiltonian, channels, bad, cfg, support))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300, -1.0])
    def test_non_finite_or_negative_rate_rejected(self, monkeypatch, value):
        # every rate in the array is checked, naming the first bad one's row
        # and channel
        s, channels, rates = self._unpropagated(monkeypatch)
        rates = np.tile(rates, (3, 1))
        rates[2, 5] = value
        rates[2, 6] = np.nan  # later in the row, so not the one named
        rho0 = pure_density(s.psi0)
        message = f"row 2: jump 'target-up' has rate {value}; need finite and >= 0"
        assert channels[5].label == "target-up"
        for dt in (None, 0.01):
            cfg = IntegrationConfig(dt=dt, t_final=s.duration)
            for support in (s.support, None):
                stack = integrate_lindblad_stack(rho0, s.hamiltonian, channels, rates, cfg, support)
                with pytest.raises(ValueError, match=re.escape(message)):
                    next(stack)


class TestMinSubsteps:
    """The cap on exact substeps reads the rates alone."""

    @pytest.mark.parametrize("family", ["fig1a", "fig1b"])
    def test_never_above_a_runs_count(self, family):
        # a floor above a run's own count would refuse a sweep that fits
        grid = [0.0, 1e-3, 0.1, 3.0, 1e3, 1e5]
        largest = 0
        for s, specs, (channels, rates) in _stacks(family, grid):
            floor = min_substeps(channels, rates, s.duration)
            bound = _Generator(s.hamiltonian, channels, rates, s.support).bound
            runs = _n_substeps(s.duration, bound)
            assert floor.shape == (len(specs),) and np.all(floor <= runs), specs[0].label
            largest = max(largest, floor.max())
        # the grid reaches past the cap that a sweep applies
        assert largest > MAX_STEPS

    def test_jump_part_alone(self):
        # ceil(t * sum_k rate_k max|vals_k|^2 / theta): sigma- scaled by 2
        # on two sites at 1.0 and 0.5 give 4 * 1.5 per unit time
        channels = site_channels(2, 2.0 * SIGMA_MINUS, "d")
        floor = min_substeps(channels, [[1.0, 0.5], [0.0, 0.0], [2.0, 2.0]], 10.0)
        assert floor.tolist() == [int(np.ceil(60.0 / _TAYLOR_THETA)), 1, 40]
        with pytest.raises(ValueError, match="row 0: jump 'd1' has rate -1.0"):
            min_substeps(channels, [[1.0, -1.0]], 1.0)


class TestOneStepPropagator:
    """The scaled-Taylor exp(G dt) that MC steps with, against scipy's expm."""

    @pytest.mark.parametrize(
        "family, label", [("fig1a", "logical-eth"), ("fig1b", "eth-5"), ("fig1b", "eth-7")]
    )
    def test_matches_scipy_on_scenarios(self, family, label):
        s, noise = _job(family, label, gamma=0.05)
        g = _dense_generator(s.hamiltonian, noise)
        t = s.duration
        for dt in (default_timestep(1.0, max(noise[1])), t / 128):
            a = g * (t / max(1, round(t / dt)))
            assert np.max(np.abs(_expm(a[None])[0] - expm(a))) <= 1e-14

    def test_several_substeps_match_scipy(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a *= 20.0 / np.linalg.norm(a, 2)
        assert _n_substeps(1.0, _spectral_norm(a[None])[0]) >= 2
        expected = expm(a)
        assert np.max(np.abs(_expm(a[None])[0] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_term_cap_raises(self, monkeypatch):
        import etlab.dynamics as dyn

        monkeypatch.setattr(dyn, "_TAYLOR_MAX_TERMS", 2)
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 1.0))
        with pytest.raises(TrajectoryError, match="did not converge in 2 terms"):
            mc_trajectories(
                basis_state(1, 0), SZ, *noise, 1.0, [P0],
                TrajectoryConfig(n_traj=10, seed=0, dt=0.1),
            )


def _mc_stack(family, grid=None, n_traj=300):
    """Each scenario key of a Monte Carlo sweep over ``grid`` (the default
    grid), with ``n_traj`` trajectories a job on the default step: its
    scenario, its jobs' specs, and the stack input (channels, rates,
    configs), each job with its sweep seed."""
    from etlab import experiments as ex

    stacks = []
    for s, specs, stack in _stacks(family, grid):
        seeds = [ex._job_seed(ex.DEFAULT_SEED, 0, b) for b in range(len(specs))]
        steps = [ex._job_step(spec, "mc", None) for spec in specs]
        configs = [TrajectoryConfig(n_traj, seed, dt) for seed, dt in zip(seeds, steps)]
        stacks.append((s, specs, (*stack, configs)))
    return stacks


class TestMcStack:
    """Every rate of a scenario key as one stacked Monte Carlo run."""

    @pytest.mark.parametrize("family", ["fig1a", "fig1b"])
    def test_rows_equal_one_rate_runs(self, family):
        # each row keeps its own u_step bound, substeps and tail test, its
        # seed and its step, so it is its job run alone, to the last bit; a
        # gamma = 0 row holds the site channels at rate 0 and equals the run
        # without them
        jumpers = 0
        for s, specs, (channels, rates, configs) in _mc_stack(family, n_traj=200):
            obs = [s.observable]
            rows = mc_trajectories_stack(
                s.psi0, s.hamiltonian, channels, rates, s.duration, obs, configs
            )
            for spec, config, row in zip(specs, configs, rows, strict=True):
                noise = _job_noise(spec)
                alone = mc_trajectories(s.psi0, s.hamiltonian, *noise, s.duration, obs, config)
                assert np.array_equal(row.means, alone.means), (spec.label, spec.gamma)
                assert np.array_equal(row.stderrs, alone.stderrs), (spec.label, spec.gamma)
                assert (row.jumpers, row.jumps) == (alone.jumpers, alone.jumps), spec.label
                jumpers += row.jumpers
        assert jumpers > 0

    def test_all_zero_row_draws_nothing(self, monkeypatch):
        # fig1a at gamma = 0 has every rate 0: its rows are deterministic,
        # with stderr exactly 0, and never create a generator, while the
        # rows beside them in the stack draw as they would alone
        seeds = []
        default_rng = np.random.default_rng

        def recording(seed):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording)
        for s, specs, (channels, rates, configs) in _mc_stack("fig1a", [0.0, 0.05]):
            rows = list(mc_trajectories_stack(
                s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs
            ))
            for spec, config, row in zip(specs, configs, rows, strict=True):
                drew = config.seed in seeds
                if spec.gamma == 0:
                    assert not drew and not rates[specs.index(spec)].any()
                    assert row.stderrs[0] == 0.0 and (row.jumpers, row.jumps) == (0, 0)
                else:
                    assert drew and row.stderrs[0] > 0, spec.label

    @staticmethod
    def _unpropagated(monkeypatch):
        """fig1b eth-5's stack input at gamma = 0.05, with the exponential and
        the trajectories replaced by ones that fail: a rejected rate array
        must stop the run before any propagation."""
        import etlab.dynamics as dyn

        def propagate(*args):
            raise AssertionError("a row was propagated")

        monkeypatch.setattr(dyn, "_expm", propagate)
        monkeypatch.setattr(dyn, "_trajectories", propagate)
        [(s, _, stack)] = [x for x in _mc_stack("fig1b", [0.05]) if x[1][0].label == "eth-5"]
        return s, *stack

    def test_rate_array_of_other_shape_rejected(self, monkeypatch):
        s, channels, rates, configs = self._unpropagated(monkeypatch)
        assert rates.shape == (1, 7)
        cases = [np.zeros((0, 7)), rates[0], rates[:, :-1], np.hstack([rates, rates]), rates[None]]
        for bad in cases:
            message = f"rates must be (rows >= 1, 7 channels), got {bad.shape}"
            stack = mc_trajectories_stack(
                s.psi0, s.hamiltonian, channels, bad, s.duration, [s.observable], configs
            )
            with pytest.raises(ValueError, match=re.escape(message)):
                next(stack)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300, -1.0])
    def test_non_finite_or_negative_rate_rejected(self, monkeypatch, value):
        # the Lindblad stack's check, naming the first bad rate's row and
        # channel
        s, channels, rates, configs = self._unpropagated(monkeypatch)
        rates = np.tile(rates, (3, 1))
        rates[2, 5] = value
        rates[2, 6] = np.nan
        message = f"row 2: jump 'target-up' has rate {value}; need finite and >= 0"
        stack = mc_trajectories_stack(
            s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs * 3
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            next(stack)

    def test_config_per_row_required(self, monkeypatch):
        s, channels, rates, configs = self._unpropagated(monkeypatch)
        stack = mc_trajectories_stack(
            s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs * 2
        )
        with pytest.raises(ValueError, match="need a config per row of rates: 2 for 1"):
            next(stack)

    @pytest.mark.parametrize("n_rows", [1, 6])
    def test_hamiltonian_and_observable_checked_once(self, monkeypatch, n_rows):
        # the checks that do not depend on the rates run once per stack,
        # however many rows it has, and so does the component search
        import etlab.dynamics as dyn

        calls = {"require_hermitian": 0, "_component_labels": 0}
        for name in calls:
            original = getattr(dyn, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dyn, name, counted)
        grid = [0.0, 1e-3, 0.01, 0.02, 0.05, 0.1][:n_rows]
        [(s, _, (channels, rates, configs))] = [
            x for x in _mc_stack("fig1b", grid, n_traj=20) if x[1][0].label == "eth-5"
        ]
        rows = mc_trajectories_stack(
            s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs
        )
        assert len(list(rows)) == n_rows
        assert calls == {"require_hermitian": 2, "_component_labels": 1}

    def test_failure_names_its_row(self, monkeypatch):
        # the norm check of the third row's u_step fails: the stack raises
        # with that row's index, after yielding the rows before it
        import etlab.dynamics as dyn

        expm = dyn._expm

        def growing(a):
            u = expm(a)
            u[2] *= 1.001
            return u

        monkeypatch.setattr(dyn, "_expm", growing)
        [(s, _, (channels, rates, configs))] = [
            x for x in _mc_stack("fig1b", [0.0, 0.01, 0.05], n_traj=20) if x[1][0].label == "eth-5"
        ]
        rows = mc_trajectories_stack(
            s.psi0, s.hamiltonian, channels, rates, s.duration, [s.observable], configs
        )
        assert len([next(rows), next(rows)]) == 2
        with pytest.raises(TrajectoryError, match="no-jump norm increased") as info:
            next(rows)
        assert info.value.row == 2


def _reference_values(psi0, h, noise, t_final, obs, cfg):
    """Plain quantum-jump stepper, one step at a time, drawing in the
    engine's order from one generator: every trajectory's threshold first;
    then the trajectories that jump, in index order, in blocks of as many
    columns as the engine's byte budget holds, each block in rounds: every
    live trajectory's channel draw, then every live trajectory's next
    threshold.  Returns each trajectory's <obs> and its number of jumps."""
    import etlab.dynamics as dyn

    n_steps = max(1, round(t_final / cfg.dt))
    jumps = [(ch.matrix, rate) for ch, rate in zip(*noise)]
    decay = sum(rate * (l.conj().T @ l) for l, rate in jumps)
    u_step = expm((-1j * h - 0.5 * decay) * (t_final / n_steps))

    def follow(psi, step, threshold):
        """Step psi until its norm falls to the threshold or t_final; returns
        the state, its step and whether it crossed."""
        while step < n_steps:
            psi, step = u_step @ psi, step + 1
            if np.vdot(psi, psi).real <= threshold:
                return psi, step, True
        return psi, step, False

    def value(psi):
        psi = psi / np.linalg.norm(psi)
        return np.vdot(psi, obs @ psi).real

    rng = np.random.default_rng(cfg.seed)
    thresholds = rng.random(cfg.n_traj)
    values, n_jumps = np.empty(cfg.n_traj), np.zeros(cfg.n_traj, dtype=int)
    pending = {}
    for i in range(cfg.n_traj):
        psi, step, crossed = follow(np.asarray(psi0, dtype=complex), 0, thresholds[i])
        if crossed:
            pending[i] = psi, step
        else:
            values[i] = value(psi)
    width = max(1, dyn._BLOCK_BYTES // (16 * len(psi0)))
    order = sorted(pending)
    for start in range(0, len(order), width):
        live = order[start : start + width]
        while live:
            draws = [rng.random() for _ in live]
            next_thresholds = [rng.random() for _ in live]
            crossed_again = []
            for i, u, threshold in zip(live, draws, next_thresholds):
                psi, step = pending[i]
                weights = [rate * np.linalg.norm(l @ psi) ** 2 for l, rate in jumps]
                u *= sum(weights)
                k = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), len(jumps) - 1)
                psi = jumps[k][0] @ psi
                psi = psi / np.linalg.norm(psi)
                n_jumps[i] += 1
                psi, step, crossed = follow(psi, step, threshold)
                if crossed:
                    pending[i] = psi, step
                    crossed_again.append(i)
                else:
                    values[i] = value(psi)
            live = crossed_again
    return values, n_jumps


def _reference_trajectories(psi0, h, noise, t_final, obs, cfg):
    """(mean, stderr) of <obs> from :func:`_reference_values`."""
    values, _ = _reference_values(psi0, h, noise, t_final, obs, cfg)
    return np.mean(values), np.std(values, ddof=1) / np.sqrt(len(values))


class TestMcTrajectories:
    def test_no_noise_matches_unitary_with_zero_stderr(self):
        omega = 0.9
        psi0 = normalize(np.array([1.0, 1.0]))
        res = mc_trajectories(
            psi0,
            omega * SZ,
            *_noise(),
            1.3,
            [P0],
            TrajectoryConfig(n_traj=50, seed=1, dt=1e-3),
        )
        from etlab.qcore import evolve_unitary

        expected = abs(np.vdot(basis_state(1, 0), evolve_unitary(omega * SZ, 1.3, psi0))) ** 2
        assert res.stderrs[0] == 0.0
        assert res.means[0] == pytest.approx(expected, abs=1e-10)

    def test_no_jumps_give_exactly_zero_stderr(self):
        # eth-7 at gamma = 0 has zero-rate channels: thresholds are drawn but
        # no trajectory jumps, so every one returns the same value
        from etlab.experiments import fig1b_scenarios, run_scenario

        spec = fig1b_scenarios(0.0, 1.0)[3]
        assert spec.label == "eth-7"
        _, stderr = run_scenario(spec, method="mc", n_traj=200, seed=1)
        assert stderr == 0.0

    def test_analytic_x_noise_within_three_stderr(self):
        gamma = 1.0
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), gamma))
        res = mc_trajectories(
            basis_state(1, 0),
            np.zeros((2, 2)),
            *noise,
            1.0,
            [P0],
            TrajectoryConfig(n_traj=2000, seed=8, dt=5e-4),
        )
        exact = (1 + np.exp(-2)) / 2
        assert abs(res.means[0] - exact) <= 3 * res.stderrs[0]

    def test_same_seed_bitwise_identical(self):
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 0.8))
        cfg = TrajectoryConfig(n_traj=300, seed=42, dt=1e-3)
        a = mc_trajectories(basis_state(1, 0), SZ, *noise, 1.0, [P0], cfg)
        b = mc_trajectories(basis_state(1, 0), SZ, *noise, 1.0, [P0], cfg)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.stderrs, b.stderrs)

    def test_engines_agree(self):
        # same seeds -> same jump decisions -> near-identical estimates as a
        # plain one-trajectory-at-a-time stepper
        noise = _noise(
            (NoiseChannel.from_matrix(SX, "X"), 0.6),
            (NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 0.4),
        )
        h = 0.8 * SZ
        psi0 = normalize(np.array([1.0, 1.0]))
        cfg = TrajectoryConfig(n_traj=800, seed=33, dt=2e-3)
        a = mc_trajectories(psi0, h, *noise, 1.5, [P0], cfg)
        mean, stderr = _reference_trajectories(psi0, h, noise, 1.5, P0, cfg)
        assert a.means[0] == pytest.approx(mean, abs=1e-9)
        assert a.stderrs[0] == pytest.approx(stderr, abs=1e-9)

    def test_engines_agree_multiqubit_damping(self):
        noise = _noise((site_channels(2, SIGMA_MINUS, "d"), 0.7))
        h = np.kron(SX, SX).astype(complex) * 0.5
        psi0 = basis_state(2, 3)
        cfg = TrajectoryConfig(n_traj=400, seed=77, dt=5e-3)
        obs = np.kron(P0, np.eye(2)).astype(complex)
        a = mc_trajectories(psi0, h, *noise, 2.0, [obs], cfg)
        mean, stderr = _reference_trajectories(psi0, h, noise, 2.0, obs, cfg)
        assert a.means[0] == pytest.approx(mean, abs=1e-9)
        assert a.stderrs[0] == pytest.approx(stderr, abs=1e-9)

    @pytest.mark.parametrize(
        "noise, h, t_final, dt",
        [
            # sigma- at 2.0 and sigma+ at 1.0 on each qubit: one of the two is
            # always active, so a trajectory jumps 4 to 8 times on average
            (
                _noise((site_channels(2, SIGMA_MINUS, "d"), 2.0),
                       (site_channels(2, SIGMA_PLUS, "u"), 1.0)),
                np.kron(SX, SX).astype(complex) * 0.5,
                2.0,
                5e-3,
            ),
            # 127 steps: every bit of the ladder is set
            (_noise((site_channels(2, SX, "X"), 0.6)), np.kron(SZ, SX), 1.27, 1e-2),
            # 128 steps: the top power spans the whole duration
            (_noise((site_channels(2, SX, "X"), 0.6)), np.kron(SZ, SX), 1.28, 1e-2),
            # a single step: every jump lands on the final step
            (_noise((site_channels(2, SX, "X"), 0.6)), np.kron(SZ, SX), 1.0, 1.0),
            # a random permutation with entries of random phase and modulus
            (
                _noise(
                    (NoiseChannel.from_matrix(_random_monomial(4, seed=23), "random"), 0.8),
                    (site_channels(2, SIGMA_MINUS, "d"), 0.5),
                ),
                np.kron(SZ, SX),
                1.5,
                1e-2,
            ),
        ],
        ids=["many-jumps", "127-steps", "128-steps", "one-step", "random-monomial"],
    )
    def test_engine_matches_reference_stepper(self, noise, h, t_final, dt):
        psi0 = np.kron(normalize(np.array([1.0, 1.0])), basis_state(1, 1))
        # both qubits: under kron(SZ, SX) and X noise qubit 0's population
        # alone stays exactly 1/2 in every trajectory
        obs = np.kron(P0, P0).astype(complex)
        cfg = TrajectoryConfig(n_traj=300, seed=61, dt=dt)
        a = mc_trajectories(psi0, h, *noise, t_final, [obs], cfg)
        mean, stderr = _reference_trajectories(psi0, h, noise, t_final, obs, cfg)
        assert a.stderrs[0] > 0
        assert a.means[0] == pytest.approx(mean, abs=1e-9)
        assert a.stderrs[0] == pytest.approx(stderr, abs=1e-9)

    def test_weighted_monomial_jumps_match_reference_stepper(self):
        # monomial jumps whose entries are not of unit modulus, so the
        # channel weights rate |vals|^2 differ from rate |vals|
        skew = np.array([[0, 2.0], [0.5j, 0]])
        noise = _noise(
            (site_channels(2, skew, "s"), 0.7), (site_channels(2, 0.3 * SIGMA_MINUS, "d"), 1.5)
        )
        h = np.kron(SZ, SX)
        psi0 = np.kron(normalize(np.array([1.0, 1.0])), basis_state(1, 1))
        obs = np.kron(P0, np.eye(2)).astype(complex)
        cfg = TrajectoryConfig(n_traj=300, seed=62, dt=1e-2)
        a = mc_trajectories(psi0, h, *noise, 1.5, [obs], cfg)
        mean, stderr = _reference_trajectories(psi0, h, noise, 1.5, obs, cfg)
        assert a.jumps > a.jumpers > 0
        assert a.means[0] == pytest.approx(mean, abs=1e-9)
        assert a.stderrs[0] == pytest.approx(stderr, abs=1e-9)

    def test_fig1b_eth7_matches_reference_stepper(self):
        # d = 256 with one 16-state and fourteen 8-state components, on the
        # fig1b Monte Carlo step of tau/128
        s, noise = _job("fig1b", "eth-7", gamma=0.1)
        h, t, obs = s.hamiltonian, s.duration, s.observable
        cfg = TrajectoryConfig(n_traj=100, seed=71, dt=t / 128)
        a = mc_trajectories(s.psi0, h, *noise, t, [obs], cfg)
        values, n_jumps = _reference_values(s.psi0, h, noise, t, obs, cfg)
        assert a.jumpers == np.count_nonzero(n_jumps) > 0
        assert a.jumps == n_jumps.sum()
        assert a.means[0] == pytest.approx(np.mean(values), abs=1e-9)
        assert a.stderrs[0] == pytest.approx(np.std(values, ddof=1) / np.sqrt(100), abs=1e-9)

    def test_jump_counts_match_reference_stepper(self):
        # the many-jumps case: both counts equal the reference stepper's, and
        # a second run reports the same counts
        noise = _noise(
            (site_channels(2, SIGMA_MINUS, "d"), 2.0), (site_channels(2, SIGMA_PLUS, "u"), 1.0)
        )
        h = np.kron(SX, SX).astype(complex) * 0.5
        psi0 = np.kron(normalize(np.array([1.0, 1.0])), basis_state(1, 1))
        obs = np.kron(P0, np.eye(2)).astype(complex)
        cfg = TrajectoryConfig(n_traj=300, seed=61, dt=5e-3)
        a = mc_trajectories(psi0, h, *noise, 2.0, [obs], cfg)
        _, n_jumps = _reference_values(psi0, h, noise, 2.0, obs, cfg)
        assert a.jumpers == np.count_nonzero(n_jumps) > 0
        assert a.jumps == n_jumps.sum() > a.jumpers
        b = mc_trajectories(psi0, h, *noise, 2.0, [obs], cfg)
        assert (b.jumpers, b.jumps) == (a.jumpers, a.jumps)

    def test_multi_block_order_matches_reference_stepper(self, monkeypatch):
        # the many-jumps case with blocks of 3 columns: 300 trajectories
        # take about 100 blocks, each drawing in its own rounds
        import etlab.dynamics as dyn

        monkeypatch.setattr(dyn, "_BLOCK_BYTES", 3 * 4 * 16)
        noise = _noise(
            (site_channels(2, SIGMA_MINUS, "d"), 2.0), (site_channels(2, SIGMA_PLUS, "u"), 1.0)
        )
        h = np.kron(SX, SX).astype(complex) * 0.5
        psi0 = np.kron(normalize(np.array([1.0, 1.0])), basis_state(1, 1))
        obs = np.kron(P0, np.eye(2)).astype(complex)
        cfg = TrajectoryConfig(n_traj=300, seed=61, dt=5e-3)
        a = mc_trajectories(psi0, h, *noise, 2.0, [obs], cfg)
        values, n_jumps = _reference_values(psi0, h, noise, 2.0, obs, cfg)
        assert a.jumpers == np.count_nonzero(n_jumps) > 3
        assert a.jumps == n_jumps.sum()
        assert a.means[0] == pytest.approx(np.mean(values), abs=1e-9)
        assert a.stderrs[0] == pytest.approx(np.std(values, ddof=1) / np.sqrt(300), abs=1e-9)

    def test_no_channels_report_no_jumps(self):
        res = mc_trajectories(
            basis_state(1, 0), SZ, *_noise(), 1.0, [P0],
            TrajectoryConfig(n_traj=20, seed=1, dt=1e-2),
        )
        assert (res.jumpers, res.jumps) == (0, 0)

    def test_jumps_leave_numpy_ma_unimported(self):
        # numpy.ma costs each new worker process about 10 ms; np.unique imports it
        code = (
            "import sys; import numpy as np; from etlab.dynamics import *; "
            "sx = np.array([[0, 1], [1, 0]], dtype=complex); "
            "x = [NoiseChannel.from_matrix(sx, 'X')]; "
            "res = mc_trajectories(np.array([1, 0], dtype=complex), np.zeros((2, 2)), x, [1.0], "
            "1.0, [np.eye(2)], TrajectoryConfig(n_traj=50, seed=1, dt=0.01)); "
            "print(res.jumps > 0, 'numpy.ma' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.split() == ["True", "False"]

    def test_norm_checks_pass(self):
        noise = _noise((NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 0.6))
        mc_trajectories(
            basis_state(1, 1),
            SZ,
            *noise,
            2.0,
            [P0],
            TrajectoryConfig(n_traj=200, seed=3, dt=1e-3),
        )

    def test_norm_check_fires_on_growing_propagator(self, monkeypatch):
        import etlab.dynamics as dyn

        monkeypatch.setattr(dyn, "_expm", lambda a: 1.001 * expm(a))
        noise = _noise((NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 0.6))
        with pytest.raises(TrajectoryError, match="no-jump norm increased"):
            mc_trajectories(
                basis_state(1, 1), SZ, *noise, 2.0, [P0],
                TrajectoryConfig(n_traj=20, seed=3, dt=1e-3),
            )

    def test_norm_check_fires_after_a_jump(self, monkeypatch):
        # |0> decays, so the backbone passes its check; the jump lands on |1>,
        # which the doctored propagator grows by 1.001 per step.  G is
        # diagonal, so the propagator is its stack of two 1 x 1 components
        import etlab.dynamics as dyn

        monkeypatch.setattr(dyn, "_expm", lambda a: np.array([0.99, 1.001]).reshape(2, 1, 1))
        noise = _noise((NoiseChannel.from_matrix(SIGMA_PLUS, "u"), 1.0))
        with pytest.raises(TrajectoryError, match="no-jump norm increased between steps"):
            mc_trajectories(
                basis_state(1, 0), SZ, *noise, 1.0, [P0],
                TrajectoryConfig(n_traj=200, seed=3, dt=1e-2),
            )

    def test_norm_check_fires_on_one_column_of_a_block(self, monkeypatch):
        # the doctored propagator swaps |0> and |1> while damping both, so
        # from psi0 = |0> a first jump lands on |2>, which decays, from an
        # even step and on |3>, which grows by 1.001 per step, from an odd
        # one; at seed 14 five of the eight trajectories jump, all in one
        # block, and only the last of them from an odd step
        import etlab.dynamics as dyn

        # H couples |0> and |1> into one component, and |2> and |3> are
        # singletons; the doctored propagator acts on each stack of one row
        # by its shape
        h = np.zeros((4, 4))
        h[0, 1] = h[1, 0] = 1.0
        swap = np.array([[[[0, 0.99], [0.99, 0]]]], dtype=complex)
        diag = np.array([1.0, 1.0, 0.9, 1.001], dtype=complex).reshape(1, 4, 1, 1)
        monkeypatch.setattr(dyn, "_expm", lambda a: swap if a.shape == (1, 1, 2, 2) else diag)
        to_2, to_3 = np.zeros((4, 4)), np.zeros((4, 4))
        to_2[2, 0] = to_3[3, 1] = 1.0
        noise = _noise(
            (NoiseChannel.from_matrix(to_2, "a"), 1.0), (NoiseChannel.from_matrix(to_3, "b"), 1.0)
        )
        thresholds = np.random.default_rng(14).random(8)
        norms2 = 0.99 ** (2 * np.arange(1, 21))
        first = [np.argmax(norms2 <= t) + 1 for t in thresholds if t >= norms2[-1]]
        assert [s % 2 for s in first] == [0, 0, 0, 0, 1]
        with pytest.raises(TrajectoryError, match="no-jump norm increased between steps"):
            mc_trajectories(
                basis_state(2, 0), h, *noise, 1.0, [np.eye(4)],
                TrajectoryConfig(n_traj=8, seed=14, dt=0.05),
            )

    @pytest.mark.parametrize("t_final", [-1.0, float("nan"), float("inf")])
    def test_bad_t_final_rejected(self, t_final):
        noise = _noise((NoiseChannel.from_matrix(SX, "X"), 0.5))
        with pytest.raises(ValueError, match="t_final must be finite and nonnegative"):
            mc_trajectories(
                basis_state(1, 0), SZ, *noise, t_final, [P0],
                TrajectoryConfig(n_traj=2, seed=0, dt=0.1),
            )

    def test_nonfinite_observable_rejected(self):
        # a NaN observable used to give a NaN mean without a word
        with pytest.raises(ValueError, match="observable 1 has non-finite entries"):
            mc_trajectories(
                basis_state(1, 0), SZ, *_noise(), 1.0, [P0, np.full((2, 2), np.nan)],
                TrajectoryConfig(n_traj=2, seed=0, dt=0.1),
            )

    def test_non_hermitian_observable_rejected(self):
        # an observable was scored as the real part of <psi|O|psi>, so a
        # non-Hermitian one gave a number without a word
        with pytest.raises(ValueError, match="observable 1 is not Hermitian"):
            mc_trajectories(
                normalize(np.array([1.0, 1.0])), SZ, *_noise(), 1.0, [P0, SIGMA_MINUS],
                TrajectoryConfig(n_traj=2, seed=0, dt=0.1),
            )

    def test_non_square_hamiltonian_named(self):
        # a (2, 3) H used to be reported as an observable's dimension mismatch
        msg = r"Hamiltonian must be a square matrix, got shape \(2, 3\)"
        with pytest.raises(ValueError, match=msg):
            mc_trajectories(
                basis_state(1, 0), np.zeros((2, 3)), *_noise(), 1.0, [P0],
                TrajectoryConfig(n_traj=2, seed=0, dt=0.1),
            )

    def test_observable_dimension_mismatch_rejected(self):
        # a two-qubit observable with a one-qubit H used to fail after the
        # backbone was built, with numpy's bare matmul error
        with pytest.raises(
            ValueError, match=r"dimension mismatch: observable 1 \(4, 4\), H \(2, 2\)"
        ):
            mc_trajectories(
                basis_state(1, 0), SZ, *_noise((NoiseChannel.from_matrix(SX, "X"), 0.5)), 1.0,
                [P0, np.eye(4)], TrajectoryConfig(n_traj=2, seed=0, dt=0.1),
            )

    def test_damping_reaches_ground(self):
        noise = _noise((NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 2.0))
        res = mc_trajectories(
            basis_state(1, 1),
            np.zeros((2, 2)),
            *noise,
            4.0,
            [P0],
            TrajectoryConfig(n_traj=500, seed=10, dt=1e-3),
        )
        assert res.means[0] > 0.99

    def test_zero_total_jump_rate_signals(self, monkeypatch):
        # jump operator annihilates the only populated level while a fake
        # decay term still drags the norm down
        noise = _noise((NoiseChannel.from_matrix(SIGMA_MINUS, "d"), 1.0))
        h = np.zeros((2, 2), dtype=complex)
        gen = [(noise[0][0].matrix, 1.0)]
        psi = basis_state(1, 0)  # sigma_minus annihilates |0>
        weights = np.array([rate * np.linalg.norm(l @ psi) ** 2 for l, rate in gen])
        assert weights.sum() == 0  # precondition for the guard
        # drive the guard through the public API: threshold crossing with an
        # annihilated state cannot happen dynamically, so every draw of the
        # run's generator is an impossible threshold that forces a 'jump'
        class FakeRng:
            def random(self, size=None):
                return 1.1 if size is None else np.full(size, 1.1)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: FakeRng())
        with pytest.raises(TrajectoryError, match="zero rate"):
            mc_trajectories(psi, h, *noise, 0.5, [P0], TrajectoryConfig(n_traj=1, seed=0, dt=0.1))

    def test_mc_agrees_with_lindblad_two_qubit(self):
        noise = _noise((site_channels(2, SX, "X"), 0.6))
        h = np.kron(SZ, np.eye(2)).astype(complex)
        psi0 = np.kron(normalize(np.array([1.0, 1.0])), basis_state(1, 0))
        obs = pure_density(psi0)
        cfg_l = IntegrationConfig(dt=1e-3, t_final=1.0)
        lres = integrate_lindblad(pure_density(psi0), h, *noise, cfg_l)
        p_l = np.trace(lres.final @ obs).real
        mres = mc_trajectories(
            psi0, h, *noise, 1.0, [obs], TrajectoryConfig(n_traj=3000, seed=21, dt=1e-3)
        )
        assert abs(mres.means[0] - p_l) <= 4 * mres.stderrs[0]

    def test_strong_noise_fig1b_eth5_agrees_with_lindblad(self):
        # gamma/omega = 1, ten times the top of the default grid
        from etlab.experiments import fig1b_scenarios, run_scenario

        spec = next(s for s in fig1b_scenarios(1.0, 1.0) if s.label == "eth-5")
        p_l, _ = run_scenario(spec, method="lindblad")
        p_m, se = run_scenario(spec, method="mc", n_traj=400, seed=515)
        assert se > 0
        assert abs(p_m - p_l) <= 4 * se

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrajectoryConfig(n_traj=0, seed=1, dt=0.1)
        with pytest.raises(ValueError):
            TrajectoryConfig(n_traj=10, seed=-1, dt=0.1)
        TrajectoryConfig(n_traj=np.int64(10), seed=np.uint64(2**63), dt=0.1)  # numpy ints pass
        TrajectoryConfig(n_traj=MAX_TRAJECTORIES, seed=0, dt=0.1)
        message = rf"n_traj must be in \[1, {MAX_TRAJECTORIES}\], got {MAX_TRAJECTORIES + 1}"
        with pytest.raises(ValueError, match=message):
            TrajectoryConfig(n_traj=MAX_TRAJECTORIES + 1, seed=0, dt=0.1)
        with pytest.raises(ValueError):
            IntegrationConfig(dt=-0.1, t_final=1.0)
