"""Invariant suites: the registry that ``etlab verify`` runs.

:data:`CHECKS` is an ordered list of (name, check) pairs.  A check raises
:class:`CheckFailure` (or any exception) to fail and returns a short detail
string on success; ``etlab verify`` times each one, reports an exception as
a FAIL and exits 3 if any fails.  The registry is ordered so the cheap
algebraic checks run before the simulation-heavy ones; ``etlab verify``
takes 2.8 s wall on 2 vCPUs (median of 3 runs).  Each check is the one
body of its invariant: ``tests/test_checks.py`` runs every entry of
:data:`CHECKS` as a test, and the acceptance criteria that share an
invariant call its check.
"""

from __future__ import annotations

import numpy as np

from . import codes, eth, experiments, output
from .dynamics import (
    IntegrationConfig,
    NoiseChannel,
    TrajectoryConfig,
    integrate_lindblad,
    mc_trajectories,
    site_channels,
)
from .qcore import (
    PAULI_MATS,
    PauliString,
    anticommutes,
    basis_state,
    evolve_unitary,
    fidelity,
    normalize,
    pauli_action,
    pauli_decompose,
    pauli_mul,
    pure_density,
    to_dense,
)

__all__ = ["CheckFailure", "CHECKS"]

_FIG1B_MC_DT = np.pi / 2 / 128


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


def _random_pauli(rng: np.random.Generator, n: int) -> PauliString:
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    phase = [1, -1, 1j, -1j][rng.integers(4)]
    return PauliString(letters, phase)


def check_pauli_closure() -> str:
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(1, 8))
        p, q = _random_pauli(rng, n), _random_pauli(rng, n)
        dev = np.max(np.abs(to_dense(pauli_mul(p, q)) - to_dense(p) @ to_dense(q)))
        worst = max(worst, float(dev))
        v = rng.standard_normal((2**n, 2)) + 1j * rng.standard_normal((2**n, 2))
        _require(
            np.array_equal(pauli_action(p, v), to_dense(p) @ v),
            f"signed-permutation action of {p!r} differs from its dense matrix",
        )
    _require(worst <= 1e-12, f"group closure violated: {worst:.3e}")
    return f"max deviation {worst:.1e} over 120 random products; action = dense exactly"


def check_decompose_roundtrip() -> str:
    rng = np.random.default_rng(7)
    worst_rec, worst_imag = 0.0, 0.0
    for n in (1, 2, 3, 4):
        d = 2**n
        for _ in range(4):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            a = a + a.conj().T
            terms = pauli_decompose(a)
            rec = sum(c * to_dense(p) for c, p in terms)
            worst_rec = max(worst_rec, float(np.max(np.abs(rec - a))))
            worst_imag = max(worst_imag, max(abs(c.imag) for c, _ in terms))
    _require(worst_rec <= 1e-10, f"reconstruction off by {worst_rec:.3e}")
    _require(worst_imag <= 1e-10, f"Hermitian input gave complex coefficient {worst_imag:.3e}")
    return f"reconstruction {worst_rec:.1e}, coefficient imag {worst_imag:.1e}"


def check_unitary_evolution() -> str:
    rng = np.random.default_rng(11)
    worst_norm, worst_comp = 0.0, 0.0
    for _ in range(10):
        d = 2 ** int(rng.integers(1, 4))
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = h + h.conj().T
        psi = normalize(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        t1, t2 = rng.uniform(0, 2, size=2)
        a = evolve_unitary(h, t1 + t2, psi)
        b = evolve_unitary(h, t1, evolve_unitary(h, t2, psi))
        worst_comp = max(worst_comp, float(np.linalg.norm(a - b)))
        worst_norm = max(worst_norm, abs(np.linalg.norm(a) - 1.0))
    _require(worst_norm <= 1e-10, f"norm drift {worst_norm:.3e}")
    _require(worst_comp <= 1e-10, f"composition violated by {worst_comp:.3e}")
    return f"norm {worst_norm:.1e}, composition {worst_comp:.1e}"


def _code_table(*names: str) -> list[tuple[codes.StabilizerCode, tuple[PauliString, ...]]]:
    """(code, designed error set) for the named built-in codes, all by default."""
    built = [codes.build_code(name) for name in names or codes.DESIGNED_KINDS]
    return [(code, codes.error_set(code, codes.DESIGNED_KINDS[code.name])) for code in built]


def check_code_structure() -> str:
    for code, _ in _code_table():
        gens = code.generators
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                _require(not anticommutes(g, h), f"{code.name}: generators do not commute")
            _require(not anticommutes(code.logical_x, g), f"{code.name}: X-bar clashes")
            _require(not anticommutes(code.logical_z, g), f"{code.name}: Z-bar clashes")
        _require(anticommutes(code.logical_x, code.logical_z), f"{code.name}: logicals commute")
        _require(abs(np.linalg.norm(code.codeword0) - 1) < 1e-10, f"{code.name}: cw0 norm")
        _require(abs(np.linalg.norm(code.codeword1) - 1) < 1e-10, f"{code.name}: cw1 norm")
        _require(
            abs(np.vdot(code.codeword0, code.codeword1)) < 1e-10,
            f"{code.name}: codewords not orthogonal",
        )
        for g in gens:
            for cw in (code.codeword0, code.codeword1):
                _require(
                    np.linalg.norm(pauli_action(g, cw) - cw) < 1e-10,
                    f"{code.name}: codeword not stabilized by {g!r}",
                )
        mapped = pauli_action(code.logical_x, code.codeword0)
        overlap = abs(np.vdot(code.codeword1, mapped))
        _require(abs(overlap - 1) < 1e-10, f"{code.name}: X-bar does not map cw0 to cw1")
    return "3 codes: commutation, orthonormality, stabilization, logical action"


def check_syndromes() -> str:
    for code, es in _code_table():
        syn = [codes.syndrome(code, e) for e in es]
        _require(len(set(syn)) == len(es), f"{code.name}: syndromes collide")
        _require(all(any(s) for s in syn), f"{code.name}: zero syndrome for an error")
    return "syndromes distinct and nonzero for all built-in error sets"


def check_distance3() -> str:
    for code, es in _code_table("perfect5", "steane7"):
        worst = 0.0
        for e1 in es:
            for e2 in es:
                v = pauli_action(e1, pauli_action(e2, code.codeword0))
                worst = max(worst, abs(np.vdot(code.codeword1, v)))
        _require(worst < 1e-12, f"{code.name}: weight-2 error connects codewords ({worst:.1e})")
    return "no weight-2 error connects the codewords (exhaustive)"


def _random_logical(code, rng) -> np.ndarray:
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return normalize(a[0] * code.codeword0 + a[1] * code.codeword1)


def check_recovery_identity() -> str:
    rng = np.random.default_rng(17)
    worst = 1.0
    for code, es in _code_table():
        states = [_random_logical(code, rng) for _ in range(20)]
        for e in es:
            for psi in states:
                rho = pure_density(pauli_action(e, psi))
                worst = min(worst, fidelity(psi, codes.recover(code, es, rho)))
    _require(worst > 1 - 1e-10, f"recovery fidelity dropped to {worst!r}")
    # |011> is two flips on |000>, so the majority vote lands on |111>
    [(c3, es3)] = _code_table("bitflip3")
    out = codes.recover(c3, es3, pure_density(basis_state(3, "011")))
    miscorrect = float(np.max(np.abs(out - pure_density(basis_state(3, "111")))))
    _require(miscorrect < 1e-12, f"|011> does not miscorrect to |111>: {miscorrect:.3e}")
    return (
        f"min fidelity {worst:.12f} over all single errors x 20 states; "
        f"|011> miscorrects to |111> (deviation {miscorrect:.1e})"
    )


def check_eth_soundness() -> str:
    rng = np.random.default_rng(23)
    worst = 0.0
    for code, es in _code_table():
        for _ in range(4):
            lh = eth.LogicalHamiltonian(
                rng.uniform(-2, 2),
                rng.uniform(-2, 2),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            h0 = eth.encode_logical(code, lh)
            h = eth.make_eth(code, h0, es)
            worst = max(worst, eth.verify_et(h, h0, code, es))
    _require(worst < 1e-10, f"ETH residual {worst:.3e}")
    return f"max residual {worst:.1e} over random logical generators"


def check_restriction_identity() -> str:
    worst = 0.0
    for code, es in _code_table():
        h0 = eth.encode_logical(code, eth.LogicalHamiltonian(1.3, -0.4, 0.7 + 0.2j))
        h = eth.make_eth(code, h0, es)
        p0 = code.projector()
        worst = max(worst, float(np.max(np.abs(p0 @ h @ p0 - h0))))
    _require(worst < 1e-10, f"code-space restriction off by {worst:.3e}")
    return f"P0 H P0 = H0 to {worst:.1e}"


def check_first_order_commutation() -> str:
    rng = np.random.default_rng(29)
    worst = 0.0
    for code, es in _code_table("bitflip3", "perfect5"):
        h0 = eth.encode_logical(code, eth.LogicalHamiltonian(1.0, -1.0, 0.3))
        h = eth.make_eth(code, h0, es)
        for e in es[:: max(1, len(es) // 5)]:
            for _ in range(3):
                psi = _random_logical(code, rng)
                t = rng.uniform(0, np.pi)
                lhs = evolve_unitary(h, t, pauli_action(e, psi))
                rhs = pauli_action(e, evolve_unitary(h0, t, psi))
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    _require(worst < 1e-8, f"evolution/error commutation off by {worst:.3e}")
    return f"max deviation {worst:.1e} (errors commute with ETH evolution)"


def check_bodyness_bounds() -> str:
    lh = eth.LogicalHamiltonian(1.0, -1.0, 0)
    values = {}
    for code, es in _code_table():
        h = eth.make_eth(code, eth.encode_logical(code, lh), es)
        b = eth.bodyness(h)
        values[code.name] = b
        _require(b <= code.n, f"{code.name}: bodyness {b} exceeds n={code.n}")
        hc = eth.controlled_eth(code, es, 1.0)
        bc = eth.bodyness(hc)
        values[code.name + "+target"] = bc
        _require(bc == code.n + 1, f"{code.name} controlled: bodyness {bc} != n+1")
    _require(values["bitflip3"] == 3, f"bitflip3 bodyness {values['bitflip3']} != 3")
    _require(values["perfect5"] == 5, f"perfect5 bodyness {values['perfect5']} != 5")
    report = eth.css7_counterexample()
    _require(report.conjugated_sign == -1, f"CSS-7 conjugation sign {report.conjugated_sign}")
    _require(report.naive_sum_is_zero is True, "CSS-7 naive two-term sum is not zero")
    bodies = ", ".join(f"{k}={v}" for k, v in values.items())
    return f"{bodies}; CSS-7 counterexample sign {report.conjugated_sign}, naive sum zero"


def check_eth_hermiticity() -> str:
    worst = 0.0
    for code, es in _code_table():
        h0 = eth.encode_logical(code, eth.LogicalHamiltonian(0.9, -1.1, 0.4 - 0.6j))
        for h in (eth.make_eth(code, h0, es), eth.controlled_eth(code, es, 1.0)):
            worst = max(worst, float(np.max(np.abs(h - h.conj().T))))
    _require(worst <= 1e-12, f"ETH not Hermitian: {worst:.3e}")
    return f"max |H - H^dag| = {worst:.1e}"


def _chain(rho0, h, channels, rates, dt: float, n_steps: int, stride: int, support=None) -> list:
    """rho0 and the states after every ``stride`` RK4 steps of dt and after
    all ``n_steps``: a chain of runs, each from the last one's final state."""
    states = [rho0]
    for done in range(0, n_steps, stride):
        cfg = IntegrationConfig(dt=dt, t_final=min(stride, n_steps - done) * dt)
        states.append(integrate_lindblad(states[-1], h, channels, rates, cfg, support).final)
    return states


def check_analytic_xnoise() -> str:
    x = [NoiseChannel.from_matrix(PAULI_MATS["X"], "X")]
    states = _chain(pure_density(basis_state(1, 0)), np.zeros((2, 2)), x, [1.0], 1e-3, 1000, 100)
    times = 0.1 * np.arange(len(states))
    worst = max(abs(rho[0, 0].real - (1 + np.exp(-2 * t)) / 2) for rho, t in zip(states, times))
    _require(worst <= 1e-6, f"analytic mismatch {worst:.3e}")
    return f"max |P0(t) - analytic| = {worst:.1e} at t=0 and {len(states) - 1} later points"


def check_rk4_order() -> str:
    channels = site_channels(2, PAULI_MATS["X"], "X")
    rho0 = pure_density(basis_state(2, 0))
    exact = ((1 + np.exp(-2)) / 2) ** 2

    def run(dt):
        cfg = IntegrationConfig(dt=dt, t_final=1.0)
        return integrate_lindblad(rho0, np.zeros((4, 4)), channels, [1.0] * 2, cfg).final[0, 0].real

    e1 = abs(run(0.05) - exact)
    e2 = abs(run(0.025) - exact)
    ratio = e1 / e2
    _require(ratio >= 12, f"dt-halving ratio {ratio:.2f} < 12")
    return f"dt-halving error ratio {ratio:.1f}"


def check_exact_propagation() -> str:
    # two qubits under H = (omega/2)(X1 + X2) and X noise at rate gamma on
    # each: per qubit z(t) = exp(-2 gamma t) cos(omega t), so
    # P00(t) = ((1 + z(t))/2)^2
    omega, gamma, t = 1.3, 0.4, 2.0
    sx = PAULI_MATS["X"]
    h = 0.5 * omega * (np.kron(sx, np.eye(2)) + np.kron(np.eye(2), sx))
    channels = site_channels(2, sx, "X")
    rho0 = pure_density(basis_state(2, 0))

    def run(dt):
        cfg = IntegrationConfig(dt=dt, t_final=t)
        return integrate_lindblad(rho0, h, channels, [gamma] * 2, cfg).final

    exact = run(None)
    z = np.exp(-2 * gamma * t) * np.cos(omega * t)
    err_analytic = abs(exact[0, 0].real - ((1 + z) / 2) ** 2)
    err_rk4 = float(np.max(np.abs(exact - run(1e-3))))
    _require(err_analytic <= 1e-12, f"exact path off the analytic P00 by {err_analytic:.3e}")
    _require(err_rk4 <= 1e-10, f"exact path off RK4 at dt=1e-3 by {err_rk4:.3e}")
    return f"|P00 - analytic| = {err_analytic:.1e}, max |exact - RK4(dt=1e-3)| = {err_rk4:.1e}"


def check_lindblad_positivity() -> str:
    worst = 0.0
    cases = [s for s in experiments.fig1a_scenarios(0.05, 1.0)] + [
        experiments.fig1b_scenarios(0.05, 1.0)[2]  # eth-5
    ]
    for spec in cases:
        s = experiments._scenario(spec)
        n_steps = 256 if spec.family == "fig1b" else 1000
        states = _chain(
            pure_density(s.psi0), s.hamiltonian, s.sites + s.fixed, s.rates(spec.site_rate),
            s.duration / n_steps, n_steps, 50, s.support,
        )
        for rho in states:
            wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
            worst = min(worst, wmin)
    _require(worst >= -1e-7, f"density matrix eigenvalue {worst:.3e} below -1e-7")
    return f"min eigenvalue {worst:.1e} along test evolutions"


def check_trajectory_norms() -> str:
    h, p0 = np.diag([1.0, -1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)
    x = [NoiseChannel.from_matrix(PAULI_MATS["X"], "X")]
    cfg = TrajectoryConfig(n_traj=200, seed=5, dt=1e-3)
    res = mc_trajectories(normalize(np.array([1.0, 1.0])), h, x, [0.5], 2.0, [p0], cfg)
    # the norm checks guard the jump path only if some trajectory jumped
    _require(res.jumpers > 0, "no trajectory jumped")
    _require(res.jumps >= res.jumpers, f"{res.jumps} jumps by {res.jumpers} jumpers")
    return (
        f"no-jump norm monotone, renormalization exact "
        f"(200 trajectories, {res.jumpers} jumped, {res.jumps} jumps)"
    )


def _mc_pull(spec: experiments.ScenarioSpec, seed: int) -> float:
    """|mc - lindblad| in MC standard errors at one scenario point.

    MC runs :func:`experiments.suggested_mc_sample` trajectories, on
    ``_FIG1B_MC_DT`` for fig1b and the default step for fig1a.  A pull above
    4 fails, and so does a zero-stderr MC estimate more than 1e-6 from
    Lindblad; such a deterministic point returns 0.
    """
    dt = _FIG1B_MC_DT if spec.family == "fig1b" else None
    n_traj = experiments.suggested_mc_sample(spec)
    p_l, _ = experiments.run_scenario(spec, method="lindblad")
    p_m, se = experiments.run_scenario(spec, method="mc", n_traj=n_traj, seed=seed, dt=dt)
    context = f"{spec.family}/{spec.label} at gamma={spec.gamma}"
    if se == 0:
        _require(abs(p_m - p_l) < 1e-6, f"{context}: deterministic mismatch")
        return 0.0
    pull = abs(p_m - p_l) / se
    _require(pull <= 4, f"{context}: |mc - lindblad| = {pull:.2f} stderr")
    return pull


def check_mc_lindblad_agreement() -> str:
    specs = [
        spec
        for make in (experiments.fig1a_scenarios, experiments.fig1b_scenarios)
        for g in (0.01, 0.05, 0.1)
        for spec in make(g, 1.0)
    ]
    worst = max(_mc_pull(spec, seed=314) for spec in specs)
    return f"worst |mc - lindblad| = {worst:.2f} stderr over {len(specs)} scenario points"


def check_monotonicity() -> str:
    grid_a = [0.0, 1e-3, 3e-3, 0.01, 0.03, 0.05, 0.1]
    res_a = experiments.fig1a_sweep(grid_a, 1.0, method="lindblad")
    grid_b = [0.0, 0.01, 0.05, 0.1]
    res_b = experiments.fig1b_sweep(grid_b, 1.0, method="lindblad")
    for res, tag in ((res_a, "fig1a"), (res_b, "fig1b")):
        for label in res.scenarios():
            series = res.series(label)
            for lo, hi in zip(series, series[1:]):
                _require(
                    hi.probability <= lo.probability + 1e-6,
                    f"{tag}/{label}: probability rose from gamma={lo.gamma_over_omega} "
                    f"to {hi.gamma_over_omega}",
                )
    return "success probability non-increasing in gamma for all 9 scenarios"


def check_two_error_cancellation() -> str:
    [(code, es)] = _code_table("bitflip3")
    h0 = eth.encode_logical(code, eth.LogicalHamiltonian(1.0, -1.0, 0))
    h = eth.make_eth(code, h0, es)
    psi = normalize(code.codeword0 + code.codeword1)
    x1 = es[0]
    t1, t2, tau = 0.7, 1.9, np.pi
    # two flips on the same qubit: evolve, flip, evolve, flip, evolve
    mid = evolve_unitary(h, t2 - t1, pauli_action(x1, evolve_unitary(h, t1, psi)))
    staged = evolve_unitary(h, tau - t2, pauli_action(x1, mid))
    clean = evolve_unitary(h, tau, psi)
    dev = float(np.linalg.norm(staged - clean))
    _require(dev < 1e-10, f"double error failed to cancel: {dev:.3e}")
    return f"X1 at t=0.7 and t=1.9 cancels exactly (deviation {dev:.1e})"


def check_method_agreement() -> str:
    grid = [0.0, 1e-3, 0.01, 0.05, 0.1]
    worst = max(_mc_pull(experiments.fig1b_scenarios(g, 1.0)[2], seed=271) for g in grid)  # eth-5
    return f"lindblad vs mc within {worst:.2f} stderr on shared grid"


def _relabeled(code: codes.StabilizerCode, perm: np.ndarray) -> codes.StabilizerCode:
    """``code`` with qubit q renamed perm[q]: generators, logicals and
    codewords move with it."""
    inv = np.argsort(perm)

    def pauli(p: PauliString) -> PauliString:
        return PauliString("".join(p.letters[q] for q in inv), p.phase)

    def state(psi: np.ndarray) -> np.ndarray:
        return np.moveaxis(psi.reshape((2,) * code.n), range(code.n), perm).reshape(-1)

    return codes.StabilizerCode(
        code.n, tuple(map(pauli, code.generators)), pauli(code.logical_x),
        pauli(code.logical_z), state(code.codeword0), state(code.codeword1), code.name,
    )


def check_relabeling_invariance() -> str:
    # a random permutation of each code's qubits, and non-uniform site rates
    # that move with the sites: every exact success probability must stay,
    # with no pinned value to compare against.  Every site enters p alike at
    # first order in the rates, so a mixed-up pair of sites shows only at
    # second order: with rates up to 0.5, one swap of two sites in the code
    # or in the noise alone moves every fig1b p by 6.9e-8 or more (bitflip3 is
    # symmetric in its qubits, so its cases cannot show a swap)
    rng = np.random.default_rng(2012)
    build = {"fig1a": experiments._fig1a_scenario, "fig1b": experiments._fig1b_scenario}
    worst, cases = 0.0, 0
    for family, name in (("fig1a", "bitflip3"), ("fig1b", "perfect5"), ("fig1b", "steane7")):
        code = codes.build_code(name)
        perm, site_rates = rng.permutation(code.n), rng.uniform(0.0, 0.5, code.n)
        moved = np.empty_like(site_rates)
        moved[perm] = site_rates
        probabilities = []
        for c, rates in ((code, site_rates), (_relabeled(code, perm), moved)):
            errorset = codes.error_set(c, codes.DESIGNED_KINDS[name])
            plain = build[family](c, errorset, 1.0, True, None)
            for s in (plain, build[family](c, errorset, 1.0, True, plain)):
                cfg = IntegrationConfig(t_final=s.duration)
                rho0, row = pure_density(s.psi0), [*rates, *s.fixed_rates]
                res = integrate_lindblad(rho0, s.hamiltonian, s.sites + s.fixed, row, cfg)
                probabilities.append(np.einsum("ij,ji->", res.final, s.observable).real)
        for label, p, q in zip(("plain", "eth"), probabilities[:2], probabilities[2:]):
            _require(abs(p - q) <= 1e-13, f"{family}/{name} {label}: |dp| = {abs(p - q):.3e}")
            worst, cases = max(worst, abs(p - q)), cases + 1
    return f"|dp| <= {worst:.1e} under a qubit relabeling over {cases} cases"


def check_perturbative_formulas() -> str:
    def close(x: float, y: float) -> bool:
        return abs(x - y) <= 1e-12 * abs(y)

    rate = experiments.effective_rate
    _require(rate(1.0, 10.0, 1) == 1.0, "omega_k at k=1 is not omega")
    _require(rate(1.0, 10.0, 3) == 1.0 * (1.0 / 10.0) ** 2, "omega_k formula")
    _require(close(rate(1.0, 10.0, 3), 0.01), "omega_k worked value")
    _require(rate(2.0, 20.0, 2) == 0.2, "omega_k simple case")

    def params(gamma: float) -> experiments.PerturbativeParams:
        return experiments.PerturbativeParams(n=3, gamma=gamma, omega=1.0, delta=10.0, k=3)

    worked = params(1e-3)
    p_prime, p = experiments.effective_error_prob(worked)
    _require(close(p, 1e-3), f"bare error probability off: {p!r}")
    _require(close(p_prime, 0.03), f"worked value off: {p_prime!r}")
    alt = worked.n * p * p * (worked.delta / worked.omega) ** (2 * worked.k - 2)
    _require(abs(p_prime - alt) <= 1e-12 * abs(p_prime), "closed forms disagree")
    for gamma, expect in ((1e-4, False), (1e-6, True), (0.0, True)):
        _require(
            experiments.breakeven(params(gamma)) is expect,
            f"breakeven should be {expect} at gamma/omega = {gamma}",
        )
    return (
        f"omega_k = {rate(1.0, 10.0, 3):.3g}, p' = {p_prime:.3g}; "
        "break-even False/True/True at gamma/omega = 1e-4/1e-6/0"
    )


def check_csv_roundtrip() -> str:
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(19)
    rows = tuple(
        experiments.SweepRow(
            gamma_over_omega=float(rng.uniform(0, 0.1)),
            scenario=f"s{i % 4}",
            probability=float(rng.uniform(0, 1)),
            stderr=float(rng.uniform(0, 0.05)),
            method="mc",
        )
        for i in range(40)
    )
    result = experiments.SweepResult(rows=rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "roundtrip.csv"
        output.emit_csv(result, path)
        back = output.parse_csv(path)
        header = path.read_text().splitlines()[0]
    _require(header == ",".join(output.CSV_HEADER), f"header changed: {header}")
    expect = sorted(rows, key=lambda r: (r.scenario, r.gamma_over_omega))
    _require(len(back.rows) == len(expect), "row count changed")
    for a, b in zip(expect, back.rows):
        _require(a.scenario == b.scenario and a.method == b.method, "labels changed")
        for x, y in (
            (a.gamma_over_omega, b.gamma_over_omega),
            (a.probability, b.probability),
            (a.stderr, b.stderr),
        ):
            _require(abs(x - y) <= max(1e-9 * abs(x), 1e-12), "value lost beyond 10 digits")
    return f"schema stable, parse(emit(r)) = r at emitted precision ({len(rows)} rows)"


def check_sweep_determinism() -> str:
    import tempfile
    from pathlib import Path

    grid = experiments.default_gamma_grid(points=3)
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"run{i}.csv" for i in range(2)]
        for p in paths:
            res = experiments.fig1a_sweep(grid, 1.0, method="mc", n_traj=200, seed=42)
            output.emit_csv(res, p)
        b0, b1 = paths[0].read_bytes(), paths[1].read_bytes()
    _require(b0 == b1, "repeated seeded sweep produced different bytes")
    return f"repeated seeded mc sweep is byte-identical ({len(res.rows)} rows)"


CHECKS = [
    ("qcore.pauli-closure", check_pauli_closure),
    ("qcore.decompose-roundtrip", check_decompose_roundtrip),
    ("qcore.unitary-evolution", check_unitary_evolution),
    ("codes.structure", check_code_structure),
    ("codes.syndromes", check_syndromes),
    ("codes.distance-3", check_distance3),
    ("codes.recovery-identity", check_recovery_identity),
    ("eth.construction-soundness", check_eth_soundness),
    ("eth.restriction-identity", check_restriction_identity),
    ("eth.first-order-commutation", check_first_order_commutation),
    ("eth.bodyness-bounds", check_bodyness_bounds),
    ("eth.hermiticity", check_eth_hermiticity),
    ("dynamics.analytic-xnoise", check_analytic_xnoise),
    ("dynamics.rk4-order", check_rk4_order),
    ("dynamics.exact-propagation", check_exact_propagation),
    ("dynamics.positivity", check_lindblad_positivity),
    ("dynamics.trajectory-norms", check_trajectory_norms),
    ("dynamics.mc-lindblad-agreement", check_mc_lindblad_agreement),
    ("experiments.monotonicity", check_monotonicity),
    ("experiments.two-error-cancellation", check_two_error_cancellation),
    ("experiments.method-agreement", check_method_agreement),
    ("experiments.perturbative-formulas", check_perturbative_formulas),
    ("experiments.relabeling-invariance", check_relabeling_invariance),
    ("cli.csv-roundtrip", check_csv_roundtrip),
    ("cli.sweep-determinism", check_sweep_determinism),
]
