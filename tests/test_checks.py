"""Every ``etlab verify`` invariant as a tier-1 test.

Each entry of ``checks.CHECKS`` is one case, with the check's name as its
id, so ``pytest -k dynamics.positivity`` runs that check alone.  A check
added to the registry becomes a test here with no other edit.
"""

import inspect
import re

import numpy as np
import pytest

from etlab import checks
from etlab.dynamics import NoiseChannel, NoiseModel
from etlab.qcore import PAULI_MATS, basis_state, pure_density

_NAME = re.compile(r"(qcore|codes|eth|dynamics|experiments|cli)\.[a-z0-9]+(-[a-z0-9]+)*")


def test_registry_shape():
    names = [name for name, _ in checks.CHECKS]
    assert len(names) == 25
    assert len(set(names)) == len(names)
    for name, fn in checks.CHECKS:
        assert _NAME.fullmatch(name), name
        assert not inspect.signature(fn).parameters, name


@pytest.mark.parametrize("check", [fn for _, fn in checks.CHECKS], ids=[n for n, _ in checks.CHECKS])
def test_check(check):
    detail = check()
    assert isinstance(detail, str) and detail.strip()


def test_chain_scores_rho0_and_lands_on_record_points(monkeypatch):
    # the checks that need a time series chain runs of ``stride`` steps, each
    # from the last one's final state; the series starts with rho0 itself
    # and ends on the points that an RK4 run recording every ``stride``-th
    # step and its last one would record
    runs = []
    integrate = checks.integrate_lindblad

    def recording(rho0, h, noise, cfg, support=None):
        res = integrate(rho0, h, noise, cfg, support)
        runs.append((rho0, round(cfg.t_final / cfg.dt), res.final))
        return res

    monkeypatch.setattr(checks, "integrate_lindblad", recording)
    rho0 = pure_density(basis_state(1, 0))
    noise = NoiseModel((NoiseChannel.from_matrix(PAULI_MATS["X"], 1.0, "X"),))
    states = checks._chain(rho0, np.zeros((2, 2)), noise, 0.01, 256, 50)
    assert states[0] is rho0
    assert [steps for _, steps, _ in runs] == [50] * 5 + [6]
    assert np.cumsum([steps for _, steps, _ in runs]).tolist() == [50, 100, 150, 200, 250, 256]
    assert all(a is b for a, b in zip([r for r, _, _ in runs], states))
    assert all(a is b for a, b in zip([f for _, _, f in runs], states[1:], strict=True))

    calls = []
    chain = checks._chain

    def spy(rho0, h, noise, dt, n_steps, stride, support=None):
        calls.append((round(n_steps * dt, 12), n_steps, stride))
        return chain(rho0, h, noise, dt, n_steps, stride, support)

    monkeypatch.setattr(checks, "_chain", spy)
    checks.check_analytic_xnoise()
    assert calls == [(1.0, 1000, 100)]
    calls.clear()
    checks.check_lindblad_positivity()
    fig1a, fig1b = round(np.pi, 12), round(np.pi / 2, 12)
    assert calls == [(fig1a, 1000, 50)] * 4 + [(fig1b, 256, 50)]
