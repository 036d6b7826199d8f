"""Optional long-running checks: larger chains and the interaction-strength
scaling of the minimal error.  Run with `pytest -m slow`."""

import numpy as np
import pytest
from scipy import sparse

from afmgate.config import (
    ChainConfig,
    DecayConfig,
    InteractionConfig,
    Model,
    ProtocolConfig,
    PulseProfile,
)
from afmgate import evolution
from afmgate.evolution import ground_amplitudes
from afmgate.gate import (
    e_min_vs_interaction,
    fit_c_nu,
    kappa_c_table,
    optimal_tau,
    sweep_tau,
)
from afmgate.hamiltonian import ChainHamiltonian, model_basis
from afmgate.units import mhz

from conftest import GAMMA, SPACING, reference_config

pytestmark = pytest.mark.slow

LAMBDA1 = 8.0 / 45.0
LAMBDA2 = 20.0 / 45.0


@pytest.fixture(scope="module")
def fitted_c():
    return {nu: fit_c_nu(nu, reference_config(n_atoms=max(nu, 3))).c for nu in (3, 5, 7)}


@pytest.fixture(scope="module")
def c_table(fitted_c):
    table = dict(fitted_c)
    table.update(kappa_c_table([1, 2, 4, 6, 8], reference_config().pulse))
    return table


@pytest.mark.parametrize("n", [7, 8])
def test_large_chain_error_curve(n, c_table):
    cfg = reference_config(n_atoms=n, model=Model.FULL_VDW, include_decay=True)
    mu_nu = n if n % 2 else n - 1
    gamma = cfg.decay.mean_rate(cfg.pulse.tau, 1.0)
    tau_opt, _ = optimal_tau(n, c_table[mu_nu], cfg.pulse, gamma)
    taus = np.array([0.8, 1.1, 1.35, tau_opt, 1.9, 2.3, 2.8])
    points = sweep_tau(n, cfg, np.sort(taus), c_table)
    ratios = [p.e_numeric / p.e_model for p in points]
    assert all(0.5 <= r <= 2.0 for r in ratios)
    errs = [p.e_numeric for p in points]
    i = int(np.argmin(errs))
    assert 0 < i < len(errs) - 1
    # expected band: F between ~0.98 (N=8) and 0.995 (N=3)
    assert 1.0 - min(errs) >= 0.975


def scaled_config(n: int, b_scale: float, gamma: float) -> ProtocolConfig:
    b = b_scale * mhz(45.0)
    return ProtocolConfig(
        chain=ChainConfig(n, SPACING),
        interaction=InteractionConfig.from_nn_strength(b, SPACING),
        pulse=PulseProfile(LAMBDA1 * b, LAMBDA2 * b, 1.0),
        decay=DecayConfig(gamma, gamma),
        model=Model.FULL_VDW,
        include_decay=True,
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_e_min_tracks_interaction_scaling(n, fitted_c):
    # a decade of B/Gamma: vary the decay rate at fixed B, plus a doubled-B
    # point with the drive ratios lambda1, lambda2 held fixed
    mu_nu = n if n % 2 else n - 1
    c_dom = fitted_c[mu_nu]
    cases = [(1.0, mhz(0.002)), (1.0, GAMMA), (2.0, GAMMA)]
    for b_scale, gamma in cases:
        cfg = scaled_config(n, b_scale, gamma)
        c_all = dict(fitted_c)
        c_all.update(kappa_c_table([nu for nu in (n - 2, n - 1, n) if nu not in c_all], cfg.pulse))
        tau_opt, _ = optimal_tau(n, c_dom, cfg.pulse, gamma)
        taus = tau_opt * np.array([0.6, 0.8, 1.0, 1.25, 1.6])
        points = sweep_tau(n, cfg, taus, c_all)
        e_numeric = min(p.e_numeric for p in points)
        e_model = e_min_vs_interaction(n, c_dom, LAMBDA1, LAMBDA2, gamma, cfg.interaction.b_nn)
        assert abs(e_numeric - e_model) / e_model < 0.25, (
            f"N={n} B-scale={b_scale} Gamma={gamma}: numeric {e_numeric:.4g} vs model {e_model:.4g}"
        )


def plain_rk4_gate_amplitudes(cases, steps):
    """Ground amplitudes of the three chains of a gate for each
    (n_atoms, lambda) of ``cases``, decay on, from textbook RK4 with
    ``steps`` steps per pulse and the pulses one after the other.  Every
    chain of every case is one block of one sparse state; each block's H is
    built from its even-sector structures and its own pulse."""
    blocks = []
    for case, (n, lam) in enumerate(cases):
        cfg = reference_config(n_atoms=n, include_decay=True, lambda_ratio=lam)
        for nu in (n - 2, n - 1, n):
            ham = ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), cfg.interaction)
            flipped = ChainHamiltonian(ham.model, ham.basis, cfg.interaction.flipped())
            blocks.append((case, cfg, ham.sector(), flipped.sector()))
    drive = sparse.block_diag([b[2].drive for b in blocks], format="csr")
    case_of_row = np.concatenate([[b[0]] * len(b[2].n_r) for b in blocks])
    n_r = np.concatenate([b[2].n_r for b in blocks])
    starts = np.cumsum([0] + [len(b[2].n_r) for b in blocks])[:-1]
    psi = np.zeros(len(n_r), dtype=complex)
    psi[starts] = 1.0
    cfgs = [next(b[1] for b in blocks if b[0] == case) for case in range(len(cases))]
    for pulse_two in (False, True):
        pulses = [c.pulse.rescaled(c.interaction.lambda_ratio) if pulse_two else c.pulse for c in cfgs]
        v = np.concatenate([b[3 if pulse_two else 2].v for b in blocks])
        decay = -0.5 * np.array([c.decay.gamma_rp if pulse_two else c.decay.gamma_r for c in cfgs])[case_of_row] * n_r
        dt = np.array([p.tau / steps for p in pulses])
        # Omega and Delta of each case at every half step, and each row's step
        t = [np.minimum(np.arange(2 * steps + 1) * (0.5 * p.tau / steps), p.tau) for p in pulses]
        omega = np.array([p.omega(x) for p, x in zip(pulses, t)]).T[:, case_of_row]
        delta = np.array([p.delta(x) for p, x in zip(pulses, t)]).T[:, case_of_row]
        h = dt[case_of_row]

        def f(j, y):
            return -1j * (omega[j] * (drive @ y) + (v - delta[j] * n_r) * y) + decay * y

        for k in range(steps):
            k1 = f(2 * k, psi)
            k2 = f(2 * k + 1, psi + 0.5 * h * k1)
            k3 = f(2 * k + 1, psi + 0.5 * h * k2)
            k4 = f(2 * k + 2, psi + h * k3)
            psi = psi + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi[starts].reshape(len(cases), 3)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gate_amplitudes_within_1e6_of_plain_rk4_at_tau_over_32000(lam):
    cases = [(n, lam) for n in range(3, 8)]
    ref = plain_rk4_gate_amplitudes(cases, 32000)
    for (n, _), row in zip(cases, ref):
        amps = ground_amplitudes([n - 2, n - 1, n], reference_config(n_atoms=n, include_decay=True, lambda_ratio=lam))
        assert np.abs(np.array(list(amps.values())) - row).max() < 1e-6, n


# max |amp - RK4 at tau/32000| of RK4 at tau/4000, over the gate's chains
RK4_4000_ERRORS = {3: 2.3e-7, 4: 2.7e-7, 5: 2.5e-6, 6: 2.86e-6, 7: 1.35e-5, 8: 1.54e-5, 9: 4.8e-5, 10: 5.7e-5}


@pytest.mark.parametrize("n", range(3, 11))
def test_split_at_steps_per_pulse_beats_rk4_at_tau_over_4000(n, monkeypatch):
    # fourth order: the error at STEPS_PER_PULSE is 256/255 of its distance
    # to the run at four times as many steps
    cfg = reference_config(n_atoms=n, include_decay=True)
    nus = [n - 2, n - 1, n]
    coarse = np.array(list(ground_amplitudes(nus, cfg).values()))
    monkeypatch.setattr(evolution, "STEPS_PER_PULSE", 4 * evolution.STEPS_PER_PULSE)
    fine = np.array(list(ground_amplitudes(nus, cfg).values()))
    error = np.abs(coarse - fine).max() * 256 / 255
    assert error < RK4_4000_ERRORS[n] / 10
