"""Gate assembly, average fidelity and the analytic error model."""

import math
from dataclasses import replace

import numpy as np
import pytest

from afmgate.basis import inversion_permutation, sector_isometry
from afmgate.config import Model, mean_rydberg_number
from afmgate.errors import ConfigError, FitQualityError, RegimeError
from afmgate import evolution, gate
from afmgate.gate import (
    CZ_DIAG,
    FIT_E_BOUNDS,
    active_atoms,
    assemble_gate,
    average_fidelity,
    build_error_model,
    compensating_detuning,
    decay_error,
    e_min_vs_interaction,
    fidelity_from_diag,
    fit_c_nu,
    kappa_c_table,
    leakage_error,
    leakage_mu_nu,
    map_tasks,
    optimal_tau,
    pulse_with_tau,
    scaling_emin,
    sweep_tau,
    transfer_error,
)
from afmgate.hamiltonian import model_basis
from afmgate.units import mhz

from conftest import GAMMA, reference_config, reference_pulse
from oracles import lz_probability


class TestActiveAtoms:
    def test_input_selection(self):
        assert active_atoms(5, "00") == (1, 2, 3)
        assert active_atoms(5, "01") == (1, 2, 3, 4)
        assert active_atoms(5, "10") == (0, 1, 2, 3)
        assert active_atoms(5, "11") == (0, 1, 2, 3, 4)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            active_atoms(5, "02")


class TestAverageFidelity:
    def test_ideal_cz(self):
        assert average_fidelity(CZ_DIAG.astype(complex)) == pytest.approx(1.0)

    def test_identity_scores_two_fifths(self):
        assert average_fidelity(np.ones(4, dtype=complex)) == pytest.approx(0.4)

    def test_global_phase_invariance(self):
        for theta in np.linspace(0.0, 2 * math.pi, 17):
            u = np.exp(1j * theta) * CZ_DIAG
            assert average_fidelity(u) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_decreases_as_phase_rotates_off_target(self):
        last = 1.0
        for phi in np.linspace(0.0, math.pi, 12)[1:]:
            u = np.array([1.0, 1.0, 1.0, -np.exp(1j * phi)])
            f = average_fidelity(u)
            assert f < last
            last = f

    def test_accepts_full_matrix(self):
        assert average_fidelity(np.diag(CZ_DIAG).astype(complex)) == pytest.approx(1.0)

    def test_oversized_entries_rejected(self):
        with pytest.raises(ValueError):
            average_fidelity(np.array([1.0, 1.0, 1.0, -1.1]))

    def test_even_chain_target_is_flip_conjugated(self):
        # ideal even-N pattern (-1,1,1,1) is a perfect gate after the flips
        assert fidelity_from_diag(6, np.array([-1.0, 1, 1, 1])) == pytest.approx(1.0)
        assert fidelity_from_diag(5, np.array([1.0, 1, 1, -1])) == pytest.approx(1.0)


class TestAssembleGate:
    def test_n5_pxp_truth_table(self):
        cfg = reference_config(n_atoms=5, model=Model.PXP)
        report = assemble_gate(5, cfg)
        assert report.global_phase_removed == 1.0
        assert np.angle(report.u_diag[0]) == pytest.approx(0.0, abs=0.05)
        assert np.angle(report.u_diag[1]) == pytest.approx(0.0, abs=0.05)
        assert abs(abs(np.angle(report.u_diag[3])) - math.pi) < 0.05
        assert report.fidelity > 0.97
        assert report.per_input["01"] == report.per_input["10"]

    def test_n6_pattern_after_factoring_parity(self):
        cfg = reference_config(n_atoms=6, model=Model.PXP)
        report = assemble_gate(6, cfg)
        assert report.global_phase_removed == -1.0
        assert abs(abs(np.angle(report.u_diag[0])) - math.pi) < 0.05
        for k in (1, 2, 3):
            assert abs(np.angle(report.u_diag[k])) < 0.05
        assert report.fidelity > 0.95

    def test_mismatched_chain_size_rejected(self):
        with pytest.raises(ValueError):
            assemble_gate(4, reference_config(n_atoms=5))

    def test_n5_leakage_matches_dominant_formula_within_30pct(self):
        # decay off: the gate infidelity is pure leakage; the dominant
        # exp(-c5 Omega0^2 tau / Delta0) form should track it
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, include_decay=False)
        report = assemble_gate(5, cfg)
        est = leakage_error(5, {3: 0.4769, 4: 1.2626, 5: 0.2905}, cfg.pulse)
        assert abs(report.infidelity - est.dominant) / est.dominant < 0.3

    def test_n5_vdw_with_decay_lands_in_error_band(self):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, include_decay=True)
        report = assemble_gate(5, cfg)
        c_table = {3: 0.43, 4: 1.26, 5: 0.28}
        gamma = cfg.decay.mean_rate(cfg.pulse.tau, 1.0)
        model = decay_error(5, gamma, cfg.tau_total) + leakage_error(5, c_table, cfg.pulse).full
        assert 0.5 * model < report.infidelity < 2.0 * model

    def test_chains_propagate_as_one_direct_sum(self, monkeypatch):
        calls = []
        real = evolution._run_split

        def counting(engine, psi, *args):
            calls.append(psi.shape)
            return real(engine, psi, *args)

        monkeypatch.setattr(evolution, "_run_split", counting)
        report = assemble_gate(5, reference_config(n_atoms=5, model=Model.PXP))
        # nu = 3, 4 and 5 on their even sectors as the rows of one state,
        # pulse I alone as its one column group (decay-free: pulse II is
        # its mirror image)
        dim = sum(sector_isometry(inversion_permutation(model_basis(Model.PXP, nu))).shape[1] for nu in (3, 4, 5))
        assert calls == [(dim, 1, 1)]
        assert report.per_input["01"] == report.per_input["10"]


class TestErrorFormulas:
    def test_decay_error_reference_point(self):
        # N=5, Gamma = 2pi x 0.5 kHz, tau_tot = 2 us
        assert decay_error(5, GAMMA, 2.0) == pytest.approx(7.0437e-3, rel=1e-4)

    def test_decay_error_zero_rate(self):
        assert decay_error(5, 0.0, 2.0) == 0.0

    def test_decay_error_uses_nu_bar(self):
        expect = 1 - math.exp(-0.5 * 1.25 * GAMMA * 2.0)
        assert decay_error(3, GAMMA, 2.0) == pytest.approx(expect, rel=1e-12)

    def test_lz_limits(self):
        assert lz_probability(1.0, 10.0, 1e-9) == pytest.approx(1.0, abs=1e-6)
        assert lz_probability(1e3, 10.0, 1.0) < 1e-300 or lz_probability(1e3, 10.0, 1.0) == 0.0

    def test_lz_exponent_matches_c_form(self, pulse):
        kappa = 0.6
        gap = kappa * pulse.omega0
        c = math.pi * kappa**2 / 4
        direct = lz_probability(gap, pulse.delta0, pulse.tau)
        via_c = math.exp(-c * pulse.omega0**2 * pulse.tau / pulse.delta0)
        assert direct == pytest.approx(via_c, rel=1e-12)

    def test_leakage_mu_nu(self):
        assert leakage_mu_nu(5) == (1, 5)
        assert leakage_mu_nu(6) == (2, 5)

    def test_leakage_error_sums_three_chains(self, pulse):
        c = {3: 0.43, 4: 1.26, 5: 0.28}
        est = leakage_error(5, c, pulse)
        x = pulse.omega0**2 * pulse.tau / pulse.delta0
        expect = math.exp(-0.43 * x) + 2 * math.exp(-1.26 * x) + math.exp(-0.28 * x)
        assert est.full == pytest.approx(expect, rel=1e-12)
        assert est.dominant == pytest.approx(math.exp(-0.28 * x), rel=1e-12)

    def test_leakage_error_vanishes_for_long_pulses(self):
        from afmgate.gate import pulse_with_tau

        c = {3: 0.43, 4: 1.26, 5: 0.28}
        est = leakage_error(5, c, pulse_with_tau(reference_pulse(), 50.0))
        assert est.full < 1e-10

    def test_missing_constant_is_a_config_error(self, pulse):
        with pytest.raises(ConfigError):
            leakage_error(5, {5: 0.28}, pulse)

    def test_optimal_tau_reference_point(self, pulse):
        tau_opt, e_min = optimal_tau(5, 0.28, pulse, GAMMA)
        assert tau_opt == pytest.approx(1.18658, rel=1e-4)
        assert e_min == pytest.approx(9.6431e-3, rel=1e-4)

    def test_optimal_tau_requires_decay(self, pulse):
        with pytest.raises(RegimeError):
            optimal_tau(5, 0.28, pulse, 0.0)

    def test_optimal_tau_regime_error_when_decay_dominates(self, pulse):
        with pytest.raises(RegimeError):
            optimal_tau(5, 0.28, pulse, 1e6)

    def test_e_min_vs_interaction_matches_base_form(self, pulse):
        # Eq. in terms of (lambda1, lambda2, B) must agree with the
        # (Omega0, Delta0, Gamma) form when evaluated consistently
        b = mhz(45)
        lam1 = pulse.omega0 / b
        lam2 = pulse.delta0 / b
        _, e_min = optimal_tau(5, 0.28, pulse, GAMMA)
        assert e_min_vs_interaction(5, 0.28, lam1, lam2, GAMMA, b) == pytest.approx(e_min, rel=1e-12)

    def test_e_min_doubling_b_halves_error_up_to_log_correction(self):
        b = mhz(45)
        e1 = e_min_vs_interaction(5, 0.28, 8 / 45, 20 / 45, GAMMA, b)
        e2 = e_min_vs_interaction(5, 0.28, 8 / 45, 20 / 45, GAMMA, 2 * b)
        assert e1 / 2 < e2 < 0.65 * e1

    def test_e_min_parameter_ordering_enforced(self):
        with pytest.raises(ValueError):
            e_min_vs_interaction(5, 0.28, 0.5, 0.4, GAMMA, mhz(45))

    def test_scaling_emin_cubic_in_n(self):
        e_n = scaling_emin(20.0, 4, mhz(100.0), GAMMA)
        e_2n = scaling_emin(20.0, 8, mhz(100.0), GAMMA)
        assert e_n / e_2n == pytest.approx(8.0, rel=1e-12)

    def test_transfer_error_reference_point(self):
        b = mhz(45)
        err = transfer_error(b, -b, mhz(50))
        assert err == pytest.approx(7.9102e-4, rel=1e-4)

    def test_transfer_error_trivial_limits(self):
        b = mhz(45)
        assert transfer_error(b, b, mhz(50)) == 0.0
        assert transfer_error(b, -b, mhz(5e6)) < 1e-12

    def test_compensating_detuning(self):
        b2 = mhz(45) / 64
        assert compensating_detuning(b2, -b2) == pytest.approx(2 * 2 * b2, rel=1e-12)


class TestGapDerivedConstants:
    def test_kappa_table_single_atom_is_pi_over_4(self, pulse):
        table = kappa_c_table([1], pulse)
        assert table[1] == pytest.approx(math.pi / 4, rel=1e-5)

    def test_error_model_assembles_all_chain_sizes(self):
        cfg = reference_config(n_atoms=5, include_decay=True)
        model = build_error_model(5, cfg, fitted_c={3: 0.43, 5: 0.28})
        assert set(model.c_nu) == {3, 4, 5}
        assert model.mu == 1
        assert model.nu_bar == pytest.approx(float(mean_rydberg_number(5)))
        assert model.lambda1 == pytest.approx(8 / 45, rel=1e-12)
        assert model.lambda2 == pytest.approx(20 / 45, rel=1e-12)
        assert 0.0 < model.e_decay < 1.0
        assert 0.0 < model.e_leakage < 1.0
        assert model.tau_opt == pytest.approx(1.187, rel=0.01)


class TestFitCnu:
    def test_even_nu_rejected(self):
        with pytest.raises(ValueError):
            fit_c_nu(4, reference_config(n_atoms=4))

    def test_nu3_constant_near_reference_value(self):
        fit = fit_c_nu(3, reference_config(n_atoms=3))
        assert fit.r_squared > 0.95
        assert abs(fit.c - 0.43) / 0.43 < 0.15

    def test_batched_fit_matches_a_fit_of_per_tau_runs(self):
        cfg = reference_config(n_atoms=3)
        fit = fit_c_nu(3, cfg)
        taus, leakages = [], []
        for tau in np.geomspace(0.25, 3.2, 12):
            run_cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, tau))
            e_leak = 1.0 - abs(evolution.ground_amplitudes([3], run_cfg)[3]) ** 2
            if FIT_E_BOUNDS[0] < e_leak < FIT_E_BOUNDS[1]:
                taus.append(tau)
                leakages.append(e_leak)
        x = cfg.pulse.omega0**2 / abs(cfg.pulse.delta0) * np.array(taus)
        slope, _ = np.polyfit(x, np.log(leakages), 1)
        assert len(taus) >= 4 and fit.taus.tolist() == taus
        assert abs(fit.c + slope) <= 1e-10 * abs(slope)

    def test_too_narrow_window_raises_fit_error(self):
        with pytest.raises(FitQualityError):
            fit_c_nu(3, reference_config(n_atoms=3), taus=[0.05, 0.06])


class TestSweepTau:
    C_TABLE = {1: 0.78, 2: 0.6, 3: 0.48}

    def test_points_match_one_gate_per_tau(self):
        cfg = reference_config(n_atoms=3, include_decay=True)
        taus = [0.7, 1.9, 1.2]
        points = sweep_tau(3, cfg, taus, self.C_TABLE)
        assert [p.tau for p in points] == taus
        for p in points:
            report = assemble_gate(3, replace(cfg, pulse=pulse_with_tau(cfg.pulse, p.tau)))
            assert abs(p.fidelity - report.fidelity) < 1e-12
            assert p.e_numeric == 1.0 - p.fidelity

    def test_same_points_at_one_and_two_jobs(self):
        # two chunks, run in two worker processes
        cfg = reference_config(n_atoms=3, include_decay=True)
        taus = np.linspace(0.5, 2.9, gate.TAU_CHUNK + 1)
        assert sweep_tau(3, cfg, taus, self.C_TABLE, jobs=2) == sweep_tau(3, cfg, taus, self.C_TABLE, jobs=1)


class TestWorkerPool:
    def test_pool_size_clamped_to_cpus_and_tasks(self, pool_sizes):
        assert map_tasks(abs, [-1, -2, -3], jobs=10**6) == [1, 2, 3]
        assert map_tasks(abs, list(range(-9, 1)), jobs=10**6) == list(range(9, -1, -1))
        assert pool_sizes == [3, 4]

    def test_single_worker_runs_in_process(self, pool_sizes):
        assert map_tasks(abs, [-1, -2], jobs=1) == [1, 2]
        assert map_tasks(abs, [-5], jobs=10**6) == [5]
        assert pool_sizes == []

    def test_sweep_tau_clamps_jobs(self, pool_sizes, monkeypatch):
        # one task per chunk of TAU_CHUNK durations; the worker returns its taus
        monkeypatch.setattr(gate, "_sweep_chunk", lambda task: task[2])
        grid = [0.5 + 0.1 * k for k in range(gate.TAU_CHUNK + 1)]
        taus = sweep_tau(5, reference_config(), grid, {}, jobs=10**6)
        assert taus == tuple(grid)
        assert pool_sizes == [2]

    def test_sweep_tau_maps_every_size_and_chunk_in_one_pool(self, pool_sizes, monkeypatch):
        # two chain sizes of two chunks each: four tasks, each on the config
        # with its own chain length, results length by length
        monkeypatch.setattr(gate, "_sweep_chunk", lambda task: [(task[0], task[1].chain.n_atoms, t) for t in task[2]])
        grid = [0.5 + 0.1 * k for k in range(gate.TAU_CHUNK + 1)]
        points = sweep_tau([5, 3], reference_config(), grid, {}, jobs=10**6)
        assert points == tuple((n, n, tau) for n in (5, 3) for tau in grid)
        assert pool_sizes == [4]
