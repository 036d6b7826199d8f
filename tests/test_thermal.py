"""Thermal-motion Monte Carlo: kinematics, dephasing, convergence."""

import math
from dataclasses import replace

import numpy as np
import pytest

from afmgate import evolution, gate, thermal
from afmgate.config import DecayConfig, Model
from afmgate.errors import SampleRejected
from afmgate.evolution import _protocol_segments, _run_segment, _step_count, run_protocol
from afmgate.gate import INPUT_LABELS, active_atoms, fidelity_from_diag
from afmgate.thermal import (
    ThermalConfig,
    _batch_branch_amplitudes,
    _chunk_worker,
    analytic_dephasing,
    run_thermal_ensemble,
    sample_kinematics,
)
from afmgate.units import mhz, thermal_velocity

from conftest import reference_config


class TestKinematics:
    def test_thermal_velocity_at_one_microkelvin(self):
        # sqrt(k_B 1uK / m_Rb87) in um/us, frozen from direct evaluation
        assert thermal_velocity(1e-6) == pytest.approx(9.781e-3, rel=1e-3)

    def test_zero_temperature_draws_are_zero(self):
        tcfg = ThermalConfig(temperature=0.0, trials=4, seed=1)
        draw = sample_kinematics(tcfg, 5, 0)
        assert np.all(draw.offsets == 0.0)
        assert np.all(draw.velocities == 0.0)

    def test_draws_reproducible_per_seed_and_trial(self):
        tcfg = ThermalConfig(temperature=1e-6, trials=4, seed=11)
        a = sample_kinematics(tcfg, 5, 3)
        b = sample_kinematics(tcfg, 5, 3)
        assert np.array_equal(a.velocities, b.velocities)
        c = sample_kinematics(tcfg, 5, 4)
        assert not np.array_equal(a.velocities, c.velocities)

    def test_velocity_scale_matches_v_th(self):
        tcfg = ThermalConfig(temperature=1e-6, trials=1, seed=5)
        draws = np.concatenate(
            [sample_kinematics(tcfg, 5, k).velocities for k in range(400)]
        )
        assert np.std(draws) == pytest.approx(tcfg.v_th, rel=0.1)

    def test_position_spread_populates_offsets(self):
        tcfg = ThermalConfig(temperature=0.0, position_sigma=0.05, trials=1, seed=4)
        draws = np.stack([sample_kinematics(tcfg, 5, k).offsets for k in range(200)])
        assert np.std(draws) == pytest.approx(0.05, rel=0.15)
        assert np.all(sample_kinematics(tcfg, 5, 0).velocities == 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ThermalConfig(temperature=-1e-6)
        with pytest.raises(ValueError):
            ThermalConfig(temperature=1e-6, trials=0)


class TestAnalyticDephasing:
    def test_zero_temperature_gives_zero(self):
        cfg = reference_config()
        tcfg = ThermalConfig(temperature=0.0, trials=1)
        est = analytic_dephasing(tcfg, cfg.chain, cfg.interaction, 1.0)
        assert est.delta_b2 == 0.0
        assert est.delta_phi == 0.0

    def test_reference_scale_estimate(self):
        # B2 = 2pi x 45/64 MHz, a = 4 um, T = 1 uK, tau = 1 us
        cfg = reference_config()
        tcfg = ThermalConfig(temperature=1e-6, trials=1)
        est = analytic_dephasing(tcfg, cfg.chain, cfg.interaction, 1.0)
        assert est.delta_phi == pytest.approx(0.0458, rel=1e-2)
        assert est.delta_phi < 0.05

    def test_inverse_spacing_scaling_at_fixed_b2(self):
        from afmgate.config import ChainConfig, InteractionConfig

        cfg_a = reference_config()
        b_nn = cfg_a.interaction.b_nn
        chain_half = ChainConfig(n_atoms=5, spacing=2.0)
        inter_half = InteractionConfig.from_nn_strength(b_nn, 2.0)
        tcfg = ThermalConfig(temperature=1e-6, trials=1)
        est_a = analytic_dephasing(tcfg, cfg_a.chain, cfg_a.interaction, 1.0)
        est_half = analytic_dephasing(tcfg, chain_half, inter_half, 1.0)
        # halving a at fixed nearest-neighbour (and hence B2) strength
        assert est_half.delta_phi / est_a.delta_phi == pytest.approx(2.0, rel=1e-12)


def zero_rows(rows, n_atoms):
    return np.zeros((rows, n_atoms))


class TestThermalTrials:
    @pytest.mark.parametrize("include_decay", [False, True])
    def test_zero_draw_reduces_to_static_protocol(self, include_decay):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, include_decay=include_decay)
        diag = np.array(
            [
                _batch_branch_amplitudes(5, cfg, zero_rows(1, 5), zero_rows(1, 5), (label,))[0, 0]
                for label in INPUT_LABELS
            ]
        )
        static = np.array(
            [
                run_protocol(
                    len(active_atoms(5, label)), replace(cfg, dt=cfg.pulse.tau / 1500),
                    compute_phases=False,
                ).ground_amplitude()
                for label in INPUT_LABELS
            ]
        )
        assert abs(fidelity_from_diag(5, diag) - fidelity_from_diag(5, static)) < 1e-10
        assert np.abs(diag - static).max() < 1e-10

    def test_thermal_requires_vdw_model(self):
        cfg = reference_config(n_atoms=5, model=Model.PXP)
        with pytest.raises(ValueError):
            _batch_branch_amplitudes(5, cfg, zero_rows(1, 5), zero_rows(1, 5), ("11",))

    def test_crossing_atoms_rejected(self):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW)
        vel = zero_rows(2, 5)
        vel[1, 2] = 10.0  # 10 um/us for 2 us crosses the 4 um spacing
        with pytest.raises(SampleRejected, match=r"rows \[1\]"):
            _batch_branch_amplitudes(5, cfg, zero_rows(2, 5), vel, ("11",))

    def test_inactive_atom_crossing_its_neighbour_leaves_the_branch_alone(self):
        # atom 0 is in no block of label "00": it may cross atom 1, and it
        # has no pair in the interaction
        cfg = reference_config(n_atoms=4, model=Model.FULL_VDW, tau=0.4)
        moving, still = zero_rows(2, 4), zero_rows(2, 4)
        moving[:, 0] = 10.0  # 10 um/us for 0.8 us crosses the 4 um spacing
        moving[1, 2] = still[1, 2] = 0.3
        amps = _batch_branch_amplitudes(4, cfg, zero_rows(2, 4), moving, ("00",))
        assert np.all(np.isfinite(amps))
        assert np.array_equal(amps, _batch_branch_amplitudes(4, cfg, zero_rows(2, 4), still, ("00",)))
        assert abs(amps[1, 0] - amps[0, 0]) > 1e-9  # the active atom's motion shows

    @pytest.mark.parametrize("labels,rows,pairs", [(INPUT_LABELS, 72, 10), (("00",), 8, 3), (("01", "11"), 48, 10)])
    def test_one_incidence_over_the_pairs_of_the_covered_atoms(self, labels, rows, pairs, monkeypatch):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4)
        shapes = []
        real = thermal.pair_incidence

        def recording(masks, atom_pairs):
            shapes.append(real(masks, atom_pairs).shape)
            return real(masks, atom_pairs)

        monkeypatch.setattr(thermal, "pair_incidence", recording)
        _batch_branch_amplitudes(5, cfg, zero_rows(1, 5), zero_rows(1, 5), labels)
        assert shapes == [(rows, pairs)]

    def test_bulk_atom_phase_sensitivity_below_edge(self):
        # AFM bulk motion cancels at first order; edges do not
        cfg = reference_config(n_atoms=7, model=Model.FULL_VDW)
        v = thermal_velocity(1e-6)

        def sensitivity(atom):
            vel = zero_rows(2, 7)
            vel[:, atom] = (+v, -v)  # one batch row per sign
            amps = _batch_branch_amplitudes(7, cfg, zero_rows(2, 7), vel, ("11",))[:, 0]
            return (np.angle(amps[0]) - np.angle(amps[1])) / 2

        # edge atom 0 vs a bulk atom in the AFM interior
        edge = abs(sensitivity(0))
        bulk = abs(sensitivity(3))
        assert bulk < 0.5 * edge


def thermal_draws(tcfg, n_atoms):
    draws = [sample_kinematics(tcfg, n_atoms, k) for k in range(tcfg.trials)]
    return np.stack([d.offsets for d in draws]), np.stack([d.velocities for d in draws])


class TestBatchedEnsemble:
    """The direct-sum, baseline-carrying chunks against separate runs."""

    def test_grouped_labels_match_single_label_batches(self):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4)
        offsets, velocities = thermal_draws(ThermalConfig(temperature=4e-6, position_sigma=0.02, trials=3, seed=8), 5)
        grouped = _batch_branch_amplitudes(5, cfg, offsets, velocities, ("01", "10"))
        assert grouped.shape == (3, 2)
        for k, label in enumerate(("01", "10")):
            single = _batch_branch_amplitudes(5, cfg, offsets, velocities, (label,))[:, 0]
            assert np.abs(grouped[:, k] - single).max() < 1e-12
        assert np.abs(grouped[:, 0] - grouped[:, 1]).max() > 1e-9  # the labels really differ

    def test_ordering_message_names_trial_rows_of_a_group(self):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW)
        vel = zero_rows(3, 5)
        vel[2, 4] = -10.0  # atom 4 crosses atom 3; of the two labels only "01" drives it
        with pytest.raises(SampleRejected, match=r"rows \[2\]"):
            _batch_branch_amplitudes(5, cfg, zero_rows(3, 5), vel, ("10", "01"))

    def test_baseline_in_first_chunk_matches_separate_zero_draw(self, monkeypatch):
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        tcfg = ThermalConfig(temperature=1e-6, trials=5, seed=4)
        chunks = []

        def recording(args):
            out = _chunk_worker(args)
            chunks.append((args, out))
            return out

        monkeypatch.setattr(thermal, "_chunk_worker", recording)
        rep = run_thermal_ensemble(3, cfg, tcfg)
        (args, out), = chunks
        assert out.shape == (6, 4)  # baseline row + 5 trials
        assert np.all(args[2][0] == 0.0) and np.all(args[3][0] == 0.0)
        separate = _chunk_worker((3, cfg, zero_rows(1, 3), zero_rows(1, 3), rep.dt))[0]
        assert np.abs(out[0] - separate).max() < 1e-12
        assert abs(rep.baseline_fidelity - fidelity_from_diag(3, separate)) < 1e-12

    def test_one_propagation_per_chunk(self, monkeypatch):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4)
        calls = []
        real = evolution._run_segment

        def counting(engine, psi, *args):
            calls.append(([h.basis.nu for h in engine.hamiltonians], psi.shape[1]))
            return real(engine, psi, *args)

        monkeypatch.setattr(evolution, "_run_segment", counting)
        rep = run_thermal_ensemble(5, cfg, ThermalConfig(temperature=1e-6, trials=16, seed=1))
        assert rep.trials == 16
        # one call per pulse: the chains of "00", "01", "10" and "11" are
        # the blocks, the baseline and the 16 trials the columns
        assert calls == [([3, 4, 4, 5], 17)] * 2

    def test_one_joint_propagation_per_chunk_with_decay(self, monkeypatch):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4, include_decay=True)
        calls = []
        real = evolution._run_segment

        def counting(engines, psi, *args):
            calls.append(([([h.basis.nu for h in e.hamiltonians], e.reverse) for e in engines], psi.shape[1]))
            return real(engines, psi, *args)

        monkeypatch.setattr(evolution, "_run_segment", counting)
        rep = run_thermal_ensemble(5, cfg, ThermalConfig(temperature=1e-6, trials=16, seed=1))
        assert rep.trials == 16
        # one call for both pulses: pulse I forward, pulse II transposed
        assert calls == [([([3, 4, 4, 5], False), ([3, 4, 4, 5], True)], 17)]

    @pytest.mark.parametrize("n_atoms", [5, 6])
    def test_direct_sum_chunk_matches_one_call_per_label(self, n_atoms):
        cfg = reference_config(n_atoms=n_atoms, model=Model.FULL_VDW, tau=0.4)
        offsets, velocities = thermal_draws(
            ThermalConfig(temperature=4e-6, position_sigma=0.02, trials=3, seed=8), n_atoms
        )
        # the baseline as the first column, as in the first chunk of an ensemble
        offsets, velocities = (np.concatenate([zero_rows(1, n_atoms), a]) for a in (offsets, velocities))
        chunk = _chunk_worker((n_atoms, cfg, offsets, velocities, thermal._thermal_dt(cfg)))
        assert chunk.shape == (4, 4)
        for k, label in enumerate(INPUT_LABELS):
            single = _batch_branch_amplitudes(n_atoms, cfg, offsets, velocities, (label,))[:, 0]
            assert np.abs(chunk[:, k] - single).max() < 1e-12
        assert np.abs(chunk[1:, 3] - chunk[0, 3]).min() > 1e-9  # the draws really move the atoms


def sequential_amplitudes(hams, cfg, v_int_fn_steps, columns):
    """(columns, blocks) final ground amplitudes of a thermal chunk with
    both pulses run one after the other, as two ``_run_segment`` calls on
    the full bases."""
    seg1, seg2 = _protocol_segments(hams, cfg, v_int_fn_steps)
    n = _step_count(0.0, cfg.pulse.tau, cfg.dt)
    ground = [chain.start + h.basis.index(0) for chain, h in zip(seg1.chains, hams)]
    psi = np.zeros((seg1.chains[-1].stop, columns), dtype=complex)
    psi[ground, :] = 1.0
    for seg in (seg1, seg2):
        _, (psi,) = _run_segment(seg, psi, cfg.dt, n, n, seg.gamma == 0.0)
    return psi[ground, :].T


class TestDriverPath:
    """Thermal chunks through ``evolution.final_amplitudes`` against both
    pulses run in sequence on the same chains and moving atoms."""

    def chunk(self, n_atoms, cfg, monkeypatch):
        """The amplitudes of one chunk of three moving-atom trials and their
        sequential reference."""
        tcfg = ThermalConfig(temperature=4e-6, position_sigma=0.02, trials=3, seed=8)
        offsets, velocities = thermal_draws(tcfg, n_atoms)
        calls = []
        real = thermal.final_amplitudes

        def recording(hams, run_cfg, **kwargs):
            calls.append((hams, run_cfg, kwargs))
            return real(hams, run_cfg, **kwargs)

        monkeypatch.setattr(thermal, "final_amplitudes", recording)
        amps = _batch_branch_amplitudes(n_atoms, cfg, offsets, velocities, INPUT_LABELS)
        (hams, run_cfg, kwargs), = calls
        ref = sequential_amplitudes(hams, run_cfg, kwargs["v_int_fn_steps"], kwargs["columns"])
        assert amps.shape == ref.shape == (3, 4)
        return amps, ref

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_on_matches_sequential_pulses(self, n_atoms, lam, monkeypatch):
        cfg = reference_config(n_atoms=n_atoms, tau=0.4, include_decay=True, gamma=mhz(0.05), lambda_ratio=lam)
        amps, ref = self.chunk(n_atoms, cfg, monkeypatch)
        assert np.abs(amps - ref).max() < 1e-13
        assert np.abs(amps).max() < 1.0 - 1e-3  # the decay shows

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_in_pulse_two_only_matches_sequential_pulses(self, n_atoms, monkeypatch):
        cfg = reference_config(n_atoms=n_atoms, tau=0.4, include_decay=True, lambda_ratio=1.7)
        cfg = replace(cfg, decay=DecayConfig(gamma_r=0.0, gamma_rp=mhz(0.05)))
        amps, ref = self.chunk(n_atoms, cfg, monkeypatch)
        assert np.abs(amps - ref).max() < 1e-13
        assert np.abs(amps).max() < 1.0 - 1e-3

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_free_bitwise_equal_to_sequential_pulses(self, n_atoms, monkeypatch):
        amps, ref = self.chunk(n_atoms, reference_config(n_atoms=n_atoms, tau=0.4), monkeypatch)
        assert np.array_equal(amps, ref)


class TestEnsemble:
    def test_deterministic_for_seed(self):
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        tcfg = ThermalConfig(temperature=1e-6, trials=6, seed=21)
        r1 = run_thermal_ensemble(3, cfg, tcfg)
        r2 = run_thermal_ensemble(3, cfg, tcfg)
        assert np.array_equal(r1.delta_phi_samples, r2.delta_phi_samples)
        assert r1.fidelity_loss == r2.fidelity_loss

    def test_standard_error_scales_like_inverse_sqrt_trials(self):
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        small = run_thermal_ensemble(3, cfg, ThermalConfig(temperature=4e-6, trials=32, seed=3))
        big = run_thermal_ensemble(3, cfg, ThermalConfig(temperature=4e-6, trials=128, seed=3))

        def sem(report):
            return float(np.std(report.fidelity_samples, ddof=1) / math.sqrt(report.trials))

        ratio = sem(small) / sem(big)
        assert 1.0 < ratio < 4.0  # expect ~2 for a 4x trials increase

    def test_jobs_clamped_to_chunk_count(self, pool_sizes, monkeypatch):
        # 130 trials make three 64-trial chunks, so at most three workers
        monkeypatch.setattr(thermal, "_chunk_worker", lambda args: np.ones((args[2].shape[0], 4), complex))
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        rep = run_thermal_ensemble(3, cfg, ThermalConfig(temperature=1e-6, trials=130, seed=2), jobs=10**6)
        assert rep.trials == 130
        assert pool_sizes == [3]

    def test_samples_bitwise_independent_of_jobs(self, monkeypatch):
        # 70 trials make two chunks, the first also carrying the baseline;
        # jobs=2 runs them on a real two-worker process pool
        sizes = []

        class RecordingPool(gate.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(gate, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(gate.os, "cpu_count", lambda: 2)
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        tcfg = ThermalConfig(temperature=1e-6, trials=70, seed=6)
        one = run_thermal_ensemble(3, cfg, tcfg, jobs=1)
        two = run_thermal_ensemble(3, cfg, tcfg, jobs=2)
        assert sizes == [2]
        assert one.trials == two.trials == 70
        assert np.array_equal(one.delta_phi_samples, two.delta_phi_samples)
        assert np.array_equal(one.fidelity_samples, two.fidelity_samples)
        assert one.baseline_fidelity == two.baseline_fidelity

    def test_report_quantities_well_formed(self):
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        rep = run_thermal_ensemble(3, cfg, ThermalConfig(temperature=1e-6, trials=8, seed=2))
        assert 0.0 <= rep.fidelity_loss <= 1.0
        assert rep.delta_phi_rms >= 0.0
        assert rep.trials == 8
        assert rep.rejected == 0
