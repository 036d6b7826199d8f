"""Thermal-motion Monte Carlo: kinematics, dephasing, convergence."""

import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from afmgate import evolution, gate, thermal
from afmgate.config import DecayConfig, Model
from afmgate.errors import SampleRejected
from afmgate.evolution import ground_amplitudes, run_protocol
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
from oracles import ground_amplitude


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
        for seed in (-1, 1 << 64):  # the seed is one uint64 word of a trial's Philox key
            with pytest.raises(ValueError, match="seed"):
                ThermalConfig(temperature=1e-6, seed=seed)


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
                ground_amplitude(run_protocol(
                    len(active_atoms(5, label)), replace(cfg, dt=cfg.pulse.tau / 1500),
                    compute_phases=False,
                ))
                for label in INPUT_LABELS
            ]
        )
        assert abs(fidelity_from_diag(5, diag) - fidelity_from_diag(5, static)) < 1e-10
        assert np.abs(diag - static).max() < 1e-10

    @pytest.mark.parametrize("gamma_r,gamma_rp", [(mhz(0.05), 0.0), (0.0, mhz(0.05))])
    def test_zero_draw_with_one_sided_decay_matches_the_split(self, gamma_r, gamma_rp):
        # a decay-free pulse after a lossy one keeps the loss: the RK4 run of
        # the chunk agrees with the split of the static gate
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4, include_decay=True)
        cfg = replace(cfg, decay=DecayConfig(gamma_r=gamma_r, gamma_rp=gamma_rp))
        amps = _batch_branch_amplitudes(5, cfg, zero_rows(1, 5), zero_rows(1, 5), INPUT_LABELS)[0]
        split = ground_amplitudes([3, 4, 5], cfg)
        ref = [split[len(active_atoms(5, label))] for label in INPUT_LABELS]
        assert np.abs(amps - ref).max() < 1e-5  # RK4's error at 1500 steps: 1.1e-6
        assert np.abs(amps).max() < 1.0 - 1e-2  # the decay shows

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
        separate = _chunk_worker((3, cfg, zero_rows(1, 3), zero_rows(1, 3)))[0]
        assert np.abs(out[0] - separate).max() < 1e-12
        assert abs(rep.baseline_fidelity - fidelity_from_diag(3, separate)) < 1e-12

    @pytest.mark.parametrize("include_decay", [False, True])
    def test_one_propagation_per_chunk(self, include_decay, monkeypatch):
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4, include_decay=include_decay)
        calls = []
        real = evolution._run_segment

        def counting(engine, psi, *args):
            calls.append(([h.basis.nu for h in engine.hamiltonians], psi.shape[1]))
            return real(engine, psi, *args)

        monkeypatch.setattr(evolution, "_run_segment", counting)
        rep = run_thermal_ensemble(5, cfg, ThermalConfig(temperature=1e-6, trials=16, seed=1))
        assert rep.trials == 16
        # one call per pulse, with or without decay: the chains of "00",
        # "01", "10" and "11" are the blocks, the baseline and the 16
        # trials the columns
        assert calls == [([3, 4, 4, 5], 17)] * 2

    def test_both_pulses_share_the_chains_and_keep_no_static_interaction(self, monkeypatch):
        # pulse II negates the chunk's one per-trial function on pulse I's
        # own chains: both engines' interaction input is that function, and
        # neither holds a static diagonal
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW, tau=0.4, lambda_ratio=1.7)
        engines, functions = [], []
        real_run, real_start = evolution._run_segment, thermal._protocol_start

        def recording(engine, *args):
            engines.append(engine)
            return real_run(engine, *args)

        def starting(hams, run_cfg, v_int_fn):
            functions.append(v_int_fn)
            return real_start(hams, run_cfg, v_int_fn)

        monkeypatch.setattr(evolution, "_run_segment", recording)
        monkeypatch.setattr(thermal, "_protocol_start", starting)
        velocities = np.random.default_rng(2).normal(0.0, 0.05, (2, 5))
        _batch_branch_amplitudes(5, cfg, zero_rows(2, 5), velocities, INPUT_LABELS)
        seg1, seg2 = engines
        (fn,) = functions
        assert len(seg1.hamiltonians) == 4
        assert all(a is b for a, b in zip(seg1.hamiltonians, seg2.hamiltonians, strict=True))
        assert seg1.v is fn
        u = np.linspace(0.0, cfg.pulse.tau, 5)
        assert np.array_equal(seg2.v(u), -fn(cfg.pulse.tau + u / 1.7))

    @pytest.mark.parametrize("n_atoms", [5, 6])
    def test_direct_sum_chunk_matches_one_call_per_label(self, n_atoms):
        cfg = reference_config(n_atoms=n_atoms, model=Model.FULL_VDW, tau=0.4)
        offsets, velocities = thermal_draws(
            ThermalConfig(temperature=4e-6, position_sigma=0.02, trials=3, seed=8), n_atoms
        )
        # the baseline as the first column, as in the first chunk of an ensemble
        offsets, velocities = (np.concatenate([zero_rows(1, n_atoms), a]) for a in (offsets, velocities))
        chunk = _chunk_worker((n_atoms, cfg, offsets, velocities))
        assert chunk.shape == (4, 4)
        for k, label in enumerate(INPUT_LABELS):
            single = _batch_branch_amplitudes(n_atoms, cfg, offsets, velocities, (label,))[:, 0]
            assert np.abs(chunk[:, k] - single).max() < 1e-12
        assert np.abs(chunk[1:, 3] - chunk[0, 3]).min() > 1e-9  # the draws really move the atoms


class TestDriverPath:
    """Thermal chunks through ``evolution._protocol_start`` and
    ``evolution._rk4_pulses``, which run pulse II after pulse I on the same
    chains and moving atoms."""

    def chunk(self, n_atoms, cfg, monkeypatch):
        """The amplitudes of one chunk of three moving-atom trials, checked
        against the two ``_run_segment`` calls the chunk made."""
        tcfg = ThermalConfig(temperature=4e-6, position_sigma=0.02, trials=3, seed=8)
        offsets, velocities = thermal_draws(tcfg, n_atoms)
        runs = []
        real = evolution._run_segment

        def recording(engine, psi, *args):
            times, samples = real(engine, psi, *args)
            runs.append((engine, psi, samples))
            return times, samples

        monkeypatch.setattr(evolution, "_run_segment", recording)
        amps = _batch_branch_amplitudes(n_atoms, cfg, offsets, velocities, INPUT_LABELS)
        (seg1, _, s1), (_, psi2, s2) = runs
        assert amps.shape == (3, 4)
        # pulse II starts from pulse I's final state, and the amplitudes are
        # the ground rows of pulse II's final state
        assert np.array_equal(psi2, s1[-1])
        assert np.array_equal(amps, s2[-1][[chain.start for chain in seg1.chains]].T)
        return amps

    @pytest.mark.parametrize("lam", [1.0, 1.7])
    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_on_matches_sequential_pulses(self, n_atoms, lam, monkeypatch):
        cfg = reference_config(n_atoms=n_atoms, tau=0.4, include_decay=True, gamma=mhz(0.05), lambda_ratio=lam)
        amps = self.chunk(n_atoms, cfg, monkeypatch)
        assert np.abs(amps).max() < 1.0 - 1e-3  # the decay shows

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_in_pulse_two_only_matches_sequential_pulses(self, n_atoms, monkeypatch):
        cfg = reference_config(n_atoms=n_atoms, tau=0.4, include_decay=True, lambda_ratio=1.7)
        cfg = replace(cfg, decay=DecayConfig(gamma_r=0.0, gamma_rp=mhz(0.05)))
        amps = self.chunk(n_atoms, cfg, monkeypatch)
        assert np.abs(amps).max() < 1.0 - 1e-3

    @pytest.mark.parametrize("n_atoms", [3, 5, 7])
    def test_decay_free_bitwise_equal_to_sequential_pulses(self, n_atoms, monkeypatch):
        self.chunk(n_atoms, reference_config(n_atoms=n_atoms, tau=0.4), monkeypatch)


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

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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

    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5])
    def test_frozen_disorder_leaves_no_phase_error(self, sigma):
        # T = 0: disordered but frozen positions.  Pulse II retraces pulse I
        # on each trial's static chain, so the dynamical phase cancels
        # exactly and the |11> branch keeps the ordered chain's phase, while
        # the disorder does change the fidelity
        cfg = reference_config(n_atoms=5, model=Model.FULL_VDW)
        rep = run_thermal_ensemble(5, cfg, ThermalConfig(temperature=0.0, position_sigma=sigma, trials=8, seed=4))
        assert rep.trials == 8 and rep.rejected == 0
        assert np.abs(rep.delta_phi_samples).max() < 1e-12
        assert np.abs(rep.fidelity_samples - rep.baseline_fidelity).max() > 1e-5

    def test_report_quantities_well_formed(self):
        cfg = reference_config(n_atoms=3, model=Model.FULL_VDW, tau=0.4)
        rep = run_thermal_ensemble(3, cfg, ThermalConfig(temperature=1e-6, trials=8, seed=2))
        assert 0.0 <= rep.fidelity_loss <= 1.0
        assert rep.delta_phi_rms >= 0.0
        assert rep.trials == 8
        assert rep.rejected == 0
