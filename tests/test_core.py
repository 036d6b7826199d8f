"""Units, configuration records and the chirped-pulse waveform."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from afmgate import evolution
from afmgate.cli import EXIT_CONFIG, main
from afmgate.config import (
    ChainConfig,
    DecayConfig,
    InteractionConfig,
    ProtocolConfig,
    PulseProfile,
    mean_rydberg_number,
    pulse_with_tau,
)
from afmgate.errors import ConfigError
from afmgate.units import mhz, to_mhz

from conftest import B_NN, DELTA0, OMEGA0, SPACING, TAU, reference_config
from oracles import flipped_interaction, rescaled_pulse


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_frequency_mhz_round_trip(value):
    assert math.isclose(to_mhz(mhz(value)), value, rel_tol=1e-12)


class TestPulseProfile:
    def test_envelope_is_exactly_zero_at_the_edges(self, pulse):
        assert pulse.omega(0.0) == 0.0
        assert pulse.omega(pulse.tau) == 0.0

    def test_envelope_peaks_at_omega0_mid_pulse(self, pulse):
        assert pulse.omega(pulse.tau / 2) == OMEGA0

    def test_quarter_point_value_matches_direct_evaluation(self, pulse):
        # frozen from a 40-digit evaluation of the flat-top formula at
        # t = 0.25, omega0 = 2pi x 8, tau = 1, sigma = 0.385
        assert pulse.omega(0.25) == pytest.approx(48.70092739821879, rel=1e-13)
        assert pulse.omega(0.25) == pulse.omega(0.75)

    def test_detuning_endpoints_and_linearity(self, pulse):
        assert pulse.delta(0.0) == -DELTA0
        assert pulse.delta(pulse.tau / 2) == 0.0
        assert pulse.delta(pulse.tau) == DELTA0
        assert pulse.delta(0.75) == pytest.approx(DELTA0 / 2, rel=1e-14)

    def test_envelope_even_and_detuning_odd_about_mid_pulse(self, pulse):
        rng = np.random.default_rng(42)
        ts = rng.uniform(0.0, pulse.tau, 1000)
        for t in ts:
            assert abs(pulse.omega(t) - pulse.omega(pulse.tau - t)) < 1e-12 * OMEGA0
            assert abs(pulse.delta(t) + pulse.delta(pulse.tau - t)) < 1e-12 * DELTA0

    def test_detuning_strictly_increasing(self, pulse):
        ts = np.linspace(0.0, pulse.tau, 500)
        deltas = [pulse.delta(t) for t in ts]
        assert np.all(np.diff(deltas) > 0)

    def test_out_of_window_time_rejected(self, pulse):
        with pytest.raises(ValueError):
            pulse.omega(-0.01)
        with pytest.raises(ValueError):
            pulse.delta(pulse.tau + 0.01)

    def test_sigma_defaults_to_0385_tau(self):
        p = PulseProfile(1.0, 2.0, 2.0)
        assert p.sigma == pytest.approx(0.385 * 2.0, rel=1e-15)

    def test_new_duration_keeps_the_width_ratio(self):
        default = pulse_with_tau(PulseProfile(1.0, 2.0, 1.0), 3.0)
        assert default.sigma == 0.385 * 3.0  # as a pulse built at that duration
        p = pulse_with_tau(PulseProfile(1.0, 2.0, 1.0, sigma=0.3), 2.5)
        assert (p.omega0, p.delta0, p.tau) == (1.0, 2.0, 2.5)
        assert p.sigma == pytest.approx(0.75, rel=1e-15)

    def test_rescaled_pulse_is_time_compressed_and_amplified(self, pulse):
        lam = 2.0
        p2 = rescaled_pulse(pulse, lam)
        assert p2.tau == pulse.tau / lam
        for s in (0.1, 0.2, 0.37):
            assert p2.omega(s) == pytest.approx(lam * pulse.omega(lam * s), rel=1e-13)
            assert p2.delta(s) == pytest.approx(lam * pulse.delta(lam * s), rel=1e-13)

    def test_omega_dot_matches_finite_difference(self, pulse):
        h = 1e-7
        for t in (0.15, 0.3, 0.5, 0.82):
            fd = (pulse.omega(t + h) - pulse.omega(t - h)) / (2 * h)
            assert pulse.omega_dot(t) == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestInteractionConfig:
    def test_nearest_neighbour_strength(self):
        inter = InteractionConfig.from_nn_strength(mhz(45), 4.0)
        assert math.isclose(inter.b_nn, mhz(45), rel_tol=1e-12)
        assert inter.pair_strength(1, 2) == pytest.approx(mhz(45), rel=1e-12)

    def test_next_nearest_is_b_over_64(self):
        inter = InteractionConfig.from_nn_strength(mhz(45), 4.0)
        assert inter.pair_strength(1, 3) == pytest.approx(mhz(45) / 64, rel=1e-12)
        assert inter.b_nnn == pytest.approx(mhz(45) / 64, rel=1e-12)

    def test_self_interaction_rejected(self):
        inter = InteractionConfig.from_nn_strength(mhz(45), 4.0)
        with pytest.raises(ValueError):
            inter.pair_strength(2, 2)

    def test_pair_strength_symmetric(self):
        inter = InteractionConfig.from_nn_strength(mhz(45), 4.0)
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert inter.pair_strength(i, j) == inter.pair_strength(j, i)

    def test_range_cutoff_zeroes_distant_pairs(self):
        inter = InteractionConfig.from_nn_strength(mhz(45), 4.0, range_cutoff=2)
        assert inter.pair_strength(0, 2) != 0.0
        assert inter.pair_strength(0, 3) == 0.0

    def test_sign_carries_through(self):
        inter = InteractionConfig.from_nn_strength(-mhz(45), 4.0)
        assert inter.pair_strength(0, 1) < 0
        flipped = flipped_interaction(inter)
        assert flipped.b_nn == pytest.approx(mhz(45), rel=1e-12)

    def test_lambda_must_be_positive(self):
        with pytest.raises(ConfigError):
            InteractionConfig.from_nn_strength(mhz(45), 4.0, lambda_ratio=0.0)


class TestChainAndDecay:
    def test_small_chains_rejected(self):
        with pytest.raises(ConfigError):
            ChainConfig(n_atoms=2, spacing=4.0)

    def test_mean_decay_rate_weighted_by_durations(self):
        decay = DecayConfig(gamma_r=2.0, gamma_rp=4.0)
        lam = 2.0
        tau = 1.0
        tau_p = tau / lam
        expect = (2.0 * tau + 4.0 * tau_p) / (tau + tau_p)
        assert decay.mean_rate(tau, lam) == pytest.approx(expect, rel=1e-12)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            DecayConfig(gamma_r=-1.0)


class TestProtocolConfig:
    def test_default_dt_is_tau_over_4000(self):
        cfg = reference_config()
        assert cfg.dt == pytest.approx(1.0 / 4000, rel=1e-12)

    def test_coarse_dt_rejected(self, tmp_path, capsys, monkeypatch):
        # the config takes any finite step > 0; evolve, the one command
        # that reads it, refuses one coarser than tau / DT_STEPS_MIN
        assert reference_config(dt=1.0 / 500).dt == 1.0 / 500
        monkeypatch.setattr(evolution, "_run_segment", None)  # never reached
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "chain": {"n_atoms": 5, "spacing_um": SPACING},
            "interaction": {"b_mhz": to_mhz(B_NN)},
            "pulse": {"omega0_mhz": to_mhz(OMEGA0), "delta0_mhz": to_mhz(DELTA0), "tau_us": TAU},
            "dt_us": TAU / 500,
        }))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "evolve", "--nu", "3"]) == EXIT_CONFIG
        assert "config error: dt_us = 0.002 is too coarse" in capsys.readouterr().err
        assert not out.exists()

    def test_total_duration_includes_rescaled_second_pulse(self):
        cfg = reference_config(lambda_ratio=2.0)
        assert cfg.tau_total == pytest.approx(1.5, rel=1e-12)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChainConfig(n_atoms=5, spacing=NAN),
        lambda: InteractionConfig(c6=NAN, spacing=4.0),
        lambda: InteractionConfig(c6=1.0, spacing=4.0, lambda_ratio=INF),
        lambda: PulseProfile(NAN, mhz(20), 1.0),
        lambda: PulseProfile(mhz(8), INF, 1.0),
        lambda: PulseProfile(mhz(8), mhz(20), NAN),
        lambda: PulseProfile(mhz(8), mhz(20), 1.0, sigma=NAN),
        lambda: rescaled_pulse(PulseProfile(mhz(8), mhz(20), 1.0), NAN),
        lambda: DecayConfig(gamma_r=NAN),
        lambda: DecayConfig(gamma_rp=INF),
        lambda: reference_config(dt=NAN),
    ],
)
def test_non_finite_values_rejected(build):
    with pytest.raises(ConfigError, match="finite"):
        build()


class TestMeanRydbergNumber:
    @pytest.mark.parametrize("n,expect", [(5, Fraction(9, 4)), (4, Fraction(7, 4)), (8, Fraction(15, 4))])
    def test_examples(self, n, expect):
        assert mean_rydberg_number(n) == expect

    def test_matches_brute_force_average_over_inputs(self):
        for n in range(3, 21):
            sizes = [n - 2, n - 1, n - 1, n]
            brute = Fraction(sum(math.ceil(Fraction(nu, 2)) for nu in sizes), 4)
            assert mean_rydberg_number(n) == brute
