"""CLI: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import afmgate
from afmgate.cli import EXIT_CONFIG, EXIT_OK, _column_lines, _fmt, _git_describe, _resolved_params, main
from afmgate.config import Model, load_config, protocol_from_dict
from afmgate.evolution import STEPS_PER_PULSE
from afmgate.spectra import scan_spectrum
from afmgate.thermal import ThermalConfig, sample_kinematics

CONFIG = {
    "chain": {"n_atoms": 5, "spacing_um": 4.0},
    "interaction": {"b_mhz": 45.0, "lambda": 1.0},
    "pulse": {"omega0_mhz": 8.0, "delta0_mhz": 20.0, "tau_us": 1.0},
    "decay": {"gamma_r_mhz": 0.0005, "gamma_rp_mhz": 0.0005},
    "model": "vdw",
    "include_decay": True,
}

C_TABLE = {"3": 0.4769, "5": 0.2905, "7": 0.1974}


def write_config(tmp_path: Path, overrides=None) -> str:
    data = json.loads(json.dumps(CONFIG))
    for key, value in (overrides or {}).items():
        data[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def read_csv_rows(path: Path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestBasisDump:
    def test_lists_states_with_parity(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "basis-dump", "--nu", "3"])
        assert rc == EXIT_OK
        header, rows = read_csv_rows(out / "basis.csv")
        assert header == ["index", "bitstring", "n_rydberg", "parity"]
        assert len(rows) == 5
        assert rows[0][1] == "000" and rows[0][3] == "1"
        assert (out / "manifest.json").exists()

    def test_full_basis_flag(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "basis-dump", "--nu", "3", "--full"]) == EXIT_OK
        _, rows = read_csv_rows(out / "basis.csv")
        assert len(rows) == 8


class TestSpectrum:
    def test_emits_five_branches_for_nu3(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "--model", "pxp",
                   "spectrum", "--nu", "3", "--grid", "21"])
        assert rc == EXIT_OK
        header, rows = read_csv_rows(out / "spectrum.csv")
        ks = {int(r[1]) for r in rows}
        assert ks == {1, 2, 3, 4, 5}
        assert len(rows) == 21 * 5

    @pytest.mark.parametrize("nu,n_even,n_odd", [(1, 2, 0), (2, 3, 1)])
    def test_labels_count_the_inversion_sectors(self, tmp_path, nu, n_even, n_odd):
        # vdW nu = 1: |0>, |r>, both mirror images of themselves (no odd
        # sector); nu = 2: |00>, |rr> and (|r0> + |0r>) even, |r0> - |0r> odd
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "spectrum", "--nu", str(nu), "--grid", "11"]) == EXIT_OK
        header, rows = read_csv_rows(out / "spectrum.csv")
        labels = [r[header.index("symmetry")] for r in rows]
        assert len(rows) == 11 * (n_even + n_odd)
        assert labels.count("S") == 11 * n_even and labels.count("A") == 11 * n_odd

    def test_corrections_model_scan(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "--model", "corrections",
                   "spectrum", "--nu", "4", "--grid", "11"])
        assert rc == EXIT_OK
        _, rows = read_csv_rows(out / "spectrum.csv")
        assert len(rows) == 11 * 8  # F_6 = 8 constrained states

    def test_byte_identical_between_runs(self, tmp_path):
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "--model", "pxp",
                         "spectrum", "--nu", "3", "--grid", "21"]) == EXIT_OK
            blobs.append((out / "spectrum.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("model", ["vdw", "pxp"])
    def test_streamed_rows_match_the_whole_scan_writer(self, tmp_path, model):
        # the file is written one grid point at a time; its bytes are those
        # of every row formatted from whole columns and joined in one string
        cfg_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out), "--model", model,
                     "spectrum", "--nu", "4", "--grid", "9"]) == EXIT_OK
        cfg = replace(load_config(cfg_path), model=Model(model))
        scan = scan_spectrum(4, cfg.pulse, cfg.model, None if cfg.model is Model.PXP else cfg.interaction, grid_size=9)
        n_grid, dim = scan.eigenvalues.shape
        lines = _column_lines(
            np.repeat(scan.delta_grid, dim),
            np.tile(np.arange(1, dim + 1), n_grid),
            scan.eigenvalues.ravel(),
            [label.value for labels in scan.symmetry for label in labels],
            scan.eta_low.ravel(),
            scan.eta_high.ravel(),
        )
        header = [f"# {key} = {_fmt(val)}" for key, val in _resolved_params(cfg, nu=4, grid=9).items()]
        header.append("delta_rad_us,k,energy_rad_us,symmetry,eta_low,eta_high")
        assert (out / "spectrum.csv").read_text() == "\n".join([*header, *lines]) + "\n"


def run_python(args, cwd=None):
    """Run the interpreter on ``args`` with this source tree first on the path."""
    src = str(Path(afmgate.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": src})


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_loads_no_scipy():
    # only the RK4 stepper of evolve and thermal needs scipy (level-1 BLAS)
    result = run_python(["-c", f"import sys, afmgate.cli; print({SCIPY_MODULES})"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_static_chain_commands_load_no_scipy(tmp_path):
    cfg = write_config(tmp_path, {"chain": {"n_atoms": 3, "spacing_um": 4.0}})
    code = (
        "import sys; from afmgate.cli import main; "
        f"codes = [main(['--config', {cfg!r}, '--out', {str(tmp_path / 'gate')!r}, 'gate']), "
        f"main(['--config', {cfg!r}, '--out', {str(tmp_path / 'spectrum')!r}, 'spectrum', '--nu', '5'])]; "
        f"print(codes, {SCIPY_MODULES})"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"[{EXIT_OK}, {EXIT_OK}] []"
    assert (tmp_path / "gate" / "gate.json").exists() and (tmp_path / "spectrum" / "spectrum.csv").exists()


def test_python_m_afmgate_runs_the_cli(tmp_path):
    result = run_python(["-m", "afmgate", "--help"], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: afmgate")


class TestEvolve:
    def test_step_past_rk4_stability_refused(self, tmp_path, capsys):
        # vdW nu = 9 at the coarsest legal step: dt rho = 3.6 on the even
        # sector, past RK4's 2.8; the amplitudes would grow to 1e66
        cfg = write_config(tmp_path, {"dt_us": 0.001, "include_decay": True})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "9"]) == EXIT_CONFIG
        assert "dt_us" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_column_ends_at_pi_for_nu5(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "evolve", "--nu", "5"])
        assert rc == EXIT_OK
        header, rows = read_csv_rows(out / "evolve.csv")
        i_phi = header.index("phi_total")
        final = float(rows[-1][i_phi])
        assert abs(((final - np.pi) + np.pi) % (2 * np.pi) - np.pi) < 0.05

    def test_even_chain_gets_bright_pair_column(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "4"]) == EXIT_OK
        header, _ = read_csv_rows(out / "evolve.csv")
        assert "p_afm_excited" in header

    def test_byte_identical_between_runs(self, tmp_path, monkeypatch):
        # vdW nu = 4: part of the phase record takes the eigenvector fallback
        from afmgate import evolution

        fallback_rows = []
        dense = evolution._max_overlap_energies

        def counting(h, phi):
            fallback_rows.append(len(h))
            return dense(h, phi)

        monkeypatch.setattr(evolution, "_max_overlap_energies", counting)
        cfg = write_config(tmp_path)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "4"]) == EXIT_OK
            blobs.append((out / "evolve.csv").read_bytes())
        assert sum(fallback_rows) > 0
        assert blobs[0] == blobs[1]

    def test_decay_makes_norm_non_increasing(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "3"]) == EXIT_OK
        header, rows = read_csv_rows(out / "evolve.csv")
        i = header.index("norm")
        norms = np.array([float(r[i]) for r in rows])
        assert np.all(np.diff(norms) <= 1e-10)
        assert norms[-1] < 1.0


class TestGateAndSweep:
    def test_gate_report_fidelity_in_expected_band(self, tmp_path):
        cfg = write_config(tmp_path)
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "gate", "--c-file", str(cfile)])
        assert rc == EXIT_OK
        report = json.loads((out / "gate.json").read_text())
        assert 0.985 <= report["fidelity"] <= 0.999
        assert report["error_model"]["tau_opt_us"] == pytest.approx(1.18, abs=0.05)

    def test_gate_does_not_read_the_config_step(self, tmp_path):
        # the gate's amplitudes take STEPS_PER_PULSE steps per pulse, so a
        # finer dt_us leaves gate.json byte for byte as it is
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        blobs = []
        for name, overrides in (("default", {}), ("fine", {"dt_us": 0.0005})):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, dict(overrides, chain={"n_atoms": 3, "spacing_um": 4.0}))
            out = tmp_path / name / "out"
            assert main(["--config", cfg, "--out", str(out), "gate", "--c-file", str(cfile)]) == EXIT_OK
            blobs.append((out / "gate.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sweep_emits_model_and_numeric_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "sweep", "--n-list", "3",
                   "--tau-min", "0.8", "--tau-max", "1.2", "--tau-points", "3",
                   "--c-file", str(cfile)])
        assert rc == EXIT_OK
        header, rows = read_csv_rows(out / "sweep.csv")
        assert header == ["n_atoms", "tau_us", "e_numeric", "e_decay", "e_leakage", "e_model", "fidelity"]
        assert len(rows) == 3
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert "3" in summary

    def test_sweep_runs_all_chain_sizes_in_one_pool(self, tmp_path, pool_sizes):
        # one (N, chunk) task per chain size, mapped together
        cfg = write_config(tmp_path)
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            rc = main(["--config", cfg, "--out", str(out), "--jobs", jobs, "sweep", "--n-list", "3,4",
                       "--tau-points", "2", "--c-file", str(cfile)])
            assert rc == EXIT_OK
            outputs.append([(out / name).read_bytes() for name in ("sweep.csv", "sweep_summary.json")])
        assert pool_sizes == [2]
        assert outputs[0] == outputs[1]
        _, rows = read_csv_rows(tmp_path / "out1" / "sweep.csv")
        assert [row[0] for row in rows] == ["3", "3", "4", "4"]

    def test_sweep_and_fit_c_headers_record_the_step_count_they_run(self, tmp_path):
        # both run every duration at tau / STEPS_PER_PULSE, whatever the
        # config's dt_us
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        sweeps = []
        for name, overrides in (("default", {}), ("fine", {"dt_us": 0.0005})):
            (tmp_path / name).mkdir()
            cfg = write_config(tmp_path / name, overrides)
            out = tmp_path / name / "out"
            assert main(["--config", cfg, "--out", str(out), "sweep", "--n-list", "3", "--tau-points", "1",
                         "--c-file", str(cfile)]) == EXIT_OK
            sweeps.append((out / "sweep.csv").read_bytes())
        assert sweeps[0] == sweeps[1]
        out = tmp_path / "fit"
        assert main(["--config", cfg, "--out", str(out), "fit-c", "--nu-list", "3"]) == EXIT_OK
        for path in (tmp_path / "fine" / "out" / "sweep.csv", out / "fit_c.csv"):
            header = dict(line[2:].split(" = ", 1) for line in path.read_text().splitlines() if line.startswith("# "))
            assert header["steps_per_pulse"] == str(STEPS_PER_PULSE) and "dt_us" not in header

    def test_sweep_keeps_the_configured_envelope_width(self, tmp_path):
        data = json.loads(json.dumps(CONFIG))
        data["chain"]["n_atoms"] = 3
        data["pulse"]["sigma_us"] = 0.3
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps(C_TABLE))
        gate_out, sweep_out = tmp_path / "gate", tmp_path / "sweep"
        assert main(["--config", str(cfg), "--out", str(gate_out), "gate", "--c-file", str(cfile)]) == EXIT_OK
        assert main(["--config", str(cfg), "--out", str(sweep_out), "sweep", "--n-list", "3", "--tau-min", "1",
                     "--tau-max", "1", "--tau-points", "1", "--c-file", str(cfile)]) == EXIT_OK
        infidelity = json.loads((gate_out / "gate.json").read_text())["infidelity"]
        header, rows = read_csv_rows(sweep_out / "sweep.csv")
        (row,) = rows
        assert float(row[header.index("tau_us")]) == 1.0
        assert abs(float(row[header.index("e_numeric")]) - infidelity) < 1e-12

    def test_decay_free_gate_reports_null_optimum(self, tmp_path):
        data = json.loads(json.dumps(CONFIG))
        del data["decay"]
        data["chain"]["n_atoms"] = 3
        data["pulse"]["tau_us"] = 0.5
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "gate"]) == EXIT_OK
        text = (out / "gate.json").read_text()
        assert "NaN" not in text
        model = json.loads(text)["error_model"]
        assert model["tau_opt_us"] is None
        assert model["e_min"] is None
        assert model["e_decay"] == 0.0


class TestThermalCommand:
    def test_summary_and_per_trial_rows(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "--seed", "3",
                   "thermal", "--temp-uK", "1.0", "--trials", "8", "--tau-us", "0.5"])
        assert rc == EXIT_OK
        _, rows = read_csv_rows(out / "thermal.csv")
        assert len(rows) == 9  # one per trial plus the summary row
        assert rows[-1][0] == "summary"
        summary = json.loads((out / "thermal_summary.json").read_text())
        assert summary["trials"] == 8
        assert summary["analytic_delta_phi_rad"] > 0

    def test_header_records_the_thermal_step(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "thermal", "--trials", "2",
                     "--tau-us", "0.5"]) == EXIT_OK
        header = dict(
            line[2:].split(" = ", 1)
            for line in (out / "thermal.csv").read_text().splitlines()
            if line.startswith("# ")
        )
        assert float(header["dt_us"]) == 0.5 / 1500

    def test_close_pair_runs_at_a_stable_step(self, tmp_path):
        # seed 3 draws a pair 2.33 um apart in trial 4: its C6 / d^6 puts
        # RK4 at tau / 1500 past its stability bound, so that run takes a
        # finer step and writes finite rows
        tcfg = ThermalConfig(temperature=1e-6, position_sigma=0.5, trials=8, seed=3)
        gaps = [np.diff(4.0 * np.arange(3) + sample_kinematics(tcfg, 3, k).offsets).min() for k in range(8)]
        assert min(gaps) < 2.5
        cfg = write_config(tmp_path, {"chain": {"n_atoms": 3, "spacing_um": 4.0}})
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--seed", "3", "thermal", "--temp-uK", "1.0",
                     "--trials", "8", "--position-sigma-um", "0.5"]) == EXIT_OK
        header = dict(
            line[2:].split(" = ", 1)
            for line in (out / "thermal.csv").read_text().splitlines()
            if line.startswith("# ")
        )
        assert float(header["dt_us"]) < 1.0 / 1500
        _, rows = read_csv_rows(out / "thermal.csv")
        assert len(rows) == 9 and np.all(np.isfinite([[float(x) for x in row[1:]] for row in rows]))

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out), "--seed", "9",
                         "thermal", "--temp-uK", "1.0", "--trials", "6", "--tau-us", "0.5"]) == EXIT_OK
            blobs.append((out / "thermal.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestTransferError:
    def test_closed_form_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "transfer-error",
                   "--b-mhz", "45", "--b-prime-mhz", "-45", "--omega-sd-mhz", "50"])
        assert rc == EXIT_OK
        data = json.loads((out / "transfer_error.json").read_text())
        assert data["transfer_error"] == pytest.approx(7.9102e-4, rel=1e-4)


class TestFitC:
    def test_fit_c_single_chain(self, tmp_path):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "fit-c", "--nu-list", "3"])
        assert rc == EXIT_OK
        data = json.loads((out / "fit_c.json").read_text())
        assert abs(data["3"]["c"] - 0.43) / 0.43 < 0.15
        assert data["3"]["r_squared"] > 0.95


class TestDumpHamiltonian:
    def test_mid_sweep_matrix_entries(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "--model", "pxp",
                   "spectrum", "--nu", "3", "--grid", "11", "--dump-hamiltonian"])
        assert rc == EXIT_OK
        header, rows = read_csv_rows(out / "hamiltonian.csv")
        assert header == ["row", "col", "re", "im"]
        # at mid-sweep Delta = 0 only drive couplings survive: 5 flip
        # pairs, both matrix triangles
        assert len(rows) == 10


class TestErrorHandling:
    def test_malformed_config_exits_2_without_partial_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        rc = main(["--config", str(bad), "--out", str(out), "evolve"])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_missing_section_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"chain": {"n_atoms": 5, "spacing_um": 4.0}}))
        out = tmp_path / "out"
        assert main(["--config", str(bad), "--out", str(out), "evolve"]) == EXIT_CONFIG
        assert not out.exists()

    def test_config_required_for_physics_commands(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "evolve"]) == EXIT_CONFIG

    def test_unknown_model_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"model": "bogus"})
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), "evolve"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["gate", "sweep"])
    @pytest.mark.parametrize("field,name", [("delta0_mhz", "delta0"), ("omega0_mhz", "omega0")])
    def test_gap_without_chirp_or_drive_exits_2(self, tmp_path, capsys, command, field, name):
        # the gap-derived Landau-Zener constants need a chirp (the gap grid
        # is the sweep of Delta0) and a drive (kappa is the gap over |Omega0|)
        cfg = write_config(tmp_path, {"pulse": dict(CONFIG["pulse"], **{field: 0.0})})
        c_file = tmp_path / "c.json"
        c_file.write_text(json.dumps(C_TABLE))  # the odd constants: sweep fits none
        argv = {
            "gate": ["gate"],
            "sweep": ["sweep", "--n-list", "5", "--tau-min", "0.5", "--tau-max", "1", "--tau-points", "3",
                      "--c-file", str(c_file)],
        }[command]
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
        assert f"{name} (pulse.{field}) is 0" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_below_one_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"include_decay": False})
        out = tmp_path / "out"
        rc = main(["--config", cfg, "--out", str(out), "--jobs", "0",
                   "thermal", "--trials", "2", "--tau-us", "0.5"])
        assert rc == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["thermal", "--trials", "0"], "--trials"),
            (["thermal", "--temp-uK", "-1"], "--temp-uK"),
            (["thermal", "--position-sigma-um", "-1"], "--position-sigma-um"),
            (["sweep", "--tau-points", "0"], "--tau-points"),
            (["evolve", "--nu", "0"], "--nu"),
            (["spectrum", "--nu", "0"], "--nu"),
            (["basis-dump", "--nu", "0"], "--nu"),
            (["spectrum", "--grid", "1"], "--grid"),
            (["thermal", "--trials", "2", "--tau-us", "0"], "--tau-us must be > 0"),
            (["--seed", "-1", "thermal", "--trials", "2"], "--seed"),
            (["--seed", "18446744073709551616", "thermal", "--trials", "2"], "--seed"),
        ],
    )
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, argv, flag):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n-list", "2"], "--n-list entries must be >= 3, got 2"),
            (["sweep", "--n-list", "abc"], "--n-list must be comma-separated integers"),
            (["sweep", "--n-list", "3,,5"], "--n-list must be comma-separated integers"),
            (["fit-c", "--nu-list", "x"], "--nu-list must be comma-separated integers"),
            (["fit-c", "--nu-list", "2"], "--nu-list entries must be odd and >= 3, got 2"),
            (["evolve", "--nu", "11"], "dense matrix dimension 2048 exceeds"),
            (["spectrum", "--nu", "11"], "dense matrix dimension 2048 exceeds"),
            (["basis-dump", "--nu", "40"], "atom count 40 outside"),
            (["--model", "corrections", "gate"], "time propagation supports the PXP and full vdW models"),
            (["--model", "corrections", "evolve", "--nu", "3"], "time propagation supports the PXP and full vdW"),
            (["--model", "pxp", "thermal"], "thermal motion requires the full van der Waals model"),
            (["--model", "corrections", "thermal"], "thermal motion requires the full van der Waals model"),
            (["sweep", "--n-list", "3,3"], "--n-list entries must be distinct, got 3 more than once"),
            (["fit-c", "--nu-list", "3,5,3"], "--nu-list entries must be distinct, got 3 more than once"),
        ],
    )
    def test_bad_input_exits_2_without_output_directory(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)  # the vdW model
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--tau-min", "nan"], "--tau-min must be finite, got nan"),
            (["sweep", "--tau-min", "inf", "--tau-max", "inf"], "--tau-min must be finite, got inf"),
            (["sweep", "--tau-max=-inf"], "--tau-max must be finite, got -inf"),
            (["thermal", "--tau-us", "nan"], "--tau-us must be finite, got nan"),
            (["thermal", "--temp-uK", "inf"], "--temp-uK must be finite, got inf"),
            (["thermal", "--position-sigma-um", "nan"], "--position-sigma-um must be finite, got nan"),
            (["transfer-error", "--b-mhz", "nan", "--b-prime-mhz", "-45", "--omega-sd-mhz", "50"],
             "--b-mhz must be finite, got nan"),
        ],
    )
    def test_non_finite_flag_exits_2(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section,key,value,message",
        [
            ("pulse", "tau_us", float("nan"), "'pulse.tau_us' must be a finite number, got nan"),
            ("pulse", "omega0_mhz", float("nan"), "'pulse.omega0_mhz' must be a finite number, got nan"),
            ("pulse", "delta0_mhz", float("inf"), "'pulse.delta0_mhz' must be a finite number, got inf"),
            ("pulse", "sigma_us", float("nan"), "'pulse.sigma_us' must be a finite number, got nan"),
            ("decay", "gamma_r_mhz", float("nan"), "'decay.gamma_r_mhz' must be a finite number, got nan"),
            ("interaction", "b_mhz", float("nan"), "'interaction.b_mhz' must be a finite number, got nan"),
            ("interaction", "lambda", float("-inf"), "'interaction.lambda' must be a finite number, got -inf"),
            ("chain", "spacing_um", float("nan"), "'chain.spacing_um' must be a finite number, got nan"),
            ("chain", "spacing_um", 10**400, "'chain.spacing_um' must be a finite number, got 1000"),
            (None, "dt_us", float("nan"), "'dt_us' must be a finite number, got nan"),
            ("pulse", "tau_us", "1.0", "'pulse.tau_us' must be a finite number, got '1.0'"),
            ("pulse", "tau_us", None, "'pulse.tau_us' must be a finite number, got None"),
            ("chain", "n_atoms", 5.7, "'chain.n_atoms' must be an integer, got 5.7"),
            ("chain", "n_atoms", "5", "'chain.n_atoms' must be an integer, got '5'"),
            ("chain", "n_atoms", True, "'chain.n_atoms' must be an integer, got True"),
            ("interaction", "range_cutoff", 1.5, "'interaction.range_cutoff' must be an integer, got 1.5"),
            (None, "include_decay", "false", "'include_decay' must be true or false, got 'false'"),
            (None, "include_decay", 0, "'include_decay' must be true or false, got 0"),
        ],
    )
    def test_bad_config_value_exits_2_naming_the_field(self, tmp_path, capsys, section, key, value, message):
        data = json.loads(json.dumps(CONFIG))
        (data if section is None else data[section])[key] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(data))  # NaN and Infinity as JSON extensions
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "gate"]) == EXIT_CONFIG
        assert f"config error: config field {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"1": NaN, "3": "0.47"}', "entry '1' must be a finite number > 0, got nan"),
            ('{"3": Infinity}', "entry '3' must be a finite number > 0, got inf"),
            ('{"3": "0.47"}', "entry '3' must be a finite number > 0, got '0.47'"),
            ('{"3": true}', "entry '3' must be a finite number > 0, got True"),
            ('{"3": 0}', "entry '3' must be a finite number > 0, got 0"),
            ('{"1": -0.3}', "entry '1' must be a finite number > 0, got -0.3"),
            ('{"3": {"c": NaN}}', "entry '3' must be a finite number > 0, got nan"),
            ('{"3": {"tau_us": 1.0}}', "entry '3' must be a finite number > 0, got None"),
            ('{"3.5": 0.47}', "key '3.5' must be a chain size >= 1"),
            ('{"0": 0.47}', "key '0' must be a chain size >= 1"),
            ('{"-3": 0.47}', "key '-3' must be a chain size >= 1"),
            ('{"x": 0.47}', "key 'x' must be a chain size >= 1"),
            ("[0.47]", "must hold a JSON object, got list"),
            ("{", "cannot parse c-constants file"),
        ],
    )
    def test_bad_c_file_exits_2_naming_the_entry(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path)
        cfile = tmp_path / "c.json"
        cfile.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "gate", "--c-file", str(cfile)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_integral_numbers_and_booleans_are_read_exactly(self):
        data = json.loads(json.dumps(CONFIG))
        data["chain"]["n_atoms"] = 5.0
        data["interaction"]["range_cutoff"] = 2.0
        data["include_decay"] = False
        cfg = protocol_from_dict(data)
        assert cfg.chain.n_atoms == 5 and isinstance(cfg.chain.n_atoms, int)
        assert cfg.interaction.range_cutoff == 2 and isinstance(cfg.interaction.range_cutoff, int)
        assert cfg.include_decay is False
        data["interaction"]["range_cutoff"] = None  # null: no cutoff
        assert protocol_from_dict(data).interaction.range_cutoff is None

    def test_step_not_dividing_tau_exits_2_before_propagation(self, tmp_path, capsys, monkeypatch):
        from afmgate import evolution

        monkeypatch.setattr(evolution, "_run_segment", None)  # never reached
        cfg = write_config(tmp_path, {"dt_us": 0.00033})  # 3030.3 steps per pulse
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "3"]) == EXIT_CONFIG
        assert "config error: dt_us = 0.00033 does not evenly divide tau_us = 1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gate"],
            ["sweep", "--n-list", "3", "--tau-points", "2"],
            ["fit-c", "--nu-list", "3"],
            ["thermal", "--trials", "2"],
        ],
    )
    def test_commands_ignoring_the_step_run_with_an_uneven_one(self, tmp_path, argv):
        cfg = write_config(tmp_path, {"dt_us": 0.00033})
        assert main(["--config", cfg, "--out", str(tmp_path / "out"), *argv]) == EXIT_OK

    def test_failed_run_keeps_an_existing_output_directory(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", cfg, "--out", str(out), "evolve", "--nu", "11"]) == EXIT_CONFIG
        assert out.is_dir()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n-list", "5", "--tau-min", "-1"], "--tau-min must be > 0, got -1.0"),
            (["sweep", "--n-list", "5", "--tau-max", "0"], "--tau-max must be > 0, got 0.0"),
        ],
    )
    def test_non_positive_sweep_duration_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch, argv, message):
        from afmgate import cli

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_c_nu ran before the duration check")

        monkeypatch.setattr(cli, "fit_c_nu", no_fit)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *argv]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_failure_exits_3(self, tmp_path, monkeypatch):
        from afmgate import cli
        from afmgate.cli import EXIT_RUNTIME
        from afmgate.errors import PropagationError

        def failing(*args, **kwargs):
            raise PropagationError("non-finite amplitudes at t = 0.5")

        monkeypatch.setattr(cli, "run_protocol", failing)
        cfg = write_config(tmp_path)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"), "evolve", "--nu", "3"])
        assert rc == EXIT_RUNTIME


@pytest.fixture
def fresh_git_describe():
    # the build id is cached per process: each test finds its own, and
    # leaves none behind
    _git_describe.cache_clear()
    yield
    _git_describe.cache_clear()


def test_git_describe_ignores_the_callers_repository(tmp_path, monkeypatch, fresh_git_describe):
    # the manifest names the package's source tree, not the caller's cwd
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.chdir(tmp_path)
    package = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        capture_output=True, text=True, cwd=Path(afmgate.__file__).resolve().parent,
    )
    expected = package.stdout.strip() if package.returncode == 0 else f"afmgate-{afmgate.__version__}"
    assert _git_describe() == expected


def test_main_runs_git_once_per_process(tmp_path, monkeypatch, fresh_git_describe):
    real_run = subprocess.run
    calls = []

    def counting_run(argv, *args, **kwargs):
        calls.append(argv[0])
        return real_run(argv, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    manifests = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        assert main(["--out", str(out), "basis-dump", "--nu", "3"]) == EXIT_OK
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert calls == ["git"]
    assert manifests[0]["git_describe"] == manifests[1]["git_describe"]


def test_git_timeout_falls_back_to_the_version(tmp_path, monkeypatch, fresh_git_describe):
    def hung_git(argv, *args, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hung_git)
    out = tmp_path / "out"
    assert main(["--out", str(out), "basis-dump", "--nu", "3"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["git_describe"] == f"afmgate-{afmgate.__version__}"


def test_column_lines_match_per_value_format():
    # the per-row loop that cmd_evolve and cmd_spectrum used to run
    floats = np.array([0.0, -0.0, 5e-324, 1.0 / 3.0, -2.5e17, 6.283185307179586, np.nan, -np.inf])
    ints = np.arange(-3, len(floats) - 3)
    flags = (floats > 0).astype(int)
    labels = ["S", "A", "M", "S", "A", "S", "M", "A"]
    expect = [",".join(_fmt(v) for v in row) for row in zip(floats, ints, labels, floats[::-1], flags)]
    assert _column_lines(floats, ints, labels, floats[::-1], flags) == expect
