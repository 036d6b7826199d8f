"""Command-line front end: config in, plot-ready CSV/JSON artifacts out.

Every run writes a manifest recording the command, config, seed and build
identity next to its outputs.  CSV files carry a commented header block
with all resolved parameters and are byte-identical for identical inputs
and seed (the manifest holds the only timestamp).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .basis import bit_counts, bitstring, build_blockade_basis, build_full_basis
from .config import Model, ProtocolConfig, json_float, load_config, pulse_with_tau
from .errors import ConfigError, FitQualityError
from .evolution import run_protocol
from .gate import (
    assemble_gate,
    build_error_model,
    compensating_detuning,
    fit_c_nu,
    kappa_c_table,
    sweep_tau,
    transfer_error,
)
from .hamiltonian import ChainHamiltonian, model_basis
from .spectra import scan_spectrum
from .thermal import ThermalConfig, run_thermal_ensemble
from .units import mhz, to_mhz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_FIT = 4


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"afmgate-{__version__}"


def _write_manifest(args: argparse.Namespace, out_dir: Path) -> None:
    manifest = {
        "command": args.command,
        "config_path": str(args.config) if args.config else None,
        "output_dir": str(out_dir),
        "git_describe": _git_describe(),
        "seed": args.seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_lines(path: Path, header_params: Dict[str, object], columns: Sequence[str],
                 lines: Iterable[str]) -> None:
    header = [f"# {key} = {_fmt(val)}" for key, val in header_params.items()]
    header.append(",".join(columns))
    path.write_text("\n".join([*header, *lines]) + "\n")


def _write_csv(path: Path, header_params: Dict[str, object], columns: Sequence[str],
               rows: Iterable[Sequence[object]]) -> None:
    _write_lines(path, header_params, columns, (",".join(_fmt(v) for v in row) for row in rows))


def _column_lines(*columns) -> List[str]:
    """CSV rows from whole columns: a numeric array is written as the repr
    of its Python values (as ``_fmt`` writes each value), a list of
    strings as it is."""
    text = [col if isinstance(col, list) else list(map(repr, col.tolist())) for col in columns]
    return [",".join(row) for row in zip(*text)]


def _resolved_params(cfg: ProtocolConfig, **extra) -> Dict[str, object]:
    params: Dict[str, object] = {
        "n_atoms": cfg.chain.n_atoms,
        "spacing_um": cfg.chain.spacing,
        "b_mhz": to_mhz(cfg.interaction.b_nn),
        "c6_mhz_um6": to_mhz(cfg.interaction.c6),
        "lambda": cfg.interaction.lambda_ratio,
        "omega0_mhz": to_mhz(cfg.pulse.omega0),
        "delta0_mhz": to_mhz(cfg.pulse.delta0),
        "tau_us": cfg.pulse.tau,
        "sigma_us": cfg.pulse.sigma,
        "gamma_r_mhz": to_mhz(cfg.decay.gamma_r),
        "gamma_rp_mhz": to_mhz(cfg.decay.gamma_rp),
        "model": cfg.model.value,
        "dt_us": cfg.dt,
        "include_decay": cfg.include_decay,
    }
    params.update(extra)
    return params


def cmd_spectrum(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    nu = args.nu if args.nu is not None else cfg.chain.n_atoms
    interaction = None if cfg.model is Model.PXP else cfg.interaction
    scan = scan_spectrum(nu, cfg.pulse, cfg.model, interaction, grid_size=args.grid)
    if args.dump_hamiltonian:
        # mid-sweep matrix as (row, col, re, im) for cross-implementation diffs
        t_mid = cfg.pulse.tau / 2.0
        h = ChainHamiltonian(cfg.model, model_basis(cfg.model, nu), interaction).matrix(
            cfg.pulse.omega(t_mid), cfg.pulse.delta(t_mid)
        )
        rows = [(i, j, h[i, j].real, h[i, j].imag) for i, j in zip(*np.nonzero(h))]
        _write_csv(
            out_dir / "hamiltonian.csv",
            _resolved_params(cfg, nu=nu, t_us=t_mid),
            ("row", "col", "re", "im"),
            rows,
        )
    n_grid, dim = scan.eigenvalues.shape
    lines = _column_lines(
        np.repeat(scan.delta_grid, dim),
        np.tile(np.arange(1, dim + 1), n_grid),
        scan.eigenvalues.ravel(),
        [label.value for labels in scan.symmetry for label in labels],
        scan.eta_low.ravel(),
        scan.eta_high.ravel(),
    )
    _write_lines(
        out_dir / "spectrum.csv",
        _resolved_params(cfg, nu=nu, grid=args.grid),
        ("delta_rad_us", "k", "energy_rad_us", "symmetry", "eta_low", "eta_high"),
        lines,
    )


def cmd_evolve(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    nu = args.nu if args.nu is not None else cfg.chain.n_atoms
    run = run_protocol(nu, cfg)
    traj, phases = run.trajectory, run.phases
    pops = traj.populations
    columns = ["t_us", "norm", "p_ground", "p_afm"]
    values = [traj.times, traj.norms, pops["ground"], pops["afm"]]
    if "afm_excited" in pops:
        columns.append("p_afm_excited")
        values.append(pops["afm_excited"])
    columns += ["phi_total", "phi_dynamical", "phi_geometric", "phi_valid"]
    values += [phases.phi_total, phases.phi_dynamical, phases.phi_geometric, phases.valid.astype(int)]
    _write_lines(out_dir / "evolve.csv", _resolved_params(cfg, nu=nu), columns, _column_lines(*values))


def cmd_gate(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    n = cfg.chain.n_atoms
    fitted_c = _load_c_file(args.c_file)
    report = assemble_gate(n, cfg)
    model = build_error_model(n, cfg, fitted_c=fitted_c)
    summary = {
        "n_atoms": n,
        "u_diag": [[z.real, z.imag] for z in report.u_diag],
        "u_phases_rad": [float(np.angle(z)) for z in report.u_diag],
        "global_phase_removed": report.global_phase_removed,
        "fidelity": report.fidelity,
        "infidelity": report.infidelity,
        "error_model": {
            "e_decay": model.e_decay,
            "e_leakage": model.e_leakage,
            "e_leakage_dominant": model.e_leakage_dominant,
            "tau_opt_us": model.tau_opt,
            "e_min": model.e_min,
            "mu": model.mu,
            "nu_bar": model.nu_bar,
            "c_nu": {str(k): v for k, v in sorted(model.c_nu.items())},
            "lambda1": model.lambda1,
            "lambda2": model.lambda2,
        },
    }
    (out_dir / "gate.json").write_text(json.dumps(summary, indent=2) + "\n")


def _load_c_file(path: Optional[str]) -> Optional[Dict[int, float]]:
    """Landau-Zener constants by chain size from a JSON object, {"3": 0.47}
    or the ``fit-c`` form {"3": {"c": 0.47, ...}}: each key a chain size
    >= 1, each constant a finite JSON number > 0."""
    if path is None:
        return None
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError(f"cannot parse c-constants file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"c-constants file {path} must hold a JSON object, got {type(data).__name__}")
    table: Dict[int, float] = {}
    for key, entry in data.items():
        if not re.fullmatch(r"[1-9][0-9]*", key):
            raise ConfigError(f"c-constants file {path}: key {key!r} must be a chain size >= 1")
        value = entry.get("c") if isinstance(entry, dict) else entry
        c = json_float(value)
        if not 0.0 < c < math.inf:
            raise ConfigError(f"c-constants file {path}: entry {key!r} must be a finite number > 0, got {value!r}")
        table[int(key)] = c
    return table


def _c_table_for(n_list: Sequence[int], cfg: ProtocolConfig,
                 fitted: Optional[Dict[int, float]]) -> Dict[int, float]:
    """Fitted constants for odd chain sizes (fitting on demand), gap-derived
    values elsewhere."""
    needed = sorted({nu for n in n_list for nu in (n - 2, n - 1, n)})
    table: Dict[int, float] = dict(fitted or {})
    odd_missing = [nu for nu in needed if nu % 2 == 1 and nu >= 3 and nu not in table]
    for nu in odd_missing:
        table[nu] = fit_c_nu(nu, cfg).c
    rest = [nu for nu in needed if nu not in table]
    if rest:
        table.update(kappa_c_table(rest, cfg.pulse))
    return table


def cmd_sweep(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    n_list = args.n_list  # parsed by _check_arg_ranges
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_points)
    c_table = _c_table_for(n_list, cfg, _load_c_file(args.c_file))
    points = sweep_tau(n_list, cfg, taus, c_table, jobs=args.jobs)
    rows = [(p.n_atoms, p.tau, p.e_numeric, p.e_decay, p.e_leakage, p.e_model, p.fidelity) for p in points]
    summary: Dict[str, Dict[str, float]] = {}
    for n in n_list:
        best = min((p for p in points if p.n_atoms == n), key=lambda p: p.e_numeric)
        model = build_error_model(n, replace(cfg, chain=replace(cfg.chain, n_atoms=n)), fitted_c=c_table)
        summary[str(n)] = {
            "tau_best_numeric_us": best.tau,
            "e_best_numeric": best.e_numeric,
            "tau_opt_model_us": model.tau_opt,
            "e_min_model": model.e_min,
        }
    _write_csv(
        out_dir / "sweep.csv",
        _resolved_params(cfg, n_list=",".join(map(str, n_list)),
                         c_table=json.dumps({str(k): v for k, v in sorted(c_table.items())})),
        ("n_atoms", "tau_us", "e_numeric", "e_decay", "e_leakage", "e_model", "fidelity"),
        rows,
    )
    (out_dir / "sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def cmd_thermal(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    if args.tau_us is not None:
        cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, args.tau_us), dt=None)
    cfg = replace(cfg, include_decay=False)
    tcfg = ThermalConfig(
        temperature=args.temp_uk * 1e-6,
        position_sigma=args.position_sigma_um,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_thermal_ensemble(cfg.chain.n_atoms, cfg, tcfg, jobs=args.jobs)
    rows = [
        (i, report.delta_phi_samples[i], report.fidelity_samples[i])
        for i in range(report.trials)
    ]
    rows.append(("summary", report.delta_phi_rms, float(np.mean(report.fidelity_samples))))
    _write_csv(
        out_dir / "thermal.csv",
        _resolved_params(cfg, dt_us=report.dt, temp_uK=args.temp_uk, trials=report.trials, seed=tcfg.seed),
        ("trial", "delta_phi_rad", "fidelity"),
        rows,
    )
    summary = {
        "n_atoms": report.n_atoms,
        "trials": report.trials,
        "rejected": report.rejected,
        "delta_phi_rms_rad": report.delta_phi_rms,
        "fidelity_loss": report.fidelity_loss,
        "thermal_excess_loss": report.thermal_excess_loss,
        "baseline_fidelity": report.baseline_fidelity,
        "analytic_delta_b2_rad_us": report.analytic_estimate.delta_b2,
        "analytic_delta_phi_rad": report.analytic_estimate.delta_phi,
    }
    (out_dir / "thermal_summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def cmd_fit_c(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    nus = args.nu_list  # parsed by _check_arg_ranges
    result: Dict[str, Dict[str, float]] = {}
    rows = []
    for nu in nus:
        fit = fit_c_nu(nu, cfg)
        result[str(nu)] = {"c": fit.c, "intercept": fit.intercept, "r_squared": fit.r_squared}
        for tau, e in zip(fit.taus, fit.leakages):
            rows.append((nu, tau, e))
    (out_dir / "fit_c.json").write_text(json.dumps(result, indent=2) + "\n")
    _write_csv(
        out_dir / "fit_c.csv",
        _resolved_params(cfg, nu_list=",".join(map(str, nus))),
        ("nu", "tau_us", "e_leakage"),
        rows,
    )


def cmd_basis_dump(args: argparse.Namespace, cfg: Optional[ProtocolConfig], out_dir: Path) -> None:
    basis = build_full_basis(args.nu) if args.full else build_blockade_basis(args.nu)
    n_r = bit_counts(basis.masks, args.nu)
    lines = _column_lines(
        np.arange(basis.dim), [bitstring(s, args.nu) for s in basis.masks.tolist()], n_r, 1 - 2 * (n_r & 1)
    )
    _write_lines(
        out_dir / "basis.csv",
        {"nu": args.nu, "constrained": not args.full, "size": basis.dim},
        ("index", "bitstring", "n_rydberg", "parity"),
        lines,
    )


def cmd_transfer_error(args: argparse.Namespace, cfg: Optional[ProtocolConfig], out_dir: Path) -> None:
    b = mhz(args.b_mhz)
    bp = mhz(args.b_prime_mhz)
    omega_sd = mhz(args.omega_sd_mhz)
    summary = {
        "b_mhz": args.b_mhz,
        "b_prime_mhz": args.b_prime_mhz,
        "omega_sd_mhz": args.omega_sd_mhz,
        "transfer_error": transfer_error(b, bp, omega_sd),
        "compensating_detuning_mhz": to_mhz(compensating_detuning(b / 64.0, bp / 64.0)),
    }
    (out_dir / "transfer_error.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmgate",
        description="Rydberg-antiferromagnet-mediated CZ gate: spectra, dynamics, fidelity",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON protocol config")
    parser.add_argument("--out", type=str, default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (>= 1; capped at the CPU count and the task count)")
    parser.add_argument("--model", choices=[m.value for m in Model], default=None,
                        help="override the config model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues, symmetry labels and eta vs detuning")
    p.add_argument("--nu", type=int, default=None, help="active atoms (default: chain size)")
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--dump-hamiltonian", action="store_true",
                   help="also dump the mid-sweep matrix entries (debug)")

    p = sub.add_parser("evolve", help="two-pulse dynamics: populations and phases")
    p.add_argument("--nu", type=int, default=None)

    p = sub.add_parser("gate", help="assemble the gate and its error model")
    p.add_argument("--c-file", type=str, default=None, help="JSON of fitted c_nu constants")

    p = sub.add_parser("sweep", help="error vs pulse duration for a list of chain sizes")
    p.add_argument("--n-list", type=str, default="3,4,5,6")
    p.add_argument("--tau-min", type=float, default=0.5)
    p.add_argument("--tau-max", type=float, default=3.0)
    p.add_argument("--tau-points", type=int, default=11)
    p.add_argument("--c-file", type=str, default=None)

    p = sub.add_parser("thermal", help="thermal-motion Monte Carlo")
    p.add_argument("--temp-uK", dest="temp_uk", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--tau-us", type=float, default=None)
    p.add_argument("--position-sigma-um", type=float, default=0.0)

    p = sub.add_parser("fit-c", help="fit Landau-Zener constants for odd chain sizes")
    p.add_argument("--nu-list", type=str, default="3,5,7")

    p = sub.add_parser("basis-dump", help="list basis states")
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--full", action="store_true", help="unconstrained basis")

    p = sub.add_parser("transfer-error", help="closed-form r -> r' transfer error")
    p.add_argument("--b-mhz", type=float, required=True)
    p.add_argument("--b-prime-mhz", type=float, required=True)
    p.add_argument("--omega-sd-mhz", type=float, required=True)
    return parser


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "gate": cmd_gate,
    "sweep": cmd_sweep,
    "thermal": cmd_thermal,
    "fit-c": cmd_fit_c,
    "basis-dump": cmd_basis_dump,
    "transfer-error": cmd_transfer_error,
}

_NEEDS_CONFIG = {"spectrum", "evolve", "gate", "sweep", "thermal", "fit-c"}

# (commands or None for every command, argument, flag, smallest legal value
# or None); every float flag is listed, since it must also be finite
_ARG_RANGES = (
    (None, "jobs", "--jobs", 1),
    (("spectrum", "evolve", "basis-dump"), "nu", "--nu", 1),
    (("spectrum",), "grid", "--grid", 3),
    (("sweep",), "tau_points", "--tau-points", 1),
    (("sweep",), "tau_min", "--tau-min", None),
    (("sweep",), "tau_max", "--tau-max", None),
    (("thermal",), "trials", "--trials", 1),
    (("thermal",), "temp_uk", "--temp-uK", 0.0),
    (("thermal",), "position_sigma_um", "--position-sigma-um", 0.0),
    (("thermal",), "tau_us", "--tau-us", None),
    (("transfer-error",), "b_mhz", "--b-mhz", None),
    (("transfer-error",), "b_prime_mhz", "--b-prime-mhz", None),
    (("transfer-error",), "omega_sd_mhz", "--omega-sd-mhz", None),
)
# pulse durations, which must be > 0 (refused here, before a sweep fits
# any constant)
_DURATION_FLAGS = {"--tau-min", "--tau-max", "--tau-us"}
# (command, comma-separated integer list argument, flag, smallest legal
# entry, whether entries must be odd); parsed into a list of ints
_LIST_ARGS = (
    ("sweep", "n_list", "--n-list", 3, False),
    ("fit-c", "nu_list", "--nu-list", 3, True),
)


def _check_arg_ranges(args: argparse.Namespace) -> None:
    """Parse the integer lists and reject out-of-range flags before anything is written."""
    for commands, name, flag, minimum in _ARG_RANGES:
        value = getattr(args, name) if commands is None or args.command in commands else None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        if value is not None and minimum is not None and not value >= minimum:
            raise ConfigError(f"{flag} must be >= {minimum}, got {value}")
        if value is not None and flag in _DURATION_FLAGS and not value > 0.0:
            raise ConfigError(f"{flag} must be > 0, got {value}")
    for command, name, flag, minimum, odd in _LIST_ARGS:
        if args.command == command:
            try:
                values = [int(x) for x in getattr(args, name).split(",")]
            except ValueError:
                raise ConfigError(f"{flag} must be comma-separated integers, got {getattr(args, name)!r}") from None
            bad = [v for v in values if v < minimum or (odd and v % 2 == 0)]
            if bad:
                raise ConfigError(f"{flag} entries must be {'odd and ' if odd else ''}>= {minimum}, got {bad[0]}")
            setattr(args, name, values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    fresh = not out_dir.exists()
    try:
        _check_arg_ranges(args)
        cfg = None
        if args.command in _NEEDS_CONFIG:
            if args.config is None:
                raise ConfigError(f"command '{args.command}' requires --config")
            cfg = load_config(args.config)
            if args.model is not None:  # the one place a command's model is set
                cfg = replace(cfg, model=Model(args.model))
        out_dir.mkdir(parents=True, exist_ok=True)
        _HANDLERS[args.command](args, cfg, out_dir)
        _write_manifest(args, out_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitQualityError as exc:
        print(f"fit-quality error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        if fresh and out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()  # a failed run leaves no empty output directory behind


if __name__ == "__main__":
    sys.exit(main())
