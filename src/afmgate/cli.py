"""Command-line front end: config in, plot-ready CSV/JSON artifacts out.

Every run writes a manifest recording the command, config, seed and build
identity next to its outputs.  Every CSV file is written by one writer,
``_write_table``: a commented header block with all resolved parameters,
the column names, and then the rows of the whole columns a command hands
over, formatted and written ``CSV_CHUNK_ROWS`` rows at a time, so no file
is formatted whole first.  CSV files are byte-identical for identical
inputs and seed (the manifest holds the only timestamp).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .basis import bit_counts, bitstring, build_blockade_basis, build_full_basis
from .config import Model, ProtocolConfig, json_float, load_config, pulse_with_tau
from .errors import ConfigError, FitQualityError
from .evolution import STEPS_PER_PULSE, run_protocol
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
from .spectra import check_gap_pulse, scan_spectrum
from .thermal import SEED_LIMIT, ThermalConfig, run_thermal_ensemble
from .units import mhz, to_mhz

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_FIT = 4
# Rows of a CSV formatted and written together (``_write_table``): the
# strings of a whole file, such as an 8001-row vdW trajectory, would be
# held at once
CSV_CHUNK_ROWS = 1024


@functools.cache
def _git_describe() -> str:
    """The build id of the package's source tree, found once per process:
    ``git describe`` there, or ``afmgate-<version>`` where git is missing,
    fails or outlives its timeout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5, cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
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


def _table_rows(columns) -> str:
    """The CSV rows of whole columns, each ending in a newline: a numeric
    array is written as the repr of its Python values (as ``_fmt`` writes
    each value), a list of strings as it is.  A function of its own so that
    the per-column strings are freed before the rows are written."""
    text =[col if isinstance(col, list) else list(map(repr, col.tolist())) for col in columns]
    return "".join(",".join(row) + "\n" for row in zip(*text))


def _write_table(path: Path, header_params: Dict[str, object], names: Sequence[str], *columns) -> None:
    """The commented header, the column ``names`` and then the rows of
    whole ``columns`` (``_table_rows``), formatted and written
    ``CSV_CHUNK_ROWS`` rows at a time."""
    with path.open("w") as fh:
        for key, val in header_params.items():
            fh.write(f"# {key} = {_fmt(val)}\n")
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), CSV_CHUNK_ROWS):
            fh.write(_table_rows(col[lo : lo + CSV_CHUNK_ROWS] for col in columns))


def _resolved_params(cfg: ProtocolConfig, step: Dict[str, object], **extra) -> Dict[str, object]:
    """The config's resolved parameters and then ``extra``, with ``step``,
    the step the command took, in place of the config's ``dt_us``:
    ``dt_us`` (``evolve``, ``thermal``), ``steps_per_pulse`` (``sweep``,
    ``fit-c``) or nothing (``spectrum``, which propagates nothing)."""
    return {
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
        **step,
        "include_decay": cfg.include_decay,
        **extra,
    }


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
        rows, cols = np.nonzero(h)
        entries = h[rows, cols]
        _write_table(out_dir / "hamiltonian.csv", _resolved_params(cfg, {}, nu=nu, t_us=t_mid),
                     ("row", "col", "re", "im"), rows, cols, entries.real, entries.imag)
    n_grid, dim = scan.eigenvalues.shape
    _write_table(
        out_dir / "spectrum.csv",
        _resolved_params(cfg, {}, nu=nu, grid=args.grid),
        ("delta_rad_us", "k", "energy_rad_us", "symmetry", "eta_low", "eta_high"),
        np.repeat(scan.delta_grid, dim),
        np.tile(np.arange(1, dim + 1), n_grid),
        scan.eigenvalues.ravel(),
        [label.value for labels in scan.symmetry for label in labels],
        scan.eta_low.ravel(),
        scan.eta_high.ravel(),
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
    _write_table(out_dir / "evolve.csv", _resolved_params(cfg, {"dt_us": cfg.dt}, nu=nu), columns, *values)


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
    values elsewhere.  A pulse without a chirp or a drive is refused
    (``check_gap_pulse``) before anything is fitted or solved."""
    needed = sorted({nu for n in n_list for nu in (n - 2, n - 1, n)})
    table: Dict[int, float] = dict(fitted or {})
    if any(nu not in table for nu in needed):
        check_gap_pulse(cfg.pulse)
    odd_missing = [nu for nu in needed if nu % 2 == 1 and nu >= 3 and nu not in table]
    for nu in odd_missing:
        table[nu] = fit_c_nu(nu, cfg).c
    rest = [nu for nu in needed if nu not in table]
    if rest:
        table.update(kappa_c_table(rest, cfg.pulse))
    return table


def cmd_sweep(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    n_list = args.n_list
    taus = np.linspace(args.tau_min, args.tau_max, args.tau_points)
    c_table = _c_table_for(n_list, cfg, _load_c_file(args.c_file))
    points = sweep_tau(n_list, cfg, taus, c_table, jobs=args.jobs)
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
    _write_table(
        out_dir / "sweep.csv",
        _resolved_params(cfg, {"steps_per_pulse": STEPS_PER_PULSE}, n_list=",".join(map(str, n_list)),
                         c_table=json.dumps({str(k): v for k, v in sorted(c_table.items())})),
        ("n_atoms", "tau_us", "e_numeric", "e_decay", "e_leakage", "e_model", "fidelity"),
        np.array([p.n_atoms for p in points]),
        *np.array([(p.tau, p.e_numeric, p.e_decay, p.e_leakage, p.e_model, p.fidelity) for p in points]).T,
    )
    (out_dir / "sweep_summary.json").write_text(json.dumps(summary, indent=2) + "\n")


def cmd_thermal(args: argparse.Namespace, cfg: ProtocolConfig, out_dir: Path) -> None:
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2^64) for thermal, got {args.seed}")
    if args.tau_us is not None:
        cfg = replace(cfg, pulse=pulse_with_tau(cfg.pulse, args.tau_us))
    cfg = replace(cfg, include_decay=False)
    tcfg = ThermalConfig(
        temperature=args.temp_uk * 1e-6,
        position_sigma=args.position_sigma_um,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_thermal_ensemble(cfg.chain.n_atoms, cfg, tcfg, jobs=args.jobs)
    _write_table(
        out_dir / "thermal.csv",
        _resolved_params(cfg, {"dt_us": report.dt}, temp_uK=args.temp_uk, trials=report.trials, seed=tcfg.seed),
        ("trial", "delta_phi_rad", "fidelity"),
        [*map(str, range(report.trials)), "summary"],
        np.append(report.delta_phi_samples, report.delta_phi_rms),
        np.append(report.fidelity_samples, np.mean(report.fidelity_samples)),
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
    nus = args.nu_list
    fits = [fit_c_nu(nu, cfg) for nu in nus]
    result = {str(fit.nu): {"c": fit.c, "intercept": fit.intercept, "r_squared": fit.r_squared} for fit in fits}
    (out_dir / "fit_c.json").write_text(json.dumps(result, indent=2) + "\n")
    _write_table(
        out_dir / "fit_c.csv",
        _resolved_params(cfg, {"steps_per_pulse": STEPS_PER_PULSE}, nu_list=",".join(map(str, nus))),
        ("nu", "tau_us", "e_leakage"),
        np.concatenate([np.full(len(fit.taus), fit.nu) for fit in fits]),
        np.concatenate([fit.taus for fit in fits]),
        np.concatenate([fit.leakages for fit in fits]),
    )


def cmd_basis_dump(args: argparse.Namespace, cfg: Optional[ProtocolConfig], out_dir: Path) -> None:
    basis = build_full_basis(args.nu) if args.full else build_blockade_basis(args.nu)
    n_r = bit_counts(basis.masks, args.nu)
    _write_table(
        out_dir / "basis.csv",
        {"nu": args.nu, "constrained": not args.full, "size": basis.dim},
        ("index", "bitstring", "n_rydberg", "parity"),
        np.arange(basis.dim), [bitstring(s, args.nu) for s in basis.masks.tolist()], n_r, 1 - 2 * (n_r & 1),
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


class _Checked(argparse.Action):
    """Stores a flag's value once it meets the flag's rule (``_flag``)."""

    def __init__(self, option_strings, dest, kind, rule=None, odd=False, **kwargs):
        super().__init__(option_strings, dest, type=None if kind is list else kind, **kwargs)
        self.kind, self.rule, self.odd = kind, rule, odd

    def __call__(self, parser, namespace, value, option_string=None):
        flag, rule = self.option_strings[0], self.rule
        if self.kind is list:
            value = _int_list(flag, value, rule, self.odd)
        elif self.kind is float and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        elif rule == "> 0" and not value > 0.0:
            raise ConfigError(f"{flag} must be > 0, got {value}")
        elif rule == "nonzero" and value == 0.0:
            raise ConfigError(f"{flag} must be nonzero, got {value}")
        elif isinstance(rule, (int, float)) and not value >= rule:
            raise ConfigError(f"{flag} must be >= {rule}, got {value}")
        setattr(namespace, self.dest, value)


def _int_list(flag: str, text: str, minimum: int, odd: bool) -> List[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated integers, got {text!r}") from None
    bad = [v for v in values if v < minimum or (odd and v % 2 == 0)]
    if bad:
        raise ConfigError(f"{flag} entries must be {'odd and ' if odd else ''}>= {minimum}, got {bad[0]}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{flag} entries must be distinct, got {repeated[0]} more than once")
    return values


def _flag(parser: argparse.ArgumentParser, flag: str, kind: type = str, rule=None, **kwargs) -> None:
    """Declare ``flag``, taking one value of ``kind``: str, int, float or
    list (comma-separated integers, parsed into a list of ints).  A value
    given is checked as it is parsed, before anything is read or written,
    and refused with a ConfigError: a float must be finite, and ``rule`` is
    a minimum, "> 0" or "nonzero"; a list's entries must be distinct and
    each >= ``rule``, and odd with ``odd=True``.  Defaults are not checked."""
    parser.add_argument(flag, action=_Checked, kind=kind, rule=rule, **kwargs)


def _command(sub, name: str, handler, reads_config: bool, help: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name``, run by ``handler`` with the
    config (``--config``, required) if it ``reads_config``, else with None."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler, reads_config=reads_config)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmgate",
        description="Rydberg-antiferromagnet-mediated CZ gate: spectra, dynamics, fidelity",
    )
    _flag(parser, "--config", default=None, help="JSON protocol config")
    _flag(parser, "--out", default="out", help="output directory")
    _flag(parser, "--seed", int, default=0)
    _flag(parser, "--jobs", int, 1, default=1,
          help="worker processes (>= 1; capped at the CPU count and the task count)")
    _flag(parser, "--model", choices=[m.value for m in Model], default=None, help="override the config model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "spectrum", cmd_spectrum, True, "eigenvalues, symmetry labels and eta vs detuning")
    _flag(p, "--nu", int, 1, default=None, help="active atoms (default: chain size)")
    _flag(p, "--grid", int, 3, default=201)
    p.add_argument("--dump-hamiltonian", action="store_true",
                   help="also dump the mid-sweep matrix entries (debug)")

    p = _command(sub, "evolve", cmd_evolve, True, "two-pulse dynamics: populations and phases")
    _flag(p, "--nu", int, 1, default=None)

    p = _command(sub, "gate", cmd_gate, True, "assemble the gate and its error model")
    _flag(p, "--c-file", default=None, help="JSON of fitted c_nu constants")

    # pulse durations must be > 0, refused before a sweep fits any constant
    p = _command(sub, "sweep", cmd_sweep, True, "error vs pulse duration for a list of chain sizes")
    _flag(p, "--n-list", list, 3, default=[3, 4, 5, 6])
    _flag(p, "--tau-min", float, "> 0", default=0.5)
    _flag(p, "--tau-max", float, "> 0", default=3.0)
    _flag(p, "--tau-points", int, 1, default=11)
    _flag(p, "--c-file", default=None)

    p = _command(sub, "thermal", cmd_thermal, True, "thermal-motion Monte Carlo")
    _flag(p, "--temp-uK", float, 0.0, dest="temp_uk", default=1.0)
    _flag(p, "--trials", int, 1, default=500)
    _flag(p, "--tau-us", float, "> 0", default=None)
    _flag(p, "--position-sigma-um", float, 0.0, default=0.0)

    p = _command(sub, "fit-c", cmd_fit_c, True, "fit Landau-Zener constants for odd chain sizes")
    _flag(p, "--nu-list", list, 3, odd=True, default=[3, 5, 7])

    p = _command(sub, "basis-dump", cmd_basis_dump, False, "list basis states")
    _flag(p, "--nu", int, 1, required=True)
    p.add_argument("--full", action="store_true", help="unconstrained basis")

    # the transfer error divides by the Rabi frequency
    p = _command(sub, "transfer-error", cmd_transfer_error, False, "closed-form r -> r' transfer error")
    _flag(p, "--b-mhz", float, required=True)
    _flag(p, "--b-prime-mhz", float, required=True)
    _flag(p, "--omega-sd-mhz", float, "nonzero", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    fresh = False
    try:
        args = build_parser().parse_args(argv)  # a bad flag value raises ConfigError here
        out_dir = Path(args.out)
        fresh = not out_dir.exists()
        cfg = None
        if args.reads_config:
            if args.config is None:
                raise ConfigError(f"command '{args.command}' requires --config")
            cfg = load_config(args.config)
            if args.model is not None:  # the one place a command's model is set
                cfg = replace(cfg, model=Model(args.model))
        out_dir.mkdir(parents=True, exist_ok=True)
        args.handler(args, cfg, out_dir)
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
