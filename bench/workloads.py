"""Benchmark workloads: the configs each one writes and the CLI calls of one pass.

Every workload uses the reference config (B = 45 MHz, a = 4 um,
Omega0 = 8 MHz, Delta0 = 20 MHz, tau = 1 us, Gamma = 0.5 kHz, vdW model,
decay on) and differs only in the chain size and the command sequence.
A call is ``(name, argv)``; ``{cfg:<key>}`` and ``{out:<name>}`` in argv are
replaced with the config file and the output directory of call ``<name>``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

TAU_US = 1.0

# c_3 that ``fit-c --nu-list 3`` fits on the reference config; the sweep of
# ``gate_chain`` reads it from a file instead of fitting it again.
C_3 = 0.47685999585091843

# Thermal draws come from one of this many seed streams; each has its own
# stored fingerprint, so the benchmark seed picks a stream by ``seed % K``.
THERMAL_SEED_STREAMS = 16

Call = Tuple[str, List[str]]


def reference_config(n_atoms: int, dt_us: float | None = None) -> dict:
    cfg = {
        "chain": {"n_atoms": n_atoms, "spacing_um": 4.0},
        "interaction": {"b_mhz": 45.0, "lambda": 1.0},
        "pulse": {"omega0_mhz": 8.0, "delta0_mhz": 20.0, "tau_us": TAU_US},
        "decay": {"gamma_r_mhz": 0.0005, "gamma_rp_mhz": 0.0005},
        "model": "vdw",
        "include_decay": True,
    }
    if dt_us is not None:
        cfg["dt_us"] = dt_us
    return cfg


def thermal_seed(seed: int) -> int:
    return seed % THERMAL_SEED_STREAMS


def _gate(n: int) -> Call:
    return (f"gate_n{n}", ["--config", f"{{cfg:n{n}}}", "--out", f"{{out:gate_n{n}}}", "gate"])


def _thermal(n_cfg: str, trials: int, seed: int) -> Call:
    return ("thermal", ["--config", f"{{cfg:{n_cfg}}}", "--seed", str(thermal_seed(seed)),
                        "--out", "{out:thermal}", "thermal", "--temp-uK", "1",
                        "--trials", str(trials)])


def workload(name: str, seed: int) -> Tuple[Dict[str, dict], List[Call]]:
    """(configs and other input files by key, calls of one pass) for a named workload.

    Every call takes a few seconds at most, so the calibration loop that runs
    between calls (``calibration.py``) samples the machine's speed often
    enough to rescale each pass's time.
    """
    if name == "gate_chain":
        configs = {f"n{n}": reference_config(n) for n in (3, 5, 7)}
        configs["c3"] = {"3": {"c": C_3}}
        return (configs, [_gate(3), _gate(5), _gate(7),
                          ("sweep_n3", ["--config", "{cfg:n3}", "--out", "{out:sweep_n3}", "sweep",
                                        "--n-list", "3", "--tau-points", "2", "--c-file", "{cfg:c3}"])])
    if name == "evolve_spectrum":
        return ({"n5": reference_config(5)}, [
            ("evolve_vdw_nu5", ["--config", "{cfg:n5}", "--out", "{out:evolve_vdw_nu5}",
                                "evolve", "--nu", "5"]),
            ("evolve_pxp_nu7", ["--config", "{cfg:n5}", "--model", "pxp",
                                "--out", "{out:evolve_pxp_nu7}", "evolve", "--nu", "7"]),
            ("spectrum_nu7", ["--config", "{cfg:n5}", "--out", "{out:spectrum_nu7}",
                              "spectrum", "--nu", "7", "--grid", "51"]),
        ])
    if name == "thermal_mc":
        return ({"n5": reference_config(5)}, [_thermal("n5", 16, seed)])
    # Tiny variants that exercise the harness, fingerprints and tracer in seconds.
    if name == "smoke":
        return ({"n3": reference_config(3)}, [_gate(3), _thermal("n3", 4, seed)])
    if name == "smoke_coarse":
        # a legal but coarser step (tau/2000): the gate fingerprint must fail
        return ({"n3": reference_config(3, dt_us=TAU_US / 2000)}, [_gate(3)])
    raise KeyError(name)


ALL = ("gate_chain", "evolve_spectrum", "thermal_mc", "smoke", "smoke_coarse")


def fingerprint_key(workload_name: str, call: str, seed: int) -> str:
    """Reference entry of a call; the coarse smoke variant is checked against
    the reference of the default step on purpose."""
    wl = "smoke" if workload_name == "smoke_coarse" else workload_name
    key = f"{wl}/{call}"
    if call == "thermal":
        key += f"/seed{thermal_seed(seed)}"
    return key


def write_configs(configs: Dict[str, dict], directory: Path) -> Dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, cfg in configs.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths[key] = path
    return paths


def resolve(argv: List[str], cfg_paths: Dict[str, Path], out_root: Path) -> List[str]:
    out = []
    for arg in argv:
        while "{cfg:" in arg or "{out:" in arg:
            start = arg.index("{")
            end = arg.index("}", start)
            kind, key = arg[start + 1:end].split(":", 1)
            path = cfg_paths[key] if kind == "cfg" else out_root / key
            arg = arg[:start] + str(path) + arg[end + 1:]
        out.append(arg)
    return out
