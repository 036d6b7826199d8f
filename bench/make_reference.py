"""Regenerate the stored fingerprints and their tolerances (about three minutes).

    python3 bench/make_reference.py

Each stored value is the artifact of the current source tree at the default
step (tau/4000; tau/1500 for thermal).  Its tolerance comes from two more
runs of every workload, with the default step count halved (coarser) and
quadrupled (finer): it is the geometric mean of the entry's deviation at the
finer step, which a more accurate integrator must pass, and at the coarser
step, which a silently coarsened step must fail.  RK4 makes the coarser
deviation about 15 to 30 times the finer one, so the tolerance sits a
factor of about 4 to 5 from each.  Entries that do not depend on the step
(eigenvalues, phase invariants, imaginary parts at round-off) get a floor
instead.  The thermal step study runs on seed stream 0; the other streams
take the same relative tolerance.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import afmgate.config  # noqa: E402
import afmgate.thermal  # noqa: E402
from afmgate.cli import main as cli_main  # noqa: E402

import fingerprints  # noqa: E402
import workloads  # noqa: E402

REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work" / f"reference-{os.getpid()}"

# tolerance floors by kind; relative to the value for "thermal"
FLOORS = {"amplitude": 1e-10, "fidelity": 1e-10, "thermal": 1e-9,
          "eigenvalue": 1e-8, "phase_invariant": 1e-9, "exact": 0.0}
RELATIVE = ("thermal",)


def run_workload(name: str, seed: int) -> dict:
    configs, calls = workloads.workload(name, seed)
    root = WORK / f"{name}-s{seed}"
    shutil.rmtree(root, ignore_errors=True)
    cfg_paths = workloads.write_configs(configs, root / "configs")
    out = {}
    for call, argv in calls:
        argv = workloads.resolve(argv, cfg_paths, root / "out")
        if cli_main(argv) != 0:
            raise SystemExit(f"{name}/{call} failed")
        out[workloads.fingerprint_key(name, call, seed)] = fingerprints.extract(argv, root / "out" / call)
    shutil.rmtree(root, ignore_errors=True)
    return out


def all_entries(thermal_seeds, step_factor: float = 1.0) -> dict:
    steps, thermal_steps = afmgate.config.DT_STEPS_DEFAULT, afmgate.thermal.DT_STEPS_THERMAL
    afmgate.config.DT_STEPS_DEFAULT = round(steps * step_factor)
    afmgate.thermal.DT_STEPS_THERMAL = round(thermal_steps * step_factor)
    try:
        entries = {}
        for name in ("gate_chain", "evolve_spectrum"):
            entries.update(run_workload(name, 0))
        for seed in thermal_seeds:
            entries.update(run_workload("thermal_mc", seed))
            entries.update(run_workload("smoke", seed))
    finally:
        afmgate.config.DT_STEPS_DEFAULT, afmgate.thermal.DT_STEPS_THERMAL = steps, thermal_steps
    print(f"done: step count x{step_factor}", file=sys.stderr)
    return entries


def seedless(key: str) -> str:
    return key.rsplit("/seed", 1)[0]


def main() -> None:
    base = all_entries(range(workloads.THERMAL_SEED_STREAMS))
    coarse = all_entries([0], 0.5)
    fine = all_entries([0], 4.0)

    # tolerance per (call without seed, entry), relative for relative kinds
    tols = {}
    study: dict = {}
    for key, group in coarse.items():
        for name, (value, kind) in group.items():
            ref = base[key][name][0]
            scale = abs(ref) if kind in RELATIVE else 1.0
            d_fine = abs(fine[key][name][0] - ref) / scale
            d_coarse = abs(value - ref) / scale
            tol = 0.0 if kind == "exact" else max(FLOORS[kind], math.sqrt(d_fine * d_coarse))
            tols[(seedless(key), name)] = tol
            if tol > FLOORS[kind]:
                s = study.setdefault(kind, {"finer_over_tol_max": 0.0, "coarser_over_tol_min": math.inf})
                s["finer_over_tol_max"] = max(s["finer_over_tol_max"], d_fine / tol)
                s["coarser_over_tol_min"] = min(s["coarser_over_tol_min"], d_coarse / tol)

    entries = {}
    for key, group in sorted(base.items()):
        entries[key] = {}
        for name, (value, kind) in sorted(group.items()):
            ref = 0.0 if kind == "phase_invariant" else value
            tol = tols[(seedless(key), name)] * (abs(ref) if kind in RELATIVE else 1.0)
            entries[key][name] = [ref, tol]
    for kind, s in sorted(study.items()):
        print(f"{kind:10s} finer/tol max {s['finer_over_tol_max']:.3g}  "
              f"coarser/tol min {s['coarser_over_tol_min']:.3g}")
    doc = {"step_study": study, "floors": FLOORS, "entries": entries}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(entries)} fingerprint groups to {REFERENCE}")


if __name__ == "__main__":
    main()
