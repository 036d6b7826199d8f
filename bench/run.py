"""afmgate benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload gate_chain --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  Each workload runs in a fresh
worker process (``worker.py``) with BLAS threads pinned to 1; with
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer breakdown.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes timed for setup_s, besides the worker itself
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args: list, timeout: float) -> dict:
    """Start a worker and return its JSON; its ``setup_s`` counts from here."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    args = args + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "afmgate" / "cli.py").is_file():
        print(f"error: no afmgate source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    t_start = time.monotonic()
    try:
        probes = [spawn(common + ["--seconds", "0", "--setup-only"], 60) for _ in range(SETUP_PROBES)]
        budget = WORKER_TIMEOUT_S - (time.monotonic() - t_start)
        res = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], budget)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probes.append(res)
    setups = [p["setup_s"] for p in probes]

    record = res["record"]
    print("run record: " + json.dumps(record))
    for problem in res["problems"]:
        print(f"FAILED {problem}")
    count_problems = res.get("count_problems", [])
    for problem in count_problems:
        print(f"COUNTS {problem}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"operations: {attempted} CLI calls, {failed} failed, error_rate = {failed / attempted:.4g}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace == 0:
        walls = res["wall_s"]
        values = {
            "wall_s": statistics.median(res["scaled_s"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_rate": 1.0 - failed / attempted,
        }
        print(f"passes: {len(walls)}, measured wall time per pass: {[round(w, 4) for w in walls]} "
              f"(mean {statistics.mean(walls):.4f} s)")
        print(f"rescaled by the loop timings of the same pass: {[round(w, 4) for w in res['scaled_s']]}")
        print(f"calibration loop: mean {statistics.mean(res['loop_s']):.4f} s over "
              f"{len(res['loop_s'])} timings, reference {res['reference_loop_s']} s")
        print(f"setup_s samples: measured {[round(p['setup_raw_s'], 4) for p in probes]}, "
              f"rescaled {[round(s, 4) for s in setups]}")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        layer = values = res["layer"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"traced passes: {res['traced_passes']}, spans: {res['spans_file']}")
        covered = sum(layer[f"{x}.self_s"] for x in ("basis", "hamiltonian", "spectra", "evolution",
                                                      "gate", "thermal", "cli"))
        print(f"coverage: layer self times + cli.self_s = {covered:.4f} s of traced wall_s "
              f"{layer['trace.wall_s']:.4f} s; unattributed {layer['trace.unattributed_s']:.4f} s; "
              f"tracing overhead {layer['trace.overhead_s']:.4f} s")
        shares = {k: v for k, v in layer.items() if k.endswith("self_s") and k.count(".") == 1}
        shares["evolution.propagate_s"] = layer["evolution.propagate_s"]
        shares["evolution.phases_s"] = layer["evolution.phases_s"]
        top = sorted(((v, k) for k, v in shares.items() if k != "evolution.self_s"), reverse=True)[:3]
        print("largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and not count_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
