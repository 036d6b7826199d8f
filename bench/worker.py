"""One benchmark process: set up, run passes of a workload through the CLI, check.

Started by ``run.py`` in a fresh interpreter with BLAS threads pinned to 1.
Prints one JSON line with its results as the last line of standard output.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

# One CPU for the whole process, so that the calibration loop and the CLI
# calls it rescales run on the same CPU: on a shared VM two CPUs can differ
# in speed at the same moment.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import afmgate  # noqa: E402
import afmgate.cli  # noqa: E402
import afmgate.thermal  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import fingerprints  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if Path(afmgate.__file__).resolve().parent != SRC / "afmgate":
    sys.exit(f"afmgate imported from {afmgate.__file__}, not from {SRC}")


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / "afmgate").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_record() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=5).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "jobs": 1,
        "commit": commit,
        "source_hash": source_hash(),
    }


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.name != "manifest.json")


class Runner:
    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name, self.seed = name, seed
        configs, self.calls = workloads.workload(name, seed)
        self.cfg_paths = workloads.write_configs(configs, work / "configs")
        self.out_root = work / "out"
        self.reference = json.loads((BENCH / "reference.json").read_text())["entries"]
        self.attempted = self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = None

    def run_pass(self, tracer=None) -> dict:
        """One pass through the call sequence, then its checks.  Each call is
        timed alone and followed by timings of the calibration loop."""
        shutil.rmtree(self.out_root, ignore_errors=True)
        argvs = [(call, workloads.resolve(argv, self.cfg_paths, self.out_root)) for call, argv in self.calls]
        gc.collect()
        codes, loops = [], []
        wall = 0.0
        for call, argv in argvs:
            t0 = time.perf_counter()
            if tracer is None:
                codes.append(afmgate.cli.main(argv))
            else:
                tracer.call_id = f"{len(tracer.spans)}:{call}"
                with tracer.span("cli.main"):
                    codes.append(afmgate.cli.main(argv))
            busy = time.perf_counter() - t0
            wall += busy
            loops += calibration.sample(busy)
        if self.peak_rss_mb is None:
            # the peak after the first pass, so it does not depend on how many passes fit
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        written = 0
        for (call, argv), code in zip(argvs, codes):
            self.attempted += 1
            out = self.out_root / call
            key = workloads.fingerprint_key(self.name, call, self.seed)
            if code != 0:
                bad = [f"exit code {code}"]
            elif key not in self.reference:
                bad = [f"no stored fingerprint {key}"]
            else:
                written += artifact_bytes(out)
                try:
                    bad = fingerprints.compare(fingerprints.extract(argv, out), self.reference[key])
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    bad = [f"unreadable artifacts: {exc!r}"]
            if bad:
                self.failed += 1
                self.problems.append(f"{call}: " + "; ".join(bad[:3]))
        return {"wall_s": wall, "loop_s": loops, "bytes_written": written}


def passes_until(deadline_s: float, start: float, run) -> list:
    """Run passes, at least one, while the next is predicted to end by the deadline."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(run())
        if time.perf_counter() - start + (time.perf_counter() - t0) > deadline_s:
            return results


def check_counts(per_pass: list, store: Path) -> list:
    """Exact counts must repeat across passes and across runs of the same code."""
    problems = []
    counts = [{k: m[k] for k in tracing.EXACT_COUNTS} for m in per_pass]
    for i, c in enumerate(counts[1:], start=2):
        if c != counts[0]:
            problems.append(f"counts of traced pass {i} differ from pass 1: {c} vs {counts[0]}")
    if store.exists():
        previous = json.loads(store.read_text())
        diff = {k: (v, previous.get(k)) for k, v in counts[0].items() if previous.get(k) != v}
        if diff:
            problems.append(f"counts differ from an earlier run of the same code: {diff}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts[0], indent=1) + "\n")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.ALL)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    args = parser.parse_args()

    runner = Runner(args.workload, args.seed, args.work)
    setup_raw_s = time.monotonic() - args.spawned_at
    calibration.measure()  # warm-up
    setup = {"setup_raw_s": setup_raw_s,
             "setup_s": calibration.rescale(setup_raw_s, calibration.sample(setup_raw_s))}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    record = run_record()
    result = dict(setup, record=record, reference_loop_s=calibration.REFERENCE_S)
    start = time.perf_counter()
    if args.trace == 0:
        passes = passes_until(args.seconds, start, runner.run_pass)
        result["wall_s"] = [p["wall_s"] for p in passes]
        result["scaled_s"] = [calibration.rescale(p["wall_s"], p["loop_s"]) for p in passes]
        result["loop_s"] = [x for p in passes for x in p["loop_s"]]
        result["peak_rss_mb"] = runner.peak_rss_mb
    else:
        untraced = runner.run_pass()
        tracer = tracing.Tracer()
        tracer.install()
        traced = []

        def traced_pass():
            first = len(tracer.spans)
            p = runner.run_pass(tracer)
            traced.append((first, len(tracer.spans), p))
            return p

        try:
            passes_until(args.seconds, start, traced_pass)
        finally:
            tracer.uninstall()
        nophase = tracer.probe_phases()
        per_pass = []
        for first, last, p in traced:
            m = tracing.layer_metrics(tracer.spans[first:last], nophase, p["wall_s"],
                                      afmgate.thermal.DT_STEPS_THERMAL)
            m["cli.bytes_written"] = p["bytes_written"]
            per_pass.append(m)
        layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layer.update({k: per_pass[0][k] for k in tracing.EXACT_COUNTS})
        layer["trace.untraced_wall_s"] = untraced["wall_s"]
        layer["trace.overhead_s"] = layer["trace.wall_s"] - untraced["wall_s"]
        result["layer"] = layer
        result["traced_passes"] = len(per_pass)
        count_file = ROOT / ".bench_work" / "counts" / f"{args.workload}-s{args.seed}-{record['source_hash']}.json"
        result["count_problems"] = check_counts(per_pass, count_file)
        spans_file = args.work.parent / f"{args.work.name}-spans.jsonl"
        with spans_file.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({k: s[k] for k in ("id", "name", "start", "end", "parent", "call")}) + "\n")
        result["spans_file"] = str(spans_file.relative_to(ROOT))

    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    shutil.rmtree(runner.out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
