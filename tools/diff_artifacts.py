"""Diff the CLI artifacts of two checkouts of this repository.

Runs, once with each checkout's ``src/`` on the path, the CLI calls of
every workload of ``bench/workloads.py`` (the one next to this tool; the
thermal workloads at seed 0) and a few commands no workload makes:
``spectrum --dump-hamiltonian``, ``fit-c --nu-list 3``, ``basis-dump``
with and without ``--full`` and ``transfer-error``.  Both checkouts read
the same config files.  It then prints ``diff -r`` of the two artifact
trees without the manifests (which hold a timestamp and the build id),
and a line for each call whose exit code differs between the checkouts,
so a change that keeps every artifact byte-identical prints nothing.
Usage:

    python tools/diff_artifacts.py OLD_CHECKOUT NEW_CHECKOUT
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SEED = 0

# bench/ is no package: load its workload table by path
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
wl = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(wl)


def _calls(cfg_dir: Path) -> List[Tuple[str, List[str], Dict[str, Path]]]:
    """(group, argv, config paths by key) of every call, with ``{out:...}``
    left for ``workloads.resolve`` to fill in per checkout."""
    calls = []
    for name in wl.ALL:
        configs, workload_calls = wl.workload(name, SEED)
        paths = wl.write_configs(configs, cfg_dir / name)
        calls += [(name, argv, paths) for _, argv in workload_calls]
    paths = wl.write_configs({"n5": wl.reference_config(5)}, cfg_dir / "extra")
    for key, argv in [
        ("spectrum_dump", ["spectrum", "--nu", "5", "--grid", "21", "--dump-hamiltonian"]),
        ("fit_c", ["fit-c", "--nu-list", "3"]),
        ("basis", ["basis-dump", "--nu", "5"]),
        ("basis_full", ["basis-dump", "--nu", "5", "--full"]),
        ("transfer_error", ["transfer-error", "--b-mhz", "45", "--b-prime-mhz", "-45", "--omega-sd-mhz", "50"]),
    ]:
        calls.append(("extra", ["--config", "{cfg:n5}", "--out", f"{{out:{key}}}", *argv], paths))
    return calls


def _run(checkout: Path, calls, out_root: Path) -> List[int]:
    """Exit codes of ``calls`` run on ``checkout``, artifacts under ``out_root``."""
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    codes = []
    for group, argv, paths in calls:
        args = wl.resolve(argv, paths, out_root / group)
        done = subprocess.run([sys.executable, "-m", "afmgate", *args], env=env, cwd=out_root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        codes.append(done.returncode)
    return codes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="checkout whose artifacts are the reference")
    parser.add_argument("new", type=Path, help="checkout to compare with it")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="diff_artifacts_") as tmp:
        tmp = Path(tmp)
        calls = _calls(tmp / "configs")
        codes = {}
        for side, checkout in (("old", args.old), ("new", args.new)):
            (tmp / side).mkdir()
            codes[side] = _run(checkout, calls, tmp / side)
        for (group, argv, _), old, new in zip(calls, codes["old"], codes["new"]):
            if old != new:
                print(f"{group}: {' '.join(argv)}: exit {old} (old) against {new} (new)")
        diff = subprocess.run(["diff", "-r", "--exclude=manifest.json", "old", "new"],
                              cwd=tmp, capture_output=True, text=True)
        sys.stdout.write(diff.stdout + diff.stderr)
        return 0 if diff.returncode == 0 and codes["old"] == codes["new"] else 1


if __name__ == "__main__":
    sys.exit(main())
