"""Peak memory of one afmgate command line, run in-process.

Imports ``afmgate.cli`` (and with it numpy), then runs the command line
under ``tracemalloc`` and prints the traced peak (every Python and numpy
allocation the command makes) and the process's peak resident memory
(``ru_maxrss``, KiB on Linux, printed in MB of 1024 KiB as the benchmark
does) before and after, with its growth over the command.  The traced peak
does not depend on the allocator or on what the imports left behind; the
resident peak is what the benchmark's ``peak_rss_mb`` reads, tracemalloc's
own records included.  Usage:

    PYTHONPATH=src python tools/peak_memory.py --config cfg.json --out out/ evolve --nu 5
"""

from __future__ import annotations

import resource
import sys
import tracemalloc
from typing import Optional, Sequence

from afmgate.cli import main


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_memory(argv: Optional[Sequence[str]] = None) -> int:
    """Run ``afmgate`` with ``argv`` and print its peak memory; returns the
    command's exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    before = _peak_rss_mb()
    tracemalloc.start()
    try:
        status = main(argv)
        _, traced = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    after = _peak_rss_mb()
    print(f"tracemalloc peak: {traced / 1e6:.2f} MB")
    print(f"ru_maxrss: {before:.1f} MB after imports, {after:.1f} MB after the command (+{after - before:.1f} MB)")
    return status


if __name__ == "__main__":
    sys.exit(peak_memory())
