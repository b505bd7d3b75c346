"""spaq benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload analysis_replay --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, measured with nothing
patched except a timer around property evaluation. ``--trace 1`` prints
the per-layer metrics from spans recorded around spaq's public functions,
plus the tracing overhead. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are for people. The run's record, with the environment, goes to
``.perfbench_out/`` at the checkout root. Exit code 0 means every output
checked out; 1 means an output was wrong; 2 means spaq could not be
loaded from this checkout's ``src``.

``--write-references`` stores the default seed's output fingerprints and
modelled statistics in ``references.json``: run it only for a change that
is meant to alter spaq's outputs.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """Keep native thread pools within the cores (set before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = "1"


def import_spaq() -> None:
    """spaq from this checkout's ``src`` and nowhere else; exit 2 otherwise."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import spaq
    except ImportError as exc:
        print(f"perfbench: cannot import spaq from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(spaq.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: spaq was loaded from {spaq.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    pin_threads()
    import_spaq()
    import_s = time.perf_counter() - T0  # interpreter start-up is not included
    import harness

    sys.exit(harness.main(import_s))
