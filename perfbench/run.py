"""bpalm benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload kl_ineq --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run times whole passes over the workload's instances while
another pass fits in ``--seconds`` and prints the end-to-end metrics, with
times scaled to a reference speed (see reference.py); with
``--trace 1`` it makes one untraced and one traced pass and prints the
per-layer metrics.  Every op's answer is checked by the benchmark's own KKT
residual and certified reference.  The last line of standard output is the
JSON result; the lines before it are a table and the environment record.
See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

# Every workload runs on one BLAS thread, set before numpy loads.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS


def import_program():
    """Import bpalm from this checkout's src/, never from anywhere else."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import bpalm
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import bpalm from {ROOT / 'src'}: {exc}")
    if Path(bpalm.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        raise SystemExit(f"perfbench: bpalm imported from {bpalm.__file__}, not this checkout")
    return bpalm


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_program()
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)


if __name__ == "__main__":
    sys.exit(main())
