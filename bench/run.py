"""ivforest benchmark: one workload, one process, one BLAS thread.

Usage, from the root of a checkout of the repository:

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones. See
runner.py for how a run is measured and README.md for the workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "cli_fit_predict", "predict_batch")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="ivforest benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ivforest" / "__init__.py").is_file():
        print(f"bench: no ivforest package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # numpy reads these when it is first imported, just below
    sys.path.insert(0, str(SRC))
    import runner

    return runner.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".ivbench")


if __name__ == "__main__":
    sys.exit(main())
