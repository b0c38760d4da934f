#!/usr/bin/env python3
"""The gframes benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gframes from that
checkout's `src/` and exits with code 2 when there is none. Workloads
(see workloads.py and BENCHMARK.json): wide_frames, square_spectral,
near_threshold, cli_roundtrip.

The BLAS thread count is fixed at 1 here, before numpy is imported, and
the CLI children inherit the setting. With `--trace 0` the run installs
no wrapper and reports the end-to-end metrics; with `--trace 1` it
reports the per-layer metrics. Every metric is printed with its unit,
then a `details` line (input digest, environment, tail percentile,
failures), and last one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The benchmark's own tests: python3 -m pytest benchmark
"""

import argparse
import os
import sys
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("wide_frames", "square_spectral", "near_threshold", "cli_roundtrip")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gframes" / "__init__.py").is_file():
        print(f"benchmark: no gframes sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    # one CPU for this process and its children, so the speed calibration
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import gframes

    if Path(gframes.__file__).resolve().parent != SRC / "gframes":
        print(f"benchmark: imported gframes from {gframes.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    harness.report(harness.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), root=str(ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
