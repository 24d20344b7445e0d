"""personagen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds seeded synthetic inputs, runs one
workload through personagen's public API for about S seconds, checks the
outputs and prints, as the last line of standard output, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
pass. Run records and span files go to ``.perfbench-out/``.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "personagen"
OUT_DIR = ROOT / ".perfbench-out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no personagen sources at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import personagen
    if Path(personagen.__file__).resolve().parent != PACKAGE:
        print(f"error: personagen imported from {personagen.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = bench.run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                       bool(args.trace), OUT_DIR)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
