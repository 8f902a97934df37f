"""End-to-end benchmark of the hyperprop CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2 and prints no result.  See ``bench.py``.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path.cwd() / "src"
    if not (src / "hyperprop" / "__init__.py").is_file():
        print(f"error: no hyperprop sources under {src}", file=sys.stderr)
        sys.exit(2)
    # --jobs is the only parallelism: no BLAS or OpenMP threads
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import bench

    sys.exit(bench.main())
