"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload batch-episodic --seed 1 --seconds 30 --trace 0

Workloads: batch-episodic, stream-continual, train-reference. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Build products (the trained reference
checkpoint) and scratch files go under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "ttabench" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ttabench'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
