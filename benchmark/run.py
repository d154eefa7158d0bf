"""Run one cpfuse benchmark workload and print its metrics.

    python3 benchmark/run.py --workload s5-budget --seed 1 --seconds 30 --trace 0

Builds nothing: the package is imported from ``src/`` of the checkout that
holds this file.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run's metadata, sample counts and solver diagnostics.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  The ``cli`` module adds only argument parsing on top of the same
calls and is not measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


def git_sha(root: Path) -> str:
    """HEAD of a git checkout at ``root``, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pin BLAS before numpy loads it: at 2 threads the l-tensor solve is
    # 2.6-3x slower, noisier, and takes a different trajectory.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "cpfuse" / "__init__.py").is_file():
        print(f"cpfuse sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    print("meta " + json.dumps({"workload": w.name, "seed": args.seed, **run_metadata()}))
    bench_dir = Path(__file__).resolve().parent
    if args.trace:
        found, attempted, failed, lines = workloads.run_traced(w, args.seed, bench_dir)
    else:
        found, attempted, failed, lines = workloads.run_untraced(
            w, args.seed, args.seconds, bench_dir
        )
    print("\n".join(lines))
    values_ok = all(math.isfinite(v) for v, _ in found.values())
    print(
        json.dumps(
            {
                "correct": failed == 0 and values_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": v if math.isfinite(v) else None, "unit": unit}
                    for name, (v, unit) in found.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
