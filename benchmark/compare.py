"""Compare saved benchmark outputs of two commits, metric by metric.

    python3 benchmark/compare.py base1.txt base2.txt ... --new new1.txt new2.txt ...

Each file is the standard output of one ``benchmark/run.py`` run (its last
line is the result JSON).  All files must come from the same workload.  For
every metric the script prints each side's median and quartile spread, the
change of the medians (positive is better), how many runs of the new side
beat the base run at the same position, and, for end-to-end metrics, whether
the change stays within the bound in ``BENCHMARK.json``.  With no ``--new``
it prints the base side alone, which is how run-to-run spread is checked.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(paths):
    workloads, results = set(), []
    for path in paths:
        lines = Path(path).read_text().strip().splitlines()
        meta = next(line for line in lines if line.startswith("meta "))
        workloads.add(json.loads(meta[len("meta ") :])["workload"])
        results.append(json.loads(lines[-1])["metrics"])
    return workloads, results


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if med == 0:
        return med, 0.0 if q1 == q3 else math.inf
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+")
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    base_wl, base = load(args.base)
    new_wl, new = load(args.new)
    if len(base_wl | new_wl) != 1:
        parser.error(f"files mix workloads: {sorted(base_wl | new_wl)}")

    direction = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    print(f"workload {base_wl.pop()}: {len(base)} base runs, {len(new)} new runs")
    for name, entry in base[0].items():
        b_values = [r[name]["value"] for r in base]
        b_med, b_spread = summary(b_values)
        line = f"{name:34s} {entry['unit']:6s} base {b_med:.6g} (spread {b_spread:.3f})"
        if new:
            n_values = [r[name]["value"] for r in new]
            n_med, n_spread = summary(n_values)
            sign = 1.0 if direction[name] == "higher" else -1.0
            gain = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
            wins = sum(sign * (n - b) > 0 for b, n in zip(b_values, n_values))
            line += (
                f"  new {n_med:.6g} (spread {n_spread:.3f})  better by {gain:+.3f}"
                f"  wins {wins}/{min(len(b_values), len(n_values))}"
            )
            if name in bounds:
                line += "  WORSE THAN BOUND" if -gain > bounds[name] else "  within bound"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
