#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/e2e/compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the run records run.py writes (.bench_out/results/ by
default). For every (workload, metric) the table gives each side's median
and quartiles and a verdict:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the base's
              interquartile range;
  worse       end-to-end metrics: the change's median is worse than the
              base's by more than the metric's bound; per-layer metrics:
              the base wins by the rule for "better";
  unresolved  end-to-end metrics whose spread (interquartile range over
              median, on either side) is wider than the bound, unless every
              change run reads better than every base run;
  same        none of the above.

Runs are paired by seed, in the order they were recorded. Runs marked
invalid (open-loop rate missed, too many late sends, too few admits) are
left out and counted. Exit status 1 when any end-to-end verdict is "worse".
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory):
    """{workload: [record, ...]} of the valid records, in recording order."""
    runs, skipped = {}, 0
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            record = json.load(f)
        if record.get("smoke"):
            continue
        if not record.get("valid", True):
            skipped += 1
            continue
        runs.setdefault(record["workload"], []).append(record)
    return runs, skipped


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_up(base, change):
    """Pairs of (base, change) values, matched by seed in recording order."""
    by_seed = {}
    for seed, value in base:
        by_seed.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in change:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
    return pairs


def verdict(base, change, better, bound):
    """Verdict for one metric. `base`/`change` are [(seed, value)]; `bound`
    is None for per-layer metrics."""
    a = [v for _, v in base]
    b = [v for _, v in change]
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)

    def wins(x_side, y_side):  # pairs where y reads better than x
        pairs = pair_up(x_side, y_side)
        return sum(1 for x, y in pairs if sign * (y - x) > 0), len(pairs)

    def gain(x_side, y_side, qx, qy):
        won, total = wins(x_side, y_side)
        return (total > 0 and won * 10 >= total * 9 and sign * (qy[1] - qx[1]) > 0
                and abs(qy[1] - qx[1]) > qx[2] - qx[0])

    if bound is not None:
        spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else float("inf") for q in (qa, qb))
        all_better = min(sign * v for v in b) > max(sign * v for v in a)
        if spread > bound:
            return "better" if all_better else "unresolved"
        if gain(base, change, qa, qb):
            return "better"
        if -sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
            return "worse"
        return "same"
    if gain(base, change, qa, qb):
        return "better"
    if gain(change, base, qb, qa):
        return "worse"
    return "same"


def values(records, name):
    """[(seed, value)] of a metric. Traced runs halve the wire phases, so
    they count only for metrics untraced runs do not report."""
    for traced in (0, 1):
        found = [(r["seed"], r["metrics"][name]) for r in records
                 if r.get("trace", 0) == traced and name in r["metrics"]]
        if found:
            return found
    return []


def compare(base_dir, change_dir, spec):
    base, skipped_a = load_runs(base_dir)
    change, skipped_b = load_runs(change_dir)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, (better, bound) in bounds.items():
            a = values(base.get(workload, []), name)
            b = values(change.get(workload, []), name)
            if not a or not b:
                continue
            rows.append({"workload": workload, "metric": name, "bound": bound,
                         "base": quartiles([v for _, v in a]), "n_base": len(a),
                         "change": quartiles([v for _, v in b]), "n_change": len(b),
                         "verdict": verdict(a, b, better, bound)})
    return rows, skipped_a, skipped_b


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)
    rows, skipped_a, skipped_b = compare(args.base, args.change, spec)

    def fmt(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    print(f"{'workload':<12} {'metric':<30} {'base median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} verdict")
    for row in rows:
        bound = "" if row["bound"] is None else f" (bound {row['bound']:g})"
        print(f"{row['workload']:<12} {row['metric']:<30} "
              f"{fmt(row['base']) + ' n=' + str(row['n_base']):<32} "
              f"{fmt(row['change']) + ' n=' + str(row['n_change']):<32} {row['verdict']}{bound}")
    if skipped_a or skipped_b:
        print(f"left out invalid runs: {skipped_a} base, {skipped_b} change")
    regressed = any(r["verdict"] == "worse" and r["bound"] is not None for r in rows)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
