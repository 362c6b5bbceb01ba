#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against a checked-in baseline.

Usage:
    check_regression.py --baseline BENCH_pipeline.json --candidate out.json \
                        [--threshold 0.25] [--strict-context] \
                        [--ratio '[FIELD:]A/B>=X' ...]

Policy (the CI perf gate):
  * Benchmarks are matched by name. For runs with repetitions, the `median`
    aggregate is used; otherwise the single iteration entry.
  * A benchmark REGRESSES when candidate time exceeds baseline time by more
    than --threshold (default 25%).
  * Regressions only FAIL the gate (exit 1) when the benchmark context
    matches the baseline host (num_cpus, mhz_per_cpu and host_name): a
    baseline recorded on different hardware cannot be held against this run,
    so mismatched contexts downgrade every regression to a warning.
  * Missing benchmarks (in either direction) warn — renames should update
    the baseline in the same PR.
  * A --ratio 'A/B>=X' (or '<=') divides row A's value by row B's within the
    candidate run alone, so it holds on any host: a failed ratio, or a row
    it names that the candidate lacks, fails the gate whatever the host
    context. The value is cpu_time unless a FIELD prefix names another
    (`real_time`, `items_per_second`).

The exit code is the contract; the report on stdout is for the CI log.
"""

from __future__ import annotations

import argparse
import json
import sys

CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "host_name")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def context_matches(baseline, candidate):
    """True when both runs describe the same host, plus a human summary."""
    b = baseline.get("context", {})
    c = candidate.get("context", {})
    diffs = []
    for key in CONTEXT_KEYS:
        if b.get(key) != c.get(key):
            diffs.append(f"{key}: baseline={b.get(key)!r} candidate={c.get(key)!r}")
    return (not diffs), diffs


def representative_entries(doc):
    """name -> benchmark entry, preferring the median aggregate when present."""
    picked = {}
    for entry in doc.get("benchmarks", []):
        run_type = entry.get("run_type", "iteration")
        if run_type == "aggregate":
            if entry.get("aggregate_name") != "median":
                continue
            name = entry.get("run_name", entry["name"])
            picked[name] = entry  # aggregates win over raw repetitions
        else:
            name = entry["name"]
            picked.setdefault(name, entry)
    return picked


def metric(entry):
    """The gated quantity: CPU time (wall time is noisy on shared runners)."""
    return float(entry["cpu_time"]), entry.get("time_unit", "ns")


RATIO_FIELDS = ("cpu_time", "real_time", "items_per_second")


def check_ratio(expr, entries):
    """Evaluate one --ratio against the candidate's rows: (ok, report line)."""
    for op in (">=", "<="):
        if op in expr:
            names, bound = expr.rsplit(op, 1)
            break
    else:
        return False, f"ratio {expr!r} needs '>=' or '<='"
    field, sep, rest = names.partition(":")
    if sep and field in RATIO_FIELDS:
        names = rest
    else:
        field = "cpu_time"
    # Row names contain '/', so split where both halves name a row.
    for i, ch in enumerate(names):
        a, b = names[:i].strip(), names[i + 1:].strip()
        if ch == "/" and a in entries and b in entries:
            break
    else:
        return False, f"ratio {expr!r}: the candidate run lacks a row it names"
    if field not in entries[a] or field not in entries[b]:
        return False, f"ratio {expr!r}: a row has no {field}"
    value = float(entries[a][field]) / float(entries[b][field])
    ok = value >= float(bound) if op == ">=" else value <= float(bound)
    return ok, f"ratio {a} / {b} ({field}) = {value:.3f}, want {op} {float(bound):g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="checked-in BENCH_*.json")
    parser.add_argument("--candidate", required=True, help="fresh benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional slowdown that fails the gate (default 0.25)")
    parser.add_argument("--strict-context", action="store_true",
                        help="fail (not warn) when the host context mismatches")
    parser.add_argument("--require", action="append", default=[], metavar="PREFIX",
                        help="benchmark name (or prefix) that must be present in both "
                             "runs; missing coverage fails the gate even on a "
                             "mismatched host (repeatable)")
    parser.add_argument("--ratio", action="append", default=[], metavar="[FIELD:]A/B>=X",
                        help="ratio of two candidate rows that must hold on any host; "
                             "'<=' also accepted (repeatable)")
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    candidate = load(args.candidate)

    same_host, diffs = context_matches(baseline, candidate)
    if not same_host:
        print("context mismatch between baseline and candidate:")
        for d in diffs:
            print(f"  {d}")
        if args.strict_context:
            print("FAIL: --strict-context requires a matching host")
            return 1
        print("=> regressions will be reported as warnings only\n")

    base_entries = representative_entries(baseline)
    cand_entries = representative_entries(candidate)

    # Required coverage: a rename or a silently skipped scaling row must not
    # slip through as a mere warning. Prefix matching lets one --require
    # cover a size sweep ("BM_PlanDerSerial" matches every /n: variant).
    # Every name matching the prefix in either run must be present in BOTH:
    # it is not enough that *some* variant matches on each side, or a
    # candidate run that silently dropped the /n:10000 row while keeping
    # /n:500 would pass the gate without ever comparing the gated row.
    missing_required = []
    for prefix in args.require:
        base_match = {n for n in base_entries if n.startswith(prefix)}
        cand_match = {n for n in cand_entries if n.startswith(prefix)}
        if not base_match:
            missing_required.append(f"baseline has no benchmark matching {prefix!r}")
        if not cand_match:
            missing_required.append(f"candidate has no benchmark matching {prefix!r}")
        for name in sorted(base_match - cand_match):
            missing_required.append(f"candidate is missing required benchmark {name!r}")
        for name in sorted(cand_match - base_match):
            missing_required.append(f"baseline is missing required benchmark {name!r}")
    if missing_required:
        for m in missing_required:
            print(f"missing required benchmark: {m}")
        print("FAIL: required benchmark coverage is absent")
        return 1

    regressions, improvements, warnings = [], [], []

    for name in sorted(base_entries.keys() - cand_entries.keys()):
        warnings.append(f"baseline benchmark missing from candidate run: {name}")
    for name in sorted(cand_entries.keys() - base_entries.keys()):
        warnings.append(f"candidate benchmark has no baseline (update it?): {name}")

    rows = []
    for name in sorted(base_entries.keys() & cand_entries.keys()):
        base_time, unit = metric(base_entries[name])
        cand_time, _ = metric(cand_entries[name])
        if base_time <= 0:
            warnings.append(f"non-positive baseline time for {name}; skipped")
            continue
        ratio = cand_time / base_time
        rows.append((name, base_time, cand_time, unit, ratio))
        if ratio > 1.0 + args.threshold:
            regressions.append((name, ratio))
        elif ratio < 1.0 - args.threshold:
            improvements.append((name, ratio))

    name_width = max((len(r[0]) for r in rows), default=4)
    print(f"{'benchmark'.ljust(name_width)}  {'baseline':>12}  {'candidate':>12}  ratio")
    for name, base_time, cand_time, unit, ratio in rows:
        flag = " <-- REGRESSION" if ratio > 1.0 + args.threshold else ""
        print(f"{name.ljust(name_width)}  {base_time:10.1f}{unit:>2}  "
              f"{cand_time:10.1f}{unit:>2}  {ratio:5.2f}x{flag}")

    for w in warnings:
        print(f"warning: {w}")
    failed_ratios = 0
    for expr in args.ratio:
        ok, report = check_ratio(expr, cand_entries)
        print(f"{report}: {'OK' if ok else 'FAIL'}")
        failed_ratios += not ok
    if failed_ratios:
        print(f"FAIL: {failed_ratios} ratio(s) do not hold in the candidate run")
        return 1
    for name, ratio in improvements:
        print(f"note: {name} improved {ratio:.2f}x vs baseline — "
              "consider refreshing the checked-in baseline")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed beyond "
              f"{args.threshold:.0%}:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x baseline")
        if same_host:
            print("FAIL")
            return 1
        print("WARN: host context differs from baseline; not failing the gate")
        return 0

    print("\nOK: no regression beyond "
          f"{args.threshold:.0%} across {len(rows)} benchmark(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
