#!/usr/bin/env python3
"""Compare two result sets of the CloudQC benchmark (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by perfbench/sweep.py, one per
run, named <workload>.t<trace>.s<seed>.json. Runs of the two sides are
paired by workload and seed; run the same seeds on both commits and
alternate which side runs first. For every workload and end-to-end metric
the tool prints each side's median and quartiles, the share of pairs the
change won (ties count for neither side) and a verdict:

  improved    the change wins at least 9 pairs in 10 and the medians differ
              by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  unchanged   otherwise

It also prints each side's failure share (failed / attempted) per workload.
"""
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>[A-Za-z0-9_]+)\.t(?P<trace>[01])\.s(?P<seed>\d+)\.json$")


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def load_results(directory, trace="0"):
    """{workload: {seed: result}} for the runs with the given trace flag."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        m = NAME.match(os.path.basename(path))
        if not m or m.group("trace") != trace:
            continue
        with open(path) as f:
            result = json.loads(f.read().strip().splitlines()[-1])
        out.setdefault(m.group("workload"), {})[int(m.group("seed"))] = result
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def failure_share(runs):
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    return failed / attempted if attempted else float("nan")


def verdict(parent, change, better, bound):
    """Apply the pairing rule to two {seed: value} maps."""
    def beats(x, y):
        return x < y if better == "lower" else x > y

    seeds = sorted(set(parent) & set(change))
    won = sum(beats(change[s], parent[s]) for s in seeds)
    share = won / len(seeds) if seeds else 0.0
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    worse_by = ((cm - pm) if better == "lower" else (pm - cm)) / pm if pm else 0.0
    all_better = all(beats(x, y) for x in c for y in p)
    if share >= 0.9 and beats(cm, pm) and abs(cm - pm) > p3 - p1:
        return "improved", share
    if spread(p) > bound and not all_better:
        return "unresolved", share
    if worse_by > bound:
        return "worse", share
    return "unchanged", share


def fmt(values):
    q1, median, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (median, q1, q3)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    spec = load_spec()
    parent, change = load_results(argv[1]), load_results(argv[2])
    header = ("workload", "metric", "parent median [q1, q3]",
              "change median [q1, q3]", "won", "verdict")
    rows = [header]
    for workload in sorted(set(parent) | set(change)):
        a, b = parent.get(workload, {}), change.get(workload, {})
        if not a or not b:
            rows.append((workload, "-", "%d runs" % len(a), "%d runs" % len(b),
                         "-", "missing"))
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pa = {s: r["metrics"][name]["value"] for s, r in a.items()}
            pb = {s: r["metrics"][name]["value"] for s, r in b.items()}
            result, share = verdict(pa, pb, metric["better"], metric["bound"])
            rows.append((workload, name, fmt(list(pa.values())),
                         fmt(list(pb.values())), "%.0f%%" % (100 * share),
                         result))
        rows.append((workload, "failure share", "%.4g" % failure_share(a),
                     "%.4g" % failure_share(b), "",
                     "" if all(r["correct"] for r in list(a.values()) +
                               list(b.values())) else "INCORRECT RUN"))
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


if __name__ == "__main__":
    main(sys.argv)
