#!/usr/bin/env python3
"""Run the CloudQC benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py OUT_DIR [--seeds 1-10] [--trace 0|1|both]
                               [--workloads stream_cold,tenant_churn]
                               [--baseline perfbench/baseline.json]

Runs perfbench/run.py once per workload, trace flag and seed, one run at a
time, for BENCHMARK.json's run_seconds, and keeps each run's result line in
OUT_DIR/<workload>.t<trace>.s<seed>.json (the input of compare.py). Then it
prints, per workload and metric, the median, the quartiles and the
interquartile range as a share of the median ("spread"). An end-to-end
metric is "steady" when its spread is below a third of its bound and
"within" when below the bound; setup_s is judged by its medians only.
With --baseline, the summary replaces the file's "measured" entry and the
file's other entries are kept.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

from compare import HERE, load_results, load_spec, quartiles, spread


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_all(out_dir, workloads, traces, seeds, seconds):
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        for trace in traces:
            for seed in seeds:
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.exit("run failed (exit %d): %s"
                             % (proc.returncode, " ".join(cmd)))
                name = "%s.t%s.s%d.json" % (workload, trace, seed)
                with open(os.path.join(out_dir, name), "w") as f:
                    f.write(lines[-1] + "\n")
                print("done", name, flush=True)


def summarise(out_dir, traces, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for trace in traces:
        for workload, runs in sorted(load_results(out_dir, trace).items()):
            metrics = summary.setdefault(workload, {})
            names = sorted(next(iter(runs.values()))["metrics"])
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs.values()]
                q1, median, q3 = quartiles(values)
                entry = {"median": median, "q1": q1, "q3": q3,
                         "spread": spread(values) if median else 0.0,
                         "runs": len(values)}
                if name in bounds and name != "setup_s":
                    entry["bound"] = bounds[name]
                    entry["verdict"] = (
                        "steady" if entry["spread"] < bounds[name] / 3 else
                        "within" if entry["spread"] <= bounds[name] else "WIDE")
                metrics[name] = entry
                print("%-17s %-30s median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %-8.4f %s" % (workload, name, median, q1, q3,
                                            entry["spread"],
                                            entry.get("verdict", "")))
            failed = sum(r["failed"] for r in runs.values())
            if failed or not all(r["correct"] for r in runs.values()):
                print("%-17s FAILURES: %d failed, correct=%s" % (
                    workload, failed,
                    all(r["correct"] for r in runs.values())))
    return summary


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--baseline")
    parser.add_argument("--summarise-only", action="store_true",
                        help="summarise OUT_DIR without running anything")
    args = parser.parse_args()

    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    seeds = parse_seeds(args.seeds)
    if not args.summarise_only:
        run_all(args.out_dir, args.workloads.split(","), traces, seeds,
                spec["run_seconds"])
    summary = summarise(args.out_dir, traces, spec)
    if args.baseline:
        baseline = {}
        if os.path.exists(args.baseline):
            with open(args.baseline) as f:
                baseline = json.load(f)
        baseline["measured"] = {
            "host": "%s, %d logical CPUs, Release build"
                    % (platform.machine(), os.cpu_count() or 0),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
