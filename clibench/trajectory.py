#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``trajectory/BENCH_<label>.json``.

    python3 clibench/trajectory.py --label seed

Runs ``run.py`` untraced in SETS sets of SEEDS seeded runs per workload, with
``run_seconds`` from ``BENCHMARK.json``, then once traced per workload (seed
1). Within a set the workloads take turns seed by seed, so a slow stretch of
the machine lands on all of them rather than on all runs of one. The file
holds every run's result line; per set and over all runs, the median and
quartiles of each end-to-end metric with its spread (Q3 - Q1) / median; each
later set's median shift against the first; the traced per-layer breakdown;
and the environment stamp. A claim of "faster" is a diff between two such
files measured on comparable environments (same nproc, numpy and kernel
backend).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2    # independent sets, to show how far two sets of one commit differ
SEEDS = 10  # runs per workload in one set, one seed each


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((BENCH / "out" / f"{workload}-s{seed}-t{trace}.json").read_text())
    return line, full


def summarize(runs):
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    doc = {"label": args.label, "run_seconds": seconds, "environment": None, "workloads": {}}
    sets = {w: [[] for _ in range(SETS)] for w in workloads.WORKLOADS}
    for k in range(SETS):
        for seed in range(k * SEEDS + 1, (k + 1) * SEEDS + 1):
            for workload in workloads.WORKLOADS:
                line, full = run_once(workload, seed, seconds, 0)
                doc["environment"] = doc["environment"] or full["environment"]
                sets[workload][k].append({
                    "seed": seed, "samples": full["samples"], "op_s_tail": full["op_s_tail"],
                    "op_s_tail_percentile": full["op_s_tail_percentile"],
                    "ref_s_p50": full["ref_s_p50"], "wall": full["wall"], **line})
                print(f"set {k + 1} {workload} {seed}", json.dumps(line["metrics"]), flush=True)

    for workload, runs in sets.items():
        summaries = [summarize(r) for r in runs]
        shift = [{name: s[name]["median"] / summaries[0][name]["median"] - 1 for name in s}
                 for s in summaries[1:]]
        line, full = run_once(workload, 1, seconds, 1)
        doc["workloads"][workload] = {
            "summary": summarize([r for rs in runs for r in rs]),
            "shift_against_set_1": shift,
            "sets": [{"runs": r, "summary": s} for r, s in zip(runs, summaries)],
            "trace": {"attempted": line["attempted"], "failed": line["failed"],
                      "missing": full["missing"], "not_exercised": full["not_exercised"],
                      "metrics": {k: v["value"] for k, v in line["metrics"].items()}},
        }
        for name in summaries[0]:
            print(f"  {workload:9s} {name:12s} "
                  + " ".join(f"set{i + 1} median={s[name]['median']:.4g} spread={s[name]['spread']:.3f}"
                             for i, s in enumerate(summaries))
                  + "".join(f" shift={d[name]:+.3f}" for d in shift), flush=True)
    out = BENCH / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
