"""Run every workload and write one combined result file.

    python3 perfbench/suite.py [--seeds 1,2,3] [--seconds 30] [--out FILE]

Each workload gets one untraced run per seed, for the end-to-end metrics,
then one traced run on the first seed, for the per-layer metrics and the
tracing overhead.  The table gives every metric with its unit and sample
count; an end-to-end metric is the median over seeds.  The file (default
``perfbench/out/suite.json``) holds every value and the provenance, and is
what ``compare.py`` reads.
"""

import argparse
import json
import os
import statistics
import sys

import run


def measure(workloads, seeds, seconds):
    combined = {"provenance": run.provenance(), "seeds": seeds, "seconds": seconds,
                "workloads": {}}
    for workload in workloads:
        records = [run.run(workload, seed, seconds, 0) for seed in seeds]
        traced = run.run(workload, seeds[0], seconds, 1)
        for record in records + [traced]:
            run.print_record(record)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        combined["workloads"][workload] = {
            "end_to_end": {
                name: {"median": statistics.median(r["metrics"][name]["value"] for r in records),
                       "values": [r["metrics"][name]["value"] for r in records],
                       "unit": m["unit"], "note": m["note"]}
                for name, m in records[0]["metrics"].items()
            },
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "failures": [f for r in records + [traced] for f in r["failures"]][:20],
            "per_layer": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in traced["metrics"].items()},
            "trace_seed": seeds[0],
        }
    return combined


def print_summary(combined):
    for workload, w in combined["workloads"].items():
        print(f"\n== {workload}: median of {len(combined['seeds'])} seeds")
        for name, m in w["end_to_end"].items():
            print(f"  {name:<40} {m['median']:>14.6g} {m['unit']:<8} {m['note']}")
        print(f"  {'failed_frac':<40} {w['failed_frac']:>14.6g} {'ratio':<8} "
              f"{w['failed']} of {w['attempted']} job runs")
        print(f"-- {workload}: traced run, seed {w['trace_seed']}")
        for name, m in w["per_layer"].items():
            print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(run.OUT, "suite.json"))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    combined = measure([w["name"] for w in spec["workloads"]], seeds, args.seconds)
    print_summary(combined)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(combined, f, indent=1)
    print(f"\nwrote {args.out}")
    return 0 if all(w["failed"] == 0 for w in combined["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
