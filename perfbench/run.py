"""Run one workload of the equitau benchmark and print its metrics.

    python3 perfbench/run.py --workload hrr --seed 1 --seconds 38 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Set-up is timed over several fresh worker processes.  A
worker then runs the seeded job list in passes until ``--seconds`` is spent
and checks each job against the reference.  Job times are scaled to a fixed
reference speed of the machine (see ``normalized``).  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer
metrics from one traced pass.  The last line of stdout is the result object;
the full record, with provenance, goes to ``perfbench/out/``.
"""

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 12
DEADLINE_S = 170
TAIL_SAMPLES = 10
CALIBRATION_REFERENCE_S = 0.005
"""What ``worker.calibration_s`` takes at the reference speed (see ``normalized``)."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Worker processes


def worker_env():
    env = dict(os.environ)
    env.pop("EQUITAU_TRUNC", None)
    return env


def start_worker(args, deadline):
    """Start a worker; returns (seconds until its ready line, stdout after it)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=worker_env(), text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args} failed with exit status {proc.returncode}")
    return ready, out


# ---------------------------------------------------------------------------
# Metric arithmetic


def percentile(values, q):
    """Linear interpolation between closest ranks (inclusive method)."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def tail_quantile(n, q=0.9, beyond=TAIL_SAMPLES):
    """q, lowered until at least `beyond` of n samples lie above it."""
    return min(q, max(0.5, (n - beyond) / n))


def normalized(seconds, calibration):
    """A job time in reference-speed seconds: `seconds` / (`calibration` / reference).

    A shared 2-core VM can change speed by up to half for minutes at a time,
    for every program alike; there, raw wall times of the same code spread
    too widely to hold a 25% bound.  Each job time is
    therefore divided by the machine's speed at that moment, measured by a
    fixed piece of work run next to it (``worker.calibration_s``).  A change
    to equitau does not change the calibration, so it moves these times as it
    moves raw ones.  Set-up time is not scaled: process start and import
    follow the machine's speed only weakly, so scaling would over-correct.
    """
    return seconds * CALIBRATION_REFERENCE_S / calibration


def job_samples(result):
    """Every job run's time, scaled by the mean of the calibrations just before and after it."""
    return [normalized(t, (cal[j] + cal[j + 1]) / 2)
            for times, cal in zip(result["passes"], result["calibration"])
            for j, t in enumerate(times)]


def end_to_end(setup, result):
    samples = job_samples(result)
    raw = [t for times in result["passes"] for t in times]
    q = tail_quantile(len(samples))
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} starts, unscaled"),
        "jobs_per_s": (len(samples) / sum(samples),
                       f"{len(result['passes'])} passes of {result['jobs']} jobs; "
                       f"unscaled {len(raw) / sum(raw):.4g}"),
        "job_s.p50": (percentile(samples, 0.5),
                      f"n={len(samples)}; unscaled {percentile(raw, 0.5):.4g}"),
        "job_s.p90": (percentile(samples, q),
                      f"p{100 * q:.0f}, n={len(samples)}; unscaled {percentile(raw, q):.4g}"),
        "peak_rss_mb": (result["peak_rss_mb"], "worker"),
    }


def layer_value(name, trace):
    counts = trace["counts"]
    base = name.rsplit(".", 1)[0]
    if name == "trace_overhead":
        return trace["traced_pass_s"] / statistics.median(trace["untraced_pass_s"])
    if name.endswith(".kept_ratio"):
        pairs = counts.get(base + ".pairs", 0)
        return counts.get(base + ".kept", 0) / pairs if pairs else 0.0
    if name.endswith(".found_ratio"):
        calls = counts.get(base + ".calls", 0)
        return counts.get(base + ".found", 0) / calls if calls else 0.0
    if name.endswith(".self_s"):
        return trace["self_s"].get(base, 0.0)
    if name.endswith(".s"):
        return trace["inclusive_s"].get(base, 0.0)
    return counts.get(name, 0)


def per_layer(trace, spec):
    return {m["name"]: (layer_value(m["name"], trace), "traced pass") for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# Provenance


def git_sha():
    """HEAD's commit id; None when the checkout is no git repository or git is missing."""
    # The ceiling keeps git from reporting a repository that merely encloses ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance():
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "equitau", "*.py"))):
        with open(path) as f:
            lines += sum(1 for _ in f)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, trace):
    """Measure one workload; returns the full record."""
    spec = load_spec()
    deadline = time.monotonic() + DEADLINE_S
    setup = [start_worker(["--probe"], deadline)[0] for _ in range(SETUP_RUNS)]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    out = start_worker(args, deadline)[1]
    result = json.loads(out.strip().splitlines()[-1])
    metrics = per_layer(result, spec) if trace else end_to_end(setup, result)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    failed = len(result["failures"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": provenance(),
        "attempted": result["attempted"], "failed": failed,
        "failed_frac": failed / result["attempted"],
        "failures": result["failures"][:20],
        "metrics": {name: {"value": value, "unit": units[name], "note": note}
                    for name, (value, note) in metrics.items()},
        "setup_samples_s": setup,
        "job_s_by_pass": result.get("passes"),
        "calibration_s_by_pass": result.get("calibration"),
        "spans": result.get("spans"),
    }


def print_record(record):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  git {record['provenance']['git_sha']}")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<8} {m['note']}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} {'ratio':<8} "
          f"{record['failed']} of {record['attempted']} job runs")
    for failure in record["failures"]:
        print(f"  FAILED {json.dumps(failure)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "equitau")):
        print(f"perfbench: no equitau package under {ROOT}/src", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print_record(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
