"""The benchmark worker: one process, one thread, one job at a time.

Started by ``run.py``.  It imports ``equitau.cli`` from the checkout's
``src``, builds the parser, and prints ``ready``: the parent times set-up up
to that line.  With ``--probe`` it then exits.  Otherwise it generates the
seeded job list, runs passes over it (a closed loop with one client, with a
short calibration of the machine's speed between jobs), checks
every job's exit status and stdout digest against the reference, and prints
one JSON line with the raw timings.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CALIBRATION_STEPS = 1600


def setup():
    sys.path.insert(0, SRC)
    import equitau.cli

    if not os.path.abspath(equitau.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"equitau was imported from outside {SRC}")
    equitau.cli.build_parser()
    return equitau.cli


# Everything below runs after the ready line, so set-up time covers only
# the interpreter, `import equitau.cli` and `build_parser()`.


def run_cli(cli, argv):
    """(exit status, stdout) of one in-process CLI run."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue()


def execute(cli, job):
    if "argv" in job:
        return run_cli(cli, job["argv"])
    from workloads import characters_job

    return characters_job(**job["lib"])


def digest(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def calibration_s():
    """Seconds that one fixed piece of stdlib work takes right now.

    The work, small-denominator ``Fraction`` sums and tuple-keyed dict
    updates, is the kind the jobs do, but touches no equitau code, so its
    time moves with the machine's speed only.  See ``run.normalized``.
    """
    from fractions import Fraction

    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(CALIBRATION_STEPS):
        total += Fraction(i % 13 - 6, i % 7 + 1)
        key = (i % 5, i % 9)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def run_pass(cli, jobs, reference, tracer=None, execute=execute):
    """Run every job once, with a calibration before each job and after the last.

    Returns per-job seconds, calibration seconds (one more than jobs),
    output bytes and failures.
    """
    seconds, calibration, out_bytes, failures = [], [], 0, []
    for index, job in enumerate(jobs):
        calibration.append(calibration_s())
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        try:
            status, text = execute(cli, job)
        except Exception as exc:  # a job that raises is a failure, not a crash
            seconds.append(time.perf_counter() - start)
            failures.append({"key": job["key"], "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds.append(time.perf_counter() - start)
        out_bytes += len(text.encode())
        got = {"status": status, "sha256": digest(text)}
        want = reference.get(job["key"], {})
        if got != {"status": want.get("status"), "sha256": want.get("sha256")}:
            failures.append({"key": job["key"], "got": got, "want": want})
    calibration.append(calibration_s())
    return seconds, calibration, out_bytes, failures


def run_passes(cli, jobs, reference, seconds, min_passes=3, execute=execute):
    """Untraced passes until the time is spent (at least `min_passes`).

    Returns per-pass job seconds, per-pass calibration seconds and failures.
    """
    passes, calibrations, failures = [], [], []
    started = time.perf_counter()
    while True:
        times, calibration, _, failed = run_pass(cli, jobs, reference, execute=execute)
        passes.append(times)
        calibrations.append(calibration)
        failures += failed
        elapsed = time.perf_counter() - started
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, calibrations, failures


def run_traced(cli, jobs, reference, seconds, spans_path):
    """Untraced passes for half the time, then exactly one traced pass."""
    from tracer import Tracer, inclusive_times, self_times

    passes, _, failures = run_passes(cli, jobs, reference, seconds / 2, min_passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        times, _, out_bytes, failed = run_pass(cli, jobs, reference, tracer)
    finally:
        tracer.uninstall()
    write_spans(spans_path, tracer.spans)
    return {
        "untraced_pass_s": [sum(p) for p in passes],
        "traced_pass_s": sum(times),
        "failures": failures + failed,
        "attempted": len(jobs) * (len(passes) + 1),
        "counts": dict(tracer.counts, **{"cli.output_bytes": out_bytes}),
        "self_s": self_times(tracer.spans),
        "inclusive_s": inclusive_times(tracer.spans),
        "spans": len(tracer.spans),
    }


def write_spans(path, spans):
    import gzip
    import json

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as f:
        f.write('["name", "id", "parent", "job", "start", "end"]\n')
        for span in spans:
            f.write(json.dumps(span) + "\n")


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv):
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    cli = setup()
    print("ready", flush=True)
    if args.probe:
        return 0

    import json

    from workloads import generate, load_reference

    reference = load_reference(args.workload)
    jobs = generate(args.workload, args.seed, reference)
    if args.trace:
        spans = os.path.join(ROOT, "perfbench", "out",
                             f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        result = run_traced(cli, jobs, reference, args.seconds, spans)
    else:
        passes, calibration, failures = run_passes(cli, jobs, reference, args.seconds)
        result = {"passes": passes, "calibration": calibration, "failures": failures,
                  "attempted": len(jobs) * len(passes)}
    result["jobs"] = len(jobs)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
