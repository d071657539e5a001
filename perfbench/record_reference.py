"""Record the reference status, stdout digest and cost of every job in a pool.

Run at a commit whose outputs are trusted; the benchmark then fails any job
whose status or digest differs.  The cost, the median of three runs, only
sorts jobs into the bins that seeds pick from (see ``workloads.generate``);
re-recording it changes which jobs a seed picks, so it is a benchmark change.

    python3 perfbench/record_reference.py [workload ...]
"""

import json
import statistics
import sys
import time

import worker
from workloads import WORKLOADS, reference_path


def record(cli, workload):
    make, _ = WORKLOADS[workload]
    reference = {}
    for stratum, jobs in make().items():
        seconds = []
        for job in jobs:
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                status, text = worker.execute(cli, job)
                runs.append(time.perf_counter() - start)
            seconds.append(statistics.median(runs))
            reference[job["key"]] = {"status": status, "sha256": worker.digest(text),
                                     "seconds": round(seconds[-1], 5)}
        statuses = sorted({reference[job["key"]]["status"] for job in jobs})
        print(f"{workload}/{stratum}: {len(jobs)} jobs, statuses {statuses}, "
              f"{min(seconds):.3f}-{max(seconds):.3f} s, mean {sum(seconds) / len(seconds):.3f} s",
              flush=True)
    with open(reference_path(workload), "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    cli = worker.setup()
    for workload in argv or list(WORKLOADS):
        record(cli, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
