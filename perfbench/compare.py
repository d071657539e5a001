"""Compare two suite result files, workload by workload.

    python3 perfbench/compare.py OLD.json NEW.json

Flags every end-to-end metric whose median got worse by more than its bound
in ``BENCHMARK.json``, and lists every per-layer metric that moved by more
than 20%.  It is a report: the exit status is 0 whatever it finds.
"""

import json
import sys

import run

LAYER_MOVE = 0.20


def change(old, new):
    """Relative change new/old - 1; None when old is 0 (infinite unless new is 0 too)."""
    if old == 0:
        return 0.0 if new == 0 else None
    return new / old - 1


def compare(old, new, spec):
    lines = []
    for key in ("git_sha", "src_lines", "python", "nproc"):
        lines.append(f"{key}: {old['provenance'].get(key)} -> {new['provenance'].get(key)}")
    for workload, w_new in new["workloads"].items():
        w_old = old["workloads"].get(workload)
        if w_old is None:
            lines.append(f"\n== {workload}: only in the new file")
            continue
        lines.append(f"\n== {workload}")
        for m in spec["end_to_end"]:
            a, b = w_old["end_to_end"][m["name"]]["median"], w_new["end_to_end"][m["name"]]["median"]
            c = change(a, b)
            worse = c if m["better"] == "lower" else (None if c is None else -c)
            flag = "REGRESSED" if worse is None or worse > m["bound"] else ""
            lines.append(f"  {m['name']:<40} {a:>12.6g} -> {b:<12.6g} {_pct(c):>8} "
                         f"(bound {m['bound']:.0%}) {flag}")
        lines.append(f"  {'failed_frac':<40} {w_old['failed_frac']:>12.6g} -> "
                     f"{w_new['failed_frac']:<12.6g}")
        moved = []
        for m in spec["per_layer"]:
            a = w_old["per_layer"][m["name"]]["value"]
            b = w_new["per_layer"][m["name"]]["value"]
            c = change(a, b)
            if c is None or abs(c) > LAYER_MOVE:
                moved.append(f"  {m['name']:<40} {a:>12.6g} -> {b:<12.6g} {_pct(c):>8}")
        lines.append(f"-- per-layer metrics that moved by more than {LAYER_MOVE:.0%}: {len(moved)}")
        lines.extend(moved)
    return lines


def _pct(c):
    return "new" if c is None else f"{c:+.1%}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        old = json.load(f)
    with open(argv[1]) as f:
        new = json.load(f)
    print("\n".join(compare(old, new, run.load_spec())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
