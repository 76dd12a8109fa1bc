"""Steadiness check: run the workloads repeatedly, interleaved, and print
each metric's median, quartiles and spread per workload.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --seeds 1-10                # every workload
    python3 perfbench/steady.py --workloads serve_ingest --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --trace 1      # per-layer metrics

Round ``i`` runs every chosen workload once with the ``i``-th seed, so
slow drift of the machine spreads over all workloads alike.  The spread
of a metric is ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; for end-to-end metrics it is
printed beside the metric's bound in ``BENCHMARK.json``.  With
``--trace 1`` each per-layer table also gives the tracing overhead: the
traced end-to-end medians against the untraced medians of a previous
``--trace 0`` record (``--against``).  Raw results go to
``.perfbench/steady-<trace>-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKDIR = ".perfbench"


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="perfbench steadiness check")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", default=None,
                    help="a --trace 0 record, for the tracing overhead")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = []
    for seed in seeds:
        for w in workloads:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": w, "seed": seed, "wall_s": wall, **result})
            print(f"{w:<13} seed {seed:>3}  {wall:6.1f} s  correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  flush=True)

    os.makedirs(WORKDIR, exist_ok=True)
    path = os.path.join(WORKDIR, f"steady-{args.trace}-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    untraced = {}
    if args.against:
        with open(args.against) as fh:
            for r in json.load(fh):
                for k, v in r["metrics"].items():
                    untraced.setdefault((r["workload"], k), []).append(v["value"])
    for w in workloads:
        mine = [r for r in runs if r["workload"] == w]
        shares = {r["failed"] / r["attempted"] for r in mine}
        print(f"\n{w}: {len(mine)} runs, failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in mine)}, "
              f"wall {statistics.median(r['wall_s'] for r in mine):.1f} s median")
        print(f"  {'metric':<34} {'median':>13} {'q1':>13} {'q3':>13} "
              f"{'spread':>7} {'bound':>6}")
        for name in mine[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in mine]
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:<34} {med:13.4f} {q1:13.4f} {q3:13.4f} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} {flag}")
            base = name[len("traced."):] if name.startswith("traced.") else None
            if base and (w, base) in untraced:
                off = statistics.median(untraced[(w, base)])
                print(f"  {'  overhead vs untraced':<34} {med - off:13.4f} "
                      f"({(med - off) / off:+.1%})")
    print(f"\nraw results: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
