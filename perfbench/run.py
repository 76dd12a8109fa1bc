"""The repository's benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train_single --seed 1 --seconds 10 --trace 0

Workloads: ``train_single``, ``train_dist``, ``serve_read``,
``serve_ingest`` (see ``perfbench/README.md``).  Each run starts fresh
processes with the BLAS/OpenMP thread variables and every ``REPRO_*``
variable removed, so the program's own defaults apply:

1. for the serving workloads, a process that trains and saves the
   checkpoint from the seed (outside every measurement);
2. with ``--trace 0``, ``SETUP_SAMPLES - 1`` processes that only set up,
   each timed from its own start;
3. the workload process: set-up, timed phase, checks.

The last line of standard output is the result: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  The line before
it records the environment.  The run exits non-zero, printing no result,
when the program's source is missing or any process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("train_single", "train_dist", "serve_read", "serve_ingest")
SETUP_SAMPLES = 3
#: wall-clock budget of one run, all processes included
BUDGET_S = 170.0
WORKDIR = ".perfbench"
HERE = os.path.dirname(os.path.abspath(__file__))
CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in CLEARED_ENV and not k.startswith("REPRO_")}
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy
    import scipy

    sha = "unknown"
    if os.path.isdir(".git") and shutil.which("git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30).stdout.strip() or sha
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


class Child:
    """Runs ``perfbench/workloads.py`` processes within the run's budget."""

    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = child_env()

    def __call__(self, mode: str, *extra: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run budget exhausted")
        cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
               "--mode", mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--trace", str(self.args.trace), *extra]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                                stdout=subprocess.PIPE, env=self.env, text=True)
        try:
            stdout, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{mode} process exceeded the run budget") from None
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process exited with {proc.returncode}")
        lines = stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        return json.loads(lines[-1]) if lines else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORKDIR)
    try:
        child = Child(args, deadline)
        extra = []
        if args.workload.startswith("serve"):
            ckpt = os.path.join(workdir, "model.npz")
            child("checkpoint", "--checkpoint", ckpt)
            extra = ["--checkpoint", ckpt]
        if args.trace:
            extra += ["--trace-out", os.path.join(
                WORKDIR, f"trace-{args.workload}-{args.seed}.json")]
        else:
            samples = [child("setup", *extra)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
        result = child("run", *extra)
        if not args.trace:
            samples.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(samples)
        env = environment()
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
