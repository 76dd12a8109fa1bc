"""One workload run in a fresh process (started by ``perfbench/run.py``).

Modes:

- ``checkpoint``: train the serving workloads' 2-layer GraphSAGE on the
  papers stand-in from the seed and save it (outside every measurement);
- ``setup``: set the workload up once and report ``setup_s`` only;
- ``run``: set up, run the timed phase, read peak memory, check the
  outputs against :mod:`reference`, and print one JSON result line.

With ``--trace 1`` the run installs the span wrappers of :mod:`spans`
before set-up and reports the per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spans  # noqa: E402

from repro.core import TrainConfig  # noqa: E402
from repro.core.checkpoint import save_checkpoint, training_meta  # noqa: E402
from repro.core.dist_trainer import DistributedTrainer  # noqa: E402
from repro.core.trainer import Trainer  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.nn.tensor import no_grad  # noqa: E402

TRAIN_DATASET = "ogbn-products"
SERVE_DATASET = "ogbn-papers"
SCALE = 1.0
RANKS = 2
#: epoch counts follow from --seconds through these fixed allowances, so
#: both sides of a comparison train the same number of epochs.
EPOCH_ALLOWANCE_S = {"train_single": 0.8, "train_dist": 1.25}
MIN_TIMED_EPOCHS = 3
CHECKPOINT_EPOCHS = 5
#: reads per second.  Two client threads with the 2 ms batcher window
#: send at most ~650/s; at 300/s the backlog an update's drain leaves
#: took long enough to clear that the median read moved 3-15 ms between
#: runs, so the rate keeps the driver at ~30% of its ceiling.
READ_RATE = 200.0
WARMUP_S = 1.0
UPDATE_PERIOD_S = 1.0
# the ``repro serve`` defaults
CACHE_ROWS = 4096
MAX_BATCH = 256
MAX_WAIT_MS = 2.0
FULL_THRESHOLD = 0.25
WORKERS = 4
MAX_QUEUE = 256
REQUEST_TIMEOUT_S = 30.0


def timed_epochs(workload: str, seconds: float) -> int:
    return max(MIN_TIMED_EPOCHS, int(seconds / EPOCH_ALLOWANCE_S[workload]))


def train_config(seed: int, backend: str = "sim") -> TrainConfig:
    cfg = TrainConfig().for_dataset(TRAIN_DATASET)
    cfg.seed = seed
    cfg.eval_every = 0  # no evaluation inside the timed epochs
    cfg.backend = backend
    return cfg


def peak_rss_mb() -> float:
    """Highest resident set of this process or any child it has reaped
    (the forked ranks), in MB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- set-up ------------------------------------------------------------------


def setup(workload: str, seed: int, checkpoint: Optional[str], rec=None):
    """Everything before the timed phase; returns the workload's state."""
    name = TRAIN_DATASET if workload.startswith("train") else SERVE_DATASET
    if rec is None:
        ds = load_dataset(name, scale=SCALE, seed=seed)
    else:
        with rec.span("graph.load"):
            ds = load_dataset(name, scale=SCALE, seed=seed)
    if workload == "train_single":
        return {"ds": ds, "trainer": Trainer(ds, train_config(seed))}
    if workload == "train_dist":
        trainer = DistributedTrainer(
            ds, RANKS, "cd-0", train_config(seed, backend="shm"),
            partitioner="libra")
        return {"ds": ds, "trainer": trainer}
    from repro.serving import (
        IncrementalRefresher, InferenceEngine, PredictionService, ResultCache,
        ServingFrontend)

    engine = InferenceEngine.from_checkpoint(checkpoint, ds)
    engine.precompute()
    service = PredictionService(
        engine,
        cache=ResultCache(CACHE_ROWS),
        batch=True,
        max_batch=MAX_BATCH,
        max_wait_ms=MAX_WAIT_MS,
        refresher=IncrementalRefresher(engine, full_threshold=FULL_THRESHOLD),
    )
    if rec is not None:
        import instrument

        instrument.install_lookup(rec, service)
    frontend = ServingFrontend(
        service, num_workers=WORKERS, max_queue=MAX_QUEUE,
        default_timeout_s=REQUEST_TIMEOUT_S)
    return {"ds": ds, "engine": engine, "service": service, "frontend": frontend}


def make_checkpoint(seed: int, path: str) -> None:
    ds = load_dataset(SERVE_DATASET, scale=SCALE, seed=seed)
    cfg = TrainConfig(num_layers=2, hidden_features=256, seed=seed, eval_every=0)
    trainer = Trainer(ds, cfg)
    trainer.fit(CHECKPOINT_EPOCHS)
    save_checkpoint(path, trainer.model, trainer.optimizer,
                    epoch=CHECKPOINT_EPOCHS, extra=training_meta(cfg))


# -- training ------------------------------------------------------------------


def run_train(workload: str, state: dict, seconds: float) -> dict:
    trainer = state["trainer"]
    epochs = 1 + timed_epochs(workload, seconds)  # one warm-up epoch
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    result = trainer.fit(epochs)
    train_s = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    timed = [e.total_time_s for e in result.epochs[1:]]
    return {
        "result": result,
        "train_s": train_s,
        "epochs": epochs,
        "p50_ms": 1e3 * statistics.median(timed),
        "tail_ms": 1e3 * max(timed),
        "metrics": {
            "cpu_ms_per_op": metric(1e3 * cpu / epochs, "ms"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }


def model_logits(trainer) -> np.ndarray:
    """Eval-mode logits of every vertex from the trained model."""
    model = trainer.model
    model.eval()
    try:
        with no_grad():
            return model(trainer.dataset.graph, trainer.features, trainer.norm).data
    finally:
        model.train()


def check_train(workload: str, state: dict, out: dict, seed: int) -> List[str]:
    ds, trainer = state["ds"], state["trainer"]
    result, train_s = out["result"], out["train_s"]
    problems = []
    losses = [e.loss for e in result.epochs]
    epoch_sum = sum(e.total_time_s for e in result.epochs)
    if epoch_sum > train_s:
        problems.append(f"epochs sum to {epoch_sum:.3f} s > train_s {train_s:.3f} s")
    if not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")
    chance = 1.0 / ds.num_classes
    if not result.final_test_acc >= 5 * chance:
        problems.append(f"test accuracy {result.final_test_acc:.3f} is near chance")
    if workload == "train_single":
        model = trainer.model
        adj = reference.adjacency(ds.graph.indptr, ds.graph.indices, ds.num_vertices)
        ref = reference.sage_forward(
            adj, ds.features, reference.sage_weights(model.state_dict()))
        ok, worst = reference.logits_match(model_logits(trainer), ref)
        if not ok:
            problems.append(f"final logits differ from the reference (rel {worst:.2e})")
        return problems
    # cd-0 is single-socket training exactly: same losses, same accuracy.
    # Only float rounding differs (aggregation order); Adam grows it from
    # 0 at epoch 0 to ~2e-5 by epoch 8, while training without the DRPA
    # exchange (0c) is off by 1.5e-2 at epoch 0 and 0.4 at epoch 1.
    single = Trainer(ds, train_config(seed)).fit(len(result.epochs))
    ref_losses = np.array([e.loss for e in single.epochs])
    rel = np.abs(np.array(losses) - ref_losses) / np.abs(ref_losses)
    if not (rel[0] <= 1e-6 and rel.max() <= 1e-3):
        problems.append(
            f"cd-0 losses differ from single-socket (rel {rel[0]:.1e} at epoch 0, "
            f"{rel.max():.1e} at most)")
    num_test = int(np.asarray(ds.test_mask).sum())
    if abs(result.final_test_acc - single.final_test_acc) * num_test > 1.0 + 1e-9:
        problems.append(
            f"cd-0 test accuracy {result.final_test_acc:.4f} != "
            f"single-socket {single.final_test_acc:.4f}")
    return problems


# -- serving -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def run_serve(workload: str, state: dict, seconds: float, seed: int, rec=None) -> dict:
    import loaddriver

    ds, service, frontend = state["ds"], state["service"], state["frontend"]
    n, dim = ds.num_vertices, ds.feature_dim
    rng = np.random.default_rng([seed, 1])
    warm = loaddriver.read_schedule(rng, n, READ_RATE, WARMUP_S)
    reads = loaddriver.read_schedule(rng, n, READ_RATE, seconds)
    updates = (loaddriver.update_schedule(rng, n, dim, seconds, UPDATE_PERIOD_S)
               if workload == "serve_ingest" else [])
    driver = loaddriver.Driver(frontend, recorder=rec)
    driver.run(warm)
    before = service.stats()
    cpu0 = cpu_seconds()
    t0 = driver.run(reads, updates)
    cpu = cpu_seconds() - cpu0
    after = service.stats()
    rss = peak_rss_mb()

    ok_reads = [r for r in reads if r.error is None]
    latency_ms = [1e3 * (r.done - (t0 + r.due)) for r in ok_reads]
    if len(latency_ms) < 1000:
        raise RuntimeError(
            f"{len(latency_ms)} reads cannot give a p99 with 10 samples beyond it")
    failed = sum(r.error is not None for r in reads) + sum(
        u.error is not None for u in updates)
    out = {
        "warm": warm, "reads": reads, "updates": updates, "t0": t0,
        "before": before, "after": after,
        "attempted": len(reads) + len(updates),
        "failed": failed,
        "p50_ms": percentile(latency_ms, 50),
        "tail_ms": percentile(latency_ms, 99),
        "metrics": {
            "cpu_ms_per_op": metric(1e3 * cpu / len(reads), "ms"),
            "peak_rss_mb": metric(rss, "MB"),
        },
    }
    for r in reads + updates:
        if r.error is not None:
            print(f"failed: {r.error}", file=sys.stderr)
    return out


def check_serve(workload: str, state: dict, out: dict, checkpoint: str) -> List[str]:
    ds, service, frontend = state["ds"], state["service"], state["frontend"]
    reads, updates = out["warm"] + out["reads"], out["updates"]
    weights = reference.checkpoint_weights(checkpoint)
    problems = []
    if workload == "serve_read":
        adj = reference.adjacency(ds.graph.indptr, ds.graph.indices, ds.num_vertices)
        ref = reference.sage_forward(adj, ds.features, weights)
        pred = [r for r in reads if r.error is None and r.kind == "predict"]
        topk = [r for r in reads if r.error is None and r.kind == "topk"]
        ids = np.concatenate([r.ids for r in pred])
        labels = np.concatenate([np.asarray(r.answer) for r in pred])
        if not reference.labels_match(labels, ref[ids]):
            problems.append("a predict answer differs from the reference")
        ids = np.concatenate([r.ids for r in topk])
        classes = np.concatenate([np.asarray(r.answer[0]) for r in topk])
        scores = np.concatenate([np.asarray(r.answer[1]) for r in topk])
        if not reference.topk_match(classes, scores, ref[ids]):
            problems.append("a topk answer differs from the reference")
        refused = sum(r.refusals for r in reads)
        if refused:
            problems.append(f"{refused} reads refused with no update running")
        return problems
    # serve_ingest: the served table after the run against the reference
    # over the final edges and features
    applied = [u for u in updates if u.error is None]
    edges = [u.edges for u in applied if u.kind == "edges"]
    added = np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    features = np.array(ds.features, dtype=np.float32, copy=True)
    for u in applied:
        if u.kind == "features":
            features[u.ids] = u.rows
    adj = reference.adjacency(ds.graph.indptr, ds.graph.indices, ds.num_vertices,
                              added[:, 0], added[:, 1])
    ref = reference.sage_forward(adj, features, weights)
    everyone = np.arange(ds.num_vertices)
    served = frontend.call("predict", lambda: service.predict_logits(everyone))
    ok, worst = reference.logits_match(served, ref)
    if not ok:
        problems.append(f"served table differs from the reference (rel {worst:.2e})")
    return problems


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("checkpoint", "setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkpoint", default=None)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    if args.mode == "checkpoint":
        make_checkpoint(args.seed, args.checkpoint)
        return 0
    rec = None
    if args.trace:
        import instrument

        rec = spans.Recorder()
        instrument.install(rec)
    state = setup(args.workload, args.seed, args.checkpoint, rec)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    training = args.workload.startswith("train")
    if training:
        out = run_train(args.workload, state, args.seconds)
        attempted, failed = out["epochs"], 0
    else:
        out = run_serve(args.workload, state, args.seconds, args.seed, rec)
        attempted, failed = out["attempted"], out["failed"]
    metrics = out["metrics"]
    problems: List[str] = []
    if rec is not None:
        # before the checks, whose own forward passes are not measured
        import instrument

        metrics, problems = instrument.per_layer(args.workload, rec, state, out)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(spans.SpanTree(rec.spans).dump(
                    f"{args.workload}-{args.seed}"), fh)
    else:
        metrics["setup_s"] = metric(setup_s, "s")
    if training:
        problems += check_train(args.workload, state, out, args.seed)
    else:
        problems += check_serve(args.workload, state, out, args.checkpoint)
        state["frontend"].close()
        state["service"].close()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
