"""Span wrappers around the program's layers, and the per-layer metrics
computed from the spans and from the counters the layers expose.

:func:`install` patches the layers in this process before set-up; forked
shm ranks inherit the patches and send their spans back with their
results.  :func:`per_layer` turns one traced run into the metrics listed
under ``per_layer`` in ``BENCHMARK.json``; a layer that does no work on a
workload reads 0 there.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from spans import Recorder, SpanTree, patch, patch_enter

RANK_SPANS = "perfbench_spans"


def metric_units() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order: the
    ``per_layer`` list of ``BENCHMARK.json`` at the checkout root."""
    with open("BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]

#: components of an epoch: they are disjoint, so with the unattributed
#: remainder they add up to the epoch.
EPOCH_PARTS = ("kernels.ap", "nn.combine", "nn.backward", "nn.optimizer",
               "drpa.exchange", "core.allreduce")


def _patch_checked(rec: Recorder, owner, attr: str, name: str, **kw) -> None:
    if not hasattr(owner, attr):
        print(f"perfbench: no {owner.__name__}.{attr} to trace; "
              f"{name} reads 0", file=sys.stderr)
        return
    patch(rec, owner, attr, name, **kw)


def install(rec: Recorder) -> None:
    """Wrap each layer's entry points in spans (this process and every
    process forked from it)."""
    import repro.core.dist_trainer as dist_trainer
    import repro.core.spmd as spmd
    import repro.dyngraph.serving_updates as serving_updates
    import repro.nn.functional as functional
    from repro.comm.shm import ShmCommunicator, ShmWorld
    from repro.core.drpa import DRPAExchanger
    from repro.core.trainer import Trainer
    from repro.nn.optim import SGD, Adam
    from repro.nn.sage import SageConvGCN
    from repro.nn.tensor import Tensor
    from repro.serving import (
        IncrementalRefresher, InferenceEngine, MicroBatcher, ResultCache,
        ServingFrontend)
    from repro.serving.gate import ReadWriteGate

    P = _patch_checked
    # partition (reached through the names dist_trainer imported)
    P(rec, dist_trainer, "libra_partition", "partition.libra")
    P(rec, dist_trainer, "build_partitions", "partition.plan")
    P(rec, dist_trainer, "build_split_trees", "partition.plan")
    # kernels: every AP, forward and backward, goes through this name
    P(rec, functional, "aggregate", "kernels.ap",
      measure=lambda out, graph, *a, **k: graph.num_edges)
    # nn
    P(rec, SageConvGCN, "combine", "nn.combine")
    P(rec, Tensor, "backward", "nn.backward")
    P(rec, Adam, "step", "nn.optimizer")
    P(rec, SGD, "step", "nn.optimizer")
    # core: one epoch on one socket or on one rank
    P(rec, Trainer, "train_epoch", "core.epoch")
    P(rec, spmd, "_train_epoch_rank", "core.epoch")
    P(rec, DRPAExchanger, "rank_synchronous_round", "drpa.exchange")
    P(rec, DRPAExchanger, "rank_delayed_round", "drpa.exchange")
    P(rec, ShmCommunicator, "all_reduce", "core.allreduce")
    # comm: blocking waits (barriers and collective receives) and sends
    P(rec, ShmCommunicator, "barrier", "comm.wait")
    P(rec, ShmCommunicator, "_coll_get", "comm.wait")
    P(rec, ShmCommunicator, "isend",
      "comm.isend", measure=lambda out, comm, dst, *a, **k: float(dst != comm.rank))
    _ship_rank_spans(rec, spmd, ShmWorld)
    # serving
    P(rec, InferenceEngine, "precompute", "serving.engine.precompute")
    P(rec, ResultCache, "get_many", "serving.cache.probe", measure=_probe_counts)
    P(rec, MicroBatcher, "predict", "serving.batcher.wait")
    P(rec, MicroBatcher, "_fill_batch", "serving.batcher.window")
    P(rec, IncrementalRefresher, "update_edges", "serving.refresh.update")
    P(rec, IncrementalRefresher, "update_features", "serving.refresh.update")
    P(rec, serving_updates, "apply_topology", "dyngraph.apply")
    patch_enter(rec, ReadWriteGate, "read", "serving.gate.read_wait")
    patch_enter(rec, ServingFrontend, "drained", "serving.frontend.drain")


def _probe_counts(out, cache, vertex_ids):
    """``(hits, lookups)`` of one ``ResultCache.get_many`` call.  Counted
    here because the cache's own counters restart whenever an update
    invalidates it."""
    ids = np.asarray(vertex_ids)
    _, missing = out
    return (int(ids.size - np.isin(ids, missing).sum()), int(ids.size))


def _ship_rank_spans(rec: Recorder, spmd, ShmWorld) -> None:
    """Each forked rank starts an empty span list and returns its spans
    with its result; the parent collects them as ``ShmWorld.run`` returns."""
    rank_fit = spmd._rank_fit

    def traced_rank_fit(comm, *args):
        rec.spans = []  # drop the copy of the parent's spans
        rec._local.stack = []
        out = rank_fit(comm, *args)
        out[RANK_SPANS] = rec.spans
        return out

    spmd._rank_fit = traced_rank_fit
    run = ShmWorld.run

    def traced_run(self, fn, *args):
        results = run(self, fn, *args)
        for r in results:
            if isinstance(r, dict) and RANK_SPANS in r:
                rec.spans.extend(r.pop(RANK_SPANS))
        return results

    ShmWorld.run = traced_run


def install_lookup(rec: Recorder, service) -> None:
    """Span around the engine lookup, through the service's own seam."""

    def wrap(fn):
        return lambda ids: rec.call("serving.engine.lookup", fn, (ids,), {})

    service.wrap_lookup(wrap)


# -- per-layer metrics -----------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def _durations(tree: SpanTree, name: str, after: float = float("-inf")) -> List[float]:
    """Durations (s) of the spans called ``name`` that started at or after ``after``."""
    return [tree.duration(tree.spans[k]) for k in tree.named(name)
            if tree.spans[k][3] >= after]


def _epoch_parts(tree: SpanTree, key) -> Dict[str, float]:
    """Seconds of each component inside one epoch span."""
    parts: Dict[str, float] = defaultdict(float)
    count: Dict[str, float] = defaultdict(float)
    for d in tree.descendants(key):
        s = tree.spans[d]
        name = s[2]
        if name == "nn.backward":
            parts[name] += tree.self_time(d)  # its APs are kernels.ap
        else:
            parts[name] += tree.duration(s)
        count[name] += 1
        if name in ("kernels.ap", "comm.isend"):
            count[name + ".value"] += s[6]
    parts["epoch"] = tree.duration(tree.spans[key])
    parts["unattributed"] = parts["epoch"] - sum(parts[p] for p in EPOCH_PARTS)
    return {**parts, **{f"n:{k}": v for k, v in count.items()}}


def train_metrics(tree: SpanTree, state: dict, out: dict, problems: List[str]) -> Dict[str, float]:
    m: Dict[str, float] = {}
    trainer = state["trainer"]
    result = out["result"]
    by_pid: Dict[int, list] = defaultdict(list)
    for k in tree.named("core.epoch"):
        by_pid[k[0]].append(k)
    # epoch index -> per-rank component dicts, warm-up epoch dropped
    per_epoch: Dict[int, List[dict]] = defaultdict(list)
    for keys in by_pid.values():
        for i, k in enumerate(keys[1:], start=1):
            per_epoch[i].append(_epoch_parts(tree, k))
    for i, ranks in per_epoch.items():
        for r in ranks:
            if r["unattributed"] < -1e-9:
                problems.append(
                    f"epoch {i}: components exceed the epoch by "
                    f"{-r['unattributed'] * 1e3:.3f} ms")

    def per_epoch_value(key: str) -> float:  # mean over ranks, median over epochs
        return _median(_mean(r.get(key, 0.0) for r in ranks)
                       for ranks in per_epoch.values())

    def per_epoch_ms(key: str) -> float:
        return 1e3 * per_epoch_value(key)

    m["kernels.ap_ms_per_epoch"] = per_epoch_ms("kernels.ap")
    m["kernels.ap_calls_per_epoch"] = per_epoch_value("n:kernels.ap")
    ap_s = sum(r.get("kernels.ap", 0.0) for ranks in per_epoch.values() for r in ranks)
    ap_edges = sum(r.get("n:kernels.ap.value", 0.0)
                   for ranks in per_epoch.values() for r in ranks)
    m["kernels.ap_edges_per_s"] = ap_edges / ap_s if ap_s else 0.0
    m["nn.combine_ms_per_epoch"] = per_epoch_ms("nn.combine")
    m["nn.backward_ms_per_epoch"] = per_epoch_ms("nn.backward")
    m["nn.optimizer_ms_per_epoch"] = per_epoch_ms("nn.optimizer")
    m["core.unattributed_ms_per_epoch"] = per_epoch_ms("unattributed")
    m["drpa.exchange_ms_per_epoch"] = per_epoch_ms("drpa.exchange")
    m["core.allreduce_ms_per_epoch"] = per_epoch_ms("core.allreduce")
    m["comm.wait_ms_per_epoch"] = per_epoch_ms("comm.wait")
    # messages: summed over ranks, median over epochs
    m["comm.messages_per_epoch"] = _median(
        sum(r.get("n:comm.isend.value", 0.0) for r in ranks)
        for ranks in per_epoch.values())
    m["core.rank_skew"] = _median(
        max(r["epoch"] for r in ranks) / _mean(r["epoch"] for r in ranks)
        for ranks in per_epoch.values())
    m["comm.bytes_per_epoch"] = _median(e.comm_bytes for e in result.epochs[1:])
    m["core.fit_overhead_s"] = out["train_s"] - sum(
        e.total_time_s for e in result.epochs)
    m["partition.libra_s"] = sum(_durations(tree, "partition.libra"))
    m["partition.plan_s"] = sum(_durations(tree, "partition.plan"))
    parted = getattr(trainer, "parted", None)
    m["partition.replication_factor"] = (
        float(parted.replication_factor) if parted is not None else 0.0)
    return m


def serve_metrics(tree: SpanTree, state: dict, out: dict, problems: List[str]) -> Dict[str, float]:
    m: Dict[str, float] = {}
    reads, updates, t0 = out["reads"], out["updates"], out["t0"]
    before, after = out["before"], out["after"]
    # the set-up precompute; a full-fallback refresh adds later ones
    precompute = _durations(tree, "serving.engine.precompute")
    m["serving.engine.precompute_s"] = precompute[0] if precompute else 0.0
    ok = [r for r in reads if r.error is None]
    m["serving.frontend.queue_ms"] = 1e3 * _mean(r.handler_start - r.admitted for r in ok)
    m["serving.engine.lookup_ms"] = 1e3 * _mean(_durations(tree, "serving.engine.lookup", t0))
    probes = [tree.spans[k][6] for k in tree.named("serving.cache.probe")
              if tree.spans[k][3] >= t0]
    hits = sum(p[0] for p in probes)
    lookups = sum(p[1] for p in probes)
    if not updates and (
            hits != after["cache"]["hits"] - before["cache"]["hits"]
            or lookups != after["cache"]["lookups"] - before["cache"]["lookups"]):
        problems.append("cache hits/lookups seen at the probe differ from the "
                        "cache's own counters")
    m["serving.cache.hits"] = hits
    m["serving.cache.lookups"] = lookups
    m["serving.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    flushes = after["batcher"]["batches"] - before["batcher"]["batches"]
    rows = (after["batcher"]["vertices_computed"]
            - before["batcher"]["vertices_computed"])
    m["serving.batcher.rows_per_flush"] = rows / flushes if flushes else 0.0
    m["serving.batcher.window_ms"] = 1e3 * _mean(_durations(tree, "serving.batcher.window", t0))
    m["serving.frontend.drain_refusals"] = sum(r.refusals for r in reads)
    m["serving.frontend.drain_ms"] = 1e3 * _mean(_durations(tree, "serving.frontend.drain", t0))
    done = [u for u in updates if u.error is None]
    m["serving.refresh.updates"] = len(done)
    m["serving.refresh.update_ms"] = 1e3 * _mean(_durations(tree, "serving.refresh.update", t0))
    m["serving.refresh.rows_per_update"] = _mean(u.stats.rows_recomputed for u in done)
    m["serving.refresh.full_fallbacks"] = (
        after["refresher"]["full"] - before["refresher"]["full"])
    m["serving.update_p50_ms"] = 1e3 * _median(u.done - (t0 + u.due) for u in done)
    m["dyngraph.apply_ms"] = 1e3 * _mean(_durations(tree, "dyngraph.apply", t0))
    m["loadgen.lag_p99_ms"] = 1e3 * float(np.percentile(
        [r.sent - (t0 + r.due) for r in reads], 99))
    # per read: named components against the request they ran in
    gate, unattributed = [], []
    pid = os.getpid()
    for r in ok:
        key = (pid, r.span)
        req = tree.duration(tree.spans[key])
        named = 0.0
        for c in tree.children.get(key, ()):
            s = tree.spans[c]
            named += tree.duration(s)
            if s[2] == "serving.frontend.handler":
                handler = tree.duration(s)
                inner = 0.0
                for g in tree.children.get(c, ()):
                    inner += tree.duration(tree.spans[g])
                    if tree.spans[g][2] == "serving.gate.read_wait":
                        gate.append(tree.duration(tree.spans[g]))
                if inner > handler + 1e-9:
                    problems.append("a read's service spans exceed its handler")
                named += inner - handler  # count the handler by its parts
        if named > req + 1e-9:
            problems.append("a read's components exceed the read")
        unattributed.append(req - named)
    m["serving.gate.read_wait_ms"] = 1e3 * _mean(gate)
    m["serving.unattributed_ms"] = 1e3 * _mean(unattributed)
    return m


def per_layer(workload: str, rec: Recorder, state: dict, out: dict):
    """``(metrics, problems)`` of one traced run."""
    tree = SpanTree(rec.spans)
    problems: List[str] = []
    units = metric_units()
    m = {name: 0.0 for name, _ in units}
    m["graph.load_s"] = sum(_durations(tree, "graph.load"))
    if workload.startswith("train"):
        m.update(train_metrics(tree, state, out, problems))
    else:
        m.update(serve_metrics(tree, state, out, problems))
    m["traced.op_p50_ms"] = out["p50_ms"]
    m["traced.op_tail_ms"] = out["tail_ms"]
    m["traced.cpu_ms_per_op"] = out["metrics"]["cpu_ms_per_op"]["value"]
    print_self_times(tree)
    return {k: {"value": float(m[k]), "unit": unit} for k, unit in units}, problems


def print_self_times(tree: SpanTree) -> None:
    """Self time per layer over the whole run, all processes."""
    print("self time by layer (s, all processes and threads):")
    for layer, secs in sorted(tree.self_times_by_layer().items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {secs:10.4f}")
