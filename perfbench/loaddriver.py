"""Open-loop serving driver of the benchmark's own.

Reads arrive on a seeded Poisson schedule; a fixed pool of client threads
(no more than the machine's CPUs) sends each one at its scheduled time
and times it from that time, so a stall that holds a client up shows as
latency of every read queued behind it.  A read refused because the
service is draining for an update (``ServiceDraining``) or because its
queue is full (``RequestRejected``) is retried after the Retry-After the
refusal carries, up to :data:`MAX_RETRIES` times; only a read whose
retries run out, or that raises anything else, counts as failed.

Updates (edge additions and feature rewrites) come from one writer
thread on a fixed one-per-period schedule, timed the same way.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.serving import RequestRejected, ServiceDraining

#: retries of one refused read before it counts as failed (at the
#: frontend's 50 ms Retry-After this waits out a 5 s drain).
MAX_RETRIES = 100
VERTICES_PER_READ = 8
PREDICT_SHARE = 0.7
TOPK_K = 3
ZIPF_SKEW = 1.1


@dataclass
class Read:
    due: float  # seconds after the schedule starts
    kind: str  # "predict" | "topk"
    ids: np.ndarray
    # filled by the driver
    sent: float = 0.0
    admitted: float = 0.0  # call entry of the attempt that was admitted
    handler_start: float = 0.0
    handler_end: float = 0.0
    done: float = 0.0
    refusals: int = 0  # ServiceDraining answers before this read was served
    error: Optional[str] = None
    answer: object = None
    span: Optional[int] = None  # request span id (traced runs)
    handler_span: Optional[int] = None


@dataclass
class Update:
    due: float
    kind: str  # "edges" | "features"
    edges: Optional[np.ndarray] = None  # (k, 2) pairs
    ids: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None
    done: float = 0.0
    error: Optional[str] = None
    stats: object = None


def client_threads() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def zipf_sampler(rng: np.random.Generator, n: int):
    """Draws from a Zipf(``ZIPF_SKEW``) law over ``n`` vertices whose hot
    order is a seeded permutation (bounded: no rank is clipped)."""
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_SKEW
    cdf = np.cumsum(weights / weights.sum())
    perm = rng.permutation(n)

    def draw(size) -> np.ndarray:
        ranks = np.searchsorted(cdf, rng.random(size), side="right")
        return perm[np.minimum(ranks, n - 1)]

    return draw


def read_schedule(rng: np.random.Generator, num_vertices: int, rate: float,
                  seconds: float, start: float = 0.0) -> List[Read]:
    """``rate * seconds`` reads at Poisson arrival times."""
    count = max(1, int(round(rate * seconds)))
    due = start + np.cumsum(rng.exponential(1.0 / rate, size=count))
    kinds = np.where(rng.random(count) < PREDICT_SHARE, "predict", "topk")
    ids = zipf_sampler(rng, num_vertices)((count, VERTICES_PER_READ))
    return [Read(float(t), str(k), i) for t, k, i in zip(due, kinds, ids)]


def update_schedule(rng: np.random.Generator, num_vertices: int, feature_dim: int,
                    seconds: float, period: float = 1.0) -> List[Update]:
    """One update per ``period``, alternating 4 new edges and 2 new
    feature rows, at the middle of each period."""
    out = []
    for i in range(max(1, int(seconds / period))):
        due = (i + 0.5) * period
        if i % 2 == 0:
            src = rng.integers(0, num_vertices, size=4)
            dst = (src + rng.integers(1, num_vertices, size=4)) % num_vertices
            out.append(Update(due, "edges", edges=np.stack([src, dst], axis=1)))
        else:
            ids = rng.choice(num_vertices, size=2, replace=False)
            rows = rng.normal(size=(2, feature_dim)).astype(np.float32)
            out.append(Update(due, "features", ids=ids, rows=rows))
    return out


def _sleep_until(t: float) -> None:
    while True:
        dt = t - time.perf_counter()
        if dt <= 0:
            return
        time.sleep(dt)


class Driver:
    """Sends a read schedule (and an optional update schedule) to a
    :class:`~repro.serving.ServingFrontend` in process.

    With a :class:`~spans.Recorder`, every read gets a request span and
    its handler runs with that span as parent, so spans recorded inside
    the service nest under the read that caused them.
    """

    def __init__(self, frontend, recorder=None):
        self.frontend = frontend
        self.service = frontend.service
        self.rec = recorder

    # -- reads ---------------------------------------------------------------

    def _handler(self, read: Read):
        svc = self.service
        if read.kind == "predict":
            body = lambda: svc.predict(read.ids)  # noqa: E731
        else:
            body = lambda: svc.topk(read.ids, k=TOPK_K)  # noqa: E731

        def run():
            read.handler_start = time.perf_counter()
            try:
                if self.rec is None:
                    return body()
                with self.rec.activate(read.handler_span):
                    return body()
            finally:
                read.handler_end = time.perf_counter()

        return run

    def _send(self, read: Read, t0: float) -> None:
        _sleep_until(t0 + read.due)
        read.sent = time.perf_counter()
        handler = self._handler(read)
        attempts = 0
        while True:
            read.admitted = time.perf_counter()
            try:
                read.answer = self.frontend.call(read.kind, handler)
                break
            except (ServiceDraining, RequestRejected) as exc:
                read.refusals += isinstance(exc, ServiceDraining)
                attempts += 1
                if attempts > MAX_RETRIES:
                    read.error = f"refused {attempts} times: {exc}"
                    break
                time.sleep(exc.retry_after_s)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed read
                read.error = f"{type(exc).__name__}: {exc}"
                break
        read.done = time.perf_counter()

    def _client(self, reads: List[Read], t0: float) -> None:
        for read in reads:
            self._send(read, t0)

    # -- updates -------------------------------------------------------------

    def _writer(self, updates: List[Update], t0: float) -> None:
        fe = self.frontend
        for up in updates:
            _sleep_until(t0 + up.due)
            try:
                if up.kind == "edges":
                    up.stats = fe.update_edges(add=up.edges.tolist())
                else:
                    up.stats = fe.update_features(up.ids, up.rows)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed update
                up.error = f"{type(exc).__name__}: {exc}"
            up.done = time.perf_counter()

    # -- run -----------------------------------------------------------------

    def run(self, reads: List[Read], updates: List[Update] = (),
            lead_s: float = 0.05) -> float:
        """Send everything; returns the schedule's start time (perf_counter)."""
        n = client_threads()
        if self.rec is not None:
            for read in reads:
                read.span = self.rec.reserve()
                read.handler_span = self.rec.reserve()
        t0 = time.perf_counter() + lead_s
        threads = [
            threading.Thread(target=self._client, args=(reads[i::n], t0),
                             name=f"perfbench-client-{i}", daemon=True)
            for i in range(n)
        ]
        if updates:
            threads.append(threading.Thread(
                target=self._writer, args=(list(updates), t0),
                name="perfbench-writer", daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=150.0)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("serving driver threads did not finish within 150 s")
        if self.rec is not None:
            self._record_spans(reads, t0)
        return t0

    def _record_spans(self, reads: List[Read], t0: float) -> None:
        """Request spans with their driver-side children: generator lag,
        retries, frontend queue and the handler, whose children are the
        spans the service recorded while serving the read."""
        rec = self.rec
        for r in reads:
            due = t0 + r.due
            rec.add("serving.request", due, r.done, sid=r.span)
            rec.add("loadgen.lag", due, r.sent, r.span)
            rec.add("loadgen.retry", r.sent, r.admitted, r.span, value=r.refusals)
            if r.error is None:
                rec.add("serving.frontend.queue", r.admitted, r.handler_start, r.span)
                rec.add("serving.frontend.handler", r.handler_start, r.handler_end,
                        r.span, sid=r.handler_span)
