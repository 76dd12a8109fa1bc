"""Independent reference for the benchmark's correctness checks.

A GraphSAGE-GCN forward written from the model's definition with
scipy.sparse and numpy, in float64, from the weights alone:

    z   = A @ h                       (A[v, u] = number of edges u -> v)
    out = act(((z + h) / (in_degree + 1)) @ W + b)

It shares no code with the program's kernels, autograd or serving path.
The program computes in float32 with its own summation order, so logits
are compared with a tolerance fixed here from float32 rounding, and
argmax / top-k answers are accepted when the served class is within
that tolerance of the reference's best (near-ties may break either way).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

#: |program - reference| <= RTOL * (|reference| + 1) per logit.  float32
#: carries ~7 significant digits; a 3-layer forward with degree sums of
#: a few thousand terms loses about two of them.
RTOL = 1e-4


def adjacency(indptr: np.ndarray, indices: np.ndarray, n: int,
              extra_src: Sequence[int] = (), extra_dst: Sequence[int] = ()):
    """Destination-major adjacency from CSR rows plus appended edges
    (parallel edges add up, as they do in the program)."""
    dst = np.repeat(np.arange(n), np.diff(indptr))
    src = np.asarray(indices)
    if len(extra_src):
        src = np.concatenate([src, np.asarray(extra_src)])
        dst = np.concatenate([dst, np.asarray(extra_dst)])
    data = np.ones(src.size, dtype=np.float64)
    return sp.csr_matrix((data, (dst, src)), shape=(n, n))


def sage_weights(state: Dict[str, np.ndarray]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``[(W, b), ...]`` per layer from a GraphSAGE state dict."""
    layers = []
    i = 0
    while f"layer{i}.linear.weight" in state:
        layers.append((
            np.asarray(state[f"layer{i}.linear.weight"], dtype=np.float64),
            np.asarray(state[f"layer{i}.linear.bias"], dtype=np.float64),
        ))
        i += 1
    if not layers:
        raise ValueError("no GraphSAGE layers in the state dict")
    return layers


def checkpoint_weights(path: str) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Layer weights read straight from a checkpoint ``.npz``."""
    with np.load(path) as data:
        state = {k[len("model/"):]: data[k] for k in data.files
                 if k.startswith("model/")}
    return sage_weights(state)


def sage_forward(adj, features: np.ndarray, weights) -> np.ndarray:
    """Eval-mode logits (float64) of every vertex."""
    deg = np.asarray(adj.sum(axis=1)).ravel()
    inv = (1.0 / (deg + 1.0))[:, None]
    h = np.asarray(features, dtype=np.float64)
    for i, (w, b) in enumerate(weights):
        h = ((adj @ h + h) * inv) @ w + b
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def logits_match(program: np.ndarray, reference: np.ndarray) -> Tuple[bool, float]:
    """``(ok, worst relative error)`` of program logits against the reference."""
    err = np.abs(np.asarray(program, dtype=np.float64) - reference) / (
        np.abs(reference) + 1.0)
    worst = float(err.max()) if err.size else 0.0
    return worst <= RTOL, worst


def _tol(ref_rows: np.ndarray) -> np.ndarray:
    return 2 * RTOL * (np.abs(ref_rows).max(axis=1) + 1.0)


def labels_match(labels: np.ndarray, ref_rows: np.ndarray) -> bool:
    """Served argmax labels agree with the reference rows."""
    picked = ref_rows[np.arange(len(labels)), labels]
    return bool(np.all(picked >= ref_rows.max(axis=1) - _tol(ref_rows)))


def topk_match(classes: np.ndarray, scores: np.ndarray, ref_rows: np.ndarray) -> bool:
    """Served top-k classes are a valid top-k of the reference rows and
    their scores are the reference logits of those classes."""
    k = classes.shape[1]
    rows = np.arange(len(classes))[:, None]
    tol = _tol(ref_rows)[:, None]
    picked = ref_rows[rows, classes]
    kth = -np.sort(-ref_rows, axis=1)[:, k - 1:k]
    distinct = all(len(set(c)) == k for c in classes.tolist())
    return bool(
        distinct
        and np.all(np.abs(scores - picked) <= tol)
        and np.all(picked >= kth - tol)
        and np.all(np.diff(scores, axis=1) <= 0)
    )
