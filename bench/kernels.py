"""Dense-kernel microbench: `numeric.layer_forward` / `layer_backward` timed
directly on every DenseLayer shape the workloads build.

FLOPs and bytes are computed from the shapes, not counted by hardware:
forward is 2*r*i*o flops (x @ W.T), backward 4*r*i*o (dz.T @ x and dz @ W);
bytes count each float64 operand read or written once.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from cftmal import numeric

# (in, out, activation) of every layer built by init_adapter, init_fusion and
# init_teacher in the three workloads.
ADAPTER_SHAPES = [(64, 512, "relu"), (512, 64, "identity"),     # ablation_seed
                  (128, 256, "relu"), (256, 128, "identity")]   # cli_cft_inbatch
MODEL_SHAPES = [(32, 256, "relu"), (256, 128, "relu"), (64, 128, "identity"),
                (256, 256, "relu"), (256, 10, "identity"), (128, 10, "identity")]
SUPPORT_QUERY_ROWS = (100, 200)  # 10-way support and query sets
ADAPTER_BATCH_ROWS = 320  # 32 samples x (anchor + positive + 8 negatives)


def cases():
    for i, o, act in MODEL_SHAPES:
        for r in SUPPORT_QUERY_ROWS:
            yield i, o, act, r
    for i, o, act in ADAPTER_SHAPES:
        for r in SUPPORT_QUERY_ROWS + (ADAPTER_BATCH_ROWS,):
            yield i, o, act, r


def metric_names():
    for i, o, _, r in cases():
        for kind in ("fwd", "bwd"):
            yield f"numeric.dense.{i}x{o}.r{r}.{kind}_gflops"


def _seconds_per_call(fn, budget_s: float) -> float:
    """Median over 5 timed blocks; the block length is calibrated to budget_s / 5."""
    fn()
    reps = 1
    while True:
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        dt = time.perf_counter() - t
        if dt >= budget_s / 10 or reps >= 1 << 16:
            break
        reps *= 2
    blocks = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append((time.perf_counter() - t) / reps)
    return statistics.median(blocks)


def run(budget_s: float = 0.03) -> tuple[dict, list]:
    """Returns (metrics, table rows) for every case."""
    rng = np.random.default_rng(0)
    out, table = {}, []
    for i, o, act, r in cases():
        layer = numeric.init_dense(i, o, act, rng)
        x = rng.standard_normal((r, i))
        up = rng.standard_normal((r, o))
        z = x @ layer.weights.T + layer.bias
        fwd_s = _seconds_per_call(lambda: numeric.layer_forward(layer, x), budget_s)
        bwd_s = _seconds_per_call(lambda: numeric.layer_backward(layer, x, up, z=z), budget_s)
        fwd_flops, bwd_flops = 2 * r * i * o, 4 * r * i * o
        fwd_bytes = 8 * (r * i + i * o + o + r * o)
        bwd_bytes = 8 * (2 * r * o + r * i + 2 * i * o + o + r * i)
        key = f"numeric.dense.{i}x{o}.r{r}"
        out[f"{key}.fwd_gflops"] = fwd_flops / fwd_s / 1e9
        out[f"{key}.bwd_gflops"] = bwd_flops / bwd_s / 1e9
        table.append({"shape": f"{i}x{o}", "activation": act, "rows": r,
                      "fwd_us": fwd_s * 1e6, "bwd_us": bwd_s * 1e6,
                      "fwd_flops": fwd_flops, "bwd_flops": bwd_flops,
                      "fwd_bytes": fwd_bytes, "bwd_bytes": bwd_bytes})
    return out, table
