"""cftmal benchmark.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from --seed, then runs passes of the
workload's stages until --seconds is used up, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
runs two untraced reference passes and the dense-kernel microbench, then
wraps every public cftmal function in spans (bench/spans.py) and reports
per-layer metrics from traced rounds of set-up plus one pass. The package
is imported from src/ next to this directory and is never edited.
--workload all runs each workload in its own process and prints every
metric per workload. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
NAMES = ("ablation_seed", "cli_cft_inbatch", "cli_maml_second")

# Fixed so that both sides of a comparison run with the same count. One
# thread: on a shared 2-core host a second BLAS thread roughly tripled the
# run-to-run spread of ablation_seed pass times and gained little on these
# GEMM sizes.
BLAS_THREADS = 1
SETUP_REPEATS = 3


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_blas_threads() -> int:
    threads = min(BLAS_THREADS, _nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _blas_runtime_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "machine": platform.machine(),
    }


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _reset_peak_rss() -> None:
    """Restart the peak-RSS count at the current RSS (Linux 4.0+), so the
    next reading is the peak of what ran since; without it the reading
    stays the process-lifetime peak."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Runner:
    """Runs passes of one workload and keeps the operation tally."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = None  # digest of the first pass
        self.stage_span = None  # context-manager factory wrapping each stage when traced

    def one_pass(self) -> dict:
        """Run every stage once; returns stage -> seconds, or {} if the pass
        failed or its outputs differ from the first pass."""
        times = {}
        stages = self.wl.stages()
        for i, (name, fn) in enumerate(stages):
            self.attempted += 1
            t = time.perf_counter()
            try:
                if self.stage_span is None:
                    fn()
                else:
                    with self.stage_span(name):
                        fn()
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += len(stages) - i
                self.attempted += len(stages) - i - 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                return {}
            times[name] = time.perf_counter() - t
        digest = self.wl.digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.failed += len(stages)
            self.errors.append(f"output digest {digest[:16]} != first pass {self.reference[:16]}")
            return {}
        return times

    def check(self) -> dict:
        """Validate the outputs of the pass just run; invalid outputs fail
        every operation of that pass."""
        try:
            return self.wl.check()
        except Exception as exc:
            self.failed += len(self.wl.stages())
            self.errors.append(f"check: {type(exc).__name__}: {exc}")
            return {}


def _pass_seconds(passes) -> float:
    """Sum over stages of the median stage time: the median pass, estimated
    stage by stage so that one slow stage in one pass does not move it."""
    stages = passes[0].keys()
    return sum(statistics.median(p[s] for p in passes) for s in stages)


def _until(deadline: float, longest: float) -> bool:
    return time.perf_counter() + longest <= deadline


def import_seconds() -> float:
    """Median time to import cftmal (numpy included) in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import cftmal, cftmal.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def run_untraced(wl, deadline: float):
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t)
    runner = Runner(wl)
    passes, longest = [], 0.0
    while True:
        t = time.perf_counter()
        times = runner.one_pass()
        longest = max(longest, time.perf_counter() - t)
        if times:
            if not passes:
                runner.check()
            passes.append(times)
        if not _until(deadline, longest):
            break
    wall = _pass_seconds(passes) if passes else 0.0  # no pass succeeded: the run is not correct
    print(f"# wall_s median pass {wall:.4f} s over {len(passes)} passes; no higher percentile has "
          f"ten passes beyond it below 20 passes")
    metrics = {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "peak_rss_mb": _metric(_rss_mb(), "MB"),
        "ok_frac": _metric(1.0 - runner.failed / runner.attempted, "fraction"),
    }
    return runner, metrics


def _span_seconds(n: int = 50000) -> float:
    """Cost of recording one span: a wrapped no-op call minus a bare one."""
    from spans import Tracer

    def noop():
        pass

    wrapped = Tracer().wrap("noop", noop)
    t = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(n):
        noop()
    return max(traced - (time.perf_counter() - t), 0.0) / n


def run_traced(wl, deadline: float, threads: int, out_path: Path):
    import cftmal
    import kernels
    import workloads
    from spans import Tracer

    wl.setup()
    runner = Runner(wl)
    # two untraced passes, the faster one being the reference for the
    # tracing overhead, so that first-pass costs do not hide it
    ref_s, quality = float("inf"), {}
    for i in range(2):
        t = time.perf_counter()
        ref_times = runner.one_pass()
        ref_s = min(ref_s, time.perf_counter() - t)
        if ref_times and i == 0:
            quality = runner.check()
    dense, table = kernels.run()

    tracer = Tracer()
    stage_rss = {}

    @contextlib.contextmanager
    def stage_span(name):
        _reset_peak_rss()
        with tracer.span(f"stage.{name}"):
            yield
        stage_rss[name] = _rss_mb()

    runner.stage_span = stage_span
    tracer.install(cftmal, probes=PROBES)
    rounds, longest = 0, ref_s
    while rounds == 0 or _until(deadline, longest * 1.25):
        t = time.perf_counter()
        with tracer.span("round"):
            with tracer.span("setup"):
                wl.setup()
            with tracer.span("pass"):
                ok = runner.one_pass()
        longest = max(longest, time.perf_counter() - t)
        rounds += 1
        if not ok:
            break
    m = layer_metrics(tracer, rounds)
    m.update(dense)
    for q in workloads.QUALITY:
        m[q] = quality.get(q, 0.0)
    for stage in CLI_STAGES:
        m[f"cli.{stage}.rss_mb"] = stage_rss.get(stage, 0.0)
    traced = tracer.durations("pass")
    m["trace.overhead_frac"] = statistics.median(traced) / ref_s - 1.0 if ref_times and traced else 0.0
    m["trace.span_cost_frac"] = len(tracer.names) / rounds * _span_seconds() / statistics.median(traced)
    stage_s = sum(d for n, (c, d) in tracer.totals().items() if n.startswith("stage."))
    m["trace.stage_coverage"] = stage_s / sum(traced) if traced else 0.0
    m["host.nproc"] = _nproc()
    m["host.blas_threads"] = threads
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_path)
    with open(out_path.with_suffix(".dense.json"), "w", encoding="utf-8") as fh:
        json.dump({"note": "flops and bytes computed from shapes", "rows": table}, fh, indent=1)
    print(f"# traced {rounds} rounds; {len(tracer.names)} spans -> {out_path}")
    return runner, {k: _metric(v, UNITS.get(k, _unit(k))) for k, v in m.items()}


# --- per-layer metrics -----------------------------------------------------

MODEL_PASSES = ("forward", "loss_and_grads", "hvp")
MODELS = ("fusion.FusionModel", "fusion.TeacherModel")
CLI_STAGES = ("mine", "samples", "train-cft", "refine", "project", "teacher", "maml", "eval")
UNITS = {"cft.batches": "count", "cft.rows_per_s": "1/s", "meta.tasks_per_s": "1/s",
         "meta.passes_per_task": "count", "meta.passes_per_episode": "count",
         "mining.samples_built": "count", "mining.distinct_draw_ratio": "ratio",
         "host.nproc": "count", "host.blas_threads": "count",
         "trace.overhead_frac": "fraction", "trace.span_cost_frac": "fraction", "trace.stage_coverage": "fraction",
         "accuracy": "fraction", "acc.attributes_only": "fraction",
         "acc.pretrained_embeddings": "fraction", "acc.random_cft": "fraction",
         "sim_minus_random_pts": "pts", "refined_gap": "cosine", "cft_final_loss": "nats"}


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith(".rss_mb"):
        return "MB"
    if ".ms_" in name:
        return "ms"
    return "s"


def _probe_samples(tracer, args, kwargs, result):
    by_anchor = {}
    for s in result:
        by_anchor.setdefault(s.anchor, set()).add(tuple(s.negatives))
    tracer.count("mining.samples_built", len(result))
    tracer.count("mining.distinct_draws", sum(len(v) for v in by_anchor.values()))


def _probe_adapter(tracer, args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.count("cft.rows", len(samples) * (2 + len(samples[0].negatives)) * cfg.epochs)


PROBES = {"mining.build_samples": _probe_samples, "cft.train_adapter": _probe_adapter}


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, rounds: int) -> dict:
    """Per-round means of the spans recorded over `rounds` traced rounds."""
    tot = tracer.totals()

    def calls(*names):
        return sum(tot.get(n, (0, 0.0))[0] for n in names) / rounds

    def secs(*names):
        return sum(tot.get(n, (0, 0.0))[1] for n in names) / rounds

    m = {}
    ctx = tracer.context_of({"meta.maml_train", "meta.evaluate_few_shot"})
    model_names = {f"{c}.{p}" for c in MODELS for p in MODEL_PASSES}
    per_ctx = {}
    for sid, name in enumerate(tracer.names):
        root = ctx[sid]
        if root < 0:
            continue
        key = (tracer.names[root], "model" if name in model_names else name)
        per_ctx[key] = per_ctx.get(key, 0) + 1
    tasks = per_ctx.get(("meta.maml_train", "meta.sample_episode"), 0)
    episodes = per_ctx.get(("meta.evaluate_few_shot", "meta.sample_episode"), 0)
    maml_s = secs("meta.maml_train")
    m["meta.maml_train.s"] = maml_s
    steps = [d * 1e3 for d in tracer.durations("meta.meta_step")]
    m["meta.meta_step.ms_p50"] = _percentile(steps, 50)
    m["meta.meta_step.ms_p95"] = _percentile(steps, 95)
    m["meta.tasks_per_s"] = tasks / rounds / maml_s if maml_s else 0.0
    m["meta.evaluate_few_shot.s"] = secs("meta.evaluate_few_shot")
    m["meta.inner_adapt.calls"] = calls("meta.inner_adapt")
    m["meta.sample_episode.s"] = secs("meta.sample_episode")
    m["meta.passes_per_task"] = per_ctx.get(("meta.maml_train", "model"), 0) / tasks if tasks else 0.0
    m["meta.passes_per_episode"] = (per_ctx.get(("meta.evaluate_few_shot", "model"), 0) / episodes
                                    if episodes else 0.0)

    m["fusion.teacher_train.s"] = secs("fusion.teacher_train")
    for p in MODEL_PASSES:
        m[f"fusion.{p}.calls"] = calls(*(f"{c}.{p}" for c in MODELS))
    m["fusion.loss_and_grads.s"] = secs(*(f"{c}.loss_and_grads" for c in MODELS))
    m["fusion.hvp.s"] = secs(*(f"{c}.hvp" for c in MODELS))
    m["distill.kd_parts.calls"] = calls("distill.kd_parts")
    m["distill.kd_parts.s"] = secs("distill.kd_parts")

    cft_ctx = tracer.context_of({"cft.train_adapter"})
    batches = sum(1 for sid, n in enumerate(tracer.names)
                  if n == "numeric.adamw_step" and cft_ctx[sid] >= 0)
    cft_s = secs("cft.train_adapter")
    m["cft.train_adapter.s"] = cft_s
    m["cft.batches"] = batches / rounds
    m["cft.rows_per_s"] = tracer.counters.get("cft.rows", 0) / rounds / cft_s if cft_s else 0.0
    m["cft.refine.s"] = secs("cft.refine")

    for name in ("select_positives", "mine_negatives", "mine_random", "build_samples"):
        m[f"mining.{name}.s"] = secs(f"mining.{name}")
    built = tracer.counters.get("mining.samples_built", 0)
    m["mining.samples_built"] = built / rounds
    m["mining.jsonl_io.s"] = secs("mining.negative_sets_to_jsonl", "mining.negative_sets_from_jsonl",
                                  "mining.samples_to_jsonl", "mining.samples_from_jsonl")
    m["mining.distinct_draw_ratio"] = tracer.counters.get("mining.distinct_draws", 0) / built if built else 0.0

    m["data.generate_synthetic.s"] = secs("data.generate_synthetic")
    m["data.split_meta.s"] = secs("data.split_meta")
    m["data.emb1_write.s"] = secs("data.write_embeddings")
    m["data.emb1_read.s"] = secs("data.load_embeddings")
    m["data.attributes_read.s"] = secs("data.load_attributes")
    m["serial.write_layers.s"] = secs("serial.write_layers")
    m["serial.read_layers.s"] = secs("serial.read_layers")

    m["similarity.normalize_rows.calls"] = calls("similarity.normalize_rows")
    for name in ("embedding_quality", "cosine_silhouette", "project_2d"):
        m[f"metrics.{name}.s"] = secs(f"metrics.{name}")

    for name in ("chain_forward", "chain_backward", "adamw_step"):
        m[f"numeric.{name}.calls"] = calls(f"numeric.{name}")
    m["numeric.adamw_step.s"] = secs("numeric.adamw_step")

    for stage in CLI_STAGES:
        m[f"cli.{stage}.s"] = secs(f"stage.{stage}")
    return m


# --- entry point -----------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric per workload."""
    results, ok = {}, True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 2
        for line in lines[:-1]:
            if not line.startswith(f"# {name} "):  # metric lines are tabulated below
                print(f"[{name}] {line}")
        res = json.loads(lines[-1])
        results[name] = res
        ok = ok and res["correct"]
        for metric, v in res["metrics"].items():
            print(f"{name:16s} {metric:42s} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "cftmal" / "__init__.py").is_file():
        print(f"bench: no cftmal sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    threads = _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import cftmal
    import cftmal.cli  # noqa: F401  (the CLI module is not imported by the package)
    if Path(cftmal.__file__).resolve().parent != SRC / "cftmal":
        print(f"bench: imported cftmal from {cftmal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    facts = host_facts(threads)
    print("# host " + json.dumps(facts, sort_keys=True))
    deadline = start + args.seconds
    workdir = WORKDIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        if args.trace:
            out = WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.spans.json"
            runner, metrics = run_traced(wl, deadline, threads, out)
        else:
            runner, metrics = run_untraced(wl, deadline)
    finally:
        wl.close()
    for err in runner.errors:
        print(f"# error {err}")
    correct = not runner.errors and runner.failed == 0
    for name, v in metrics.items():
        print(f"# {args.workload} {name} = {v['value']!r} {v['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
