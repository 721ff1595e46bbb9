"""The three benchmark workloads.

Each workload builds its inputs from the benchmark seed in `setup`, then
runs a fixed sequence of stages (one pass). A stage is one operation: a
`run_pipeline` call or one `cftmal` CLI command. After a pass, `digest`
fingerprints the outputs and `check` validates them and reads the quality
numbers from them.

The sizes are shortened from the paper-scale runs so that several passes
fit in one measured run (see README.md); the shapes of every model and
the mining and sample configuration are the bundled ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np

from cftmal import cli, data, metrics, mining
from cftmal.cft import AdapterHead
from cftmal.fusion import FusionModel, TeacherModel


class CheckError(Exception):
    """An output failed validation."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(x)))


# --- ablation_seed ---------------------------------------------------------

def ablation_settings():
    """benchmark_settings() shortened from 80 MAML iterations, 20 eval
    episodes, 30 teacher epochs and 2 CFT epochs, so that one pass of all
    four methods takes about 10 s on a 2-core host."""
    s = metrics.benchmark_settings()
    s.maml.meta_iterations = 4
    s.eval_episodes = 5
    s.teacher_epochs = 10
    s.cft.epochs = 1
    return s


class AblationSeed:
    """One seed of the bundled benchmark through all four ablation methods."""

    name = "ablation_seed"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.settings = ablation_settings()
        self.results = {}

    def setup(self) -> None:
        self.corpus, self.attributes = metrics.benchmark_data(self.seed)

    def stages(self):
        def run(method):
            def stage():
                self.results[method] = metrics.run_pipeline(
                    method, self.corpus, self.attributes, self.settings, self.seed)
            return stage

        return [(m, run(m)) for m in metrics.METHODS]

    def digest(self) -> str:
        blob = json.dumps([self.results.get(m) for m in metrics.METHODS],
                          sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def check(self) -> dict:
        acc = {}
        for m in metrics.METHODS:
            r = self.results.get(m)
            _require(r is not None, f"{m}: no result")
            rows = r["eval_rows"]
            _require(len(rows) == 1 and rows[0]["n_episodes"] == self.settings.eval_episodes,
                     f"{m}: eval rows {rows}")
            _require(0.0 <= r["accuracy"] <= 1.0, f"{m}: accuracy {r['accuracy']}")
            _require(_finite(r["raw_gap"]), f"{m}: raw gap {r['raw_gap']}")
            if m in ("random_cft", "similarity_cft"):
                _require(_finite(r["refined_gap"]), f"{m}: refined gap {r['refined_gap']}")
            acc[m] = r["accuracy"]
        return {
            "accuracy": acc["similarity_cft"],
            "acc.attributes_only": acc["attributes_only"],
            "acc.pretrained_embeddings": acc["pretrained_embeddings"],
            "acc.random_cft": acc["random_cft"],
            "sim_minus_random_pts": 100.0 * (acc["similarity_cft"] - acc["random_cft"]),
            "refined_gap": self.results["similarity_cft"]["refined_gap"],
        }

    def close(self) -> None:
        pass


# --- the CLI workloads -----------------------------------------------------


class CliWorkload:
    """`cftmal` CLI stages over artifacts in a work directory."""

    synth_args: list = []

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = workdir
        os.makedirs(self.out, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def cli(self, *argv) -> None:
        argv = list(argv) + ["--out", self.out, "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cftmal {argv[0]} exited {code}: {err.getvalue().strip()}")

    def setup(self) -> None:
        self.cli("synth", *self.synth_args)

    def stages(self):
        return [(argv[0], lambda argv=argv: self.cli(*argv)) for argv in self.commands()]

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.out)):
            with open(self.path(name), "rb") as fh:
                h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(fh.read()).digest())
        return h.hexdigest()

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


def _csv_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class CliCftInBatch(CliWorkload):
    """Mining, sample assembly and in-batch InfoNCE adapter training."""

    name = "cli_cft_inbatch"
    families, records, dim = 20, 60, 128
    synth_args = ["--families", str(families), "--records", str(records), "--dim", str(dim)]

    def commands(self):
        emb = self.path("embeddings.emb1")
        return [
            ["mine", "--embeddings", emb],
            ["samples", "--embeddings", emb, "--negatives", self.path("negatives.jsonl")],
            ["train-cft", "--embeddings", emb, "--samples", self.path("samples.jsonl"),
             "--denominator", "in_batch", "--hidden-dim", "256", "--output-dim", "128", "--lr", "1e-3"],
            ["refine", "--embeddings", emb, "--adapter", self.path("adapter.adp1")],
            ["project", "--embeddings", self.path("refined.emb1")],
        ]

    def check(self) -> dict:
        n = self.families * self.records
        cfg = mining.MiningConfig()
        sets = mining.negative_sets_from_jsonl(self.path("negatives.jsonl"))
        _require(len(sets) == self.families, f"{len(sets)} negative sets")
        for ns in sets:
            _require(len(ns.hard) == cfg.n_hard and len(ns.diverse) == cfg.n_diverse,
                     f"{ns.family}: tiers {len(ns.hard)}/{len(ns.diverse)}")
            _require(all(not rid.startswith(ns.family + "-") for rid, _ in ns.hard + ns.diverse),
                     f"{ns.family}: same-family negative")
        samples = mining.samples_from_jsonl(self.path("samples.jsonl"))
        n_neg = cfg.negatives_hard_per_sample + cfg.negatives_diverse_per_sample
        _require(len(samples) == n * cfg.samples_per_anchor, f"{len(samples)} samples")
        _require(all(len(s.negatives) == n_neg for s in samples), "sample negative count")
        trace = _csv_rows(self.path("cft_loss.csv"))
        _require(len(trace) == math.ceil(len(samples) / 32), f"{len(trace)} CFT batches")
        losses = [float(r["mean_loss"]) for r in trace]
        _require(_finite(losses), "non-finite CFT loss")
        head = AdapterHead.load(self.path("adapter.adp1"))
        _require((head.in_dim, head.out_dim) == (self.dim, 128), "adapter shape")
        refined = data.load_embeddings(self.path("refined.emb1"))
        vecs = np.stack([r.vector for r in refined.records])
        _require(len(refined) == n and refined.dim == 128, "refined corpus shape")
        _require(np.allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-5), "refined rows not unit norm")
        proj = _csv_rows(self.path("projection.csv"))
        _require(len(proj) == n and _finite([float(r["x"]) for r in proj]), "projection rows")
        return {
            "refined_gap": metrics.embedding_quality(refined).gap,
            "cft_final_loss": losses[-1],
        }


class CliMamlSecond(CliWorkload):
    """Attribute teacher, exact second-order MAML with KD, few-shot eval."""

    name = "cli_maml_second"
    teacher_epochs, meta_iterations, episodes = 10, 10, 10
    support_sizes = (1, 5, 10)

    def commands(self):
        emb, attrs, teacher = (self.path(n) for n in ("embeddings.emb1", "attributes.csv", "teacher.tch1"))
        return [
            ["teacher", "--attributes", attrs, "--teacher-epochs", str(self.teacher_epochs)],
            ["maml", "--embeddings", emb, "--attributes", attrs, "--teacher", teacher,
             "--order", "second", "--alpha", "0.2", "--apply-in", "both",
             "--meta-iterations", str(self.meta_iterations)],
            ["eval", "--embeddings", emb, "--attributes", attrs, "--student", self.path("student.fus1"),
             "--teacher", teacher, "--alpha", "0.2", "--apply-in", "both",
             "--episodes", str(self.episodes), "--support-sizes", ",".join(map(str, self.support_sizes))],
        ]

    def check(self) -> dict:
        teacher = TeacherModel.load(self.path("teacher.tch1"))
        student = FusionModel.load(self.path("student.fus1"))
        _require(teacher.n_classes == student.n_classes == 10, "class counts")
        history = _csv_rows(self.path("maml_history.csv"))
        _require(len(history) == self.meta_iterations, f"{len(history)} MAML iterations")
        _require(_finite([float(r["query_loss"]) for r in history]), "non-finite query loss")
        rows = _csv_rows(self.path("eval.csv"))
        _require([int(r["support_size"]) for r in rows] == list(self.support_sizes), "eval support sizes")
        accs = [float(r["mean_accuracy"]) for r in rows]
        _require(all(0.0 <= a <= 1.0 for a in accs), f"eval accuracies {accs}")
        return {"accuracy": float(np.mean(accs))}


WORKLOADS = {w.name: w for w in (AblationSeed, CliCftInBatch, CliMamlSecond)}

# Quality numbers read from the outputs; a workload that does not produce
# one reports 0 for it.
QUALITY = ("accuracy", "acc.attributes_only", "acc.pretrained_embeddings", "acc.random_cft",
           "sim_minus_random_pts", "refined_gap", "cft_final_loss")
