"""Embedding-quality metrics, the four-method ablation runner and 2D export."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import cft, mining
from .data import Corpus, SyntheticSpec, generate_synthetic, split_meta, write_csv
from .distill import KdConfig
from .fusion import init_fusion, init_teacher, teacher_train
from .meta import MamlConfig, build_pool, check_episode_fits, evaluate_few_shot, maml_train
from .similarity import normalize_rows

METHODS = ("attributes_only", "pretrained_embeddings", "random_cft", "similarity_cft")


@dataclass
class EmbeddingQualityReport:
    intra_family: float
    inter_family: float
    gap: float  # intra - inter
    silhouette: float
    per_family: dict  # family -> {"intra": ..., "inter": ...}


def _family_sums(vectors: np.ndarray, labels: np.ndarray, n_families: int):
    """(unit rows, their squared norms, per-family sums of unit rows, family
    sizes) for rows labelled 0..n_families-1; zero rows stay zero.

    The cosines over all pairs (i, j) of families f and g sum to S_f·S_g,
    the diagonal pairs (i, i) to the squared norms, so every mean cosine
    and silhouette distance follows in O(n·(d + k)) for k families, with no
    n×n matrix.
    """
    normed = normalize_rows(vectors)[0]
    onehot = np.zeros((len(labels), n_families))
    onehot[np.arange(len(labels)), labels] = 1.0
    sq = np.einsum("ij,ij->i", normed, normed)
    return normed, sq, onehot.T @ normed, np.bincount(labels, minlength=n_families)


def cosine_silhouette(vectors: np.ndarray, labels: np.ndarray) -> float:
    """Exact silhouette with distance 1 - cosine; degenerate points score 0.

    A point's summed distance to class c is n_c - n̂·S_c, with S_c the sum
    of the class's unit rows; its own distance 1 - ‖n̂‖² is taken out of
    its class sum.
    """
    labels = np.asarray(labels)
    classes, inv = np.unique(labels, return_inverse=True)
    if len(classes) < 2:
        raise ValueError(f"silhouette needs at least 2 labels, got {len(classes)}")
    normed, sq, class_sums, sizes = _family_sums(vectors, inv, len(classes))
    rows = np.arange(len(labels))
    sums = sizes - normed @ class_sums.T  # (n, classes): summed distance to each class
    own = sizes[inv] - 1  # same-class points other than the point itself
    a = (sums[rows, inv] - (1.0 - sq)) / np.maximum(own, 1.0)
    means = sums / sizes
    means[rows, inv] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    ok = (own > 0) & (denom > 0.0)  # singleton clusters and a = b = 0 score 0
    scores = np.where(ok, (b - a) / np.where(ok, denom, 1.0), 0.0)
    return float(scores.mean())


def _cosine_means(corpus: Corpus):
    """Mean cosine over same-family pairs i != j and over cross-family
    pairs, overall and per family, of a corpus with at least 2 families
    of at least 2 records each: (intra, inter, family intras, family inters)."""
    if len(corpus.families) < 2:
        raise ValueError("need at least 2 families")
    _, sq, sums, counts = _family_sums(corpus.vectors, corpus.labels, len(corpus.families))
    for f, c in zip(corpus.families, counts.tolist()):
        if c < 2:
            raise ValueError(f"family {f!r} has {c} records, need >= 2")
    within = np.einsum("ij,ij->i", sums, sums)  # family f: its f×f pairs, diagonal included
    diagonal = np.bincount(corpus.labels, weights=sq, minlength=len(counts))
    across = sums @ sums.sum(axis=0) - within  # family f: its f×(not f) pairs
    intra_pairs = counts * (counts - 1)
    inter_pairs = counts * (len(sq) - counts)
    intra = (within.sum() - sq.sum()) / intra_pairs.sum()
    inter = across.sum() / inter_pairs.sum()
    return float(intra), float(inter), (within - diagonal) / intra_pairs, across / inter_pairs


def separation_gap(corpus: Corpus) -> float:
    """Intra- minus inter-family mean cosine: `embedding_quality(corpus).gap`
    without the per-family means and the silhouette."""
    intra, inter, _, _ = _cosine_means(corpus)
    return intra - inter


def embedding_quality(corpus: Corpus) -> EmbeddingQualityReport:
    """Intra/inter mean cosine, separation gap and cosine silhouette."""
    intra, inter, fam_intra, fam_inter = _cosine_means(corpus)
    return EmbeddingQualityReport(
        intra_family=intra,
        inter_family=inter,
        gap=intra - inter,
        silhouette=cosine_silhouette(corpus.vectors, corpus.labels),
        per_family={fam: {"intra": a, "inter": b} for fam, a, b in
                    zip(corpus.families, fam_intra.tolist(), fam_inter.tolist())},
    )


def project_2d(corpus: Corpus):
    """PCA projection onto the top-2 principal components.

    Sign convention: the largest-magnitude loading of each component is
    positive. Returns a list of (id, family, x, y).
    """
    if len(corpus) < 2:
        raise ValueError("need at least 2 records")
    x = corpus.vectors - corpus.vectors.mean(axis=0)
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    if s[0] <= 1e-12:
        raise ValueError("rank-0 data: all vectors identical")
    comps = vt[:2].copy()
    if comps.shape[0] < 2:
        comps = np.vstack([comps, np.zeros((2 - comps.shape[0], x.shape[1]))])
    for i in range(2):
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    coords = x @ comps.T
    return [(rid, corpus.families[label], px, py) for rid, label, (px, py)
            in zip(corpus.ids, corpus.labels.tolist(), coords.tolist())]


def projection_to_csv(path, rows) -> None:
    write_csv(path, ["id", "family", "x", "y"],
              ([rid, fam, repr(x), repr(y)] for rid, fam, x, y in rows))


# --- ablation pipeline ----------------------------------------------------


@dataclass
class AblationSettings:
    """Everything one method/seed pipeline run needs beyond the data."""

    mining: mining.MiningConfig = field(default_factory=mining.MiningConfig)
    cft: cft.CftConfig = field(default_factory=cft.CftConfig)
    maml: MamlConfig = field(default_factory=MamlConfig)
    kd: KdConfig = field(default_factory=KdConfig)
    holdout_fraction: float = 0.25
    eval_episodes: int = 20
    teacher_epochs: int = 40
    teacher_lr: float = 1e-3


@dataclass
class AblationReport:
    rows: list  # {"method", "mean_accuracy", "std_accuracy", "seeds", "accuracies"}
    details: list  # one record per (method, seed) run


class PipelineStageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str):
    """Report any failure inside the block as a failure of stage `name`."""
    try:
        yield
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run_pipeline(method: str, corpus: Corpus, attributes: Corpus, settings: AblationSettings,
                 seed: int) -> dict:
    """One end-to-end run: split -> (mine -> cft -> refine) -> teacher ->
    MAML(+KD) -> few-shot eval. Returns accuracy and embedding-quality gaps."""
    return _run_seed((method,), corpus, attributes, settings, seed)[0]


def _run_seed(methods, corpus: Corpus, attributes: Corpus, settings: AblationSettings,
              seed: int) -> list:
    """`run_pipeline` for each of `methods` on one seed. The split, raw gap,
    positives and teacher depend on the seed alone and are made once."""
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    with _stage("split"):
        (train_c, train_a), (test_c, test_a) = split_meta(
            corpus, attributes, settings.holdout_fraction, seed
        )
        need = settings.maml.n_support + settings.maml.n_query
        check_episode_fits("train pool", train_c, need)  # MAML samples its episodes here
        check_episode_fits("meta-test pool", test_c, need)  # and eval here
        raw_gap = separation_gap(train_c)
    if {"random_cft", "similarity_cft"} & set(methods):
        with _stage("mine"):
            positives = mining.select_positives(train_c)
    if set(methods) - {"attributes_only"}:
        with _stage("teacher"):
            teacher, _ = teacher_train(
                train_a, lr=settings.teacher_lr, epochs=settings.teacher_epochs, seed=seed,
            )
    mcfg = replace(settings.mining, seed=seed)
    mamlcfg = replace(settings.maml, seed=seed)
    results = []
    for method in methods:
        out = {"method": method, "seed": seed, "raw_gap": raw_gap}
        refined_train, refined_test = train_c, test_c
        if method in ("random_cft", "similarity_cft"):
            with _stage("mine"):
                strategy = "similarity" if method == "similarity_cft" else "random"
                neg_sets = mining.mine_all(train_c, positives, mcfg, strategy)
            with _stage("samples"):
                samples = mining.build_all_samples(train_c, positives, neg_sets, mcfg)
            with _stage("cft"):
                head, _ = cft.train_adapter(samples, train_c, replace(settings.cft, seed=seed))
                refined_train = cft.refine(head, train_c)
                refined_test = cft.refine(head, test_c)
                out["refined_gap"] = separation_gap(refined_train)
        with _stage("pool"):
            train_pool = build_pool(refined_train, train_a)
            test_pool = build_pool(refined_test, test_a)
            attr_dim, n_classes = train_pool.attrs.shape[1], len(corpus.families)
        kd_teacher, kd = (None, None) if method == "attributes_only" else (teacher, settings.kd)
        with _stage("maml"):
            student = (init_teacher(attr_dim, n_classes, seed) if kd_teacher is None
                       else init_fusion(attr_dim, refined_train.dim, n_classes, seed))
            student, _ = maml_train(student, train_pool, mamlcfg, teacher=kd_teacher, kd_cfg=kd)
        with _stage("eval"):
            rows = evaluate_few_shot(
                student, test_pool, mamlcfg, settings.eval_episodes,
                teacher=kd_teacher, kd_cfg=kd,
            )
        out["accuracy"] = rows[0]["mean_accuracy"]
        out["eval_rows"] = rows
        results.append(out)
    return results


def run_ablation(data, settings: AblationSettings, seeds, methods=METHODS) -> AblationReport:
    """Run every method over every seed.

    `data` is either a fixed (corpus, attributes) pair or a callable
    seed -> (corpus, attributes) regenerating the benchmark per seed. Each
    seed is one pass over all methods; `details` stay method-major.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    per_seed = [_run_seed(methods, *(data(seed) if callable(data) else data), settings, seed)
                for seed in seeds]
    details = [results[i] for i in range(len(methods)) for results in per_seed]
    rows = []
    for i, method in enumerate(methods):
        accs = [results[i]["accuracy"] for results in per_seed]
        rows.append({
            "method": method,
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "seeds": list(seeds),
            "accuracies": accs,
        })
    return AblationReport(rows, details)


def ablation_to_csv(path, report: AblationReport) -> None:
    write_csv(path, ["method", "mean_accuracy", "std_accuracy", "seeds"], (
        [r["method"], repr(r["mean_accuracy"]), repr(r["std_accuracy"]),
         " ".join(str(s) for s in r["seeds"])]
        for r in report.rows
    ))


def ablation_seeds_to_csv(path, report: AblationReport) -> None:
    """One row per seed: the seed, each method's accuracy and
    `similarity_cft` minus `random_cft`, the per-seed margin that
    `ablation.csv`'s means average away."""
    methods = [r["method"] for r in report.rows]
    accs = {r["method"]: r["accuracies"] for r in report.rows}
    write_csv(path, ["seed", *methods, "similarity_minus_random"], (
        [seed, *(repr(accs[m][i]) for m in methods),
         repr(accs["similarity_cft"][i] - accs["random_cft"][i])]
        for i, seed in enumerate(report.rows[0]["seeds"])
    ))


# --- bundled synthetic benchmark -------------------------------------------


def benchmark_data(seed: int):
    """The bundled desk-scale benchmark: the default `SyntheticSpec`, 10
    families of 200 records at overlap 0.7."""
    return generate_synthetic(SyntheticSpec(seed=seed))


def benchmark_settings() -> AblationSettings:
    """Pipeline hyperparameters tuned for the bundled benchmark.

    The adapter trains from scratch, so its learning rate and epoch count
    are higher than the config defaults (which suit resuming a converged
    head); the KD weight is kept small because the attribute teacher is
    deliberately weak on this benchmark.
    """
    return AblationSettings(
        mining=mining.MiningConfig(),
        cft=cft.CftConfig(learning_rate=2e-3, epochs=2, output_dim=64),
        maml=MamlConfig(meta_iterations=80),
        kd=KdConfig(alpha=0.2),
        holdout_fraction=0.25,
        eval_episodes=20,
        teacher_epochs=30,
    )
