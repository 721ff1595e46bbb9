import collections
import csv
import json
import tracemalloc

import numpy as np
import pytest

from cftmal import meta, metrics, mining
from cftmal.data import Corpus, DescriptionRecord, SyntheticSpec, generate_synthetic
from cftmal.metrics import (
    METHODS,
    AblationSettings,
    PipelineStageError,
    ablation_to_csv,
    cosine_silhouette,
    embedding_quality,
    project_2d,
    projection_to_csv,
    run_ablation,
    run_pipeline,
    separation_gap,
)
from cftmal.cft import CftConfig
from cftmal.distill import KdConfig
from cftmal.meta import MamlConfig
from cftmal.mining import MiningConfig, select_positive
from cftmal.similarity import normalize_rows


def axis_corpus():
    # two tight clusters on orthogonal axes: intra cos ~1, inter cos ~0
    recs = []
    for i, v in enumerate([[1, 0], [2, 0], [3, 0]]):
        recs.append(DescriptionRecord(f"a{i}", "A", np.array(v, float)))
    for i, v in enumerate([[0, 1], [0, 2], [0, 5]]):
        recs.append(DescriptionRecord(f"b{i}", "B", np.array(v, float)))
    return Corpus(recs, 2)


def test_embedding_quality_known_case():
    report = embedding_quality(axis_corpus())
    assert report.intra_family == pytest.approx(1.0, abs=1e-12)
    assert report.inter_family == pytest.approx(0.0, abs=1e-12)
    assert report.gap == pytest.approx(1.0, abs=1e-12)
    assert report.silhouette == pytest.approx(1.0, abs=1e-12)
    assert set(report.per_family) == {"A", "B"}


def test_embedding_quality_validation():
    recs = [DescriptionRecord("a", "A", np.ones(2)),
            DescriptionRecord("b", "A", np.ones(2))]
    with pytest.raises(ValueError, match="2 families"):
        embedding_quality(Corpus(recs, 2))
    recs.append(DescriptionRecord("c", "B", np.ones(2)))
    with pytest.raises(ValueError, match="need >= 2"):
        embedding_quality(Corpus(recs, 2))


def test_separation_gap_is_the_embedding_quality_gap():
    corpus, _ = tiny_data(4)
    assert separation_gap(corpus) == embedding_quality(corpus).gap
    assert separation_gap(axis_corpus()) == embedding_quality(axis_corpus()).gap
    recs = [DescriptionRecord("a", "A", np.ones(2)),
            DescriptionRecord("b", "A", np.ones(2)),
            DescriptionRecord("c", "B", np.ones(2))]
    with pytest.raises(ValueError, match="need >= 2"):
        separation_gap(Corpus(recs, 2))


def brute_silhouette(vectors, labels):
    normed = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    n = len(labels)
    dist = np.array([[1.0 - normed[i] @ normed[j] for j in range(n)] for i in range(n)])
    out = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            out.append(0.0)
            continue
        a = np.mean([dist[i][j] for j in same])
        b = min(
            np.mean([dist[i][j] for j in range(n) if labels[j] == other])
            for other in set(labels) if other != labels[i]
        )
        out.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return float(np.mean(out))


def test_cosine_silhouette_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(6, 15))
        vectors = rng.standard_normal((n, 4))
        labels = rng.integers(0, 3, n)
        got = cosine_silhouette(vectors, labels)
        want = brute_silhouette(vectors, labels.tolist())
        assert got == pytest.approx(want, abs=1e-10)
    # 200 points over 5 labels, label 4 a singleton
    vectors = rng.standard_normal((200, 6))
    labels = np.concatenate([rng.integers(0, 4, 199), [4]])
    rng.shuffle(labels)
    got = cosine_silhouette(vectors, labels)
    assert got == pytest.approx(brute_silhouette(vectors, labels.tolist()), abs=1e-10)


def cosine_gram(m):
    """Pairwise cosines of the rows of m; zero rows give 0."""
    normed = normalize_rows(m)[0]
    return normed @ normed.T


def gram_silhouette(vectors, labels):
    """The silhouette taken from the full distance matrix 1 - cosine."""
    classes, inv = np.unique(labels, return_inverse=True)
    dist = 1.0 - cosine_gram(vectors)
    n = len(labels)
    rows = np.arange(n)
    onehot = np.zeros((n, len(classes)))
    onehot[rows, inv] = 1.0
    sums = dist @ onehot
    sizes = onehot.sum(axis=0)
    own = sizes[inv] - 1.0
    a = (sums[rows, inv] - dist[rows, rows]) / np.maximum(own, 1.0)
    means = sums / sizes
    means[rows, inv] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    ok = (own > 0) & (denom > 0.0)
    scores = np.where(ok, (b - a) / np.where(ok, denom, 1.0), 0.0)
    return float(scores.mean())


def gram_quality(corpus):
    """(intra, inter, per-family means, silhouette) from the cosine Gram."""
    sims, labels = cosine_gram(corpus.vectors), corpus.labels
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    intra = float(sims[same & off_diag].mean())
    inter = float(sims[~same].mean())
    per_family = {}
    for lbl, fam in enumerate(corpus.families):
        mask = labels == lbl
        fam_intra = sims[np.ix_(mask, mask)]
        off = ~np.eye(mask.sum(), dtype=bool)
        per_family[fam] = {
            "intra": float(fam_intra[off].mean()),
            "inter": float(sims[np.ix_(mask, ~mask)].mean()),
        }
    return intra, inter, per_family, gram_silhouette(corpus.vectors, labels)


def gram_medoid_means(corpus, family):
    """Record id -> mean cosine to the rest of its family, from the Gram."""
    rows = np.flatnonzero(corpus.labels == corpus.families.index(family)).tolist()
    sims = cosine_gram(corpus.vectors[rows])
    means = (sims.sum(axis=1) - 1.0) / (len(rows) - 1)
    return {corpus.records[r].id: m for r, m in zip(rows, means.tolist())}


def uneven_corpus(rng):
    """Uneven families around a shared direction, one of exactly 2 records,
    and one zero-norm row."""
    d = int(rng.integers(3, 12))
    sizes = [2, *rng.integers(3, 40, int(rng.integers(1, 6))).tolist()]
    rng.shuffle(sizes)
    shared = 2.0 * rng.standard_normal(d)
    recs = []
    for f, size in enumerate(sizes):
        centre = shared + rng.standard_normal(d)
        recs += [DescriptionRecord(f"f{f}-r{i:02d}", f"f{f}", centre + rng.standard_normal(d))
                 for i in range(size)]
    zero = int(rng.integers(len(recs)))
    recs[zero] = DescriptionRecord(recs[zero].id, recs[zero].family, np.zeros(d))
    return Corpus(recs, d)


def test_family_sums_match_the_gram_reference():
    rng = np.random.default_rng(16)
    for _ in range(20):
        corpus = uneven_corpus(rng)
        intra, inter, per_family, sil = gram_quality(corpus)
        report = embedding_quality(corpus)
        assert report.intra_family == pytest.approx(intra, abs=1e-12)
        assert report.inter_family == pytest.approx(inter, abs=1e-12)
        assert separation_gap(corpus) == pytest.approx(intra - inter, abs=1e-12)
        assert set(report.per_family) == set(per_family)
        for fam, want in per_family.items():
            assert report.per_family[fam]["intra"] == pytest.approx(want["intra"], abs=1e-12)
            assert report.per_family[fam]["inter"] == pytest.approx(want["inter"], abs=1e-12)
        assert report.silhouette == pytest.approx(sil, abs=1e-12)
        labels = rng.integers(0, 4, len(corpus.records))  # classes across the families
        assert cosine_silhouette(corpus.vectors, labels) == pytest.approx(
            gram_silhouette(corpus.vectors, labels), abs=1e-12)
        for fam in corpus.families:
            # the same medoid wherever the Gram ranks it first by more than
            # rounding; the 2 records of a pair tie exactly, up to rounding
            means = gram_medoid_means(corpus, fam)
            best, *rest = sorted(means.values(), reverse=True)
            got = corpus.ids[select_positive(corpus, fam).row]
            assert means[got] == pytest.approx(best, abs=1e-12)
            if not rest or best - rest[0] > 1e-12:
                assert got == max(means, key=lambda rid: (means[rid], rid))


def test_gap_and_quality_memory_is_linear_in_rows():
    # the 4000 x 4000 cosine Gram alone would take 128 MB
    rng = np.random.default_rng(0)
    recs = [DescriptionRecord(f"r{i:04d}", f"f{i % 8}", v)
            for i, v in enumerate(rng.standard_normal((4000, 16)))]
    corpus = Corpus(recs, 16)
    for fn in (separation_gap, embedding_quality):
        tracemalloc.start()
        try:
            fn(corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (fn.__name__, peak)


def test_cosine_silhouette_needs_two_labels():
    with pytest.raises(ValueError, match="at least 2 labels"):
        cosine_silhouette(np.eye(3), np.zeros(3, dtype=int))


def test_project_2d_separates_and_is_deterministic(tmp_path):
    spec = SyntheticSpec(n_families=2, records_per_family=30, embedding_dim=16, seed=3)
    corpus, _ = generate_synthetic(spec)
    rows = project_2d(corpus)
    again = project_2d(corpus)
    assert rows == again
    assert len(rows) == 60
    path = tmp_path / "proj.csv"
    projection_to_csv(path, rows)
    with open(path, newline="") as fh:
        back = list(csv.reader(fh))
    assert back[0] == ["id", "family", "x", "y"]
    assert len(back) == 61
    assert float(back[1][2]) == rows[0][2]


def test_project_2d_validation():
    with pytest.raises(ValueError):
        project_2d(Corpus([DescriptionRecord("a", "A", np.ones(3))], 3))
    same = [DescriptionRecord(f"r{i}", "A", np.ones(3)) for i in range(4)]
    with pytest.raises(ValueError, match="rank-0"):
        project_2d(Corpus(same, 3))


def tiny_settings():
    return AblationSettings(
        mining=MiningConfig(n_hard=8, n_diverse=5,
                            negatives_hard_per_sample=3,
                            negatives_diverse_per_sample=2,
                            samples_per_anchor=2),
        cft=CftConfig(learning_rate=1e-3, epochs=1, hidden_dim=32, output_dim=8),
        maml=MamlConfig(inner_steps=2, inner_lr=0.05, meta_lr=1e-3,
                        tasks_per_meta_batch=2, meta_iterations=2,
                        n_support=5, n_query=10),
        kd=KdConfig(alpha=0.2),
        holdout_fraction=0.25,
        eval_episodes=2,
        teacher_epochs=3,
    )


def tiny_data(seed):
    spec = SyntheticSpec(n_families=3, records_per_family=80, embedding_dim=16,
                         attribute_dim=8, seed=seed)
    return generate_synthetic(spec)


def test_run_pipeline_smoke_all_methods():
    corpus, attrs = tiny_data(0)
    settings = tiny_settings()
    for method in ("attributes_only", "pretrained_embeddings",
                   "random_cft", "similarity_cft"):
        out = run_pipeline(method, corpus, attrs, settings, seed=0)
        assert out["method"] == method
        assert 0.0 <= out["accuracy"] <= 1.0
        assert "raw_gap" in out
        if method.endswith("_cft"):
            assert "refined_gap" in out


def test_methods_share_their_eval_episodes(monkeypatch):
    """Every method of one seed is scored on the same support and query rows
    of the meta-test pool, so per-seed differences between methods are paired."""
    draws = []  # per `evaluate_few_shot` call: the rows, attributes and labels of each draw

    def evaluating(*args, **kwargs):
        draws.append([])
        with monkeypatch.context() as m:
            m.setattr(meta.Batch, "take", recording_take)
            return evaluate_few_shot(*args, **kwargs)

    def recording_take(batch, rows):
        draws[-1].append((rows, batch.attrs[rows], batch.labels[rows]))
        return take(batch, rows)

    take, evaluate_few_shot = meta.Batch.take, metrics.evaluate_few_shot
    monkeypatch.setattr(metrics, "evaluate_few_shot", evaluating)
    settings = tiny_settings()
    metrics._run_seed(METHODS, *tiny_data(6), settings, seed=6)
    assert len(draws) == len(METHODS)
    assert len(draws[0]) == 2 * settings.eval_episodes  # a support and a query set each
    for other in draws[1:]:
        for got, want in zip(other, draws[0], strict=True):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


def test_run_pipeline_unknown_method():
    corpus, attrs = tiny_data(1)
    with pytest.raises(ValueError, match="unknown method"):
        run_pipeline("oracle", corpus, attrs, tiny_settings(), seed=0)


def test_run_pipeline_stage_error_names_stage():
    corpus, attrs = tiny_data(2)
    settings = tiny_settings()
    settings.holdout_fraction = 2.0
    with pytest.raises(PipelineStageError) as exc:
        run_pipeline("attributes_only", corpus, attrs, settings, seed=0)
    assert exc.value.stage == "split"


def test_draws_larger_than_the_hard_tier_fail_at_samples():
    corpus, attrs = tiny_data(2)
    settings = tiny_settings()
    settings.mining.negatives_hard_per_sample = settings.mining.n_hard + 1
    with pytest.raises(PipelineStageError, match="hard tier has 8, need 9") as exc:
        run_pipeline("similarity_cft", corpus, attrs, settings, seed=0)
    assert exc.value.stage == "samples"


@pytest.mark.parametrize("lr, error", [
    (0.0, "teacher_lr must be > 0"),
    (1e6, "epoch 0, batch 2: non-finite logits on the training rows after the update"),
], ids=["invalid", "diverging"])
def test_teacher_failure_names_the_teacher_stage(lr, error):
    corpus, attrs = tiny_data(2)
    settings = tiny_settings()
    settings.teacher_lr = lr
    with pytest.raises(PipelineStageError, match=f"^stage 'teacher' failed: {error}$") as exc:
        run_pipeline("pretrained_embeddings", corpus, attrs, settings, seed=0)
    assert exc.value.stage == "teacher"


def test_unfillable_train_pool_fails_at_split(calls):
    corpus, attrs = tiny_data(5)  # 80 records a family: 60 train, 20 meta-test
    settings = tiny_settings()
    settings.maml.n_support, settings.maml.n_query = 25, 40
    with pytest.raises(PipelineStageError, match="train pool: family 'family00' has 60 records, "
                                                 "episode needs 65") as exc:
        run_pipeline("similarity_cft", corpus, attrs, settings, seed=0)
    assert exc.value.stage == "split"
    assert calls == {"split": 1}  # before the positives and the teacher


def test_attribute_row_of_another_family_fails_at_split(calls):
    corpus, attrs = tiny_data(4)
    records = list(attrs.records)
    other = next(f for f in corpus.families if f != records[0].family)
    records[0] = DescriptionRecord(records[0].id, other, records[0].vector)
    with pytest.raises(PipelineStageError, match=f"record {records[0].id!r}: attribute row "
                                                 f"family {other!r} != embedding family") as exc:
        run_pipeline("similarity_cft", corpus, Corpus(records, attrs.dim), tiny_settings(), seed=0)
    assert exc.value.stage == "split"
    assert calls == {"split": 1}  # before the teacher trains on the wrong label


def test_raw_gap_failure_names_the_split_stage(calls):
    corpus, attrs = generate_synthetic(SyntheticSpec(
        n_families=1, records_per_family=80, embedding_dim=16, attribute_dim=8, seed=0))
    with pytest.raises(PipelineStageError, match="need at least 2 families") as exc:
        run_pipeline("similarity_cft", corpus, attrs, tiny_settings(), seed=0)
    assert exc.value.stage == "split"
    assert calls == {"split": 1}


def test_run_ablation_and_csv(tmp_path):
    settings = tiny_settings()
    report = run_ablation(tiny_data, settings, seeds=[0],
                          methods=("attributes_only", "pretrained_embeddings"))
    assert [r["method"] for r in report.rows] == [
        "attributes_only", "pretrained_embeddings"
    ]
    assert len(report.details) == 2
    path = tmp_path / "ablation.csv"
    ablation_to_csv(path, report)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "mean_accuracy", "std_accuracy", "seeds"]
    assert float(rows[1][1]) == report.rows[0]["mean_accuracy"]


@pytest.fixture
def calls(monkeypatch):
    """Counts calls of the stages that depend on the seed alone."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "split_meta", counted("split", metrics.split_meta))
    monkeypatch.setattr(metrics, "teacher_train", counted("teacher", metrics.teacher_train))
    monkeypatch.setattr(mining, "select_positives", counted("positives", mining.select_positives))
    return counts


def test_run_ablation_accepts_fixed_data(calls):
    corpus, attrs = tiny_data(3)
    report = run_ablation((corpus, attrs), tiny_settings(), seeds=[0],
                          methods=("attributes_only",))
    assert len(report.rows) == 1
    assert calls == {"split": 1}  # no teacher and no positives for attributes_only


def test_run_ablation_is_one_pass_per_seed_and_matches_run_pipeline(calls):
    def data(seed):
        calls["data"] += 1
        return tiny_data(seed)

    settings = tiny_settings()
    report = run_ablation(data, settings, seeds=[0, 1], methods=METHODS)
    assert calls == {"data": 2, "split": 2, "teacher": 2, "positives": 2}
    calls.clear()
    want = [run_pipeline(m, *tiny_data(s), settings, s) for m in METHODS for s in (0, 1)]
    # run_pipeline alone still does every stage for its one method
    assert calls == {"split": 8, "teacher": 6, "positives": 4}
    assert report.details == want
    assert json.dumps(report.details, default=repr) == json.dumps(want, default=repr)
    assert [r["accuracies"] for r in report.rows] == [
        [want[2 * i]["accuracy"], want[2 * i + 1]["accuracy"]] for i in range(len(METHODS))
    ]
