"""Pipeline command-line interface.

Subcommands cover the whole pipeline: synth/ingest -> mine -> samples ->
train-cft -> refine -> teacher -> maml -> eval, plus ablate, histogram and
project. Every stage reads persisted artifacts, writes its outputs under
--out and prints a one-line summary, so stages are individually
re-runnable and re-runs with identical inputs are byte-identical.

Options come from an INI config file (--config) overridden by flags; flags
win. One global seed drives everything: each stage adds a fixed offset
(STAGE_SEED_OFFSETS) so changing one stage's draw never perturbs another.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import os
import sys

import numpy as np

from . import cft, data, metrics, mining
from .distill import KdConfig
from .fusion import FusionModel, MultimodalSample, TeacherModel, init_fusion, teacher_train
from .meta import MamlConfig, build_pool, eval_report_to_csv, evaluate_few_shot, maml_train

STAGE_SEED_OFFSETS = {
    "synth": 0,
    "ingest": 0,
    "mine": 1,
    "samples": 1,  # shares the mining stream so tiers and draws stay paired
    "train-cft": 2,
    "refine": 2,
    "teacher": 3,
    "maml": 4,
    "eval": 5,
    "ablate": 0,
    "histogram": 1,
    "project": 0,
}


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _summary(stage: str, text: str) -> None:
    tag = f"\x1b[32m{stage}\x1b[0m" if _use_color() else stage
    print(f"{tag}: {text}")


def _load_config(path) -> dict:
    """Flat key/value view of an INI file; a bare key=value file works too."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError:
        parser.read_string("[pipeline]\n" + text, source=str(path))
    merged = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            merged[key.replace("-", "_")] = value
    return merged


class ConfigError(ValueError):
    """A config file value does not parse as its option's type."""


def _get(args, cfg, dest, default):
    """Flag value if given, else config value, else default (typed)."""
    v = getattr(args, dest, None)
    if v is not None:
        return v
    if dest in cfg:
        raw = cfg[dest]
        if isinstance(default, bool):
            return raw.strip().lower() in ("1", "true", "yes", "on")
        for kind in (int, float):
            if isinstance(default, kind):
                try:
                    return kind(raw)
                except ValueError:
                    raise ConfigError(
                        f"{dest} = {raw!r} is not a valid {kind.__name__}"
                    ) from None
        return raw
    return default


def _stage_seed(args, cfg, stage: str) -> int:
    return _get(args, cfg, "seed", 0) + STAGE_SEED_OFFSETS[stage]


def _outpath(args, cfg, name: str) -> str:
    out = _get(args, cfg, "out", ".")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# --- stage implementations --------------------------------------------------


def _cmd_synth(args, cfg):
    spec = data.SyntheticSpec(
        n_families=_get(args, cfg, "families", 10),
        records_per_family=_get(args, cfg, "records", 200),
        embedding_dim=_get(args, cfg, "dim", 64),
        attribute_dim=_get(args, cfg, "attr_dim", 32),
        cluster_spread=_get(args, cfg, "cluster_spread", 0.4),
        inter_cluster_overlap=_get(args, cfg, "overlap", 0.7),
        attribute_spread=_get(args, cfg, "attribute_spread", 5.0),
        seed=_stage_seed(args, cfg, "synth"),
    )
    corpus, attrs = data.generate_synthetic(spec)
    emb_path = _outpath(args, cfg, "embeddings.emb1")
    attr_path = _outpath(args, cfg, "attributes.csv")
    data.write_embeddings(emb_path, corpus)
    data.write_attributes(attr_path, attrs)
    _summary("synth", f"{len(corpus)} records, {len(corpus.families)} families "
                      f"-> {emb_path} (sha256 {_sha256(emb_path)[:16]}), {attr_path}")


def _cmd_ingest(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    emb_path = _outpath(args, cfg, "embeddings.emb1")
    data.write_embeddings(emb_path, corpus)
    parts = [f"{len(corpus)} records, {len(corpus.families)} families, dim {corpus.dim} "
             f"-> {emb_path} (sha256 {_sha256(emb_path)[:16]})"]
    attrs_in = _get(args, cfg, "attributes", None)
    if attrs_in:
        attrs = data.load_attributes(attrs_in)
        attr_path = _outpath(args, cfg, "attributes.csv")
        data.write_attributes(attr_path, attrs)
        parts.append(f"{len(attrs)} attribute rows -> {attr_path}")
    _summary("ingest", "; ".join(parts))


def _mining_config(args, cfg, seed: int) -> mining.MiningConfig:
    return mining.MiningConfig(
        threshold=_get(args, cfg, "threshold", 0.95),
        n_hard=_get(args, cfg, "n_hard", 20),
        n_diverse=_get(args, cfg, "n_diverse", 12),
        negatives_hard_per_sample=_get(args, cfg, "hard_per_sample", 5),
        negatives_diverse_per_sample=_get(args, cfg, "diverse_per_sample", 3),
        samples_per_anchor=_get(args, cfg, "samples_per_anchor", 4),
        seed=seed,
    )


def _cmd_mine(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    seed = _stage_seed(args, cfg, "mine")
    mcfg = _mining_config(args, cfg, seed)
    strategy = _get(args, cfg, "strategy", "similarity")
    positives = mining.select_positives(corpus)
    sets = []
    for fam in corpus.families:
        if strategy == "similarity":
            sets.append(mining.mine_negatives(corpus, positives, fam, mcfg))
        elif strategy == "random":
            sets.append(mining.mine_random(
                corpus, fam, n_total=mcfg.n_hard + mcfg.n_diverse,
                seed=seed, n_hard_slots=mcfg.n_hard,
            ))
        else:
            raise ValueError(f"unknown mining strategy {strategy!r}")
    path = _outpath(args, cfg, "negatives.jsonl")
    mining.negative_sets_to_jsonl(path, sets)
    _summary("mine", f"{len(sets)} families ({strategy}, threshold {mcfg.threshold}) -> {path}")


def _cmd_samples(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    sets = mining.negative_sets_from_jsonl(_get(args, cfg, "negatives", "negatives.jsonl"))
    mcfg = _mining_config(args, cfg, _stage_seed(args, cfg, "samples"))
    positives = mining.select_positives(corpus)
    by_family = corpus.by_family()
    samples = []
    for ns in sets:
        if ns.family not in by_family:
            raise ValueError(f"negative set for unknown family {ns.family!r}")
        samples += mining.build_samples(by_family[ns.family], positives[ns.family], ns, mcfg)
    path = _outpath(args, cfg, "samples.jsonl")
    mining.samples_to_jsonl(path, samples)
    _summary("samples", f"{len(samples)} contrastive samples "
                        f"({mcfg.samples_per_anchor} per anchor) -> {path}")


def _cmd_train_cft(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    samples = mining.samples_from_jsonl(_get(args, cfg, "samples", "samples.jsonl"))
    ccfg = cft.CftConfig(
        temperature=_get(args, cfg, "tau", 0.07),
        learning_rate=_get(args, cfg, "lr", 1e-5),
        batch_size=_get(args, cfg, "batch_size", 32),
        epochs=_get(args, cfg, "epochs", 1),
        weight_decay=_get(args, cfg, "weight_decay", 0.01),
        hidden_dim=_get(args, cfg, "hidden_dim", 512),
        output_dim=_get(args, cfg, "output_dim", 256),
        denominator_mode=_get(args, cfg, "denominator", "in_sample"),
        seed=_stage_seed(args, cfg, "train-cft"),
    )
    head, trace = cft.train_adapter(samples, corpus, ccfg)
    adapter_path = _outpath(args, cfg, "adapter.adp1")
    trace_path = _outpath(args, cfg, "cft_loss.csv")
    head.save(adapter_path)
    cft.loss_trace_to_csv(trace_path, trace)
    _summary("train-cft", f"{len(samples)} samples, {len(trace)} batches, "
                          f"final loss {trace[-1][1]:.4f} -> {adapter_path}, {trace_path}")


def _cmd_refine(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    head = cft.AdapterHead.load(_get(args, cfg, "adapter", "adapter.adp1"))
    refined = cft.refine(head, corpus)
    path = _outpath(args, cfg, "refined.emb1")
    data.write_embeddings(path, refined)
    _summary("refine", f"{len(refined)} records, dim {corpus.dim} -> {refined.dim} "
                       f"-> {path} (sha256 {_sha256(path)[:16]})")


def _attr_pool(attrs):
    """Teacher training pool from attribute records alone (no embeddings)."""
    families = sorted({a.family for a in attrs})
    classes = {f: i for i, f in enumerate(families)}
    dim = attrs[0].attributes.shape[0]
    zero = np.zeros(1)
    return [MultimodalSample(a.id, a.attributes, zero, classes[a.family]) for a in attrs], len(families), dim


def _cmd_teacher(args, cfg):
    attrs = data.load_attributes(_get(args, cfg, "attributes", "attributes.csv"))
    pool, n_classes, attr_dim = _attr_pool(attrs)
    teacher, trace = teacher_train(
        pool, n_classes, attr_dim,
        lr=_get(args, cfg, "teacher_lr", 1e-3),
        epochs=_get(args, cfg, "teacher_epochs", 40),
        seed=_stage_seed(args, cfg, "teacher"),
    )
    path = _outpath(args, cfg, "teacher.tch1")
    teacher.save(path)
    _summary("teacher", f"{len(pool)} rows, {n_classes} classes, "
                        f"final train accuracy {trace[-1]:.3f} -> {path}")


def _maml_config(args, cfg, seed: int) -> MamlConfig:
    return MamlConfig(
        inner_steps=_get(args, cfg, "inner_steps", 5),
        inner_lr=_get(args, cfg, "inner_lr", 0.01),
        meta_lr=_get(args, cfg, "meta_lr", 1e-3),
        tasks_per_meta_batch=_get(args, cfg, "tasks_per_meta_batch", 4),
        meta_iterations=_get(args, cfg, "meta_iterations", 40),
        order=_get(args, cfg, "order", "first"),
        n_support=_get(args, cfg, "n_support", 10),
        n_query=_get(args, cfg, "n_query", 20),
        seed=seed,
    )


def _kd_config(args, cfg) -> KdConfig:
    return KdConfig(
        kd_temperature=_get(args, cfg, "kd_temperature", 2.0),
        alpha=_get(args, cfg, "alpha", 0.5),
        apply_in=_get(args, cfg, "apply_in", "both"),
    )


def _cmd_maml(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "refined.emb1"))
    attrs = data.load_attributes(_get(args, cfg, "attributes", "attributes.csv"))
    pool = build_pool(corpus, attrs)
    mamlcfg = _maml_config(args, cfg, _stage_seed(args, cfg, "maml"))
    teacher_path = _get(args, cfg, "teacher", None)
    teacher = TeacherModel.load(teacher_path) if teacher_path else None
    kd = _kd_config(args, cfg) if teacher is not None else None
    attr_dim = pool[0].attributes.shape[0]
    student = init_fusion(attr_dim, corpus.dim, len(corpus.families), mamlcfg.seed)
    student, history = maml_train(student, pool, mamlcfg, teacher=teacher, kd_cfg=kd)
    path = _outpath(args, cfg, "student.fus1")
    hist_path = _outpath(args, cfg, "maml_history.csv")
    student.save(path)
    with open(hist_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["iteration", "query_loss", "query_accuracy"])
        for h in history:
            w.writerow([h["iteration"], repr(h["query_loss"]), repr(h["query_accuracy"])])
    _summary("maml", f"{mamlcfg.meta_iterations} meta-iterations "
                     f"(order {mamlcfg.order}, kd {'on' if kd else 'off'}), "
                     f"final query accuracy {history[-1]['query_accuracy']:.3f} "
                     f"-> {path}, {hist_path}")


def _cmd_eval(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "refined.emb1"))
    attrs = data.load_attributes(_get(args, cfg, "attributes", "attributes.csv"))
    pool = build_pool(corpus, attrs)
    student = FusionModel.load(_get(args, cfg, "student", "student.fus1"))
    teacher_path = _get(args, cfg, "teacher", None)
    teacher = TeacherModel.load(teacher_path) if teacher_path else None
    kd = _kd_config(args, cfg) if teacher is not None else None
    mamlcfg = _maml_config(args, cfg, _stage_seed(args, cfg, "eval"))
    sizes = [int(s) for s in str(_get(args, cfg, "support_sizes", "10")).split(",")]
    rows = evaluate_few_shot(
        student, pool, mamlcfg, _get(args, cfg, "episodes", 20),
        support_sizes=sizes, teacher=teacher, kd_cfg=kd,
    )
    path = _outpath(args, cfg, "eval.csv")
    eval_report_to_csv(path, rows)
    best = max(rows, key=lambda r: r["mean_accuracy"])
    _summary("eval", f"{len(rows)} support sizes x {rows[0]['n_episodes']} episodes, "
                     f"best {best['mean_accuracy']:.3f} at {best['support_size']}-shot -> {path}")


def _cmd_ablate(args, cfg):
    seed0 = _get(args, cfg, "seed", 0)
    n_seeds = _get(args, cfg, "seeds", 5)
    settings = metrics.benchmark_settings()
    settings.maml.meta_iterations = _get(args, cfg, "meta_iterations", settings.maml.meta_iterations)
    settings.cft.epochs = _get(args, cfg, "epochs", settings.cft.epochs)
    settings.eval_episodes = _get(args, cfg, "episodes", settings.eval_episodes)
    settings.teacher_epochs = _get(args, cfg, "teacher_epochs", settings.teacher_epochs)
    families = _get(args, cfg, "families", 10)
    records = _get(args, cfg, "records", 200)

    def bench(seed):
        corpus, attrs = metrics.benchmark_data(seed)
        if families == 10 and records == 200:
            return corpus, attrs
        spec = data.SyntheticSpec(n_families=families, records_per_family=records, seed=seed)
        return data.generate_synthetic(spec)

    report = metrics.run_ablation(bench, settings, seeds=range(seed0, seed0 + n_seeds))
    path = _outpath(args, cfg, "ablation.csv")
    metrics.ablation_to_csv(path, report)
    means = ", ".join(f"{r['method']}={r['mean_accuracy']:.3f}" for r in report.rows)
    _summary("ablate", f"{n_seeds} seeds: {means} -> {path}")


def _cmd_histogram(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    family = _get(args, cfg, "family", None)
    if family is None:
        raise ValueError("histogram needs --family")
    positives = mining.select_positives(corpus)
    edges, counts = mining.similarity_histogram(
        corpus, positives, family, _get(args, cfg, "bins", 40)
    )
    path = _outpath(args, cfg, "histogram.csv")
    mining.histogram_to_csv(path, edges, counts)
    _summary("histogram", f"family {family}, {int(counts.sum())} foreign records, "
                          f"{len(counts)} bins -> {path}")


def _cmd_project(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    rows = metrics.project_2d(corpus)
    path = _outpath(args, cfg, "projection.csv")
    metrics.projection_to_csv(path, rows)
    _summary("project", f"{len(rows)} records -> {path}")


COMMANDS = {
    "synth": _cmd_synth,
    "ingest": _cmd_ingest,
    "mine": _cmd_mine,
    "samples": _cmd_samples,
    "train-cft": _cmd_train_cft,
    "refine": _cmd_refine,
    "teacher": _cmd_teacher,
    "maml": _cmd_maml,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "histogram": _cmd_histogram,
    "project": _cmd_project,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override it")
    common.add_argument("--seed", type=int, help="global seed (default 0)")
    common.add_argument("--out", help="output directory (default .)")

    parser = argparse.ArgumentParser(prog="cftmal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **flags):
        p = sub.add_parser(name, parents=[common])
        for flag, spec in flags.items():
            p.add_argument(f"--{flag}", **spec)
        return p

    f = lambda: {"type": float}
    i = lambda: {"type": int}
    s = lambda: {"type": str}

    add("synth", families=i(), records=i(), dim=i(), **{"attr-dim": i(),
        "cluster-spread": f(), "overlap": f(), "attribute-spread": f()})
    add("ingest", embeddings=s(), attributes=s())
    add("mine", embeddings=s(), threshold=f(), strategy=s(),
        **{"n-hard": i(), "n-diverse": i()})
    add("samples", embeddings=s(), negatives=s(),
        **{"hard-per-sample": i(), "diverse-per-sample": i(), "samples-per-anchor": i()})
    add("train-cft", embeddings=s(), samples=s(), tau=f(), lr=f(), epochs=i(),
        **{"batch-size": i(), "weight-decay": f(), "hidden-dim": i(),
           "output-dim": i(), "denominator": s()})
    add("refine", embeddings=s(), adapter=s())
    add("teacher", attributes=s(), **{"teacher-lr": f(), "teacher-epochs": i()})
    add("maml", embeddings=s(), attributes=s(), teacher=s(), alpha=f(), order=s(),
        **{"kd-temperature": f(), "apply-in": s(), "inner-steps": i(),
           "inner-lr": f(), "meta-lr": f(), "meta-iterations": i(),
           "tasks-per-meta-batch": i(), "n-support": i(), "n-query": i()})
    add("eval", embeddings=s(), attributes=s(), student=s(), teacher=s(),
        episodes=i(), alpha=f(), **{"support-sizes": s(), "inner-steps": i(),
        "inner-lr": f(), "kd-temperature": f(), "apply-in": s()})
    add("ablate", seeds=i(), epochs=i(), episodes=i(), families=i(), records=i(),
        **{"meta-iterations": i(), "teacher-epochs": i()})
    add("histogram", embeddings=s(), family=s(), bins=i())
    add("project", embeddings=s())
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = {}
    if args.config:
        try:
            cfg = _load_config(args.config)
        except (OSError, configparser.Error) as exc:
            print(f"cftmal {args.command}: config error: {exc}", file=sys.stderr)
            return 2
    try:
        COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"cftmal {args.command}: config error: {args.config}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, metrics.PipelineStageError) as exc:
        print(f"cftmal {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
