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
import dataclasses
import hashlib
import os
import sys

from . import cft, data, metrics, mining
from .distill import KdConfig
from .fusion import FusionModel, TeacherModel, init_fusion, teacher_train
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


def _int_list(text: str) -> list:
    """Comma-separated ints, e.g. "1,5,10"."""
    return [int(s) for s in text.split(",")]


def _get(args, cfg, dest, default):
    """Flag value if given, else config value, else default (typed)."""
    v = getattr(args, dest, None)
    if v is not None:
        return v
    if dest in cfg:
        raw = cfg[dest]
        if isinstance(default, bool):
            return raw.strip().lower() in ("1", "true", "yes", "on")
        for kind, parse, what in ((int, int, "int"), (float, float, "float"),
                                  (list, _int_list, "comma-separated list of ints")):
            if isinstance(default, kind):
                try:
                    return parse(raw)
                except ValueError:
                    raise ConfigError(f"{dest} = {raw!r} is not a valid {what}") from None
        return raw
    return default


# Flags whose name differs from the config dataclass field they set.
FLAG_NAMES = {
    "n_families": "families",
    "records_per_family": "records",
    "embedding_dim": "dim",
    "attribute_dim": "attr_dim",
    "inter_cluster_overlap": "overlap",
    "temperature": "tau",
    "learning_rate": "lr",
    "denominator_mode": "denominator",
    "negatives_hard_per_sample": "hard_per_sample",
    "negatives_diverse_per_sample": "diverse_per_sample",
}


def _config(args, cfg, cls, seed=None):
    """A stage config dataclass: every field takes its flag, else its config
    value, else its default; `seed` sets the seed."""
    values = {
        f.name: _get(args, cfg, FLAG_NAMES.get(f.name, f.name), f.default)
        for f in dataclasses.fields(cls)
        if f.name != "seed"
    }
    if seed is not None:
        values["seed"] = seed
    return cls(**values)


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
    spec = _config(args, cfg, data.SyntheticSpec, _stage_seed(args, cfg, "synth"))
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


def _cmd_mine(args, cfg):
    corpus = data.load_embeddings(_get(args, cfg, "embeddings", "embeddings.emb1"))
    mcfg = _config(args, cfg, mining.MiningConfig, _stage_seed(args, cfg, "mine"))
    strategy = _get(args, cfg, "strategy", "similarity")
    sets = mining.mine_all(corpus, mining.select_positives(corpus), mcfg, strategy)
    path = _outpath(args, cfg, "negatives.jsonl")
    mining.negative_sets_to_jsonl(path, sets)
    _summary("mine", f"{len(sets)} families ({strategy}, threshold {mcfg.threshold}) -> {path}")


def _cmd_samples(args, cfg):
    emb_path = _get(args, cfg, "embeddings", "embeddings.emb1")
    negatives_path = _get(args, cfg, "negatives", "negatives.jsonl")
    corpus = data.load_embeddings(emb_path)
    sets = mining.negative_sets_from_jsonl(negatives_path)
    for ns in sets:
        for rid, _ in ns.hard + ns.diverse:
            if rid not in corpus.rows:
                raise _mismatch(negatives_path, emb_path, f"family {ns.family}: no record {rid!r}")
    mcfg = _config(args, cfg, mining.MiningConfig, _stage_seed(args, cfg, "samples"))
    samples = mining.build_all_samples(corpus, mining.select_positives(corpus), sets, mcfg)
    path = _outpath(args, cfg, "samples.jsonl")
    mining.samples_to_jsonl(path, samples)
    _summary("samples", f"{len(samples)} contrastive samples "
                        f"({mcfg.samples_per_anchor} per anchor) -> {path}")


def _mismatch(path, other, detail) -> ValueError:
    """Two inputs of one stage that do not fit together, both named."""
    return ValueError(f"{path} does not fit {other}: {detail}")


def _cmd_train_cft(args, cfg):
    emb_path = _get(args, cfg, "embeddings", "embeddings.emb1")
    samples_path = _get(args, cfg, "samples", "samples.jsonl")
    corpus = data.load_embeddings(emb_path)
    samples = mining.samples_from_jsonl(samples_path)
    for i, s in enumerate(samples, start=1):
        missing = [rid for rid in (s.anchor, s.positive, *s.negatives) if rid not in corpus.rows]
        if missing:
            raise _mismatch(samples_path, emb_path, f"sample {i}: no record {missing[0]!r}")
    ccfg = _config(args, cfg, cft.CftConfig, _stage_seed(args, cfg, "train-cft"))
    head, trace = cft.train_adapter(samples, corpus, ccfg)
    adapter_path = _outpath(args, cfg, "adapter.adp1")
    trace_path = _outpath(args, cfg, "cft_loss.csv")
    head.save(adapter_path)
    cft.loss_trace_to_csv(trace_path, trace)
    _summary("train-cft", f"{len(samples)} samples, {len(trace)} batches, "
                          f"final loss {trace[-1][1]:.4f} -> {adapter_path}, {trace_path}")


def _cmd_refine(args, cfg):
    emb_path = _get(args, cfg, "embeddings", "embeddings.emb1")
    adapter_path = _get(args, cfg, "adapter", "adapter.adp1")
    corpus = data.load_embeddings(emb_path)
    head = cft.AdapterHead.load(adapter_path)
    if head.in_dim != corpus.dim:
        raise _mismatch(adapter_path, emb_path,
                        f"input width {head.in_dim} in the adapter, {corpus.dim} in the embeddings")
    refined = cft.refine(head, corpus)
    path = _outpath(args, cfg, "refined.emb1")
    data.write_embeddings(path, refined)
    _summary("refine", f"{len(refined)} records, dim {corpus.dim} -> {refined.dim} "
                       f"-> {path} (sha256 {_sha256(path)[:16]})")


def _cmd_teacher(args, cfg):
    attrs = data.load_attributes(_get(args, cfg, "attributes", "attributes.csv"))
    families = sorted({a.family for a in attrs})
    teacher, trace = teacher_train(
        attrs, families,
        lr=_get(args, cfg, "teacher_lr", 1e-3),
        epochs=_get(args, cfg, "teacher_epochs", 40),
        seed=_stage_seed(args, cfg, "teacher"),
    )
    path = _outpath(args, cfg, "teacher.tch1")
    teacher.save(path)
    _summary("teacher", f"{len(attrs)} rows, {len(families)} classes, "
                        f"final train accuracy {trace[-1]:.3f} -> {path}")


def _meta_inputs(args, cfg):
    """The embeddings, attribute pool, optional teacher and KD config of
    maml and eval, and `fit(model, path)`, which checks that a loaded
    student or teacher fits the embeddings and attributes."""
    emb_path = _get(args, cfg, "embeddings", "refined.emb1")
    attr_path = _get(args, cfg, "attributes", "attributes.csv")
    corpus = data.load_embeddings(emb_path)
    attrs = data.load_attributes(attr_path)
    try:
        pool = build_pool(corpus, attrs)
    except ValueError as exc:
        raise _mismatch(attr_path, emb_path, exc) from exc

    def fit(model, path):
        checks = [("attribute width", model.attr_dim, pool[0].attributes.shape[0], attr_path),
                  ("class count", model.n_classes, len(corpus.families), emb_path)]
        if model.emb_branch:  # a student; a teacher reads attributes alone
            checks.append(("embedding width", model.emb_dim, corpus.dim, emb_path))
        for what, have, want, other in checks:
            if have != want:
                raise _mismatch(path, other, f"{what} {have} in the model, {want} in the input")
        return model

    teacher_path = _get(args, cfg, "teacher", None)
    teacher = fit(TeacherModel.load(teacher_path), teacher_path) if teacher_path else None
    kd = _config(args, cfg, KdConfig) if teacher is not None else None
    return corpus, pool, teacher, kd, fit


def _cmd_maml(args, cfg):
    corpus, pool, teacher, kd, _ = _meta_inputs(args, cfg)
    mamlcfg = _config(args, cfg, MamlConfig, _stage_seed(args, cfg, "maml"))
    attr_dim = pool[0].attributes.shape[0]
    student = init_fusion(attr_dim, corpus.dim, len(corpus.families), mamlcfg.seed)
    student, history = maml_train(student, pool, mamlcfg, teacher=teacher, kd_cfg=kd)
    path = _outpath(args, cfg, "student.fus1")
    hist_path = _outpath(args, cfg, "maml_history.csv")
    student.save(path)
    data.write_csv(hist_path, ["iteration", "query_loss", "query_accuracy"],
                   ([h["iteration"], repr(h["query_loss"]), repr(h["query_accuracy"])]
                    for h in history))
    _summary("maml", f"{mamlcfg.meta_iterations} meta-iterations "
                     f"(order {mamlcfg.order}, kd {'on' if kd else 'off'}), "
                     f"final query accuracy {history[-1]['query_accuracy']:.3f} "
                     f"-> {path}, {hist_path}")


def _cmd_eval(args, cfg):
    sizes = _get(args, cfg, "support_sizes", [10])
    corpus, pool, teacher, kd, fit = _meta_inputs(args, cfg)
    student_path = _get(args, cfg, "student", "student.fus1")
    student = fit(FusionModel.load(student_path), student_path)
    mamlcfg = _config(args, cfg, MamlConfig, _stage_seed(args, cfg, "eval"))
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
    families = _get(args, cfg, "families", data.SyntheticSpec.n_families)
    records = _get(args, cfg, "records", data.SyntheticSpec.records_per_family)

    def bench(seed):
        spec = data.SyntheticSpec(n_families=families, records_per_family=records, seed=seed)
        return data.generate_synthetic(spec)

    report = metrics.run_ablation(bench, settings, seeds=range(seed0, seed0 + n_seeds))
    path = _outpath(args, cfg, "ablation.csv")
    metrics.ablation_to_csv(path, report)
    means = ", ".join(f"{r['method']}={r['mean_accuracy']:.3f}" for r in report.rows)
    _summary("ablate", f"{n_seeds} seeds: {means} -> {path}")


def _cmd_histogram(args, cfg):
    emb_path = _get(args, cfg, "embeddings", "embeddings.emb1")
    corpus = data.load_embeddings(emb_path)
    family = _get(args, cfg, "family", None)
    if family is None:
        raise ValueError("histogram needs --family")
    if family not in corpus.families:
        raise ValueError(f"{emb_path}: no family {family!r} (has {', '.join(corpus.families)})")
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
        episodes=i(), alpha=f(), **{"support-sizes": {"type": _int_list}, "inner-steps": i(),
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
