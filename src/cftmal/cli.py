"""Pipeline command-line interface.

Subcommands cover the whole pipeline: synth/ingest -> mine -> samples ->
train-cft -> refine -> teacher -> maml -> eval, plus ablate, histogram and
project. Every stage reads persisted artifacts, writes its outputs under
--out and prints a one-line summary, so stages are individually
re-runnable and re-runs with identical inputs are byte-identical.

STAGES holds one `Stage` per subcommand; the parser, the stage seeds, the
input and output paths and the dispatch in `main` are derived from it. To
add a command, write `_cmd_<name>(values, *configs, *output_paths)`, which
returns the summary text, and add its entry. Each value takes its flag,
else its INI value (--config), else its default. Defaults live in the
entry's `inputs` and `options` and on the config dataclasses. One global
seed drives everything: each stage adds its entry's `seed` offset, so
changing one stage's draw never perturbs another. `main` creates --out,
prints the summary and is the one place that maps exceptions to exit codes.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import os
import sys

import numpy as np

from . import cft, data, metrics, mining
from .distill import KdConfig
from .fusion import PARAM_DTYPE, FusionModel, TeacherModel, init_fusion, teacher_train
from .meta import (MamlConfig, build_pool, check_episode_fits, eval_report_to_csv,
                   evaluate_few_shot, maml_train)
from .numeric import NonFiniteError


class ConfigError(ValueError):
    """A config file that cannot be read, or a value in it that does not
    parse as its option's type."""


def _load_config(path) -> dict:
    """Flat key/value view of an INI file; a bare key=value file works too."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
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


def _int_list(text: str) -> list:
    """Comma-separated ints, e.g. "1,5,10"."""
    return [int(s) for s in text.split(",")]


def _parse_as(default):
    """How a flag or INI value parses for an option with this default, and
    the name of that type."""
    for kind, parse, what in ((int, int, "int"), (float, float, "float"),
                              (list, _int_list, "comma-separated list of ints")):
        if isinstance(default, kind):
            return parse, what
    return str, "string"


def _get(args, cfg, dest, default):
    """Flag value if given, else config value, else default (typed)."""
    v = getattr(args, dest, None)
    if v is not None:
        return v
    if dest not in cfg:
        return default
    parse, what = _parse_as(default)
    try:
        return parse(cfg[dest])
    except ValueError:
        raise ConfigError(f"{dest} = {cfg[dest]!r} is not a valid {what}") from None


def _config(args, cfg, cls, seed=None):
    """A stage config dataclass: every field takes its flag, else its config
    value, else its default; `seed` sets the seed field, if it has one."""
    values = {}
    for f in dataclasses.fields(cls):
        if f.name != "seed":
            values[f.name] = _get(args, cfg, _KEYS.get(f.name, f.name), f.default)
        elif seed is not None:
            values["seed"] = seed
    return cls(**values)


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _mismatch(path, other, detail) -> ValueError:
    """Two inputs of one stage that do not fit together, both named."""
    return ValueError(f"{path} does not fit {other}: {detail}")


def _diverged(exc, inputs, settings) -> ValueError:
    """Training that reached non-finite values, which its inputs or its
    settings (flag -> value) can cause: both named."""
    at = ", ".join(f"--{flag} {value:g}" for flag, value in settings.items())
    return ValueError(f"{' and '.join(map(str, inputs))}: {exc} at {at}")


# --- stage implementations --------------------------------------------------


def _cmd_synth(v, spec, emb_path, attr_path):
    corpus, attrs = data.generate_synthetic(spec)
    data.write_embeddings(emb_path, corpus)
    data.write_attributes(attr_path, attrs)
    return (f"{len(corpus)} records, {len(corpus.families)} families "
            f"-> {emb_path} (sha256 {_sha256(emb_path)[:16]}), {attr_path}")


def _cmd_ingest(v, emb_path, attr_path):
    emb_in, attr_in = v["embeddings"], v["attributes"]
    corpus = data.load_embeddings(emb_in)
    attrs = data.load_attributes(attr_in) if attr_in else None
    if attrs:
        try:
            data.attribute_rows(corpus, attrs)
        except ValueError as exc:
            raise _mismatch(attr_in, emb_in, exc) from exc
        if attrs.families != corpus.families:
            raise _mismatch(attr_in, emb_in, f"families {', '.join(attrs.families)} in the "
                            f"attributes, {', '.join(corpus.families)} in the embeddings")
    data.write_embeddings(emb_path, corpus)
    parts = [f"{len(corpus)} records, {len(corpus.families)} families, dim {corpus.dim} "
             f"-> {emb_path} (sha256 {_sha256(emb_path)[:16]})"]
    if attrs:
        data.write_attributes(attr_path, attrs)
        parts.append(f"{len(attrs)} attribute rows -> {attr_path}")
    return "; ".join(parts)


def _cmd_mine(v, mcfg, path):
    emb_path = v["embeddings"]
    corpus = data.load_embeddings(emb_path)
    try:
        sets = mining.mine_all(corpus, mining.select_positives(corpus), mcfg, v["strategy"])
    except mining.ShortageError as exc:  # too few foreign records for the tiers
        raise ValueError(f"{emb_path}: {exc}") from exc
    mining.negative_sets_to_jsonl(path, sets)
    return f"{len(sets)} families ({v['strategy']}, threshold {mcfg.threshold}) -> {path}"


def _cmd_samples(v, mcfg, path):
    emb_path, negatives_path = v["embeddings"], v["negatives"]
    corpus = data.load_embeddings(emb_path)
    sets = mining.negative_sets_from_jsonl(negatives_path)
    try:
        samples = mining.build_all_samples(corpus, mining.select_positives(corpus), sets, mcfg)
    except mining.TierError as exc:
        raise _mismatch(negatives_path, emb_path, exc) from exc
    except mining.ShortageError as exc:  # tiers too small for the draws
        raise ValueError(f"{negatives_path}: {exc}") from exc
    mining.samples_to_jsonl(path, samples, corpus)
    return f"{len(samples)} contrastive samples ({mcfg.samples_per_anchor} per anchor) -> {path}"


def _cmd_train_cft(v, ccfg, adapter_path, trace_path):
    emb_path, samples_path = v["embeddings"], v["samples"]
    corpus = data.load_embeddings(emb_path)
    try:
        samples = mining.samples_from_jsonl(samples_path, corpus)
    except mining.MissingRecord as exc:
        raise _mismatch(samples_path, emb_path,
                        f"sample {exc.sample}: no record {exc.record!r}") from exc
    try:
        head, trace = cft.train_adapter(samples, corpus, ccfg)
    except NonFiniteError as exc:
        raise _diverged(exc, (emb_path, samples_path),
                        {"tau": ccfg.temperature, "lr": ccfg.learning_rate}) from exc
    head.save(adapter_path)
    cft.loss_trace_to_csv(trace_path, trace)
    return (f"{len(samples)} samples, {len(trace)} batches, "
            f"final loss {trace[-1][1]:.4f} -> {adapter_path}, {trace_path}")


def _cmd_refine(v, path):
    emb_path, adapter_path = v["embeddings"], v["adapter"]
    corpus = data.load_embeddings(emb_path)
    head = cft.AdapterHead.load(adapter_path)
    if head.in_dim != corpus.dim:
        raise _mismatch(adapter_path, emb_path,
                        f"input width {head.in_dim} in the adapter, {corpus.dim} in the embeddings")
    refined = cft.refine(head, corpus)
    data.write_embeddings(path, refined)
    return (f"{len(refined)} records, dim {corpus.dim} -> {refined.dim} "
            f"-> {path} (sha256 {_sha256(path)[:16]})")


def _model_attributes(path):
    """The attribute table at `path`, which the models read in float32: a
    value finite as float64 but not as float32 would overflow their passes."""
    attrs = data.load_attributes(path)
    with np.errstate(over="ignore"):
        finite = np.isfinite(attrs.vectors.astype(PARAM_DTYPE)).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}: row {bad + 2} ({attrs.ids[bad]!r}): "
                         "non-finite value as float32")
    return attrs


def _cmd_teacher(v, path):
    attrs = _model_attributes(v["attributes"])
    try:
        teacher, trace = teacher_train(attrs, lr=v["teacher_lr"],
                                       epochs=v["teacher_epochs"], seed=v["seed"])
    except NonFiniteError as exc:
        raise _diverged(exc, (v["attributes"],), {"teacher-lr": v["teacher_lr"]}) from exc
    teacher.save(path)
    return (f"{len(attrs)} rows, {len(attrs.families)} classes, "
            f"final train accuracy {trace[-1]:.3f} -> {path}")


def _meta_inputs(v, mamlcfg):
    """The embeddings, attribute pool and optional teacher of maml and eval,
    and `fit(model, path)`, which checks that a loaded student or teacher
    fits them and gives finite logits on every pool row. Every family must
    fill the stage's largest episode."""
    emb_path, attr_path = v["embeddings"], v["attributes"]
    corpus = data.load_embeddings(emb_path)
    attrs = _model_attributes(attr_path)
    try:
        pool = build_pool(corpus, attrs)
    except ValueError as exc:
        raise _mismatch(attr_path, emb_path, exc) from exc
    sizes = v.get("support_sizes") or [mamlcfg.n_support]
    check_episode_fits(emb_path, corpus, max(sizes) + mamlcfg.n_query)

    def fit(model, path):
        checks = [("attribute width", model.attr_dim, pool.attrs.shape[1], attr_path),
                  ("class count", model.n_classes, len(corpus.families), emb_path)]
        if model.emb_branch:  # a student; a teacher reads attributes alone
            checks.append(("embedding width", model.emb_dim, corpus.dim, emb_path))
        for what, have, want, other in checks:
            if have != want:
                raise _mismatch(path, other, f"{what} {have} in the model, {want} in the input")
        # the reader takes finite weights, but a near-maximal one overflows float32
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(model.forward(pool.attrs, pool.embs)).all(axis=1)
        if not finite.all():
            row = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"{path}: non-finite logits on record {row} "
                             f"({corpus.ids[row]!r}) of {emb_path}")
        return model

    teacher_path = v["teacher"]
    teacher = fit(TeacherModel.load(teacher_path), teacher_path) if teacher_path else None
    return corpus, pool, teacher, fit


def _cmd_maml(v, mamlcfg, kd, path, hist_path):
    corpus, pool, teacher, _ = _meta_inputs(v, mamlcfg)
    kd = kd if teacher else None
    student = init_fusion(pool.attrs.shape[1], corpus.dim, len(corpus.families), mamlcfg.seed)
    try:
        student, history = maml_train(student, pool, mamlcfg, teacher=teacher, kd_cfg=kd)
    except NonFiniteError as exc:
        raise _diverged(exc, (v["embeddings"], v["attributes"]),
                        {"inner-lr": mamlcfg.inner_lr, "meta-lr": mamlcfg.meta_lr}) from exc
    student.save(path)
    data.write_csv(hist_path, ["iteration", "query_loss", "query_accuracy"],
                   ([h["iteration"], repr(h["query_loss"]), repr(h["query_accuracy"])]
                    for h in history))
    return (f"{mamlcfg.meta_iterations} meta-iterations "
            f"(order {mamlcfg.order}, kd {'on' if kd else 'off'}), "
            f"final query accuracy {history[-1]['query_accuracy']:.3f} -> {path}, {hist_path}")


def _cmd_eval(v, mamlcfg, kd, path):
    corpus, pool, teacher, fit = _meta_inputs(v, mamlcfg)
    kd = kd if teacher else None
    student = fit(FusionModel.load(v["student"]), v["student"])
    try:
        rows = evaluate_few_shot(student, pool, mamlcfg, v["episodes"],
                                 support_sizes=v["support_sizes"], teacher=teacher, kd_cfg=kd)
    except NonFiniteError as exc:  # finite logits at load, diverged in the inner loop
        raise ValueError(f"{v['student']}: {exc} on {v['embeddings']} and "
                         f"{v['attributes']}") from exc
    eval_report_to_csv(path, rows)
    best = max(rows, key=lambda r: r["mean_accuracy"])
    return (f"{len(rows)} support sizes x {rows[0]['n_episodes']} episodes, "
            f"best {best['mean_accuracy']:.3f} at {best['support_size']}-shot -> {path}")


def _cmd_ablate(v, path, seeds_path):
    settings = metrics.benchmark_settings()
    settings.maml.meta_iterations = v["meta_iterations"]
    settings.cft.epochs = v["epochs"]
    settings.eval_episodes = v["episodes"]
    settings.teacher_epochs = v["teacher_epochs"]

    def bench(seed):
        spec = data.SyntheticSpec(n_families=v["families"], records_per_family=v["records"],
                                  seed=seed)
        return data.generate_synthetic(spec)

    report = metrics.run_ablation(bench, settings, seeds=range(v["seed"], v["seed"] + v["seeds"]))
    metrics.ablation_to_csv(path, report)
    metrics.ablation_seeds_to_csv(seeds_path, report)
    means = ", ".join(f"{r['method']}={r['mean_accuracy']:.3f}" for r in report.rows)
    return f"{v['seeds']} seeds: {means} -> {path}, {seeds_path}"


def _cmd_histogram(v, path):
    emb_path, family = v["embeddings"], v["family"]
    corpus = data.load_embeddings(emb_path)
    if family is None:
        raise ValueError("histogram needs --family")
    if family not in corpus.families:
        raise ValueError(f"{emb_path}: no family {family!r} (has {', '.join(corpus.families)})")
    positives = mining.select_positives(corpus)
    edges, counts = mining.similarity_histogram(corpus, positives, family, v["bins"])
    mining.histogram_to_csv(path, edges, counts)
    return f"family {family}, {int(counts.sum())} foreign records, {len(counts)} bins -> {path}"


def _cmd_project(v, path):
    rows = metrics.project_2d(data.load_embeddings(v["embeddings"]))
    metrics.projection_to_csv(path, rows)
    return f"{len(rows)} records -> {path}"


# --- the command table ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Stage:
    """One subcommand."""

    run: object  # run(values, *configs, *output_paths) -> summary text
    seed: int  # offset added to the global seed
    # Own flags in --help order, each naming an input, an option or a config
    # field; (flag, field) names a field's flag, and so its INI key everywhere.
    flags: tuple = ()
    inputs: dict = dataclasses.field(default_factory=dict)  # dest -> path; None: optional
    options: dict = dataclasses.field(default_factory=dict)  # dest -> typed default
    configs: tuple = ()  # dataclasses; unflagged fields still read their INI key
    outputs: tuple = ()  # file names under --out


_BENCH = metrics.benchmark_settings()  # ablate's defaults

STAGES = {
    "synth": Stage(
        _cmd_synth, seed=0,
        flags=(("families", "n_families"), ("records", "records_per_family"),
               ("dim", "embedding_dim"), ("attr-dim", "attribute_dim"), "cluster-spread",
               ("overlap", "inter_cluster_overlap"), "attribute-spread"),
        configs=(data.SyntheticSpec,),
        outputs=("embeddings.emb1", "attributes.csv")),
    "ingest": Stage(
        _cmd_ingest, seed=0,
        flags=("embeddings", "attributes"),
        inputs={"embeddings": "embeddings.emb1", "attributes": None},
        outputs=("embeddings.emb1", "attributes.csv")),
    "mine": Stage(
        _cmd_mine, seed=1,
        flags=("embeddings", "threshold", "strategy", "n-hard", "n-diverse"),
        inputs={"embeddings": "embeddings.emb1"},
        options={"strategy": "similarity"},
        configs=(mining.MiningConfig,),
        outputs=("negatives.jsonl",)),
    "samples": Stage(  # shares the mining seed so tiers and draws stay paired
        _cmd_samples, seed=1,
        flags=("embeddings", "negatives", ("hard-per-sample", "negatives_hard_per_sample"),
               ("diverse-per-sample", "negatives_diverse_per_sample"), "samples-per-anchor"),
        inputs={"embeddings": "embeddings.emb1", "negatives": "negatives.jsonl"},
        configs=(mining.MiningConfig,),
        outputs=("samples.jsonl",)),
    "train-cft": Stage(
        _cmd_train_cft, seed=2,
        flags=("embeddings", "samples", ("tau", "temperature"), ("lr", "learning_rate"),
               "epochs", "batch-size", "weight-decay", "hidden-dim", "output-dim",
               ("denominator", "denominator_mode")),
        inputs={"embeddings": "embeddings.emb1", "samples": "samples.jsonl"},
        configs=(cft.CftConfig,),
        outputs=("adapter.adp1", "cft_loss.csv")),
    "refine": Stage(
        _cmd_refine, seed=2,
        flags=("embeddings", "adapter"),
        inputs={"embeddings": "embeddings.emb1", "adapter": "adapter.adp1"},
        outputs=("refined.emb1",)),
    "teacher": Stage(
        _cmd_teacher, seed=3,
        flags=("attributes", "teacher-lr", "teacher-epochs"),
        inputs={"attributes": "attributes.csv"},
        options={"teacher_lr": 1e-3, "teacher_epochs": 40},
        outputs=("teacher.tch1",)),
    "maml": Stage(
        _cmd_maml, seed=4,
        flags=("embeddings", "attributes", "teacher", "alpha", "order", "kd-temperature",
               "apply-in", "inner-steps", "inner-lr", "meta-lr", "meta-iterations",
               "tasks-per-meta-batch", "n-support", "n-query"),
        inputs={"embeddings": "refined.emb1", "attributes": "attributes.csv", "teacher": None},
        configs=(MamlConfig, KdConfig),
        outputs=("student.fus1", "maml_history.csv")),
    "eval": Stage(
        _cmd_eval, seed=5,
        flags=("embeddings", "attributes", "student", "teacher", "episodes", "alpha",
               "support-sizes", "inner-steps", "inner-lr", "kd-temperature", "apply-in"),
        inputs={"embeddings": "refined.emb1", "attributes": "attributes.csv",
                "student": "student.fus1", "teacher": None},
        options={"episodes": 20, "support_sizes": [10]},
        configs=(MamlConfig, KdConfig),
        outputs=("eval.csv",)),
    "ablate": Stage(
        _cmd_ablate, seed=0,
        flags=("seeds", "epochs", "episodes", "families", "records", "meta-iterations",
               "teacher-epochs"),
        options={"seeds": 5, "epochs": _BENCH.cft.epochs, "episodes": _BENCH.eval_episodes,
                 "families": data.SyntheticSpec.n_families,
                 "records": data.SyntheticSpec.records_per_family,
                 "meta_iterations": _BENCH.maml.meta_iterations,
                 "teacher_epochs": _BENCH.teacher_epochs},
        outputs=("ablation.csv", "ablation_seeds.csv")),
    "histogram": Stage(
        _cmd_histogram, seed=1,
        flags=("embeddings", "family", "bins"),
        inputs={"embeddings": "embeddings.emb1"},
        options={"family": None, "bins": 40},
        outputs=("histogram.csv",)),
    "project": Stage(
        _cmd_project, seed=0,
        flags=("embeddings",),
        inputs={"embeddings": "embeddings.emb1"},
        outputs=("projection.csv",)),
}


def _flag_field(flag):
    """(flag name, dest) of a `flags` entry; dest is the config field of a
    renamed flag."""
    return flag if isinstance(flag, tuple) else (flag, flag.replace("-", "_"))


# The INI key, and flag dest, of each config field whose flag has another name.
_KEYS = {field: name.replace("-", "_") for stage in STAGES.values()
         for name, field in map(_flag_field, stage.flags) if name.replace("-", "_") != field}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override it")
    common.add_argument("--seed", type=int, help="global seed (default 0)")
    common.add_argument("--out", help="output directory (default .)")

    parser = argparse.ArgumentParser(prog="cftmal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, stage in STAGES.items():
        p = sub.add_parser(command, parents=[common])
        defaults = {**stage.inputs, **stage.options,
                    **{f.name: f.default for cls in stage.configs for f in dataclasses.fields(cls)}}
        for name, dest in map(_flag_field, stage.flags):
            p.add_argument(f"--{name}", type=_parse_as(defaults[dest])[0])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    stage = STAGES[args.command]
    try:
        cfg = _load_config(args.config) if args.config else {}
    except (OSError, configparser.Error, ConfigError) as exc:
        print(f"cftmal {args.command}: config error: {exc}", file=sys.stderr)
        return 2
    try:
        seed = _get(args, cfg, "seed", 0) + stage.seed
        values = {dest: _get(args, cfg, dest, default)
                  for dest, default in {**stage.inputs, **stage.options}.items()}
        values["seed"] = seed
        configs = tuple(_config(args, cfg, cls, seed) for cls in stage.configs)
        out = _get(args, cfg, "out", ".")
        os.makedirs(out, exist_ok=True)
        text = stage.run(values, *configs, *(os.path.join(out, name) for name in stage.outputs))
    except ConfigError as exc:
        print(f"cftmal {args.command}: config error: {args.config}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, metrics.PipelineStageError) as exc:
        print(f"cftmal {args.command}: error: {exc}", file=sys.stderr)
        return 1
    color = sys.stdout.isatty() and not os.environ.get("NO_COLOR")
    print(f"\x1b[32m{args.command}\x1b[0m: {text}" if color else f"{args.command}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
