import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cftmal
from cftmal import data, mining
from cftmal.cft import CftConfig
from cftmal.cli import _build_parser, _config, main
from cftmal.data import Corpus, write_embeddings
from cftmal.numeric import DenseLayer
from cftmal.serial import read_layers, write_layers


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main(list(argv))


def test_synth_then_ingest_preserves_bytes(tmp_path, capsys):
    out = tmp_path / "a"
    assert run("synth", "--out", str(out), "--families", "3", "--records", "10",
               "--dim", "8", "--attr-dim", "4") == 0
    first = capsys.readouterr().out
    assert "synth:" in first and "3 families" in first

    out2 = tmp_path / "b"
    assert run("ingest", "--embeddings", str(out / "embeddings.emb1"),
               "--attributes", str(out / "attributes.csv"), "--out", str(out2)) == 0
    assert sha(out / "embeddings.emb1") == sha(out2 / "embeddings.emb1")
    assert sha(out / "attributes.csv") == sha(out2 / "attributes.csv")


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run("synth", "--out", str(out), "--families", "3", "--records", "20",
                   "--dim", "8", "--attr-dim", "4", "--seed", "7") == 0
        assert run("mine", "--embeddings", str(out / "embeddings.emb1"),
                   "--out", str(out), "--seed", "7",
                   "--n-hard", "6", "--n-diverse", "4", "--threshold", "1.0") == 0
    for name in ("embeddings.emb1", "attributes.csv", "negatives.jsonl"):
        assert sha(out1 / name) == sha(out2 / name)


# synth -> mine -> samples -> train-cft -> refine in one interpreter; the
# CFT batches (32 samples of 2 + 8 rows, 32 -> 64 -> 32) are large enough
# for OpenBLAS to split their GEMMs across threads
BLAS_CHAIN = """
import sys
from cftmal.cli import main
out = sys.argv[1]
emb = out + "/embeddings.emb1"
for argv in (["synth", "--families", "3", "--records", "40", "--dim", "32", "--attr-dim", "4"],
             ["mine", "--embeddings", emb, "--n-hard", "10", "--n-diverse", "6"],
             ["samples", "--embeddings", emb, "--negatives", out + "/negatives.jsonl"],
             ["train-cft", "--embeddings", emb, "--samples", out + "/samples.jsonl",
              "--hidden-dim", "64", "--output-dim", "32", "--denominator", "in_batch"],
             ["refine", "--embeddings", emb, "--adapter", out + "/adapter.adp1"]):
    assert main(argv + ["--out", out, "--seed", "3"]) == 0, argv
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every artifact of the chain is byte-identical at 1 and 2 BLAS threads."""
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": str(Path(cftmal.__file__).parents[1]),
               **{var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}}
        subprocess.run([sys.executable, "-c", BLAS_CHAIN, str(out)], env=env, check=True,
                       capture_output=True)
        digests.append({p.name: sha(p) for p in sorted(out.iterdir())})
    assert len(digests[0]) == 7
    assert digests[0] == digests[1]


def test_rerun_into_same_out_replaces_artifacts(tmp_path):
    out = tmp_path / "m"
    assert run("synth", "--out", str(out), "--families", "3", "--records", "20",
               "--dim", "8", "--attr-dim", "4", "--seed", "7") == 0
    seen = []
    for _ in range(2):
        assert run("mine", "--embeddings", str(out / "embeddings.emb1"), "--out", str(out),
                   "--seed", "7", "--n-hard", "6", "--n-diverse", "4",
                   "--threshold", "1.0") == 0
        seen.append((sorted(p.name for p in out.iterdir()), sha(out / "negatives.jsonl")))
    assert seen[0] == seen[1]
    assert seen[0][0] == ["attributes.csv", "embeddings.emb1", "negatives.jsonl"]


def test_shortage_is_reported_with_exit_1(tmp_path, capsys):
    out = tmp_path / "s"
    assert run("synth", "--out", str(out), "--families", "2", "--records", "5",
               "--dim", "8", "--attr-dim", "4") == 0
    code = run("mine", "--embeddings", str(out / "embeddings.emb1"),
               "--out", str(out))
    err = capsys.readouterr().err
    assert code == 1
    assert f"cftmal mine: error: {out / 'embeddings.emb1'}: family 'family00': " in err
    assert not (out / "negatives.jsonl").exists()


@pytest.mark.parametrize("hard", [25, 31])
def test_samples_draws_against_the_tiers_of_the_negatives_file(tmp_path, capsys, hard):
    """`samples` sizes its draws by the tiers the file holds (30 hard here),
    not by the config's `n_hard` (20 by default), which it does not use."""
    emb, negatives = tmp_path / "embeddings.emb1", tmp_path / "negatives.jsonl"
    assert run("synth", "--out", str(tmp_path), "--families", "3", "--records", "40") == 0
    assert run("mine", "--out", str(tmp_path), "--embeddings", str(emb), "--n-hard", "30",
               "--n-diverse", "12", "--threshold", "1.0") == 0
    capsys.readouterr()
    code = run("samples", "--out", str(tmp_path), "--embeddings", str(emb),
               "--negatives", str(negatives), "--hard-per-sample", str(hard))
    err = capsys.readouterr().err
    if hard == 25:
        assert code == 0
        lines = [json.loads(ln) for ln in (tmp_path / "samples.jsonl").read_text().splitlines()]
        assert len(lines) == 3 * 40 * 4 and {len(ln["negatives"]) for ln in lines} == {25 + 3}
    else:
        assert code == 1
        assert (f"cftmal samples: error: {negatives}: family 'family00': hard tier has 30, "
                f"need 31") in err and "Traceback" not in err
        assert not (tmp_path / "samples.jsonl").exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    out = tmp_path / "c"
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text("families = 4\nrecords = 10\ndim = 8\nattr-dim = 4\n")
    assert run("synth", "--config", str(cfg), "--out", str(out)) == 0
    assert "4 families" in capsys.readouterr().out
    # flag overrides the config value
    assert run("synth", "--config", str(cfg), "--out", str(out),
               "--families", "2") == 0
    assert "2 families" in capsys.readouterr().out


def test_bad_config_exits_2(tmp_path, capsys):
    (tmp_path / "utf16.ini").write_bytes(b"\xff\xfe[synth]\n")
    for cfg in (tmp_path / "missing.ini", tmp_path / "utf16.ini"):
        code = run("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 2
        assert "cftmal synth: config error:" in err and str(cfg) in err


def test_mistyped_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text("[synth]\nfamilies = ten\n")
    code = run("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err
    assert "families = 'ten'" in err and str(cfg) in err


def test_mistyped_support_sizes_exits_2_before_reading_inputs(tmp_path, capsys):
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text("[eval]\nsupport_sizes = 5,x\n")
    code = run("eval", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--embeddings", str(tmp_path / "missing.emb1"))
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {cfg}: support_sizes = '5,x'" in err


def test_config_fields_without_a_flag_still_read_the_ini(tmp_path, capsys):
    assert _build_parser().parse_args(["maml", "--n-query", "5"]).n_query == 5
    with pytest.raises(SystemExit) as exc:
        run("eval", "--n-query", "5")
    assert exc.value.code == 2
    out = tmp_path / "q"
    common = ["--out", str(out)]
    assert run("synth", *common, "--families", "3", "--records", "40",
               "--dim", "8", "--attr-dim", "4") == 0
    assert run("maml", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--attributes", str(out / "attributes.csv"), "--meta-iterations", "1",
               "--inner-steps", "1", "--n-support", "5", "--n-query", "5",
               "--tasks-per-meta-batch", "1") == 0
    cfg = tmp_path / "pipeline.ini"
    cfg.write_text("[eval]\nn_query = 35\n")
    capsys.readouterr()
    code = run("eval", *common, "--config", str(cfg), "--embeddings", str(out / "embeddings.emb1"),
               "--attributes", str(out / "attributes.csv"), "--student", str(out / "student.fus1"),
               "--episodes", "1")
    assert code == 1
    assert (f"{out / 'embeddings.emb1'}: family 'family00' has 40 records, episode needs 45"
            in capsys.readouterr().err)


def test_stage_config_precedence_flag_then_ini_then_default():
    args = _build_parser().parse_args(["train-cft", "--lr", "0.1"])
    ccfg = _config(args, {"tau": "0.5", "lr": "0.2"}, CftConfig, seed=9)
    assert ccfg.temperature == 0.5
    assert ccfg.learning_rate == 0.1
    assert ccfg.batch_size == CftConfig().batch_size
    assert ccfg.seed == 9


def test_full_chain_small(tmp_path, capsys):
    out = tmp_path / "full"
    common = ["--out", str(out), "--seed", "3"]
    assert run("synth", *common, "--families", "3", "--records", "30",
               "--dim", "8", "--attr-dim", "4") == 0
    assert run("mine", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--n-hard", "8", "--n-diverse", "5", "--threshold", "1.0") == 0
    assert run("samples", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--negatives", str(out / "negatives.jsonl"),
               "--hard-per-sample", "3", "--diverse-per-sample", "2",
               "--samples-per-anchor", "2") == 0
    assert run("train-cft", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--samples", str(out / "samples.jsonl"),
               "--lr", "1e-3", "--hidden-dim", "16", "--output-dim", "8") == 0
    assert run("refine", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--adapter", str(out / "adapter.adp1")) == 0
    assert run("teacher", *common, "--attributes", str(out / "attributes.csv"),
               "--teacher-epochs", "3") == 0
    assert run("maml", *common, "--embeddings", str(out / "refined.emb1"),
               "--attributes", str(out / "attributes.csv"),
               "--teacher", str(out / "teacher.tch1"),
               "--meta-iterations", "2", "--inner-steps", "2",
               "--n-support", "5", "--n-query", "10",
               "--tasks-per-meta-batch", "2") == 0
    assert run("eval", *common, "--embeddings", str(out / "refined.emb1"),
               "--attributes", str(out / "attributes.csv"),
               "--student", str(out / "student.fus1"),
               "--episodes", "2", "--support-sizes", "5",
               "--inner-steps", "2") == 0
    assert run("histogram", *common, "--embeddings", str(out / "embeddings.emb1"),
               "--family", "family00") == 0
    assert run("project", *common, "--embeddings", str(out / "embeddings.emb1")) == 0
    for name in ("adapter.adp1", "cft_loss.csv", "refined.emb1", "teacher.tch1",
                 "student.fus1", "maml_history.csv", "eval.csv",
                 "histogram.csv", "projection.csv"):
        assert (out / name).exists(), name
    capsys.readouterr()


def test_ablate_rejects_unfillable_episode_at_split(tmp_path, capsys):
    # 40 records a family leave 10 for the meta-test pool; an episode needs 10 + 20
    code = run("ablate", "--out", str(tmp_path), "--seeds", "2", "--families", "4",
               "--records", "40", "--meta-iterations", "5", "--episodes", "3",
               "--teacher-epochs", "3", "--epochs", "1")
    assert code == 1
    assert ("cftmal ablate: error: stage 'split' failed: meta-test pool: "
            "family 'family00' has 10 records, episode needs 30") in capsys.readouterr().err


def test_ablate_writes_the_per_seed_table(tmp_path, capsys):
    assert run("ablate", "--out", str(tmp_path), "--seeds", "2", "--families", "3",
               "--records", "120", "--meta-iterations", "2", "--episodes", "2",
               "--teacher-epochs", "2", "--epochs", "1") == 0
    assert capsys.readouterr().out.rstrip().endswith(
        f"-> {tmp_path / 'ablation.csv'}, {tmp_path / 'ablation_seeds.csv'}")
    with open(tmp_path / "ablation.csv", newline="") as fh:
        means = list(csv.reader(fh))[1:]
    with open(tmp_path / "ablation_seeds.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["seed", "attributes_only", "pretrained_embeddings", "random_cft",
                      "similarity_cft", "similarity_minus_random"]
    assert [m[0] for m in means] == header[1:5]
    assert [r[0] for r in rows] == ["0", "1"]
    for col, m in enumerate(means, start=1):  # the aggregate is the mean of the seeds
        assert float(m[1]) == float(np.mean([float(r[col]) for r in rows]))
    for r in rows:
        assert float(r[5]) == float(r[4]) - float(r[3])


def test_histogram_requires_family(tmp_path, capsys):
    out = tmp_path / "h"
    assert run("synth", "--out", str(out), "--families", "2", "--records", "10",
               "--dim", "8", "--attr-dim", "4") == 0
    capsys.readouterr()
    code = run("histogram", "--out", str(out),
               "--embeddings", str(out / "embeddings.emb1"))
    assert code == 1
    assert "needs --family" in capsys.readouterr().err


def test_histogram_unknown_family_names_file_and_families(tmp_path, capsys):
    out = tmp_path / "h"
    assert run("synth", "--out", str(out), "--families", "2", "--records", "10",
               "--dim", "8", "--attr-dim", "4") == 0
    capsys.readouterr()
    emb = out / "embeddings.emb1"
    code = run("histogram", "--out", str(out), "--embeddings", str(emb), "--family", "nope")
    assert code == 1
    assert (f"cftmal histogram: error: {emb}: no family 'nope' (has family00, family01)"
            in capsys.readouterr().err)
    assert not (out / "histogram.csv").exists()


def test_missing_input_exits_1(tmp_path, capsys):
    code = run("refine", "--out", str(tmp_path),
               "--embeddings", str(tmp_path / "nope.emb1"),
               "--adapter", str(tmp_path / "nope.adp1"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ('{"diverse": [], "family": "family00", "threshold": 1.0}', "missing key 'hard'"),
    ('{"family": ', "Expecting value"),
    ('{"diverse": [], "family": ["family00"], "hard": [], "threshold": 1.0}',
     "family must be a string, got list"),
    ('{"diverse": [["family02-0015", 0.64], ["family02-0010", 0.52], ["family00-0017", 0.51], '
     '["family02-0003", 0.45]], "family": "family01", "hard": [["family00-0009", "x"], '
     '["family02-0005", 0.92], ["family00-0006", 0.92], ["family02-0013", 0.92], '
     '["family02-0004", 0.92], ["family02-0001", 0.91]], "threshold": 1.0}',
     "hard[0] similarity must be a number, got str"),
    ('{"diverse": [["family02-0015"]], "family": "family01", "hard": [], "threshold": 1.0}',
     "diverse[0] must be an [id, similarity] pair"),
], ids=["missing-key", "bad-json", "list-family", "string-similarity", "short-pair"])
def test_bad_negatives_row_names_file_and_line(tmp_path, capsys, line, message):
    out = tmp_path / "n"
    assert run("synth", "--out", str(out), "--families", "3", "--records", "20",
               "--dim", "8", "--attr-dim", "4") == 0
    assert run("mine", "--out", str(out), "--embeddings", str(out / "embeddings.emb1"),
               "--n-hard", "6", "--n-diverse", "4", "--threshold", "1.0") == 0
    negatives = out / "negatives.jsonl"
    rows = negatives.read_text().splitlines()
    negatives.write_text("\n".join([rows[0], line] + rows[2:]) + "\n")
    capsys.readouterr()
    code = run("samples", "--out", str(out), "--embeddings", str(out / "embeddings.emb1"),
               "--negatives", str(negatives))
    err = capsys.readouterr().err
    assert code == 1
    assert f"cftmal samples: error: {negatives}: line 2: {message}" in err


@pytest.fixture(scope="module")
def mismatched(tmp_path_factory):
    """Artifacts of small synth runs that differ in width, family count or records."""
    root = tmp_path_factory.mktemp("mismatch")
    shapes = {"a": ("3", "30", "8", "4"), "wide": ("3", "30", "16", "6"),
              "four": ("4", "30", "8", "4"), "short": ("3", "20", "8", "4")}
    for name, (families, records, dim, attr_dim) in shapes.items():
        assert run("synth", "--out", str(root / name), "--families", families,
                   "--records", records, "--dim", dim, "--attr-dim", attr_dim) == 0
    a, four = root / "a", root / "four"
    assert run("mine", "--out", str(a), "--embeddings", str(a / "embeddings.emb1"),
               "--n-hard", "6", "--n-diverse", "4", "--threshold", "1.0") == 0
    assert run("samples", "--out", str(a), "--embeddings", str(a / "embeddings.emb1"),
               "--negatives", str(a / "negatives.jsonl"), "--hard-per-sample", "3",
               "--diverse-per-sample", "2", "--samples-per-anchor", "1") == 0
    assert run("train-cft", "--out", str(a), "--embeddings", str(a / "embeddings.emb1"),
               "--samples", str(a / "samples.jsonl"), "--hidden-dim", "8",
               "--output-dim", "8") == 0
    for out in (a, four):
        assert run("teacher", "--out", str(out), "--attributes", str(out / "attributes.csv"),
                   "--teacher-epochs", "1") == 0
    assert run("maml", "--out", str(a), "--embeddings", str(a / "embeddings.emb1"),
               "--attributes", str(a / "attributes.csv"), "--meta-iterations", "1",
               "--inner-steps", "1", "--n-support", "5", "--n-query", "5",
               "--tasks-per-meta-batch", "1") == 0
    samples = (a / "samples.jsonl").read_text().splitlines()
    (a / "bad_samples.jsonl").write_text(
        "\n".join([samples[0].replace('"anchor": "family00-0000"', '"anchor": "nope"')]
                  + samples[1:]) + "\n")
    assert '"nope"' in (a / "bad_samples.jsonl").read_text()
    for name, damage in BAD_NEGATIVES.items():
        damaged = mining.negative_sets_from_jsonl(a / "negatives.jsonl")
        damage(damaged)
        mining.negative_sets_to_jsonl(a / name, damaged)
    return root


def _retag(sets, rid, *entries):
    """Put `rid` in place of the id of each of family00's tier entries, (tier, index)."""
    for name, i in entries:
        tier = getattr(sets[0], name)
        tier[i] = (rid, tier[i][1])


# negative sets that do not fit their corpus, one damage each
BAD_NEGATIVES = {
    "bad_negatives.jsonl": lambda sets: _retag(sets, "ghost-record", ("hard", 0)),
    "own_negatives.jsonl": lambda sets: _retag(sets, "family00-0003", ("diverse", 1)),
    "repeated_negatives.jsonl": lambda sets: _retag(sets, "family01-0005", ("hard", 0),
                                                    ("diverse", 0)),
    "twice_negatives.jsonl": lambda sets: sets.append(sets[0]),
    "stray_negatives.jsonl": lambda sets: setattr(sets[1], "family", "family07"),
}


# (stage, its inputs as (flag, synth run, file), the two files the error names, detail)
MISMATCHES = {
    "samples-unknown-negative": (
        "samples", [("embeddings", "a", "embeddings.emb1"), ("negatives", "a", "bad_negatives.jsonl")],
        ["negatives", "embeddings"], "family family00: no record 'ghost-record'"),
    "samples-own-family-negative": (
        "samples", [("embeddings", "a", "embeddings.emb1"), ("negatives", "a", "own_negatives.jsonl")],
        ["negatives", "embeddings"],
        "family family00: record 'family00-0003' is of the set's own family"),
    "samples-repeated-negative": (
        "samples", [("embeddings", "a", "embeddings.emb1"),
                    ("negatives", "a", "repeated_negatives.jsonl")],
        ["negatives", "embeddings"], "family family00: record 'family01-0005' is listed twice"),
    "samples-family-twice": (
        "samples", [("embeddings", "a", "embeddings.emb1"), ("negatives", "a", "twice_negatives.jsonl")],
        ["negatives", "embeddings"], "family family00: more than one negative set"),
    "samples-unknown-family": (
        "samples", [("embeddings", "a", "embeddings.emb1"), ("negatives", "a", "stray_negatives.jsonl")],
        ["negatives", "embeddings"], "negative set for unknown family 'family07'"),
    "train-cft-unknown-record": (
        "train-cft", [("embeddings", "a", "embeddings.emb1"), ("samples", "a", "bad_samples.jsonl")],
        ["samples", "embeddings"], "sample 1: no record 'nope'"),
    "refine-width": (
        "refine", [("embeddings", "wide", "embeddings.emb1"), ("adapter", "a", "adapter.adp1")],
        ["adapter", "embeddings"], "input width 8 in the adapter, 16 in the embeddings"),
    "maml-teacher-classes": (
        "maml", [("embeddings", "a", "embeddings.emb1"), ("attributes", "a", "attributes.csv"),
                 ("teacher", "four", "teacher.tch1")],
        ["teacher", "embeddings"], "class count 4 in the model, 3 in the input"),
    "maml-teacher-attribute-width": (
        "maml", [("embeddings", "a", "embeddings.emb1"), ("attributes", "wide", "attributes.csv"),
                 ("teacher", "a", "teacher.tch1")],
        ["teacher", "attributes"], "attribute width 4 in the model, 6 in the input"),
    "maml-missing-attribute-rows": (
        "maml", [("embeddings", "a", "embeddings.emb1"), ("attributes", "short", "attributes.csv")],
        ["attributes", "embeddings"], "record 'family00-0020' has no attribute row"),
    "eval-student-width": (
        "eval", [("embeddings", "wide", "embeddings.emb1"), ("attributes", "a", "attributes.csv"),
                 ("student", "a", "student.fus1")],
        ["student", "embeddings"], "embedding width 8 in the model, 16 in the input"),
    "eval-student-classes": (
        "eval", [("embeddings", "four", "embeddings.emb1"), ("attributes", "four", "attributes.csv"),
                 ("student", "a", "student.fus1")],
        ["student", "embeddings"], "class count 3 in the model, 4 in the input"),
    "ingest-attribute-families": (
        "ingest", [("embeddings", "a", "embeddings.emb1"), ("attributes", "four", "attributes.csv")],
        ["attributes", "embeddings"], "families family00, family01, family02, family03 in the "
                                      "attributes, family00, family01, family02 in the embeddings"),
    "ingest-missing-attribute-rows": (
        "ingest", [("embeddings", "a", "embeddings.emb1"), ("attributes", "short", "attributes.csv")],
        ["attributes", "embeddings"], "record 'family00-0020' has no attribute row"),
}


# --- damaged mining files: the stage that reads one exits 0, 1 or 2, and a
# failure names the file and writes nothing

# JSON values of every type, one of which replaces a value of another type
JSON_VALUES = ["null", "true", "0", "1.5", '"x"', "[]", "{}"]
STRAY_IDS = ["ghost-record", "family00-0003", "family01-0005", "family02-0011"]


def _value_slots(obj):
    """(container, key) of every value nested in a parsed JSON line."""
    slots = []
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        slots.append((obj, key))
        if isinstance(value, (dict, list)):
            slots += _value_slots(value)
    return slots


def _id_slots(line, name):
    """(container, key) of each record id of a negatives line (a tier entry,
    [id, similarity]) or of a samples line (the id itself)."""
    if name == "negatives.jsonl":
        return [(line[tier], i) for tier in ("hard", "diverse") for i in range(len(line[tier]))]
    return [(line, "anchor"), (line, "positive")] + [(line["negatives"], i)
                                                     for i in range(len(line["negatives"]))]


def _damage(raw, name, damage, draw):
    """`raw` truncated, with one byte flipped or appended, or with one line's
    value retyped or one of its ids dropped or renamed."""
    if damage == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if damage == "flip":
        pos = draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([raw[pos] ^ draw(st.integers(1, 255))]) + raw[pos + 1 :]
    if damage == "append":
        return raw + bytes([draw(st.integers(0, 255))])
    lines = [json.loads(ln) for ln in raw.splitlines()]
    line = lines[draw(st.integers(0, len(lines) - 1))]
    if damage == "retype":
        holder, key = draw(st.sampled_from(_value_slots(line)))
        values = [json.loads(v) for v in JSON_VALUES]
        holder[key] = draw(st.sampled_from([v for v in values if type(v) is not type(holder[key])]))
    else:
        holder, key = draw(st.sampled_from(_id_slots(line, name)))
        if damage == "drop":
            del holder[key]
        elif name == "negatives.jsonl":
            holder[key][0] = draw(st.sampled_from(STRAY_IDS))
        else:
            holder[key] = draw(st.sampled_from(STRAY_IDS))
    return "".join(json.dumps(ln, sort_keys=True) + "\n" for ln in lines).encode("utf-8")


@pytest.fixture(scope="module")
def damage_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("damage")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(["negatives.jsonl", "samples.jsonl"]),
       damage=st.sampled_from(["truncate", "flip", "retype", "drop", "rename"]), data=st.data())
def test_damaged_mining_file_exits_cleanly_naming_it(mismatched, damage_dir, name, damage, data):
    a = mismatched / "a"
    path, out = damage_dir / name, damage_dir / "out"
    path.write_bytes(_damage((a / name).read_bytes(), name, damage, data.draw))
    shutil.rmtree(out, ignore_errors=True)
    if name == "negatives.jsonl":
        # draws of whole tiers: a tier one id short cannot fill them
        argv = ["samples", "--negatives", str(path), "--hard-per-sample", "6",
                "--diverse-per-sample", "4", "--samples-per-anchor", "1"]
    else:
        argv = ["train-cft", "--samples", str(path), "--hidden-dim", "8", "--output-dim", "8"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--embeddings", str(a / "embeddings.emb1"), "--out", str(out)])
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err.getvalue() and str(path) in err.getvalue(), err.getvalue()
        assert list(out.iterdir()) == []


# the stage that reads each checkpoint, with the flag that names it and the
# other inputs of the module's small chain it takes
CHECKPOINT_READERS = {
    "adapter.adp1": ["refine", "--embeddings", "embeddings.emb1", "--adapter"],
    "teacher.tch1": ["maml", "--embeddings", "embeddings.emb1", "--attributes", "attributes.csv",
                     "--order", "second", "--meta-iterations", "1", "--inner-steps", "1",
                     "--n-support", "5", "--n-query", "5", "--tasks-per-meta-batch", "1",
                     "--teacher"],
    "student.fus1": ["eval", "--embeddings", "embeddings.emb1", "--attributes", "attributes.csv",
                     "--episodes", "1", "--inner-steps", "1", "--support-sizes", "5", "--student"],
}


@settings(max_examples=45, deadline=None, derandomize=True)
@given(name=st.sampled_from(list(CHECKPOINT_READERS)),
       damage=st.sampled_from(["truncate", "flip", "append"]), data=st.data())
def test_damaged_checkpoint_exits_cleanly_naming_it(mismatched, damage_dir, name, damage, data):
    a = mismatched / "a"
    path, out = damage_dir / name, damage_dir / "out"
    path.write_bytes(_damage((a / name).read_bytes(), name, damage, data.draw))
    shutil.rmtree(out, ignore_errors=True)
    stage, *argv = CHECKPOINT_READERS[name]
    argv = [str(a / arg) if arg.endswith((".emb1", ".csv")) else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a weight whose exponent was flipped
        code = main([stage, *argv, str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err.getvalue() and str(path) in err.getvalue(), err.getvalue()
        assert list(out.iterdir()) == []


# the stages that read the embeddings or the attribute table, with the
# files of the module's small chain each takes beside the damaged one
TABLE_READERS = {
    "teacher": ["teacher", "--teacher-epochs", "1"],
    "maml": ["maml", "--order", "second", "--meta-iterations", "1", "--inner-steps", "1",
             "--n-support", "5", "--n-query", "5", "--tasks-per-meta-batch", "1",
             "--teacher", "teacher.tch1"],
    "eval": ["eval", "--episodes", "1", "--inner-steps", "1", "--support-sizes", "5",
             "--student", "student.fus1"],
}
TABLES = {"embeddings.emb1": "--embeddings", "attributes.csv": "--attributes"}


def _table_stage(a, stage, tables):
    """The argv of `stage` on the small chain in `a`, reading the files of
    `tables` (name -> path) in place of the chain's own."""
    _, *argv = TABLE_READERS[stage]
    argv = [str(a / arg) if arg.endswith((".tch1", ".fus1")) else arg for arg in argv]
    for name in ["attributes.csv"] if stage == "teacher" else TABLES:  # the teacher reads one
        argv += [TABLES[name], str(tables.get(name, a / name))]
    return [stage, *argv]


@settings(max_examples=45, deadline=None, derandomize=True)
@given(read=st.sampled_from([(name, stage) for name in TABLES for stage in TABLE_READERS
                             if (name, stage) != ("embeddings.emb1", "teacher")]),
       damage=st.sampled_from(["truncate", "flip", "append"]), data=st.data())
def test_damaged_table_exits_cleanly_naming_it(mismatched, damage_dir, read, damage, data):
    a = mismatched / "a"
    name, stage = read
    path, out = damage_dir / name, damage_dir / "out"
    path.write_bytes(_damage((a / name).read_bytes(), name, damage, data.draw))
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a value whose exponent was flipped
        code = main(_table_stage(a, stage, {name: path}) + ["--out", str(out)])
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err.getvalue() and str(path) in err.getvalue(), err.getvalue()
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("stage", ["teacher", "maml", "eval"])
@pytest.mark.parametrize("value", ["1e39", "-2e45"])
def test_attribute_not_finite_as_float32_exits_1_naming_its_row(mismatched, tmp_path, capsys,
                                                                stage, value):
    """Finite as float64, infinite in the float32 models that read the table."""
    a = mismatched / "a"
    lines = (a / "attributes.csv").read_text().splitlines()
    fields = lines[4].split(",")
    lines[4] = ",".join(fields[:-1] + [value])
    attrs, out = tmp_path / "attributes.csv", tmp_path / "out"
    attrs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(*_table_stage(a, stage, {"attributes.csv": attrs}), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert (f"cftmal {stage}: error: {attrs}: row 5 ({fields[0]!r}): non-finite value as float32"
            in err and "Traceback" not in err)
    assert list(out.iterdir()) == []


def test_maml_diverging_on_its_inputs_names_them(mismatched, tmp_path, capsys):
    """Large but finite embedding values drive the inner SGD past float32."""
    a = mismatched / "a"
    corpus = data.load_embeddings(a / "embeddings.emb1")
    vectors = corpus.vectors.copy()
    vectors[:, 0] = 1e30
    emb = tmp_path / "embeddings.emb1"
    write_embeddings(emb, Corpus.from_columns(corpus.ids, [corpus.families[i] for i in corpus.labels],
                                              vectors))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*_table_stage(a, "maml", {"embeddings.emb1": emb}), "--out", str(out)) == 1
    assert capsys.readouterr().err == (f"cftmal maml: error: {emb} and {a / 'attributes.csv'}: "
                                       "meta-iteration 0: non-finite meta-gradient "
                                       "at --inner-lr 0.01, --meta-lr 0.001\n")
    assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def default_chain(tmp_path_factory):
    """synth --families 3 --records 40, then mine and samples at their defaults."""
    out = tmp_path_factory.mktemp("chain")
    emb = str(out / "embeddings.emb1")
    for argv in (["synth", "--families", "3", "--records", "40"],
                 ["mine", "--embeddings", emb],
                 ["samples", "--embeddings", emb, "--negatives", str(out / "negatives.jsonl")]):
        assert run(*argv, "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("argv, error", [
    (["train-cft", "--tau", "1e-30"],
     "epoch 0, batch 0: non-finite loss or gradient at --tau 1e-30, --lr 1e-05"),
    (["train-cft", "--lr", "1e3", "--epochs", "3"],
     "epoch 1, batch 2: non-finite loss or gradient at --tau 0.07, --lr 1000"),
    (["teacher", "--teacher-lr", "1e6", "--teacher-epochs", "3"],
     "epoch 1, batch 1: non-finite loss or gradient at --teacher-lr 1e+06"),
    (["maml", "--meta-lr", "1e6", "--meta-iterations", "2"],
     "meta-iteration 1: non-finite meta-gradient at --inner-lr 0.01, --meta-lr 1e+06"),
    (["maml", "--inner-lr", "1e6", "--meta-iterations", "1"],
     "meta-iteration 0: non-finite meta-gradient at --inner-lr 1e+06, --meta-lr 0.001"),
], ids=["tau", "lr", "teacher-lr", "meta-lr", "inner-lr"])
def test_diverging_training_names_its_step_settings_and_inputs(default_chain, tmp_path, capsys,
                                                               argv, error):
    """One error line naming the inputs, the step that diverged and the
    settings that drove it there; nothing written."""
    stage, *options = argv
    inputs = {"train-cft": ["embeddings.emb1", "samples.jsonl"], "teacher": ["attributes.csv"],
              "maml": ["embeddings.emb1", "attributes.csv"]}[stage]
    flags = [a for name in inputs
             for a in ({**TABLES, "samples.jsonl": "--samples"}[name], str(default_chain / name))]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(stage, *flags, *options, "--out", str(out)) == 1
    named = " and ".join(str(default_chain / name) for name in inputs)
    assert capsys.readouterr().err == f"cftmal {stage}: error: {named}: {error}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("keep", [4, 0], ids=["short", "empty"])
def test_ragged_samples_line_names_file_and_line(mismatched, tmp_path, capsys, keep):
    """Every samples line lists the first line's number of negatives, at least one."""
    a = mismatched / "a"
    lines = [json.loads(ln) for ln in (a / "samples.jsonl").read_text().splitlines()]
    lines[2]["negatives"] = lines[2]["negatives"][:keep]
    path = tmp_path / "ragged.jsonl"
    path.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in lines))
    capsys.readouterr()
    assert run("train-cft", "--out", str(tmp_path), "--embeddings", str(a / "embeddings.emb1"),
               "--samples", str(path), "--hidden-dim", "8", "--output-dim", "8") == 1
    detail = "4 negatives, the first sample has 5" if keep else "negatives is empty"
    assert f"cftmal train-cft: error: {path}: line 3: {detail}" in capsys.readouterr().err
    assert not (tmp_path / "adapter.adp1").exists()


@pytest.mark.parametrize("stage, options, output", [
    ("maml", ["--n-support", "25"], "student.fus1"),
    ("eval", ["--support-sizes", "1,25"], "eval.csv"),
], ids=["maml", "eval"])
def test_episode_too_large_names_embeddings_and_family(mismatched, tmp_path, capsys,
                                                      stage, options, output):
    """30 records a family cannot fill an episode of 25 support + 20 query rows."""
    a = mismatched / "a"
    emb = a / "embeddings.emb1"
    student = ["--student", str(a / "student.fus1")] if stage == "eval" else []
    capsys.readouterr()
    assert run(stage, "--out", str(tmp_path), "--embeddings", str(emb),
               "--attributes", str(a / "attributes.csv"), *student, *options) == 1
    assert (f"cftmal {stage}: error: {emb}: family 'family00' has 30 records, episode needs 45"
            in capsys.readouterr().err)
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("case", list(MISMATCHES))
def test_mismatched_inputs_exit_1_naming_both_files(mismatched, tmp_path, capsys, case):
    stage, inputs, named, detail = MISMATCHES[case]
    paths = {flag: str(mismatched / run_dir / name) for flag, run_dir, name in inputs}
    argv = [stage, "--out", str(tmp_path)]
    for flag, path in paths.items():
        argv += [f"--{flag}", path]
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    assert code == 1
    first, second = (paths[flag] for flag in named)
    assert f"cftmal {stage}: error: {first} does not fit {second}: {detail}" in err
    assert list(tmp_path.iterdir()) == []  # rejected before any output is written


@pytest.mark.parametrize("stage, inputs, count, option, output", [
    ("train-cft", ["embeddings", "samples"], ["--epochs", "0"], "epochs", "adapter.adp1"),
    ("teacher", ["attributes"], ["--teacher-epochs", "0"], "teacher_epochs", "teacher.tch1"),
    ("maml", ["embeddings", "attributes"], ["--meta-iterations", "0"], "meta_iterations",
     "student.fus1"),
    ("eval", ["embeddings", "attributes", "student"], ["--episodes", "0"], "episodes", "eval.csv"),
    ("ablate", [], ["--seeds", "0"], "seeds", "ablation.csv"),
    ("maml", ["embeddings", "attributes"], ["--n-query", "0"], "n_query", "student.fus1"),
    ("maml", ["embeddings", "attributes"], ["--n-support", "0"], "n_support", "student.fus1"),
    ("eval", ["embeddings", "attributes", "student"], ["--support-sizes", "5,0"], "support_sizes",
     "eval.csv"),
    ("samples", ["embeddings", "negatives"], ["--samples-per-anchor", "0"], "samples_per_anchor",
     "samples.jsonl"),
    ("samples", ["embeddings", "negatives"], ["--samples-per-anchor", "-1"], "samples_per_anchor",
     "samples.jsonl"),
    ("samples", ["embeddings", "negatives"], ["--hard-per-sample", "-1"],
     "negatives_hard_per_sample", "samples.jsonl"),
    # one sample per anchor fits a 0 + 0 draw, which train-cft would then reject
    ("samples", ["embeddings", "negatives"],
     ["--hard-per-sample", "0", "--diverse-per-sample", "0", "--samples-per-anchor", "1"],
     "negatives_hard_per_sample + negatives_diverse_per_sample", "samples.jsonl"),
    ("mine", ["embeddings"], ["--n-hard", "-1"], "n_hard", "negatives.jsonl"),
    ("train-cft", ["embeddings", "samples"], ["--hidden-dim", "0"], "hidden_dim", "adapter.adp1"),
    ("train-cft", ["embeddings", "samples"], ["--output-dim", "0"], "output_dim", "adapter.adp1"),
    # rates and temperatures must be finite and > 0 (a weight decay or meta rate >= 0)
    ("train-cft", ["embeddings", "samples"], ["--lr", "nan"], "learning_rate", "adapter.adp1"),
    ("train-cft", ["embeddings", "samples"], ["--lr", "-1"], "learning_rate", "adapter.adp1"),
    ("train-cft", ["embeddings", "samples"], ["--tau", "nan"], "temperature", "adapter.adp1"),
    ("train-cft", ["embeddings", "samples"], ["--weight-decay", "nan"], "weight_decay",
     "adapter.adp1"),
    ("teacher", ["attributes"], ["--teacher-lr", "nan"], "teacher_lr", "teacher.tch1"),
    ("teacher", ["attributes"], ["--teacher-lr", "-1"], "teacher_lr", "teacher.tch1"),
    ("maml", ["embeddings", "attributes"], ["--inner-lr", "nan"], "inner_lr", "student.fus1"),
    ("maml", ["embeddings", "attributes"], ["--meta-lr", "nan"], "meta_lr", "student.fus1"),
    ("maml", ["embeddings", "attributes", "teacher"], ["--kd-temperature", "nan"],
     "kd_temperature", "student.fus1"),
    ("synth", [], ["--cluster-spread", "nan"], "cluster_spread", "embeddings.emb1"),
], ids=["train-cft", "teacher", "maml", "eval", "ablate", "maml-n-query", "maml-n-support",
        "eval-support-sizes", "samples-per-anchor", "samples-per-anchor-negative",
        "samples-hard-per-sample-negative", "samples-no-negatives", "mine-n-hard-negative",
        "train-cft-hidden-dim", "train-cft-output-dim",
        "train-cft-lr-nan", "train-cft-lr-negative", "train-cft-tau-nan",
        "train-cft-weight-decay-nan", "teacher-lr-nan", "teacher-lr-negative", "maml-inner-lr-nan",
        "maml-meta-lr-nan", "maml-kd-temperature-nan", "synth-cluster-spread-nan"])
def test_zero_loop_count_exits_1_before_writing(mismatched, tmp_path, capsys,
                                                stage, inputs, count, option, output):
    files = {"embeddings": "embeddings.emb1", "samples": "samples.jsonl",
             "attributes": "attributes.csv", "student": "student.fus1",
             "negatives": "negatives.jsonl", "teacher": "teacher.tch1"}
    argv = [stage, "--out", str(tmp_path), *count]
    for flag in inputs:
        argv += [f"--{flag}", str(mismatched / "a" / files[flag])]
    (tmp_path / output).write_bytes(b"earlier run")
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"cftmal {stage}: error: {option} must" in err and "Traceback" not in err
    assert (tmp_path / output).read_bytes() == b"earlier run"


@pytest.mark.parametrize("case", ["train-cft-lr-1e200", "ingest-1e39"])
def test_values_past_float32_exit_1_keeping_the_old_file(mismatched, tmp_path, capsys, case):
    """A value past float32 fails the stage and leaves the earlier artifact
    whole, where the reader would have rejected the new one: the writer
    refuses it, or training stops at the update that reached it."""
    a = mismatched / "a"
    if case == "train-cft-lr-1e200":
        argv = ["train-cft", "--embeddings", str(a / "embeddings.emb1"),
                "--samples", str(a / "samples.jsonl"), "--lr", "1e200",
                "--hidden-dim", "8", "--output-dim", "8"]
        output = "adapter.adp1"
        error = (f"{a / 'embeddings.emb1'} and {a / 'samples.jsonl'}: epoch 0, batch 0: "
                 "non-finite parameters after the update at --tau 0.07, --lr 1e+200")
    else:
        csv_path = tmp_path / "big.csv"
        csv_path.write_text("id,family,x0,x1\nr0,f0,1.0,2.0\nr1,f1,1e39,0.5\n")
        argv = ["ingest", "--embeddings", str(csv_path)]
        output = "embeddings.emb1"
        error = f"{tmp_path / output}: record 1 ('r1'): non-finite value as float32"
    path = tmp_path / output
    path.write_bytes(b"earlier run")
    capsys.readouterr()
    assert run(*argv, "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == f"cftmal {argv[0]}: error: {error}\n"
    assert path.read_bytes() == b"earlier run"
    assert not (tmp_path / f"{output}.part").exists()


def test_mine_rejects_embeddings_without_records(tmp_path, capsys):
    path = tmp_path / "empty.emb1"
    write_embeddings(path, Corpus([], 8))
    capsys.readouterr()
    assert run("mine", "--out", str(tmp_path), "--embeddings", str(path)) == 1
    assert f"cftmal mine: error: {path}: no records" in capsys.readouterr().err
    assert not (tmp_path / "negatives.jsonl").exists()


@pytest.mark.parametrize("stage", ["teacher", "maml"])
def test_attributes_without_records_exit_1_naming_the_file(tmp_path, capsys, stage):
    assert run("synth", "--out", str(tmp_path), "--families", "3", "--records", "10",
               "--dim", "8", "--attr-dim", "4") == 0
    path = tmp_path / "empty.csv"
    path.write_text("id,family,f0,f1,f2,f3\n")
    inputs = {"teacher": ["--attributes", str(path)],
              "maml": ["--embeddings", str(tmp_path / "embeddings.emb1"),
                       "--attributes", str(path), "--meta-iterations", "1"]}[stage]
    capsys.readouterr()
    assert run(stage, "--out", str(tmp_path), *inputs) == 1
    assert f"cftmal {stage}: error: {path}: no records" in capsys.readouterr().err
    output = {"teacher": "teacher.tch1", "maml": "student.fus1"}[stage]
    assert not (tmp_path / output).exists()


def _taking(layer, width):
    """`layer` with its weights reshaped to take `width` inputs."""
    return DenseLayer(np.zeros((layer.out_dim, width)), layer.bias, layer.activation)


def _overflowing(layers):
    """`layers` with one first-layer weight near the float32 maximum: finite,
    so the reader takes it, but the logits overflow."""
    layers[0].weights[0, 0] = 3e38
    return layers


def _diverging(layers):
    """`layers` with one first-layer weight of 1e30: the logits are finite at
    load, but one inner step on a support set makes the query logits overflow."""
    layers[0].weights[0, 0] = 1e30
    return layers


# (stage, the checkpoint's flag and file, the edit of its layers, the other
# inputs, the output the stage must not write, detail)
BAD_CHECKPOINTS = {
    "adapter-3-layers": (
        "refine", "adapter", "adapter.adp1", lambda ls: ls + ls[-1:], ["embeddings"],
        "refined.emb1", "expected 2 layers in a ADP1 checkpoint, got 3"),
    "adapter-widths": (
        "refine", "adapter", "adapter.adp1", lambda ls: [ls[0], _taking(ls[1], 12)],
        ["embeddings"], "refined.emb1",
        "branch output widths [8] do not add up to the head input width 12"),
    "student-widths": (
        "eval", "student", "student.fus1", lambda ls: ls[:3] + [_taking(ls[3], 200), ls[4]],
        ["embeddings", "attributes"], "eval.csv",
        "branch output widths [128, 128] do not add up to the head input width 200"),
    "teacher-widths": (
        "maml", "teacher", "teacher.tch1", lambda ls: [ls[0], _taking(ls[1], 100), ls[2]],
        ["embeddings", "attributes"], "student.fus1", "layer 1 takes 100 inputs, layer 0 gives 256"),
    "teacher-overflow": (
        "maml", "teacher", "teacher.tch1", _overflowing, ["embeddings", "attributes"],
        "student.fus1", "non-finite logits on record "),
    "student-overflow": (
        "eval", "student", "student.fus1", _overflowing, ["embeddings", "attributes"],
        "eval.csv", "non-finite logits on record "),
    "student-diverging": (
        "eval", "student", "student.fus1", _diverging, ["embeddings", "attributes"],
        "eval.csv", "10-shot episode 0: non-finite query logits after 5 inner steps on "),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
def test_bad_checkpoint_layout_exits_1_naming_the_file(mismatched, tmp_path, capsys, case):
    stage, flag, name, edit, inputs, output, detail = BAD_CHECKPOINTS[case]
    good = mismatched / "a" / name
    magic = good.read_bytes()[:4]
    bad = tmp_path / name
    write_layers(bad, magic, edit(read_layers(good, magic)))
    files = {"embeddings": "embeddings.emb1", "attributes": "attributes.csv"}
    argv = [stage, "--out", str(tmp_path), f"--{flag}", str(bad)]
    for other in inputs:
        argv += [f"--{other}", str(mismatched / "a" / files[other])]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert f"cftmal {stage}: error: {bad}: {detail}" in err and "Traceback" not in err
    assert not (tmp_path / output).exists()
