import numpy as np
import pytest

from cftmal.cft import init_adapter, refine
from cftmal.data import (
    Corpus,
    DescriptionRecord,
    FormatError,
    SyntheticSpec,
    generate_synthetic,
    load_attributes,
    load_embeddings,
    split_meta,
    write_attributes,
    write_csv,
    write_embeddings,
    write_jsonl,
)
from cftmal.meta import MamlConfig
from cftmal.metrics import AblationSettings, run_pipeline


def small_corpus(rng, n=6, d=4):
    records = [
        DescriptionRecord(f"r{i}", f"fam{i % 2}",
                          rng.standard_normal(d).astype(np.float32).astype(np.float64))
        for i in range(n)
    ]
    return Corpus(records, d)


def test_corpus_indexes():
    rng = np.random.default_rng(0)
    corpus = small_corpus(rng)
    assert corpus.families == ["fam0", "fam1"]
    assert corpus.class_index() == {"fam0": 0, "fam1": 1}
    assert len(corpus.by_family()["fam0"]) == 3
    assert corpus.records[corpus.rows["r3"]].family == "fam1"


def test_corpus_row_layout(tmp_path):
    rng = np.random.default_rng(7)
    corpus = small_corpus(rng, n=7, d=3)
    assert corpus.vectors.shape == (7, 3) and corpus.vectors.dtype == np.float64
    for i, r in enumerate(corpus.records):
        np.testing.assert_array_equal(corpus.vectors[i], r.vector)
    assert corpus.rows == {f"r{i}": i for i in range(7)}
    assert corpus.labels.tolist() == [i % 2 for i in range(7)]
    with pytest.raises(ValueError, match="read-only"):
        corpus.vectors[0, 0] = 1.0
    path = tmp_path / "c.emb1"
    write_embeddings(path, corpus)
    back = load_embeddings(path)
    assert back.rows == corpus.rows
    np.testing.assert_array_equal(back.labels, corpus.labels)
    np.testing.assert_array_equal(back.vectors, corpus.vectors)
    assert Corpus([], 3).vectors.shape == (0, 3)


def test_corpus_rejects_family_outside_given_families():
    rng = np.random.default_rng(0)
    records = small_corpus(rng).records
    with pytest.raises(FormatError, match="record 'r1': family 'fam1' is not a corpus family"):
        Corpus(records, 4, families=["fam0"])


def test_corpus_dim_mismatch():
    rec = DescriptionRecord("a", "f", np.zeros(3))
    with pytest.raises(FormatError):
        Corpus([rec], 4)


def test_corpus_rejects_duplicate_ids():
    rng = np.random.default_rng(0)
    records = small_corpus(rng).records
    records[4] = DescriptionRecord("r1", "fam0", records[4].vector)
    with pytest.raises(FormatError, match="duplicate record id 'r1' at rows 1 and 4"):
        Corpus(records, 4)


def test_records_are_read_only_views_of_the_one_matrix(tmp_path):
    """Every producer stores each row once, in `vectors`: a record's vector is
    a read-only view of its row, made when `records` is read."""
    corpus = small_corpus(np.random.default_rng(3))
    write_embeddings(tmp_path / "c.emb1", corpus)
    write_csv(tmp_path / "c.csv", ["id", "family", "v0", "v1", "v2", "v3"],
              ([r.id, r.family] + [repr(v) for v in r.vector.tolist()] for r in corpus.records))
    write_attributes(tmp_path / "a.csv", corpus)
    synth, attrs = generate_synthetic(SyntheticSpec(n_families=2, records_per_family=8,
                                                    embedding_dim=4, attribute_dim=3))
    (train_c, train_a), (test_c, test_a) = split_meta(synth, attrs, 0.25, seed=0)
    produced = {
        "Corpus(records, dim)": corpus,
        "load_embeddings EMB1": load_embeddings(tmp_path / "c.emb1"),
        "load_embeddings CSV": load_embeddings(tmp_path / "c.csv"),
        "load_attributes": load_attributes(tmp_path / "a.csv"),
        "generate_synthetic corpus": synth,
        "generate_synthetic attributes": attrs,
        "split_meta train corpus": train_c,
        "split_meta train attributes": train_a,
        "split_meta meta-test corpus": test_c,
        "split_meta meta-test attributes": test_a,
        "refine": refine(init_adapter(4, 8, 4, seed=0), synth),
    }
    for name, c in produced.items():
        records = c.records
        assert len(records) == len(c) > 0, name
        for i, r in enumerate(records):
            assert np.shares_memory(r.vector, c.vectors), (name, i)
            assert not r.vector.flags.writeable, (name, i)
            np.testing.assert_array_equal(r.vector, c.vectors[i])
            assert (r.id, r.family) == (c.ids[i], c.families[c.labels[i]])


def test_emb1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    corpus = small_corpus(rng)
    path = tmp_path / "c.emb1"
    write_embeddings(path, corpus)
    back = load_embeddings(path)
    assert back.dim == corpus.dim
    assert [r.id for r in back.records] == [r.id for r in corpus.records]
    assert [r.family for r in back.records] == [r.family for r in corpus.records]
    for a, b in zip(corpus.records, back.records):
        np.testing.assert_array_equal(a.vector, b.vector)


def test_emb1_bad_magic(tmp_path):
    from cftmal.data import _read_emb1

    path = tmp_path / "bad.emb1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        _read_emb1(path)


def test_emb1_without_records_is_rejected(tmp_path):
    path = tmp_path / "empty.emb1"
    write_embeddings(path, Corpus([], 3))
    assert len(path.read_bytes()) == 12  # the bare header
    with pytest.raises(FormatError, match=f"^{path}: no records$"):
        load_embeddings(path)


def test_emb1_truncated_payload(tmp_path):
    rng = np.random.default_rng(2)
    corpus = small_corpus(rng)
    path = tmp_path / "c.emb1"
    write_embeddings(path, corpus)
    clipped = path.read_bytes()[:20]
    bad = tmp_path / "t.emb1"
    bad.write_bytes(clipped)
    with pytest.raises(FormatError, match="truncated"):
        load_embeddings(bad)


def test_emb1_trailer_count_mismatch(tmp_path):
    rng = np.random.default_rng(3)
    corpus = small_corpus(rng)
    path = tmp_path / "c.emb1"
    write_embeddings(path, corpus)
    raw = path.read_bytes()
    cut = raw[: raw.rfind(b'{"family"')]
    bad = tmp_path / "m.emb1"
    bad.write_bytes(cut)
    with pytest.raises(FormatError, match="trailer"):
        load_embeddings(bad)


@pytest.mark.parametrize("line", [b"5", b'"id family"'])
def test_emb1_trailer_line_must_be_an_object(tmp_path, line):
    rng = np.random.default_rng(3)
    path = tmp_path / "c.emb1"
    write_embeddings(path, small_corpus(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.rfind(b'{"family"')] + line + b"\n")
    with pytest.raises(FormatError, match=f"^{path}: trailer line 5: "):
        load_embeddings(path)


def test_csv_embeddings(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("id,family,v0,v1\nr1,famA,1.0,2.0\nr2,famB,3.0,4.0\n")
    corpus = load_embeddings(path)
    assert corpus.dim == 2
    np.testing.assert_allclose(corpus.records[1].vector, [3.0, 4.0])


def test_csv_embeddings_rejects_bad_rows(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("id,family,v0\nr1,famA,1.0,9.0\n")
    with pytest.raises(FormatError, match="columns"):
        load_embeddings(path)
    path.write_text("id,family,v0\nr1,famA,nan\n")
    with pytest.raises(FormatError, match="non-finite"):
        load_embeddings(path)


def test_attributes_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    table = Corpus([DescriptionRecord(f"r{i}", "fam", rng.standard_normal(3)) for i in range(4)], 3)
    path = tmp_path / "a.csv"
    write_attributes(path, table)
    back = load_attributes(path)
    assert [a.id for a in back.records] == [a.id for a in table.records]
    for a, b in zip(table.records, back.records):
        np.testing.assert_allclose(a.vector, b.vector)


def test_attributes_reject_duplicate_ids(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,family,f0\nr1,A,1.0\nr2,A,3.0\nr1,B,2.0\n")
    with pytest.raises(FormatError, match=f"^{path}: duplicate id 'r1' at rows 2 and 4$"):
        load_attributes(path)


def test_attributes_missing_column(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,f0\nr1,1.0\n")
    with pytest.raises(FormatError, match="family"):
        load_attributes(path)


def test_generate_synthetic_shape_and_determinism():
    spec = SyntheticSpec(n_families=4, records_per_family=50, embedding_dim=16,
                         attribute_dim=8, seed=9)
    c1, a1 = generate_synthetic(spec)
    c2, a2 = generate_synthetic(spec)
    assert len(c1) == 200 and c1.dim == 16
    assert len(a1) == 200 and a1.dim == 8 and a1.vectors.shape == (200, 8)
    assert len(c1.families) == 4
    for r1, r2 in zip(c1.records, c2.records):
        np.testing.assert_array_equal(r1.vector, r2.vector)
    c3, _ = generate_synthetic(SyntheticSpec(4, 50, 16, 8, seed=10))
    assert any(
        not np.array_equal(x.vector, y.vector) for x, y in zip(c1.records, c3.records)
    )


def test_generate_synthetic_families_separate():
    spec = SyntheticSpec(n_families=3, records_per_family=60, embedding_dim=32, seed=5)
    corpus, _ = generate_synthetic(spec)
    from cftmal.metrics import embedding_quality

    report = embedding_quality(corpus)
    assert report.gap > 0.05  # family structure must be present


def test_generate_synthetic_validation():
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(n_families=0))
    with pytest.raises(ValueError):
        generate_synthetic(SyntheticSpec(inter_cluster_overlap=1.5))
    for name in ("cluster_spread", "attribute_spread"):
        for value in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                generate_synthetic(SyntheticSpec(**{name: value}))


def test_split_meta_stratified_and_disjoint():
    spec = SyntheticSpec(n_families=3, records_per_family=40, embedding_dim=8, seed=1)
    corpus, attrs = generate_synthetic(spec)
    (tc, ta), (ec, ea) = split_meta(corpus, attrs, 0.25, seed=2)
    assert len(tc) == 90 and len(ec) == 30
    train_ids = {r.id for r in tc.records}
    test_ids = {r.id for r in ec.records}
    assert not train_ids & test_ids
    assert train_ids | test_ids == {r.id for r in corpus.records}
    for fam, recs in ec.by_family().items():
        assert len(recs) == 10  # stratified
    # the attribute pools are row-aligned with the corpus pools
    assert [a.id for a in ta.records] == [r.id for r in tc.records]
    assert [a.id for a in ea.records] == [r.id for r in ec.records]
    assert ta.families == ea.families == corpus.families


def test_split_fits_an_episode_smaller_than_the_default():
    # 20 records a family leave 5 for the meta-test pool: enough for 2 + 3
    spec = SyntheticSpec(n_families=3, records_per_family=20, embedding_dim=8,
                         attribute_dim=4, seed=1)
    corpus, attrs = generate_synthetic(spec)
    settings = AblationSettings(
        maml=MamlConfig(n_support=2, n_query=3, meta_iterations=1, tasks_per_meta_batch=1),
        eval_episodes=1,
    )
    out = run_pipeline("attributes_only", corpus, attrs, settings, seed=0)
    assert 0.0 <= out["accuracy"] <= 1.0


def test_split_meta_fraction_validated():
    spec = SyntheticSpec(n_families=2, records_per_family=40, embedding_dim=8, seed=1)
    corpus, attrs = generate_synthetic(spec)
    with pytest.raises(ValueError):
        split_meta(corpus, attrs, 1.0, seed=0)


def test_split_meta_rejects_record_without_attributes():
    spec = SyntheticSpec(n_families=2, records_per_family=40, embedding_dim=8, seed=1)
    corpus, attrs = generate_synthetic(spec)
    missing = corpus.records[7].id
    attrs = Corpus([a for a in attrs.records if a.id != missing], attrs.dim)
    with pytest.raises(ValueError, match=f"record {missing!r} has no attribute row"):
        split_meta(corpus, attrs, 0.25, seed=0)


def _check_failed_write_keeps(path, write, error):
    """`write()` raises `error` and leaves `path` and its directory as they were."""
    before = path.read_bytes()
    with pytest.raises(error):
        write()
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_failed_jsonl_write_leaves_previous_file(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"old": True}])
    _check_failed_write_keeps(
        path, lambda: write_jsonl(path, [{"k": 1}, {"k": 2}, {"k": object()}]), TypeError)


def test_failed_csv_write_leaves_previous_file(tmp_path):
    def rows():
        yield ["a", 1]
        yield ["b", 2]
        raise RuntimeError("row source failed")

    path = tmp_path / "out.csv"
    write_csv(path, ["name", "n"], [["x", 0]])
    _check_failed_write_keeps(path, lambda: write_csv(path, ["name", "n"], rows()), RuntimeError)


@pytest.mark.parametrize("value", [np.nan, -np.inf, -1e39])
def test_emb1_writer_refuses_values_not_finite_as_float32(tmp_path, value):
    corpus = small_corpus(np.random.default_rng(1))
    path = tmp_path / "c.emb1"
    write_embeddings(path, corpus)
    records = list(corpus.records)
    vector = records[2].vector.copy()
    vector[0] = value  # -1e39 is finite as float64, -inf as float32
    records[2] = DescriptionRecord(records[2].id, records[2].family, vector)
    bad = Corpus(records, corpus.dim)
    _check_failed_write_keeps(path, lambda: write_embeddings(path, bad), ValueError)
    with pytest.raises(ValueError, match=f"c.emb1: record 2 \\({records[2].id!r}\\): "
                                         "non-finite value as float32"):
        write_embeddings(path, bad)


def test_rewrite_leaves_listing_unchanged(tmp_path):
    path = tmp_path / "out.jsonl"
    write_jsonl(path, [{"k": 1}])
    (tmp_path / "out.jsonl.part").write_bytes(b"left by a killed run")
    write_jsonl(path, [{"k": 2}])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
    assert path.read_text(encoding="utf-8") == '{"k": 2}\n'
