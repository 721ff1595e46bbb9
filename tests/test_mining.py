import numpy as np
import pytest

from cftmal.data import Corpus, DescriptionRecord, FormatError
from cftmal.mining import (
    MiningConfig,
    MissingRecord,
    NegativeSet,
    ShortageError,
    build_all_samples,
    build_samples,
    mine_all,
    mine_negatives,
    mine_random,
    negative_sets_from_jsonl,
    negative_sets_to_jsonl,
    samples_from_jsonl,
    samples_to_jsonl,
    select_positive,
    select_positives,
    similarity_histogram,
)
from cftmal.similarity import cosine_similarity


def random_corpus(rng, n_families=None, lo=5, hi=40, d=8):
    n_families = n_families or int(rng.integers(3, 9))
    records = []
    for f in range(n_families):
        for i in range(int(rng.integers(lo, hi + 1))):
            records.append(DescriptionRecord(
                f"f{f}-r{i:03d}", f"f{f}", rng.standard_normal(d)
            ))
    return Corpus(records, d)


def brute_force_tiers(corpus, positive, cfg):
    """Full-sort oracle: score every foreign record, filter, sort, slice."""
    scored = []
    for r in corpus.records:
        if r.family == positive.family:
            continue
        s = cosine_similarity(r.vector, positive.embedding)
        if s <= cfg.threshold:
            scored.append((r, s))
    scored.sort(key=lambda rs: (-rs[1], rs[0].family, rs[0].id))
    hard = [r.id for r, _ in scored[: cfg.n_hard]]
    lower = {r.id for r, _ in scored[cfg.n_hard :]}
    return hard, lower


def test_select_positive_is_medoid():
    rng = np.random.default_rng(0)
    corpus = random_corpus(rng, n_families=3)
    pos = select_positive(corpus, "f1")
    fam = [r for r in corpus.records if r.family == "f1"]
    # brute-force: maximize mean cosine to the rest of the family
    def mean_sim(r):
        return np.mean([cosine_similarity(r.vector, o.vector) for o in fam if o.id != r.id])

    best = max(fam, key=lambda r: (mean_sim(r), r.id))
    assert corpus.ids[pos.row] == best.id


def test_select_positive_breaks_a_two_record_tie_on_id():
    # the two means of a 2-record family are one cosine, rounded two ways;
    # the larger id wins whichever row order and vector it has
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(8), rng.standard_normal(8) * rng.uniform(0.1, 10.0)
        for x, y in ((u, v), (v, u)):
            a, b = DescriptionRecord("a", "A", x), DescriptionRecord("b", "A", y)
            for records in ([a, b], [b, a]):
                corpus = Corpus(records, 8)
                assert corpus.ids[select_positive(corpus, "A").row] == "b", seed


def test_select_positive_explicit_and_errors():
    rng = np.random.default_rng(1)
    corpus = random_corpus(rng, n_families=3)
    with pytest.raises(ValueError):
        select_positive(corpus, "nope")


def test_mine_negatives_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    cfg = MiningConfig(threshold=0.9, n_hard=5, n_diverse=4, seed=3,
                       negatives_hard_per_sample=2, negatives_diverse_per_sample=2)
    for _ in range(20):
        corpus = random_corpus(rng)
        positives = select_positives(corpus)
        for fam in corpus.families:
            oracle_hard, oracle_lower = brute_force_tiers(corpus, positives[fam], cfg)
            if len(oracle_hard) < cfg.n_hard or len(oracle_lower) < cfg.n_diverse:
                with pytest.raises(ShortageError):
                    mine_negatives(corpus, positives, fam, cfg)
                continue
            ns = mine_negatives(corpus, positives, fam, cfg)
            assert [rid for rid, _ in ns.hard] == oracle_hard
            diverse_ids = {rid for rid, _ in ns.diverse}
            assert diverse_ids <= oracle_lower  # strictly lower-ranked
            assert not diverse_ids & set(oracle_hard)
            assert len(diverse_ids) == cfg.n_diverse


def test_mine_negatives_threshold_excludes_near_duplicates():
    d = 4
    rng = np.random.default_rng(4)
    base = rng.standard_normal(d)
    records = [DescriptionRecord(f"a{i}", "A", base + 0.01 * rng.standard_normal(d))
               for i in range(3)]
    # one near-clone of A's positive in family B, plus distant foreign records
    records.append(DescriptionRecord("clone", "B", records[0].vector * 1.0001))
    for i in range(8):
        records.append(DescriptionRecord(f"b{i}", "B", rng.standard_normal(d)))
    corpus = Corpus(records, d)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=0.99, n_hard=3, n_diverse=2, seed=0,
                       negatives_hard_per_sample=1, negatives_diverse_per_sample=1)
    ns = mine_negatives(corpus, positives, "A", cfg)
    mined = {rid for rid, _ in ns.hard} | {rid for rid, _ in ns.diverse}
    sim = cosine_similarity(corpus.records[corpus.rows["clone"]].vector, positives["A"].embedding)
    if sim > cfg.threshold:
        assert "clone" not in mined


def test_mine_negatives_deterministic():
    rng = np.random.default_rng(5)
    corpus = random_corpus(rng, n_families=4, lo=15, hi=20)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=6, n_diverse=4, seed=11,
                       negatives_hard_per_sample=2, negatives_diverse_per_sample=2)
    a = mine_negatives(corpus, positives, "f0", cfg)
    b = mine_negatives(corpus, positives, "f0", cfg)
    assert a.hard == b.hard and a.diverse == b.diverse


def test_mine_random_is_uniform_draw_with_slots():
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, n_families=4, lo=15, hi=20)
    positives = select_positives(corpus)
    cfg = MiningConfig(n_hard=8, n_diverse=4, seed=7)
    ns = mine_random(corpus, positives, "f1", cfg)
    assert len(ns.hard) == 8 and len(ns.diverse) == 4
    sims = [s for _, s in ns.hard] + [s for _, s in ns.diverse]
    assert sims == sorted(sims, reverse=True)
    again = mine_random(corpus, positives, "f1", cfg)
    assert ns.hard == again.hard and ns.diverse == again.diverse
    with pytest.raises(ShortageError):
        mine_random(corpus, positives, "f1", MiningConfig(n_hard=20, n_diverse=9_980, seed=0))


@pytest.mark.parametrize("strategy", ["similarity", "random"])
def test_ranking_breaks_exact_ties_on_family_name_then_id(strategy):
    # exact cosine ties across families and within one; `families` is not in
    # name order, and "a\x00" (on the earlier row) sorts after "a" as a
    # Python string, though numpy's fixed-width strings would make them equal
    v1, v2, v3 = [1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 1.0, 0.0]
    rows = [("y0", "Y", [1.0, 0.0, 0.0]), ("y1", "Y", [1.0, 0.0, 0.0]),
            ("a\x00", "X", v1), ("c", "X", v2), ("a", "X", v1), ("d", "X", v3),
            ("f", "P", v3), ("b", "P", v1), ("e", "P", v2)]
    corpus = Corpus([DescriptionRecord(rid, fam, np.array(v)) for rid, fam, v in rows], 3,
                    families=["Y", "X", "P"])
    positives = select_positives(corpus)
    oracle = sorted(((cosine_similarity(np.array(v), positives["Y"].embedding), fam, rid)
                     for rid, fam, v in rows if fam != "Y"), key=lambda c: (-c[0], c[1], c[2]))
    ranked = [rid for _, _, rid in oracle]
    assert ranked[:4] == ["b", "a", "a\x00", "e"]  # the oracle itself breaks both ties
    if strategy == "similarity":
        cfg = MiningConfig(threshold=1.0, n_hard=4, n_diverse=2,
                           negatives_hard_per_sample=1, negatives_diverse_per_sample=1)
        ns = mine_negatives(corpus, positives, "Y", cfg)
        diverse = [rid for rid, _ in ns.diverse]
        assert [rid for rid, _ in ns.hard] == ranked[:4]
        assert diverse == [rid for rid in ranked[4:] if rid in diverse]
    else:
        # all 7 foreign records drawn: the slots hold the whole ranking
        cfg = MiningConfig(n_hard=4, n_diverse=3,
                           negatives_hard_per_sample=1, negatives_diverse_per_sample=1)
        ns = mine_random(corpus, positives, "Y", cfg)
        assert [rid for rid, _ in ns.hard + ns.diverse] == ranked


@pytest.mark.parametrize("strategy", ["similarity", "random"])
def test_mine_all_matches_per_family_mining(strategy):
    rng = np.random.default_rng(14)
    corpus = random_corpus(rng, n_families=4, lo=15, hi=20)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=6, n_diverse=4, seed=3,
                       negatives_hard_per_sample=2, negatives_diverse_per_sample=2)
    mine = mine_negatives if strategy == "similarity" else mine_random
    expected = [mine(corpus, positives, f, cfg) for f in corpus.families]
    got = mine_all(corpus, positives, cfg, strategy)
    assert [ns.family for ns in got] == corpus.families
    assert [(ns.hard, ns.diverse, ns.threshold) for ns in got] == [
        (ns.hard, ns.diverse, ns.threshold) for ns in expected
    ]


@pytest.mark.parametrize("strategy", ["similarity", "random"])
def test_mining_validates_config(strategy):
    rng = np.random.default_rng(16)
    corpus = random_corpus(rng, n_families=3, lo=10, hi=12)
    positives = select_positives(corpus)
    mine = mine_negatives if strategy == "similarity" else mine_random
    with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\]"):
        mine(corpus, positives, "f0", MiningConfig(threshold=1.5, n_hard=4, n_diverse=4))


def test_mine_all_rejects_unknown_strategy():
    rng = np.random.default_rng(15)
    corpus = random_corpus(rng, n_families=3, lo=10, hi=12)
    with pytest.raises(ValueError, match="unknown mining strategy 'nearest'"):
        mine_all(corpus, select_positives(corpus), MiningConfig(), "nearest")


def test_build_all_samples_rejects_unknown_family():
    rng = np.random.default_rng(16)
    corpus = random_corpus(rng, n_families=3, lo=12, hi=15)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=6, n_diverse=4, seed=2,
                       negatives_hard_per_sample=2, negatives_diverse_per_sample=2)
    sets = mine_all(corpus, positives, cfg, "similarity")
    samples = build_all_samples(corpus, positives, sets, cfg)
    assert len(samples) == len(corpus.records) * cfg.samples_per_anchor
    assert samples.dtype.itemsize == (2 + 4) * np.dtype(np.intp).itemsize  # one row of ints each
    stray = NegativeSet("f9", sets[0].hard, sets[0].diverse, 1.0)
    with pytest.raises(ValueError, match="unknown family 'f9'"):
        build_all_samples(corpus, positives, sets + [stray], cfg)


@pytest.mark.parametrize("fields, message", [
    ({"samples_per_anchor": -1}, "samples_per_anchor must be >= 1"),
    ({"samples_per_anchor": 0}, "samples_per_anchor must be >= 1"),
    ({"n_hard": -1}, "n_hard must be >= 0"),
    ({"n_diverse": -1}, "n_diverse must be >= 0"),
    ({"negatives_hard_per_sample": -1}, "negatives_hard_per_sample must be >= 0"),
    ({"negatives_diverse_per_sample": -1}, "negatives_diverse_per_sample must be >= 0"),
    ({"negatives_hard_per_sample": 0, "negatives_diverse_per_sample": 0},
     r"negatives_hard_per_sample \+ negatives_diverse_per_sample must be >= 1"),
])
def test_build_all_samples_rejects_bad_counts_naming_the_field(fields, message):
    rng = np.random.default_rng(16)
    corpus = random_corpus(rng, n_families=3, lo=12, hi=15)
    positives = select_positives(corpus)
    sets = mine_all(corpus, positives, MiningConfig(threshold=1.0, n_hard=6, n_diverse=4),
                    "similarity")
    cfg = MiningConfig(**{"threshold": 1.0, "n_hard": 6, "n_diverse": 4, **fields})
    with pytest.raises(ValueError, match=message):
        build_all_samples(corpus, positives, sets, cfg)


def test_build_samples_counts_and_structure():
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, n_families=3, lo=20, hi=20)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=10, n_diverse=6, seed=9)
    ns = mine_negatives(corpus, positives, "f0", cfg)
    anchors = corpus.by_family()["f0"]
    draws = build_samples(anchors, positives["f0"], ns, cfg)
    assert len(draws) == len(anchors) * cfg.samples_per_anchor
    # per anchor in order, positions in the tier list hard + diverse
    assert draws.anchor.tolist() == [a for a in range(len(anchors))
                                     for _ in range(cfg.samples_per_anchor)]
    for s in draws:
        assert len(s.negatives) == 8
        hard, diverse = s.negatives[:5].tolist(), s.negatives[5:].tolist()
        assert hard == sorted(set(hard)) and set(hard) <= set(range(10))
        assert diverse == sorted(set(diverse)) and set(diverse) <= set(range(10, 16))
    # draws for one anchor are distinct
    per_anchor = {}
    for s in draws:
        per_anchor.setdefault(s.anchor, []).append(tuple(s.negatives))
    for d in per_anchor.values():
        assert len(set(d)) == len(d)


def test_build_all_samples_fills_rows_from_the_draws():
    rng = np.random.default_rng(8)
    corpus = random_corpus(rng, n_families=3, lo=18, hi=22)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=10, n_diverse=6, seed=9)
    sets = mine_all(corpus, positives, cfg, "similarity")
    samples = build_all_samples(corpus, positives, sets, cfg)
    want = []
    for ns in sets:
        anchors = corpus.by_family()[ns.family]
        tier = [rid for rid, _ in ns.hard + ns.diverse]
        for d in build_samples(anchors, positives[ns.family], ns, cfg):
            want.append([anchors[d.anchor].id, corpus.ids[positives[ns.family].row],
                         *[tier[i] for i in d.negatives]])
    ids = np.array(corpus.ids)
    got = np.column_stack([ids[samples.anchor], ids[samples.positive], ids[samples.negatives]])
    assert got.tolist() == want


def test_build_samples_rejects_foreign_anchor():
    rng = np.random.default_rng(9)
    corpus = random_corpus(rng, n_families=3, lo=10, hi=12)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=6, n_diverse=4, seed=0,
                       negatives_hard_per_sample=2, negatives_diverse_per_sample=2)
    ns = mine_negatives(corpus, positives, "f0", cfg)
    wrong = corpus.by_family()["f1"]
    with pytest.raises(ValueError, match="not in family"):
        build_samples(wrong, positives["f0"], ns, cfg)


def test_build_samples_tier_shortage():
    cfg = MiningConfig()
    ns = NegativeSet("f0", [("x", 0.5)] * 3, [("y", 0.1)] * 3, 0.95)
    with pytest.raises(ShortageError):
        build_samples([], _pos(), ns, cfg)


def test_build_samples_rejects_tiers_too_small_for_distinct_draws():
    # 5 hard + 3 diverse drawn 5 + 3 at a time allow exactly one draw
    ns = NegativeSet("f0", [(f"h{i}", 0.5) for i in range(5)],
                     [(f"d{i}", 0.1) for i in range(3)], 0.95)
    anchors = [DescriptionRecord(f"a{i}", "f0", np.ones(3)) for i in range(10)]
    with pytest.raises(ShortageError, match=r"'f0'.*5 hard and 3 diverse"):
        build_samples(anchors, _pos(), ns, MiningConfig())


def test_build_samples_raises_when_redraws_keep_colliding(monkeypatch):
    class SameDraw:
        def integers(self, low, high, size, dtype):
            return np.zeros(size, dtype)

    monkeypatch.setattr("cftmal.mining._family_rng", lambda *a: SameDraw())
    ns = NegativeSet("f0", [(f"h{i}", 0.5) for i in range(6)],
                     [(f"d{i}", 0.1) for i in range(3)], 0.95)
    anchors = [DescriptionRecord("a0", "f0", np.ones(3))]
    with pytest.raises(ShortageError, match="64 draws"):
        build_samples(anchors, _pos(), ns, MiningConfig())


def _pos():
    from cftmal.mining import PositiveSelection

    return PositiveSelection("f0", 0, np.ones(3))


def _choice_loop(rng, anchors, negs, cfg):
    """The per-sample `rng.choice` loop `build_samples` reproduces: two
    `choice` calls per attempt, redrawn until each anchor's draws are
    distinct."""
    n_hard, n_diverse = cfg.negatives_hard_per_sample, cfg.negatives_diverse_per_sample
    rows = []
    for anchor in anchors:
        seen = set()
        for _ in range(cfg.samples_per_anchor):
            for _attempt in range(64):
                h = rng.choice(len(negs.hard), size=n_hard, replace=False)
                d = rng.choice(len(negs.diverse), size=n_diverse, replace=False)
                key = (frozenset(h.tolist()), frozenset(d.tolist()))
                if key not in seen:
                    break
            else:
                raise ShortageError(
                    f"family {negs.family!r}: anchor {anchor.id!r}: 64 draws "
                    f"all repeat one of its {len(seen)} earlier samples"
                )
            seen.add(key)
            rows.append(np.sort(h).tolist() + (np.sort(d) + len(negs.hard)).tolist())
    return rows


def _both_draws(monkeypatch, seed, tiers, per_sample, per_anchor, n_anchors):
    """(outcome, final generator state) of `build_samples` and of the
    `choice` loop from one seed; an outcome is the draws or the error text."""
    negs = NegativeSet("f0", [(f"h{i}", 0.5) for i in range(tiers[0])],
                       [(f"d{i}", 0.1) for i in range(tiers[1])], 0.95)
    anchors = [DescriptionRecord(f"a{i}", "f0", np.ones(3)) for i in range(n_anchors)]
    cfg = MiningConfig(n_hard=tiers[0], n_diverse=tiers[1],
                       negatives_hard_per_sample=per_sample[0],
                       negatives_diverse_per_sample=per_sample[1],
                       samples_per_anchor=per_anchor)
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    monkeypatch.setattr("cftmal.mining._family_rng", lambda *a: new)
    outcomes = []
    for draw in (lambda: build_samples(anchors, _pos(), negs, cfg).negatives.tolist(),
                 lambda: _choice_loop(old, anchors, negs, cfg)):
        try:
            outcomes.append(draw())
        except ShortageError as exc:
            outcomes.append(str(exc))
    return (outcomes[0], new.bit_generator.state), (outcomes[1], old.bit_generator.state)


@pytest.mark.parametrize("tiers, per_sample, per_anchor, n_anchors", [
    ((20, 12), (5, 3), 4, 30),  # the default tiers and draws
    ((6, 4), (5, 3), 6, 5),  # 24 distinct draws, 6 per anchor: frequent redraws
    ((3, 3), (1, 1), 9, 3),  # every one of the 9 distinct draws per anchor
    ((5, 4), (0, 2), 3, 4),
    ((5, 4), (2, 0), 3, 4),
    ((1, 1), (1, 1), 1, 3),  # one-record tiers: draws in [0, 0] spend nothing
], ids=["default", "6C5x4C3", "3C1x3C1", "no-hard", "no-diverse", "one-record-tiers"])
def test_build_samples_matches_the_per_sample_choice_loop(monkeypatch, tiers, per_sample,
                                                          per_anchor, n_anchors):
    # Floyd's picks from one `integers` call stand in for numpy's `choice`:
    # a numpy whose `choice` draws differently fails here, not in later bytes
    for seed in range(12):
        new, old = _both_draws(monkeypatch, seed, tiers, per_sample, per_anchor, n_anchors)
        assert not isinstance(new[0], str), new[0]
        assert new == old, seed


def test_build_samples_raises_the_choice_loops_64_draw_error(monkeypatch):
    # 8 x 8 distinct draws, all 64 per anchor: a slot near the end often misses
    # 64 times. The texts match; the final generator states need not, since
    # `build_samples` draws the attempts of every open slot ahead
    errors = []
    for seed in range(4):
        (new, _), (old, _) = _both_draws(monkeypatch, seed, (8, 8), (1, 1), 64, 2)
        assert new == old, seed
        errors += [new] if isinstance(new, str) else []
    assert errors and all("64 draws all repeat one of its" in e for e in errors)


def test_similarity_histogram_counts_everything():
    rng = np.random.default_rng(10)
    corpus = random_corpus(rng, n_families=3, lo=10, hi=15)
    positives = select_positives(corpus)
    edges, counts = similarity_histogram(corpus, positives, "f0", 20)
    foreign = sum(1 for r in corpus.records if r.family != "f0")
    assert counts.sum() == foreign
    assert len(edges) == 21 and edges[0] == -1.0 and edges[-1] == 1.0


def test_similarity_histogram_counts_copies_of_the_positive():
    # a scaled or negated foreign copy of the positive's direction has a
    # cosine that may round to just past +1 or -1; it still counts
    for seed in range(60):
        rng = np.random.default_rng(seed)
        e = rng.standard_normal(4)
        corpus = Corpus([DescriptionRecord("a0", "A", e), DescriptionRecord("a1", "A", e.copy()),
                         DescriptionRecord("b0", "B", 3.0 * e),
                         DescriptionRecord("b1", "B", -0.5 * e),
                         DescriptionRecord("b2", "B", rng.standard_normal(4))], 4)
        _, counts = similarity_histogram(corpus, select_positives(corpus), "A", 4)
        assert counts.sum() == 3, seed
        assert counts[0] >= 1 and counts[-1] >= 1, seed


def test_mine_negatives_keeps_a_scaled_copy_of_the_positive_at_threshold_one(tmp_path):
    # unclipped, cos(3e, e) rounds to 1.0000000000000002 for this e
    e = np.random.default_rng(3).standard_normal(4)
    corpus = Corpus([DescriptionRecord("a0", "A", e), DescriptionRecord("b0", "B", 3.0 * e)], 4)
    cfg = MiningConfig(threshold=1.0, n_hard=1, n_diverse=0,
                       negatives_hard_per_sample=1, negatives_diverse_per_sample=0)
    ns = mine_negatives(corpus, select_positives(corpus), "A", cfg)
    assert [rid for rid, _ in ns.hard] == ["b0"]
    path = tmp_path / "neg.jsonl"
    negative_sets_to_jsonl(path, [ns])
    assert negative_sets_from_jsonl(path)[0].hard[0][1] <= 1.0


def test_jsonl_roundtrips(tmp_path):
    rng = np.random.default_rng(12)
    corpus = random_corpus(rng, n_families=3, lo=12, hi=15)
    positives = select_positives(corpus)
    cfg = MiningConfig(threshold=1.0, n_hard=6, n_diverse=4, seed=1,
                       negatives_hard_per_sample=3, negatives_diverse_per_sample=2)
    sets = [mine_negatives(corpus, positives, f, cfg) for f in corpus.families]
    path = tmp_path / "neg.jsonl"
    negative_sets_to_jsonl(path, sets)
    back = negative_sets_from_jsonl(path)
    assert [ns.family for ns in back] == [ns.family for ns in sets]
    assert all(a.hard == b.hard and a.diverse == b.diverse for a, b in zip(sets, back))

    samples = build_all_samples(corpus, positives, sets, cfg)
    spath = tmp_path / "samples.jsonl"
    samples_to_jsonl(spath, samples, corpus)
    sback = samples_from_jsonl(spath, corpus)
    assert sback.dtype == samples.dtype
    assert sback.tobytes() == samples.tobytes()
    # without a corpus the table holds the record ids themselves
    ids = samples_from_jsonl(spath)
    assert ids.anchor.tolist() == [corpus.ids[r] for r in samples.anchor]
    assert ids.negatives.tolist() == [[corpus.ids[r] for r in row] for row in samples.negatives]


@pytest.mark.parametrize("line, message", [
    ('{"anchor": "a", "positive": "b", "negatives": ["c"]}', "1 negatives, the first sample has 2"),
    ('{"anchor": "a", "positive": "b", "negatives": []}', "negatives is empty"),
    ('{"anchor": "a", "positive": "b", "negatives": ["c", 4]}', "negatives[1] must be a string"),
])
def test_samples_reader_names_the_line_of_a_ragged_sample(tmp_path, line, message):
    path = tmp_path / "samples.jsonl"
    path.write_text('{"anchor": "a", "positive": "b", "negatives": ["c", "d"]}\n' + line + "\n")
    with pytest.raises(FormatError) as exc:
        samples_from_jsonl(path)
    assert str(exc.value).startswith(f"{path}: line 2: ")
    assert message in str(exc.value)


def test_samples_reader_names_the_first_missing_record(tmp_path):
    corpus = Corpus([DescriptionRecord(r, "f", np.ones(2)) for r in "abcd"], 2)
    path = tmp_path / "samples.jsonl"
    path.write_text('{"anchor": "a", "positive": "b", "negatives": ["c", "d"]}\n\n'
                    '{"anchor": "a", "positive": "x", "negatives": ["y", "d"]}\n')
    with pytest.raises(MissingRecord) as exc:
        samples_from_jsonl(path, corpus)
    assert (exc.value.sample, exc.value.record) == (2, "x")
    assert str(exc.value) == f"{path}: sample 2: no record 'x'"
