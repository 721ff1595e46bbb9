"""Positive selection, hard/diverse negative mining and sample assembly.

For each family, the foreign-family rows are scored by cosine similarity
against the family's positive row. Candidates at or below the similarity
cap are ranked descending (`_tiers`, which also orders the random draw);
the top tier becomes the hard negatives and a random draw from the strictly
lower-ranked remainder becomes the diverse tier. Each anchor then yields
several contrastive samples mixing hard and diverse negatives.

The samples of a corpus are one sample table (`sample_table`): a record
array over one (n, 2 + k) intp matrix of corpus rows, each record
[anchor, positive, k negatives] read as the fields `anchor`, `positive` and
`negatives` (hard tier first, then diverse). Record ids appear only in the
JSONL files, met by rows only in `build_all_samples` and the samples I/O.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from math import comb

import numpy as np

from .data import Corpus, FormatError, read_jsonl, write_csv, write_jsonl
from .similarity import normalize_rows


class ShortageError(ValueError):
    """Not enough candidates to satisfy the requested tier sizes."""


@dataclass
class PositiveSelection:
    family: str
    row: int  # the positive's corpus row
    embedding: np.ndarray


@dataclass
class NegativeSet:
    family: str
    hard: list  # [(record_id, similarity)] sorted by similarity descending
    diverse: list  # [(record_id, similarity)]
    threshold: float


class TierError(ValueError):
    """Negative sets that do not fit their corpus."""


class MissingRecord(FormatError):
    """A samples file names a record its corpus does not hold."""

    def __init__(self, path, sample: int, record: str):
        super().__init__(f"{path}: sample {sample}: no record {record!r}")
        self.sample, self.record = sample, record


def _records(n: int, k: int, dtype, *fields) -> np.recarray:
    """n uninitialised records: one value per field in `fields`, then a
    k-wide `negatives`, all of `dtype`."""
    return np.recarray(n, dtype=[(f, dtype) for f in fields] + [("negatives", dtype, (k,))])


def sample_table(n: int, k: int, dtype=np.intp) -> np.recarray:
    """Room for n samples with k negatives each: the fields `anchor`,
    `positive` and `negatives`, corpus rows (intp) or record ids (object)."""
    return _records(n, k, dtype, "anchor", "positive")


@dataclass
class MiningConfig:
    threshold: float = 0.95
    n_hard: int = 20
    n_diverse: int = 12
    negatives_hard_per_sample: int = 5
    negatives_diverse_per_sample: int = 3
    samples_per_anchor: int = 4
    seed: int = 0

    def validate(self) -> None:
        """Each field alone; the draw sizes are checked against the tiers that
        `build_samples` is given, not against `n_hard` / `n_diverse`."""
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        for name in ("n_hard", "n_diverse", "negatives_hard_per_sample",
                     "negatives_diverse_per_sample"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.samples_per_anchor < 1:
            raise ValueError("samples_per_anchor must be >= 1")
        if self.negatives_hard_per_sample + self.negatives_diverse_per_sample < 1:
            raise ValueError("negatives_hard_per_sample + negatives_diverse_per_sample must be >= 1")


def _family_rng(seed: int, family: str, salt: str = "") -> np.random.Generator:
    h = hashlib.sha256(f"{salt}:{family}".encode("utf-8")).digest()
    return np.random.default_rng([seed, int.from_bytes(h[:8], "little")])


MEDOID_TIE = 1e-12


def select_positive(corpus: Corpus, family: str) -> PositiveSelection:
    """Pick the single ground-truth record for a family: the medoid, the
    record with the highest mean cosine similarity to its family."""
    rows = np.flatnonzero(corpus.labels == corpus.class_index().get(family, -1)).tolist()
    if not rows:
        raise ValueError(f"unknown family {family!r}")
    if len(rows) == 1:
        return PositiveSelection(family, rows[0], corpus.vectors[rows[0]])
    normed = normalize_rows(corpus.vectors[rows])[0]
    # row sums of the family's cosine Gram: each unit row against their sum
    means = (normed @ normed.sum(axis=0) - 1.0) / (len(rows) - 1)
    # rounding can part means that are equal in exact arithmetic (the two of
    # a 2-record family always are): within MEDOID_TIE of the best is a tie,
    # and the largest id among the tied wins
    tied = np.flatnonzero(means >= means.max() - MEDOID_TIE).tolist()
    best = rows[max(tied, key=lambda i: corpus.ids[rows[i]])]
    return PositiveSelection(family, best, corpus.vectors[best])


def select_positives(corpus: Corpus) -> dict:
    return {f: select_positive(corpus, f) for f in corpus.families}


def _foreign_similarities(corpus: Corpus, positives: dict, family: str):
    """(rows, cosines to the family's positive) of every record outside `family`."""
    if family not in positives:
        raise ValueError(f"no positive selected for family {family!r}")
    rows = np.flatnonzero(corpus.labels != corpus.class_index().get(family, -1))
    normed = normalize_rows(corpus.vectors[rows])[0]
    e = positives[family].embedding
    en = e / (np.linalg.norm(e) or 1.0)  # a zero positive scores every row 0
    # a foreign copy of the positive's direction may round to just past ±1
    return rows, np.clip(normed @ en, -1.0, 1.0)


def _tiers(corpus: Corpus, family: str, rows, sims, n_hard: int, diverse, threshold: float):
    """The negative set of `rows` ranked by descending similarity, ties
    broken by family name, then id: the first `n_hard` are the hard tier,
    those at `n_hard + diverse` the diverse one. Names compare as Python
    strings (object arrays): numpy's fixed-width strings drop trailing NULs."""
    ids = np.array(corpus.ids, dtype=object)[rows]
    order = np.lexsort((ids, np.array(corpus.families, dtype=object)[corpus.labels[rows]], -sims))
    at = order[np.r_[:n_hard, n_hard + diverse]]
    pairs = list(zip(ids[at].tolist(), sims[at].tolist()))
    return NegativeSet(family, pairs[:n_hard], pairs[n_hard:], threshold)


def mine_negatives(corpus: Corpus, positives: dict, family: str, cfg: MiningConfig) -> NegativeSet:
    """Hard/diverse negative tiers for one family (similarity-ranked)."""
    cfg.validate()
    rows, sims = _foreign_similarities(corpus, positives, family)
    below = sims <= cfg.threshold
    need = cfg.n_hard + cfg.n_diverse
    if below.sum() < need:
        raise ShortageError(
            f"family {family!r}: {below.sum()} candidates at or below "
            f"threshold {cfg.threshold}, need {need} "
            f"({cfg.n_hard} hard + {cfg.n_diverse} diverse)"
        )
    rng = _family_rng(cfg.seed, family, "mine")
    diverse = np.sort(rng.choice(below.sum() - cfg.n_hard, size=cfg.n_diverse, replace=False))
    return _tiers(corpus, family, rows[below], sims[below], cfg.n_hard, diverse, cfg.threshold)


def mine_random(corpus: Corpus, positives: dict, family: str, cfg: MiningConfig) -> NegativeSet:
    """Uniform-random negatives, ablation baseline.

    The selection is a uniform draw of `n_hard + n_diverse` foreign
    records; the hard/diverse partition exists only for interface
    compatibility (slots are filled by descending similarity within the
    drawn set).
    """
    cfg.validate()
    rows, sims = _foreign_similarities(corpus, positives, family)
    need = cfg.n_hard + cfg.n_diverse
    if len(rows) < need:
        raise ShortageError(f"family {family!r}: {len(rows)} foreign records, need {need}")
    rng = _family_rng(cfg.seed, family, "random")
    pick = rng.choice(len(rows), size=need, replace=False)
    return _tiers(corpus, family, rows[pick], sims[pick], cfg.n_hard, np.arange(cfg.n_diverse), 1.0)


def mine_all(corpus: Corpus, positives: dict, cfg: MiningConfig, strategy: str) -> list:
    """One negative set per family, in `corpus.families` order, by `strategy`:
    "similarity" (`mine_negatives`) or "random" (`mine_random`)."""
    mine = {"similarity": mine_negatives, "random": mine_random}.get(strategy)
    if mine is None:
        raise ValueError(f"unknown mining strategy {strategy!r}")
    return [mine(corpus, positives, fam, cfg) for fam in corpus.families]


def _floyd_picks(draws: np.ndarray, n: int) -> np.ndarray:
    """The picks numpy's Floyd sampler makes from its draws, one sample per
    row, each row sorted ascending.

    A k-pick sample of range(n) takes its j-th draw in [0, n - k + j]; a
    draw already picked is replaced by n - k + j, which no earlier step can
    have picked."""
    picks = draws.astype(np.intp)
    k = picks.shape[1]
    for j in range(1, k):
        taken = (picks[:, :j] == picks[:, j, None]).any(axis=1)
        picks[taken, j] = n - k + j
    picks.sort(axis=1)
    return picks


def _first_repeat(rows: np.ndarray, groups: np.ndarray) -> int:
    """Index of the first row equal to an earlier row of its group, or
    len(rows) if there is none."""
    keys = np.column_stack([groups, rows])
    order = np.lexsort(keys.T[::-1])  # stable: equal keys stay in row order
    keys = keys[order]
    repeats = order[1:][(keys[1:] == keys[:-1]).all(axis=1)]
    return int(repeats.min()) if repeats.size else len(rows)


def build_samples(anchors, positive: PositiveSelection, negs: NegativeSet,
                  cfg: MiningConfig) -> np.recarray:
    """Contrastive draws of one family: per anchor, several distinct draws
    of hard + diverse negatives.

    Returns one record per sample: `anchor`, its position in `anchors`, and
    `negatives`, positions in the tier list `negs.hard + negs.diverse`
    (hard first, each tier in ascending order).

    Each attempt is what `rng.choice(tier, k, replace=False)` on the hard
    tier and then on the diverse tier would draw: Floyd's k bounded draws,
    then the k - 1 draws of its shuffle, spent and dropped since the tiers
    are sorted. One `rng.integers` call draws the attempts of every open
    slot, one row each, and Floyd's picks run as column operations. An
    attempt that repeats an earlier draw of its anchor is spent: the
    attempts after it move up a slot, and the slots left over are drawn
    once these run out. The draws and the generator state then match the
    per-sample `choice` loop wherever numpy's `choice` samples by Floyd:
    tiers of at most 10,000 records, or larger ones drawing at most
    tier // 50 of them (tiers are 20 and 12 records by default).
    """
    cfg.validate()
    for a in anchors:
        if a.family != positive.family:
            raise ValueError(f"anchor {a.id!r} is not in family {positive.family!r}")
    n_hard, n_diverse = cfg.negatives_hard_per_sample, cfg.negatives_diverse_per_sample
    if len(negs.hard) < n_hard:
        raise ShortageError(f"family {negs.family!r}: hard tier has {len(negs.hard)}, need {n_hard}")
    if len(negs.diverse) < n_diverse:
        raise ShortageError(f"family {negs.family!r}: diverse tier has {len(negs.diverse)}, "
                            f"need {n_diverse}")
    if comb(len(negs.hard), n_hard) * comb(len(negs.diverse), n_diverse) < cfg.samples_per_anchor:
        raise ShortageError(
            f"family {positive.family!r}: tiers of {len(negs.hard)} hard and "
            f"{len(negs.diverse)} diverse give fewer than {cfg.samples_per_anchor} "
            f"distinct draws of {n_hard} + {n_diverse}"
        )
    rng = _family_rng(cfg.seed, positive.family, "samples")
    per, total = cfg.samples_per_anchor, len(anchors) * cfg.samples_per_anchor
    draws = _records(total, n_hard + n_diverse, np.intp, "anchor")
    draws.anchor = np.repeat(np.arange(len(anchors)), per)
    negatives = draws.negatives
    # an attempt's exclusive bounds, per tier (size, picks, offset in the tier
    # list): Floyd's k draws in [0, n - k + j], then its shuffle's k - 1 in [0, i]
    tiers = ((len(negs.hard), n_hard, 0), (len(negs.diverse), n_diverse, len(negs.hard)))
    bounds = np.concatenate([np.r_[n - k + 1 : n + 1, k : 1 : -1] for n, k, _ in tiers])
    filled = misses = 0
    attempts = negatives[:0]
    while filled < total:
        if not len(attempts):
            raw = rng.integers(0, bounds, size=(total - filled, len(bounds)), dtype=np.uint32)
            at, parts = 0, []
            for n, k, offset in tiers:
                parts.append(_floyd_picks(raw[:, at : at + k], n) + offset)
                at += max(2 * k - 1, 0)
            attempts = np.hstack(parts)
        # slot `filled` may be partway through its anchor: its earlier draws count too
        start = filled - filled % per
        held = np.concatenate([negatives[start:filled], attempts])
        took = _first_repeat(held, np.arange(start, start + len(held)) // per) - (filled - start)
        negatives[filled : filled + took] = attempts[:took]
        filled += took
        misses = 0 if took else misses
        if took < len(attempts):  # attempts[took] repeats a draw of its anchor: spent
            misses += 1
            if misses == 64:
                raise ShortageError(
                    f"family {positive.family!r}: anchor {anchors[filled // per].id!r}: 64 draws "
                    f"all repeat one of its {filled % per} earlier samples"
                )
        attempts = attempts[took + 1 :]
    return draws


def _tier_rows(corpus: Corpus, ns: NegativeSet, label: int) -> np.ndarray:
    """The corpus rows of a negative set's tier list, hard then diverse;
    each id must name a record outside the set's family, once."""
    rows = []
    for rid, _ in ns.hard + ns.diverse:
        row = corpus.rows.get(rid, -1)
        if row < 0:
            raise TierError(f"family {ns.family}: no record {rid!r}")
        if corpus.labels[row] == label:
            raise TierError(f"family {ns.family}: record {rid!r} is of the set's own family")
        if row in rows:
            raise TierError(f"family {ns.family}: record {rid!r} is listed twice")
        rows.append(row)
    return np.array(rows, dtype=np.intp)


def build_all_samples(corpus: Corpus, positives: dict, sets, cfg: MiningConfig) -> np.recarray:
    """The sample table (`sample_table`) of every negative set, in the order
    given; each family's records are its anchors.

    Tier ids become corpus rows here, before anything is drawn: a set of an
    unknown family, a second set of one family, or a tier id that is
    unknown, of the set's own family or listed twice raises TierError.
    """
    cfg.validate()
    classes, tiers = corpus.class_index(), {}
    for ns in sets:
        if ns.family not in classes:
            raise TierError(f"negative set for unknown family {ns.family!r}")
        if ns.family in tiers:
            raise TierError(f"family {ns.family}: more than one negative set")
        tiers[ns.family] = _tier_rows(corpus, ns, classes[ns.family])
    by_family = corpus.by_family()
    k = cfg.negatives_hard_per_sample + cfg.negatives_diverse_per_sample
    samples = sample_table(sum(len(by_family[ns.family]) for ns in sets) * cfg.samples_per_anchor, k)
    at = 0
    for ns in sets:
        draws = build_samples(by_family[ns.family], positives[ns.family], ns, cfg)
        block = samples[at : at + len(draws)]
        at += len(draws)
        block.anchor = np.flatnonzero(corpus.labels == classes[ns.family])[draws.anchor]
        block.positive = positives[ns.family].row
        block.negatives = tiers[ns.family][draws.negatives]
    return samples


def similarity_histogram(corpus: Corpus, positives: dict, family: str, n_bins: int):
    """Histogram of foreign-record similarities to the family positive."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    sims = _foreign_similarities(corpus, positives, family)[1]
    counts, edges = np.histogram(sims, bins=n_bins, range=(-1.0, 1.0))
    return edges, counts


# --- serialization -------------------------------------------------------


def negative_sets_to_jsonl(path, sets) -> None:
    write_jsonl(path, ({
        "family": ns.family,
        "threshold": ns.threshold,
        "hard": [[rid, s] for rid, s in ns.hard],
        "diverse": [[rid, s] for rid, s in ns.diverse],
    } for ns in sets))


def _typed(value, kind, what: str):
    """`value` if it is a JSON string (str), number (float) or list (list)."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        name = {str: "string", float: "number", list: "list"}[kind]
        raise TypeError(f"{what} must be a {name}, got {type(value).__name__}")
    return value


def _scored(d, key: str) -> list:
    """The [[record_id, similarity], ...] list under `key`, as tuples."""
    pairs = []
    for i, p in enumerate(_typed(d[key], list, key)):
        if not isinstance(p, list) or len(p) != 2:
            raise TypeError(f"{key}[{i}] must be an [id, similarity] pair")
        pairs.append((_typed(p[0], str, f"{key}[{i}] id"),
                      _typed(p[1], float, f"{key}[{i}] similarity")))
    return pairs


def negative_sets_from_jsonl(path) -> list:
    return read_jsonl(path, lambda d: NegativeSet(
        _typed(d["family"], str, "family"),
        _scored(d, "hard"),
        _scored(d, "diverse"),
        _typed(d["threshold"], float, "threshold"),
    ))


def samples_to_jsonl(path, samples, corpus: Corpus) -> None:
    """A sample table of `corpus` rows as one line of record ids per sample."""
    ids = corpus.ids
    write_jsonl(path, ({"anchor": ids[a], "positive": ids[p], "negatives": [ids[r] for r in negs]}
                       for a, p, negs in zip(samples.anchor.tolist(), samples.positive.tolist(),
                                             samples.negatives.tolist())))


def samples_from_jsonl(path, corpus: Corpus | None = None) -> np.recarray:
    """The sample table of a samples file: the rows of `corpus` its ids
    name, or without a corpus the record ids themselves (object fields).

    Every line lists as many negatives as the first, and at least one;
    a line that does not raises FormatError "<path>: line <n>: ...". An id
    `corpus` does not hold raises MissingRecord "<path>: sample <i>: no
    record <id>" for the first such id, once every line has parsed.
    """
    widths, missing = [], []

    def parse(d):
        ids = [d["anchor"], d["positive"]]
        negatives = d.get("negatives")
        if type(negatives) is list:
            ids += negatives
        if type(negatives) is not list or not all(type(x) is str for x in ids):
            # some field is missing or of the wrong type: the typed reads name it
            ids = [_typed(d["anchor"], str, "anchor"), _typed(d["positive"], str, "positive")]
            ids += [_typed(n, str, f"negatives[{i}]")
                    for i, n in enumerate(_typed(d["negatives"], list, "negatives"))]
        if len(ids) == 2:
            raise ValueError("negatives is empty")
        if widths and len(ids) != widths[0]:
            raise ValueError(f"{len(ids) - 2} negatives, the first sample has {widths[0] - 2}")
        widths.append(len(ids))
        if corpus is None:
            return ids
        rows = [corpus.rows.get(rid, -1) for rid in ids]
        if -1 in rows and not missing:
            missing.append((len(widths), ids[rows.index(-1)]))
        return rows

    lines = read_jsonl(path, parse)
    if missing:
        raise MissingRecord(path, *missing[0])
    dtype = object if corpus is None else np.intp
    samples = sample_table(len(lines), widths[0] - 2, dtype)
    matrix = np.array(lines, dtype=dtype)
    samples.anchor, samples.positive, samples.negatives = matrix[:, 0], matrix[:, 1], matrix[:, 2:]
    return samples


def histogram_to_csv(path, edges, counts) -> None:
    write_csv(path, ["bin_left", "bin_right", "count"],
              ([repr(float(edges[i])), repr(float(edges[i + 1])), int(c)]
               for i, c in enumerate(counts)))
