"""Corpus ingestion (embeddings and attribute tables alike), the one pairing
of attribute rows with corpus rows, the EMB1 binary format, the CSV and JSONL
helpers every text artifact goes through, the opener every artifact is
written with, synthetic corpora and splits."""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

EMB1_MAGIC = b"EMB1"


class FormatError(ValueError):
    """A file does not conform to its declared format."""


@dataclass
class DescriptionRecord:
    id: str
    family: str
    vector: np.ndarray


class Corpus:
    """The rows of one feature set, description embeddings or attribute
    vectors, stored once as the columns every stage reads: `ids`; `labels`,
    each row's index into `families` (the sorted label set unless given);
    `rows`, record id -> row; and `vectors`, one read-only (n, dim) float64
    matrix. `records` are made from them on demand."""

    def __init__(self, records, dim: int, families=None):
        records = list(records)
        for r in records:
            if r.vector.shape != (dim,):
                raise FormatError(f"record {r.id!r}: dim {r.vector.shape[0]} != corpus dim {dim}")
        vectors = np.array([r.vector for r in records], dtype=np.float64).reshape(len(records), dim)
        self._fill([r.id for r in records], [r.family for r in records], vectors, families)

    @classmethod
    def from_columns(cls, ids, row_families, vectors, families=None) -> "Corpus":
        """Row i is (ids[i], row_families[i], vectors[i]); `vectors` is kept, read-only."""
        return cls.__new__(cls)._fill(ids, row_families, vectors, families)

    def _fill(self, ids, row_families, vectors, families) -> "Corpus":
        self.ids, self.rows = tuple(ids), {}
        self.families = list(families) if families else sorted(set(row_families))
        classes = self.class_index()
        self.labels = np.empty(len(self.ids), dtype=np.int64)
        for i, (rid, fam) in enumerate(zip(self.ids, row_families)):
            first = self.rows.setdefault(rid, i)
            if first != i:
                raise FormatError(f"duplicate record id {rid!r} at rows {first} and {i}")
            if fam not in classes:
                raise FormatError(f"record {rid!r}: family {fam!r} is not a corpus family")
            self.labels[i] = classes[fam]
        self.vectors = np.asarray(vectors, dtype=np.float64)
        self.dim = self.vectors.shape[1]
        self.vectors.flags.writeable = False
        return self

    def take(self, rows, vectors=None) -> "Corpus":
        """The given rows in that order, with `vectors` in place of theirs if given."""
        return Corpus.from_columns([self.ids[i] for i in rows],
                                   [self.families[self.labels[i]] for i in rows],
                                   self.vectors[rows] if vectors is None else vectors,
                                   self.families)

    def __len__(self):
        return len(self.ids)

    def record(self, i: int) -> DescriptionRecord:
        """Row i as a record whose `vector` is a read-only view of `vectors[i]`."""
        return DescriptionRecord(self.ids[i], self.families[self.labels[i]], self.vectors[i])

    @property
    def records(self) -> list:
        """A new list of every row as a `record`."""
        return [self.record(i) for i in range(len(self))]

    def by_family(self) -> dict:
        out = {f: [] for f in self.families}
        for r in self.records:
            out[r.family].append(r)
        return out

    def class_index(self) -> dict:
        """Dense class indices assigned by `families` order."""
        return {f: i for i, f in enumerate(self.families)}


@contextlib.contextmanager
def replace_file(path, mode="wb", **open_kw):
    """Write `path` as a new file: the body writes to `<path>.part`, opened
    with `open(part, mode, **open_kw)`; on a clean exit `path` is unlinked and
    the part renamed onto it. If the body raises, the part is removed and an
    existing `path` is left untouched, so no reader ever sees a truncated
    artifact under the real name. A stale part from a killed run is replaced.

    The old file is unlinked before the rename, never truncated or renamed
    over: on ext4 with `auto_da_alloc` (the default) replacing a file either
    way most likely starts a flush of the replaced data, and the next
    overwrite of that name waits for it, 50-130 ms an artifact on an ext4
    root mounted `discard`. A symlink at `path` is replaced by the new file,
    not written through. No fsync is made.
    """
    part = f"{os.fspath(path)}.part"
    with contextlib.suppress(FileNotFoundError):
        os.unlink(part)
    try:
        with open(part, mode, **open_kw) as fh:
            yield fh
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.rename(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(part)
        raise


def write_embeddings(path, corpus: Corpus) -> None:
    """Write a corpus in the EMB1 binary format (float32 payload); a value
    that is not finite as float32, which the reader would reject, raises
    before anything is written."""
    with np.errstate(over="ignore"):
        payload = corpus.vectors.astype("<f4")
    finite = np.isfinite(payload).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"{path}: record {bad} ({corpus.ids[bad]!r}): "
                         "non-finite value as float32")
    with replace_file(path) as fh:
        fh.write(EMB1_MAGIC)
        fh.write(struct.pack("<II", len(corpus), corpus.dim))
        fh.write(payload.tobytes())
        encode = json.JSONEncoder(sort_keys=True).encode
        for rid, label in zip(corpus.ids, corpus.labels.tolist()):
            fh.write(encode({"id": rid, "family": corpus.families[label]}).encode("utf-8") + b"\n")


def _read_emb1(path) -> Corpus:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes, need 12)")
    if raw[:4] != EMB1_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    n, d = struct.unpack("<II", raw[4:12])
    if d < 1:
        raise FormatError(f"{path}: dimension must be positive, got {d}")
    if n == 0:
        raise FormatError(f"{path}: no records")
    payload_end = 12 + 4 * n * d
    if len(raw) < payload_end:
        raise FormatError(f"{path}: truncated payload at byte {len(raw)}, expected {payload_end}")
    vectors = np.frombuffer(raw[12:payload_end], dtype="<f4").reshape(n, d)
    if not np.isfinite(vectors).all():
        bad = int(np.argwhere(~np.isfinite(vectors).all(axis=1))[0][0])
        raise FormatError(f"{path}: non-finite value in record {bad}")
    lines = [ln for ln in raw[payload_end:].split(b"\n") if ln.strip()]
    if len(lines) != n:
        raise FormatError(f"{path}: trailer has {len(lines)} lines, expected {n}")
    ids, families = zip(*(_json_line(path, f"trailer line {i}", ln,
                                     lambda meta: (str(meta["id"]), str(meta["family"])))
                          for i, ln in enumerate(lines)))
    try:
        return Corpus.from_columns(ids, families, vectors.astype(np.float64))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_embeddings(path) -> Corpus:
    """Load a corpus from EMB1 binary or id,family,v... CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == EMB1_MAGIC:
        return _read_emb1(path)
    return _read_feature_csv(path, id_family_first=True)


def load_attributes(path) -> Corpus:
    """Load an attribute table from a CSV with id, family and numeric columns."""
    return _read_feature_csv(path, id_family_first=False)


def write_attributes(path, table: Corpus) -> None:
    if not len(table):
        raise ValueError("no attribute records to write")
    write_csv(path, ["id", "family"] + [f"f{i}" for i in range(table.dim)],
              ([rid, table.families[label]] + [repr(v) for v in row.tolist()]
               for rid, label, row in zip(table.ids, table.labels.tolist(), table.vectors)))


def attribute_rows(corpus: Corpus, table: Corpus) -> np.ndarray:
    """The row of `table` paired with each row of `corpus` by record id; the
    attribute row must carry its record's family."""
    rows = np.empty(len(corpus), dtype=np.int64)
    for i, (rid, label) in enumerate(zip(corpus.ids, corpus.labels.tolist())):
        j = table.rows.get(rid)
        if j is None:
            raise ValueError(f"record {rid!r} has no attribute row")
        family, own = table.families[table.labels[j]], corpus.families[label]
        if family != own:
            raise ValueError(f"record {rid!r}: attribute row family {family!r} "
                             f"!= embedding family {own!r}")
        rows[i] = j
    return rows


# --- CSV and JSONL: every text artifact goes through these helpers. A reader
# that meets bad input raises FormatError whose message starts with the file
# path and names the line (JSONL) or row (CSV, header = row 1).


def write_csv(path, header, rows) -> None:
    """A header row, then one CSV row per sequence of cells in `rows`."""
    with replace_file(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_jsonl(path, objects) -> None:
    """One JSON object per line, keys sorted."""
    encode = json.JSONEncoder(sort_keys=True).encode  # one encoder per file
    with replace_file(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(encode(obj) + "\n")


def read_jsonl(path, parse) -> list:
    """`parse(obj)` for the JSON value on each non-blank line, in order.

    A line that is not UTF-8 JSON, or whose value `parse` rejects with
    KeyError, TypeError or ValueError, raises FormatError
    "<path>: line <n>: ..."; a file without a line raises "<path>: no lines".
    """
    with open(path, "rb") as fh:
        values = [_json_line(path, f"line {n}", ln, parse)
                  for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not values:
        raise FormatError(f"{path}: no lines")
    return values


def _json_line(path, where: str, raw: bytes, parse):
    try:
        return parse(json.loads(raw.decode("utf-8")))
    except KeyError as exc:
        raise FormatError(f"{path}: {where}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise FormatError(f"{path}: {where}: {exc}") from exc


def _read_feature_csv(path, id_family_first: bool) -> Corpus:
    """The rows of a CSV with `id` and `family` columns as a Corpus; every
    other column is a finite float feature, ids are unique and at least one
    row is needed. `id_family_first` requires those two columns to lead."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file")
            if id_family_first and header[:2] != ["id", "family"]:
                raise FormatError(f"{path}: header must start with id,family")
            for col in ("id", "family"):
                if col not in header:
                    raise FormatError(f"{path}: missing required column {col!r}")
            id_ix, fam_ix = header.index("id"), header.index("family")
            feat_ix = [i for i in range(len(header)) if i not in (id_ix, fam_ix)]
            if not feat_ix:
                raise FormatError(f"{path}: no feature columns")
            ids, families, values, first_row = [], [], [], {}
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}: row {rownum} has {len(row)} columns, expected {len(header)}"
                    )
                try:
                    vec = np.array([float(row[i]) for i in feat_ix], dtype=np.float64)
                except ValueError as exc:
                    raise FormatError(f"{path}: row {rownum}: {exc}") from exc
                if not np.isfinite(vec).all():
                    raise FormatError(f"{path}: row {rownum}: non-finite value")
                first = first_row.setdefault(row[id_ix], rownum)
                if first != rownum:
                    raise FormatError(
                        f"{path}: duplicate id {row[id_ix]!r} at rows {first} and {rownum}"
                    )
                ids.append(row[id_ix])
                families.append(row[fam_ix])
                values.append(vec)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not ids:
        raise FormatError(f"{path}: no records")
    return Corpus.from_columns(ids, families, np.array(values))


@dataclass
class SyntheticSpec:
    """Parameters of the synthetic benchmark corpus generator."""

    n_families: int = 10
    records_per_family: int = 200
    embedding_dim: int = 64
    attribute_dim: int = 32
    cluster_spread: float = 0.4
    inter_cluster_overlap: float = 0.7
    attribute_spread: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_families < 1 or self.records_per_family < 1:
            raise ValueError("counts must be >= 1")
        if self.embedding_dim < 1 or self.attribute_dim < 1:
            raise ValueError("dims must be >= 1")
        if not 0.0 <= self.inter_cluster_overlap <= 1.0:
            raise ValueError("inter_cluster_overlap must be in [0, 1]")
        for name in ("cluster_spread", "attribute_spread"):
            if not math.isfinite(getattr(self, name)) or getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def generate_synthetic(spec: SyntheticSpec):
    """Build a (corpus, attribute table) pair of Corpus from a synthetic spec.

    Family embedding centroids mix three unit directions: one per family,
    one shared within small groups of families (so some families are much
    more confusable than others, as in real description corpora) and one
    global direction whose weight grows with `inter_cluster_overlap`.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    o, d, m = spec.inter_cluster_overlap, spec.embedding_dim, spec.attribute_dim

    g = _unit(rng, d)
    centroids = []
    for _ in range(spec.n_families):
        u = _unit(rng, d)
        u -= (u @ g) * g  # keep the family direction orthogonal to the shared one
        u /= np.linalg.norm(u)
        centroids.append(math.sqrt(1.0 - o * o) * u + o * g)

    # one-way drift: for every family pair exactly one side may emit records
    # drifting toward the other, so the corridor between two centroids only
    # ever holds one family's labels
    nf = spec.n_families
    allowed = [[] for _ in range(nf)]
    for a in range(nf):
        for b in range(a + 1, nf):
            if rng.random() < 0.5:
                allowed[a].append(b)
            else:
                allowed[b].append(a)

    centroids = np.array(centroids)
    ids, families, embs, attrs = [], [], [], []
    n = spec.records_per_family
    for f in range(nf):
        fam = f"family{f:02d}"
        attr_centroid = rng.standard_normal(m)
        noise = rng.standard_normal((n, d)) * (spec.cluster_spread / math.sqrt(d))
        # a minority of records drift toward another family's centroid and
        # sit near (or beyond) the inter-family boundary; the rest are typical
        hard_mask = (rng.random(n) < DRIFT_FRACTION) & (len(allowed[f]) > 0)
        beta = np.where(hard_mask, rng.uniform(DRIFT_LO, DRIFT_HI, n), rng.uniform(0.0, 0.05, n))
        target = rng.choice(allowed[f] or [f], size=n)
        embs.append((1.0 - beta)[:, None] * centroids[f] + beta[:, None] * centroids[target]
                    + noise)
        attrs.append(attr_centroid + rng.standard_normal((n, m)) * spec.attribute_spread)
        ids += [f"{fam}-{i:04d}" for i in range(n)]
        families += [fam] * n
    return (Corpus.from_columns(ids, families, np.concatenate(embs)),
            Corpus.from_columns(ids, families, np.concatenate(attrs)))


DRIFT_FRACTION = 0.55
DRIFT_LO, DRIFT_HI = 0.45, 0.7


def split_meta(corpus: Corpus, attributes: Corpus, holdout_fraction: float, seed: int):
    """Stratified per-family split into (train pool, meta-test pool).

    Each pool is a (corpus, attribute table) pair of row-aligned Corpus
    with the corpus's `families`; record ids in the two pools are disjoint
    and their union is the input. Every record needs an attribute row of its
    own family.
    """
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in [0, 1)")
    attr_rows = attribute_rows(corpus, attributes)
    rng = np.random.default_rng(seed)
    train_rows, test_rows = [], []
    for label in range(len(corpus.families)):
        fam_rows = np.flatnonzero(corpus.labels == label)
        n_test = int(round(len(fam_rows) * holdout_fraction))
        test_ix = set(rng.permutation(len(fam_rows))[:n_test].tolist())
        for i, row in enumerate(fam_rows.tolist()):
            (test_rows if i in test_ix else train_rows).append(row)

    return tuple((corpus.take(rows), corpus.take(rows, attributes.vectors[attr_rows[rows]]))
                 for rows in (train_rows, test_rows))
