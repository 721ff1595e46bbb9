"""Property tests for the file formats: EMB1, the embeddings and attributes
CSVs, negatives/samples JSONL and the ADP1/FUS1/TCH1 layer checkpoints.

Every format round-trips its data exactly. A truncated, byte-corrupted or
garbage file either still loads or raises FormatError whose message starts
with the file path; no other exception escapes a reader.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cftmal.data import (
    EMB1_MAGIC,
    Corpus,
    DescriptionRecord,
    FormatError,
    load_attributes,
    load_embeddings,
    write_attributes,
    write_csv,
    write_embeddings,
)
from cftmal.mining import (
    NegativeSet,
    negative_sets_from_jsonl,
    negative_sets_to_jsonl,
    samples_from_jsonl,
    samples_to_jsonl,
    sample_table,
)
from cftmal.numeric import ACTIVATIONS, DenseLayer
from cftmal.serial import read_layers, write_layers

# Few examples per property keep the suite's wall time flat; derandomize
# makes every run draw the same examples.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
finite = st.floats(allow_nan=False, allow_infinity=False)
finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


# --- the formats: a strategy for plain data, a writer and a reader that
# --- returns the same plain data


@st.composite
def tables(draw, elements):
    """(unique ids, families, one row of 1-4 values per record), 1-6 records."""
    ids = draw(st.lists(text, min_size=1, max_size=6, unique=True))
    n = len(ids)
    families = draw(st.lists(text, min_size=n, max_size=n))
    d = draw(st.integers(1, 4))
    return ids, families, draw(st.lists(st.lists(elements, min_size=d, max_size=d),
                                        min_size=n, max_size=n))


def write_emb1(path, table):
    ids, families, rows = table
    write_embeddings(path, Corpus(
        [DescriptionRecord(i, f, np.array(v)) for i, f, v in zip(ids, families, rows)],
        len(rows[0]),
    ))


def write_embeddings_csv(path, table):
    ids, families, rows = table
    write_csv(path, ["id", "family"] + [f"v{j}" for j in range(len(rows[0]))],
              ([i, f] + [repr(x) for x in v] for i, f, v in zip(ids, families, rows)))


def read_corpus(path):
    records = load_embeddings(path).records
    return ([r.id for r in records], [r.family for r in records],
            [r.vector.tolist() for r in records])


def write_attribute_table(path, table):
    ids, families, rows = table
    write_attributes(path, Corpus([DescriptionRecord(i, f, np.array(v))
                                   for i, f, v in zip(ids, families, rows)], len(rows[0])))


def read_attribute_table(path):
    records = load_attributes(path).records
    return ([r.id for r in records], [r.family for r in records],
            [r.vector.tolist() for r in records])


# the samples file names records of a corpus: a fixed one whose ids need
# escaping in JSON, and samples of K negatives each, rows into it
SAMPLE_CORPUS = Corpus([DescriptionRecord(rid, "f", np.zeros(1))
                        for rid in ["a", "", "é", 'q"uote', "back\\slash", "tab\t", "\u2028", "💾"]], 1)
K = 3


def write_samples(path, rows):
    samples = sample_table(len(rows), K)
    matrix = np.array(rows, dtype=np.intp)
    samples.anchor, samples.positive, samples.negatives = matrix[:, 0], matrix[:, 1], matrix[:, 2:]
    samples_to_jsonl(path, samples, SAMPLE_CORPUS)


def read_samples(path):
    samples = samples_from_jsonl(path, SAMPLE_CORPUS)
    return np.column_stack([samples.anchor, samples.positive, samples.negatives]).tolist()


@st.composite
def layer(draw):
    out_dim, in_dim = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    weights = draw(st.lists(st.lists(finite32, min_size=in_dim, max_size=in_dim),
                            min_size=out_dim, max_size=out_dim))
    bias = draw(st.lists(finite32, min_size=out_dim, max_size=out_dim))
    return weights, bias, draw(st.sampled_from(ACTIVATIONS))


def layer_format(magic):
    def write(path, layers):
        write_layers(path, magic, [DenseLayer(np.array(w), np.array(b), a) for w, b, a in layers])

    def read(path):
        return [(l.weights.tolist(), l.bias.tolist(), l.activation)
                for l in read_layers(path, magic)]

    return st.lists(layer(), min_size=1, max_size=3), write, read


neg_pairs = st.lists(st.tuples(text, finite), max_size=4)

# name: (data strategy, writer, reader)
FORMATS = {
    "emb1": (tables(finite32), write_emb1, read_corpus),
    "embeddings_csv": (tables(finite), write_embeddings_csv, read_corpus),
    "attributes_csv": (tables(finite), write_attribute_table, read_attribute_table),
    "negatives_jsonl": (
        st.lists(st.builds(NegativeSet, text, neg_pairs, neg_pairs, finite),
                 min_size=1, max_size=4),
        negative_sets_to_jsonl, negative_sets_from_jsonl,
    ),
    "samples_jsonl": (
        st.lists(st.lists(st.integers(0, len(SAMPLE_CORPUS) - 1), min_size=2 + K, max_size=2 + K),
                 min_size=1, max_size=4),
        write_samples, read_samples,
    ),
    **{magic: layer_format(magic.encode("ascii")) for magic in ("ADP1", "FUS1", "TCH1")},
}


def loads_or_names_path(read, path):
    try:
        read(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: "), str(exc)


# --- properties -----------------------------------------------------------


@PROPERTY
@given(name=st.sampled_from(sorted(FORMATS)), data=st.data())
def test_round_trip(tmp, name, data):
    strategy, write, read = FORMATS[name]
    value = data.draw(strategy, label="written")
    path = tmp / name
    write(path, value)
    assert read(path) == value


@settings(PROPERTY, max_examples=200)
@given(name=st.sampled_from(sorted(FORMATS)), truncate=st.booleans(), data=st.data())
def test_damaged_file_loads_or_names_path(tmp, name, truncate, data):
    strategy, write, read = FORMATS[name]
    path = tmp / name
    write(path, data.draw(strategy, label="written"))
    raw = path.read_bytes()
    pos = data.draw(st.integers(0, len(raw) - 1), label="position")
    if truncate:
        raw = raw[:pos]
    else:
        raw = raw[:pos] + bytes([data.draw(st.integers(0, 255), label="byte")]) + raw[pos + 1:]
    path.write_bytes(raw)
    loads_or_names_path(read, path)


@settings(PROPERTY, max_examples=100)
@given(name=st.sampled_from(sorted(FORMATS)), prefix=st.sampled_from([b"", EMB1_MAGIC]),
       garbage=st.binary(max_size=64))
def test_garbage_loads_or_names_path(tmp, name, prefix, garbage):
    """Without the EMB1 magic, `load_embeddings` reads garbage as CSV."""
    path = tmp / "garbage"
    path.write_bytes(prefix + garbage)
    loads_or_names_path(FORMATS[name][2], path)
