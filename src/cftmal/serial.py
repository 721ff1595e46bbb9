"""Binary checkpoints for layer stacks (ADP1 / FUS1 / TCH1 magics)."""

from __future__ import annotations

import struct

import numpy as np

from .data import FormatError, replace_file
from .numeric import ACTIVATIONS, DenseLayer


def write_layers(path, magic: bytes, layers) -> None:
    """Write `layers` as float32; a value that is not finite as float32,
    which `read_layers` would reject, raises before anything is written."""
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    with np.errstate(over="ignore"):
        params = [(layer.weights.astype("<f4"), layer.bias.astype("<f4")) for layer in layers]
    for i, (w, b) in enumerate(params):
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"{path}: layer {i}: non-finite weight or bias as float32")
    with replace_file(path) as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(layers)))
        for layer, (w, b) in zip(layers, params):
            fh.write(struct.pack("<IIB", layer.out_dim, layer.in_dim,
                                 ACTIVATIONS.index(layer.activation)))
            fh.write(w.tobytes())
            fh.write(b.tobytes())


def read_layers(path, magic: bytes):
    """The layers of a checkpoint, as float32 like the file holds them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    if raw[:4] != magic:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    (n_layers,) = struct.unpack("<I", raw[4:8])
    off = 8
    layers = []
    for i in range(n_layers):
        if len(raw) < off + 9:
            raise FormatError(f"{path}: truncated layer header at byte {off}")
        out_dim, in_dim, act = struct.unpack("<IIB", raw[off : off + 9])
        off += 9
        if act >= len(ACTIVATIONS):
            raise FormatError(f"{path}: layer {i}: unknown activation code {act}")
        n_w = out_dim * in_dim
        end = off + 4 * (n_w + out_dim)
        if len(raw) < end:
            raise FormatError(f"{path}: truncated parameters at byte {len(raw)}, need {end}")
        w = np.frombuffer(raw[off : off + 4 * n_w], dtype="<f4").reshape(out_dim, in_dim)
        b = np.frombuffer(raw[off + 4 * n_w : end], dtype="<f4")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise FormatError(f"{path}: layer {i}: non-finite weight or bias")
        off = end
        layers.append(DenseLayer(w.astype(np.float32), b.astype(np.float32), ACTIVATIONS[act]))
    if off != len(raw):
        raise FormatError(
            f"{path}: trailing bytes: layers end at byte {off}, file is {len(raw)} bytes"
        )
    return layers
