import numpy as np
import pytest

from cftmal.data import FormatError
from cftmal.numeric import DenseLayer
from cftmal.serial import read_layers, write_layers


@pytest.mark.parametrize("magic", [b"ADP1", b"FUS1", b"TCH1"])
def test_read_layers_rejects_trailing_bytes(tmp_path, magic):
    layers = [DenseLayer(np.ones((3, 2)), np.zeros(3), "relu"),
              DenseLayer(np.ones((2, 3)), np.zeros(2), "identity")]
    path = tmp_path / "m.bin"
    write_layers(path, magic, layers)
    size = path.stat().st_size
    assert len(read_layers(path, magic)) == 2
    with open(path, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(FormatError, match=f"m.bin: trailing bytes: layers end at byte {size}, "
                                          f"file is {size + 1} bytes"):
        read_layers(path, magic)
