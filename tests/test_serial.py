import numpy as np
import pytest

from cftmal.data import FormatError
from cftmal.fusion import FusionModel, TeacherModel, init_teacher
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


@pytest.mark.parametrize("where", ["weight", "bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_read_layers_rejects_non_finite_parameters(tmp_path, where, value):
    layers = [DenseLayer(np.ones((3, 2)), np.zeros(3), "relu"),
              DenseLayer(np.ones((2, 3)), np.zeros(2), "identity")]
    if where == "weight":
        layers[1].weights[0, 2] = 7.0
    else:
        layers[1].bias[1] = 7.0
    path = tmp_path / "m.adp1"
    write_layers(path, b"ADP1", layers)
    # the writer refuses non-finite values, so patch the one 7.0 in the file
    raw = path.read_bytes()
    assert raw.count(np.float32(7.0).tobytes()) == 1
    path.write_bytes(raw.replace(np.float32(7.0).tobytes(), np.float32(value).tobytes()))
    with pytest.raises(FormatError, match="m.adp1: layer 1: non-finite weight or bias"):
        read_layers(path, b"ADP1")


def test_model_load_names_file_on_wrong_layer_count(tmp_path):
    path = tmp_path / "t.fus1"
    teacher = init_teacher(attr_dim=4, n_classes=3, seed=0)
    write_layers(path, FusionModel.MAGIC, teacher.layers)
    with pytest.raises(FormatError, match="t.fus1: expected 5 layers in a FUS1 checkpoint, got 3"):
        FusionModel.load(path)
    teacher.save(path)
    assert TeacherModel.load(path).n_classes == 3


def test_failed_write_leaves_previous_checkpoint(tmp_path):
    layers = [DenseLayer(np.ones((3, 2)), np.zeros(3), "relu"),
              DenseLayer(np.ones((2, 3)), np.zeros(2), "identity")]
    path = tmp_path / "m.adp1"
    write_layers(path, b"ADP1", layers)
    before = path.read_bytes()
    layers[1].activation = "not-an-activation"  # fails after layer 0 is written
    with pytest.raises(ValueError):
        write_layers(path, b"ADP1", layers)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.adp1"]


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
def test_write_layers_refuses_values_not_finite_as_float32(tmp_path, value):
    layers = [DenseLayer(np.ones((3, 2)), np.zeros(3), "relu"),
              DenseLayer(np.ones((2, 3)), np.zeros(2), "identity")]
    path = tmp_path / "m.adp1"
    write_layers(path, b"ADP1", layers)
    before = path.read_bytes()
    layers[1].bias[1] = value  # 1e39 is finite as float64, inf as float32
    with pytest.raises(ValueError, match="m.adp1: layer 1: non-finite weight or bias as float32"):
        write_layers(path, b"ADP1", layers)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.adp1"]
