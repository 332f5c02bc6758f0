import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_unitdet, sample_curve, smooth_unitdet_curve
from spdtraj import io
from spdtraj.alignment import random_warp
from spdtraj.analysis import DistanceMatrix
from spdtraj.estimation import CovarianceTrajectory
from spdtraj.reduction import StiefelBasis


def test_matrix_binary_roundtrip(tmp_path, rng):
    # a trajectory archive holds one SPDM matrix record per sample
    M = random_unitdet(rng, 5)
    path = tmp_path / "m.spdt"
    io.save_trajectory(path, CovarianceTrajectory(matrices=M[None]))
    raw = path.read_bytes()
    assert raw[12:16] == b"SPDM"
    assert len(raw) == 12 + 4 + 4 + 8 * 25
    np.testing.assert_array_equal(io.load_trajectory(path).matrices[0], M)


def test_trajectory_roundtrip(tmp_path, rng):
    traj = sample_curve(smooth_unitdet_curve(rng, 3), 7)
    path = tmp_path / "t.spdt"
    io.save_trajectory(path, traj)
    raw = path.read_bytes()
    assert raw[:4] == b"SPDT"
    back = io.load_trajectory(path)
    np.testing.assert_array_equal(back.matrices, traj.matrices)
    assert back.length == 7 and back.dim == 3


def test_trajectory_rejects_truncated(tmp_path, rng):
    traj = sample_curve(smooth_unitdet_curve(rng, 3), 4)
    path = tmp_path / "t.spdt"
    io.save_trajectory(path, traj)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(Exception):
        io.load_trajectory(path)


def _valid_file(kind: str, n: int, k: int) -> bytes:
    """Bytes of a valid trajectory (length k) or basis (n x min(k, n)) file."""
    if kind == "trajectory":
        record = b"SPDM" + np.array([n], "<u4").tobytes() + np.eye(n).tobytes()
        return b"SPDT" + np.array([n, k], "<u4").tobytes() + record * k
    d = min(k, n)
    return b"STFB" + np.array([n, d], "<u4").tobytes() + np.eye(n)[:, :d].tobytes(order="F")


_LOADERS = {"trajectory": io.load_trajectory, "basis": io.load_basis}


@given(hs.sampled_from(sorted(_LOADERS)), hs.integers(1, 4), hs.integers(1, 4), hs.data())
@settings(max_examples=80, deadline=None)
def test_every_truncation_raises_format_error(tmp_path_factory, kind, n, k, data):
    raw = _valid_file(kind, n, k)
    path = tmp_path_factory.mktemp("trunc") / f"f.{kind}"
    path.write_bytes(raw)
    _LOADERS[kind](path)  # the untruncated file loads
    keep = data.draw(hs.integers(0, len(raw) - 1), label="kept bytes")
    path.write_bytes(raw[:keep])
    with pytest.raises(io.FormatError):
        _LOADERS[kind](path)


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_header_larger_than_file_is_rejected_before_allocation(tmp_path, kind):
    # 60000^3 doubles would be 1.5 PiB: the size check must come first
    raw = bytearray(_valid_file(kind, 2, 2))
    raw[4:12] = np.array([60000, 60000], "<u4").tobytes()
    path = tmp_path / "huge.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError, match="header implies"):
        _LOADERS[kind](path)


@pytest.mark.parametrize(
    "at, value, message",
    [(0, b"SPDX", "bad matrix magic"),
     (4, np.array([60000], "<u4").tobytes(), "matrix has dim 60000 != 2")],
    ids=["magic", "huge-dim"],
)
def test_trajectory_rejects_a_bad_matrix_record(tmp_path, at, value, message):
    # the archive's header and size are right; its second record is not
    raw = bytearray(_valid_file("trajectory", 2, 3))
    start = 12 + (8 + 8 * 4) + at
    raw[start : start + 4] = value
    path = tmp_path / "t.spdt"
    path.write_bytes(bytes(raw))
    with pytest.raises(io.FormatError) as exc:
        io.load_trajectory(path)
    assert str(exc.value) == f"{path}: matrix 1: {message}"


def test_basis_roundtrip_column_major(tmp_path, rng):
    B = StiefelBasis(matrix=np.linalg.qr(rng.normal(size=(6, 2)))[0])
    path = tmp_path / "b.stfb"
    io.save_basis(path, B)
    raw = path.read_bytes()
    assert raw[:4] == b"STFB"
    # column-major: first 8 floats are the first column
    col0 = np.frombuffer(raw[12 : 12 + 8 * 6], dtype="<f8")
    np.testing.assert_array_equal(col0, B.matrix[:, 0])
    back = io.load_basis(path)
    np.testing.assert_array_equal(back.matrix, B.matrix)


def test_warp_csv_roundtrip(tmp_path):
    w = random_warp(12, 0.4, seed=3)
    path = tmp_path / "w.csv"
    io.save_warp_csv(path, w)
    assert path.read_text().startswith("t,gamma\n")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], w.knots_x)
    np.testing.assert_array_equal(back[:, 1], w.knots_y)


def test_distance_csv_roundtrip(tmp_path):
    D = DistanceMatrix(
        ids=["x", "y", "z"],
        values=np.array([[0, 1.5, 2.25], [1.5, 0, 0.125], [2.25, 0.125, 0]]),
        metric="dc",
    )
    path = tmp_path / "d.csv"
    io.save_distance_csv(path, D)
    back = io.load_distance_csv(path, metric="dc")
    assert back.ids == D.ids
    np.testing.assert_array_equal(back.values, D.values)


def test_distance_csv_full_precision_roundtrip(tmp_path, rng):
    # full-precision values come back bit for bit
    values = np.abs(rng.normal(size=(4, 4)))
    D = DistanceMatrix(ids=["a", "b", "c", "d"], values=values, metric="dc")
    path = tmp_path / "d.csv"
    io.save_distance_csv(path, D)
    np.testing.assert_array_equal(io.load_distance_csv(path).values, D.values)


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    io.save_labels_csv(path, ["a", "b"], [0, 1])
    assert io.load_labels_csv(path) == {"a": "0", "b": "1"}


@pytest.mark.parametrize(
    "loader, text, line, message",
    [
        (io.load_distance_csv, "a,b\n0.0,1.0\n1.0,x\n", 3, "cell 'x' is not a number"),
        (io.load_distance_csv, "a,b\n0.0,1.0\n\n1.0,x\n", 4, "cell 'x' is not a number"),
        (io.load_distance_csv, "a,b\nx,1.0\n1.0,0.0\n", 2, "cell 'x' is not a number"),
        (io.load_distance_csv, "a,b,c\n0.0,1.0,2.0\n1.0,?,0.5\n2.0,0.5,0.0\n", 3,
         "cell '?' is not a number"),
        (io.load_distance_csv, "a,b\n0.0,inf\ninf,0.0\n", 2, "cell 'inf' is not finite"),
        (io.load_distance_csv, "a,b\n0.0,1.0\n\n1.0\n", 4, "expected 2 cells, found 1"),
        (io.load_distance_csv, "a,b\n0.0,1.0\n1.0,0.0,2.0\n", 3, "expected 2 cells, found 3"),
        (io.load_labels_csv, "id,label\na,0\nb\n", 3, "expected 2 cells, found 1"),
        (io.load_labels_csv, "a,0\nb\n", 2, "expected 2 cells, found 1"),
    ],
)
def test_csv_loaders_name_file_and_line(tmp_path, loader, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_values_csv(tmp_path):
    path = tmp_path / "v.csv"
    io.save_values_csv(path, [0.5, 0.25], header="val")
    assert path.read_text() == "val\n0.5\n0.25\n"


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    io.save_manifest(path, {"b": 1, "a": [1, 2]})
    assert json.loads(path.read_text()) == {"a": [1, 2], "b": 1}


def test_sha256_file_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"hello")
    assert io.sha256_file(p) == io.sha256_file(p)
