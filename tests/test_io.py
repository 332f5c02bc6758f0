import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import random_unitdet, sample_curve, smooth_unitdet_curve
from spdtraj import io
from spdtraj.alignment import random_warp
from spdtraj.analysis import DistanceMatrix
from spdtraj.estimation import MultivariateTimeSeries
from spdtraj.reduction import StiefelBasis


def test_matrix_csv_roundtrip(tmp_path, rng):
    M = random_unitdet(rng, 4)
    path = tmp_path / "m.csv"
    io.save_matrix_csv(path, M)
    assert path.read_text().startswith("n=4\n")
    np.testing.assert_array_equal(io.load_matrix_csv(path), M)


def test_matrix_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0\n0.0,1.0\n")
    with pytest.raises(io.FormatError, match="header"):
        io.load_matrix_csv(path)


def test_matrix_binary_roundtrip(tmp_path, rng):
    M = random_unitdet(rng, 5)
    path = tmp_path / "m.spdm"
    io.save_matrix_binary(path, M)
    raw = path.read_bytes()
    assert raw[:4] == b"SPDM"
    assert len(raw) == 4 + 4 + 8 * 25
    np.testing.assert_array_equal(io.load_matrix_binary(path), M)


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
    """Bytes of a valid matrix, trajectory (length k) or basis (n x min(k, n)) file."""
    if kind == "matrix":
        return b"SPDM" + np.array([n], "<u4").tobytes() + np.eye(n).tobytes()
    if kind == "trajectory":
        record = b"SPDM" + np.array([n], "<u4").tobytes() + np.eye(n).tobytes()
        return b"SPDT" + np.array([n, k], "<u4").tobytes() + record * k
    d = min(k, n)
    return b"STFB" + np.array([n, d], "<u4").tobytes() + np.eye(n)[:, :d].tobytes(order="F")


_LOADERS = {"matrix": io.load_matrix_binary, "trajectory": io.load_trajectory,
            "basis": io.load_basis}


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


def test_timeseries_csv_roundtrip(tmp_path, rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(10, 3)))
    path = tmp_path / "ts.csv"
    io.save_timeseries_csv(path, ts, header=["a", "b", "c"])
    back = io.load_timeseries_csv(path)
    np.testing.assert_array_equal(back.values, ts.values)


def test_timeseries_csv_header_round_trips_or_is_rejected(tmp_path):
    ts = MultivariateTimeSeries(values=np.array([[0.5, 0.25], [0.75, 1.5]]))
    path = tmp_path / "ts.csv"
    io.save_timeseries_csv(path, ts, header=["a", "b"])
    assert path.read_text().splitlines()[0] == "a,b"
    np.testing.assert_array_equal(io.load_timeseries_csv(path).values, ts.values)
    # a header the loader would read as a data row, or of the wrong width
    for header in (["1", "2"], ["a", "2.5"], ["a"], ["a", "b", "c"], ["a,b", "c"], ["a\nb", "c"]):
        with pytest.raises(ValueError):
            io.save_timeseries_csv(tmp_path / "bad.csv", ts, header=header)
    assert not (tmp_path / "bad.csv").exists()


def test_timeseries_csv_headerless(tmp_path, rng):
    ts = MultivariateTimeSeries(values=rng.normal(size=(5, 2)))
    path = tmp_path / "ts.csv"
    io.save_timeseries_csv(path, ts)
    np.testing.assert_array_equal(io.load_timeseries_csv(path).values, ts.values)


def test_timeseries_csv_skips_header_without_numbers(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    np.testing.assert_array_equal(
        io.load_timeseries_csv(path).values, [[1.0, 2.0], [3.0, 4.0]]
    )
    path.write_text("a,b\n")
    with pytest.raises(io.FormatError, match="empty time-series file"):
        io.load_timeseries_csv(path)


def test_warp_csv_roundtrip(tmp_path):
    w = random_warp(12, 0.4, seed=3)
    path = tmp_path / "w.csv"
    io.save_warp_csv(path, w)
    back = io.load_warp_csv(path)
    np.testing.assert_array_equal(back.knots_x, w.knots_x)
    np.testing.assert_array_equal(back.knots_y, w.knots_y)


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


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    io.save_labels_csv(path, ["a", "b"], [0, 1])
    assert io.load_labels_csv(path) == {"a": "0", "b": "1"}


@pytest.mark.parametrize(
    "loader, text, line, message",
    [
        (io.load_matrix_csv, "n=2\n1.0,0.0\n0.0,x\n", 3, "cell 'x' is not a number"),
        (io.load_matrix_csv, "n=2\n1.0,0.0\n\n0.0\n", 4, "expected 2 cells, found 1"),
        (io.load_timeseries_csv, "a,b\n1.0,2.0\n3.0,inf\n", 3, "cell 'inf' is not finite"),
        (io.load_timeseries_csv, "1.0,2.0\n3.0\n", 2, "expected 2 cells, found 1"),
        (io.load_timeseries_csv, "1.0,x\n2.0,3.0\n4.0,5.0\n", 1, "cell 'x' is not a number"),
        (io.load_warp_csv, "t,gamma\n0.0,0.0\n0.5,?\n1.0,1.0\n", 3, "cell '?' is not a number"),
        (io.load_distance_csv, "a,b\n0.0,1.0\n1.0,0.0,2.0\n", 3, "expected 2 cells, found 3"),
        (io.load_labels_csv, "id,label\na,0\nb\n", 3, "expected 2 cells, found 1"),
    ],
)
def test_csv_loaders_name_file_and_line(tmp_path, loader, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(io.FormatError) as exc:
        loader(path)
    assert str(exc.value) == f"{path}:{line}: {message}"


def test_matrix_csv_rejects_non_integer_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("n=two\n1.0,0.0\n0.0,1.0\n")
    with pytest.raises(io.FormatError, match="header"):
        io.load_matrix_csv(path)


def test_values_csv(tmp_path):
    path = tmp_path / "v.csv"
    io.save_values_csv(path, [0.5, 0.25], header="val")
    assert path.read_text() == "val\n0.5\n0.25\n"


def test_manifest_roundtrip(tmp_path):
    path = tmp_path / "m.json"
    io.save_manifest(path, {"b": 1, "a": [1, 2]})
    assert io.load_manifest(path) == {"a": [1, 2], "b": 1}


def test_sha256_file_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"hello")
    assert io.sha256_file(p) == io.sha256_file(p)
