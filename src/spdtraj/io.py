"""The files that the commands read and write.

Trajectory archives, bases, CSV tables (distance matrices, labels, warps,
values and reports) and run manifests.  Binary layouts (all little-endian):
  trajectory magic ``SPDT`` | u32 dim | u32 length | ``length`` matrix records
  matrix     magic ``SPDM`` | u32 dim | f64 entries row-major (one record)
  basis      magic ``STFB`` | u32 n | u32 d | f64 entries column-major

A trajectory archive stores no times: a trajectory of length T sits on the
uniform grid ``linspace(0, 1, T)``.

Text formats use shortest round-trip float formatting so identical data
produces identical bytes.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .analysis import DistanceMatrix
from .estimation import CovarianceTrajectory
from .reduction import StiefelBasis

_MAGIC_MATRIX = b"SPDM"
_MAGIC_TRAJ = b"SPDT"
_MAGIC_BASIS = b"STFB"


class FormatError(ValueError):
    """File does not conform to the expected layout."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _lines(path) -> list[tuple[int, str]]:
    """The non-blank lines of a text file with their 1-based line numbers."""
    text = Path(path).read_text()
    return [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]


def _cells(
    path, lineno: int, line: str, width: int | None = None, number: bool = True
) -> list:
    """The comma-separated cells of one CSV line: finite floats, or strings.

    Every CSV loader parses its rows here, so a row of the wrong width or a
    cell that is not a finite number is one `FormatError` naming the file
    and line.
    """
    cells = line.split(",")
    if width is not None and len(cells) != width:
        raise FormatError(f"{path}:{lineno}: expected {width} cells, found {len(cells)}")
    if not number:
        return cells
    values = []
    for c in cells:
        try:
            v = float(c)
        except ValueError:
            raise FormatError(f"{path}:{lineno}: cell {c!r} is not a number") from None
        if not math.isfinite(v):
            raise FormatError(f"{path}:{lineno}: cell {c!r} is not finite")
        values.append(v)
    return values


# ---------------------------------------------------------------------------
# matrix records


def _pack_matrix(M: np.ndarray) -> bytes:
    M = np.ascontiguousarray(M, dtype="<f8")
    return _MAGIC_MATRIX + struct.pack("<I", M.shape[0]) + M.tobytes()


def _read_checked(path, magic: bytes, what: str, fields: int, payload) -> tuple[bytes, tuple]:
    """File bytes and their header, once the file size matches the header.

    The header is the magic and ``fields`` positive u32 values; the file must
    hold exactly ``payload(*values)`` bytes after it.  Callers allocate only
    after this check, so a corrupt header cannot ask for a huge array.
    """
    buf = Path(path).read_bytes()
    head = 4 + 4 * fields
    if len(buf) < head:
        raise FormatError(f"{path}: {len(buf)} bytes, too short for a {what} header")
    if buf[:4] != magic:
        raise FormatError(f"{path}: bad {what} magic")
    values = struct.unpack_from(f"<{fields}I", buf, 4)
    if 0 in values:
        raise FormatError(f"{path}: {what} header has a zero dimension {values}")
    expected = head + payload(*values)
    if len(buf) != expected:
        raise FormatError(f"{path}: header implies {expected} bytes, file has {len(buf)}")
    return buf, values


def _unpack_matrix(buf: bytes, offset: int, n: int, where: str) -> np.ndarray:
    """The n x n matrix record at ``offset``; the caller has checked the size."""
    if buf[offset : offset + 4] != _MAGIC_MATRIX:
        raise FormatError(f"{where}: bad matrix magic")
    (m,) = struct.unpack_from("<I", buf, offset + 4)
    if m != n:
        raise FormatError(f"{where}: matrix has dim {m} != {n}")
    return np.frombuffer(buf, dtype="<f8", count=n * n, offset=offset + 8).reshape(n, n)


# ---------------------------------------------------------------------------
# trajectory archives


def save_trajectory(path, traj: CovarianceTrajectory) -> None:
    parts = [
        _MAGIC_TRAJ,
        struct.pack("<I", traj.dim),
        struct.pack("<I", traj.length),
    ]
    for M in traj.matrices:
        parts.append(_pack_matrix(M))
    Path(path).write_bytes(b"".join(parts))


def load_trajectory(path) -> CovarianceTrajectory:
    buf, (dim, length) = _read_checked(
        path, _MAGIC_TRAJ, "trajectory", 2, lambda n, T: T * (8 + 8 * n * n)
    )
    record = 8 + 8 * dim * dim
    mats = np.empty((length, dim, dim))
    for k in range(length):
        mats[k] = _unpack_matrix(buf, 12 + k * record, dim, f"{path}: matrix {k}")
    return CovarianceTrajectory(matrices=mats)


# ---------------------------------------------------------------------------
# bases


def save_basis(path, basis: StiefelBasis) -> None:
    B = np.asfortranarray(basis.matrix, dtype="<f8")
    payload = (
        _MAGIC_BASIS
        + struct.pack("<II", basis.n, basis.d)
        + B.tobytes(order="F")
    )
    Path(path).write_bytes(payload)


def load_basis(path) -> StiefelBasis:
    buf, (n, d) = _read_checked(path, _MAGIC_BASIS, "basis", 2, lambda n, d: 8 * n * d)
    B = np.frombuffer(buf[12:], dtype="<f8").reshape((n, d), order="F").astype(float)
    return StiefelBasis(matrix=B)


# ---------------------------------------------------------------------------
# CSV tables


def save_warp_csv(path, warp) -> None:
    lines = ["t,gamma"]
    for x, y in zip(warp.knots_x, warp.knots_y):
        lines.append(f"{_fmt(x)},{_fmt(y)}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_distance_csv(path, D: DistanceMatrix) -> None:
    lines = [",".join(D.ids)]
    for row in D.values:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_distance_csv(path, metric: str = "unknown") -> DistanceMatrix:
    """A distance matrix: a header of unique ids, then one row per id.

    Every value must be a finite, nonnegative number.
    """
    lines = _lines(path)
    if not lines:
        raise FormatError(f"{path}: empty distance file")
    ids = _cells(path, *lines[0], number=False)
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise FormatError(f"{path}:{lines[0][0]}: duplicate id {dup!r}")
    if len(lines) != len(ids) + 1:
        raise FormatError(f"{path}: expected {len(ids)} rows, found {len(lines) - 1}")
    rows = []
    for k, ln in lines[1:]:
        row = _cells(path, k, ln, len(ids))
        if min(row) < 0:
            raise FormatError(f"{path}:{k}: negative distance {min(row)!r}")
        rows.append(row)
    return DistanceMatrix(ids=ids, values=np.array(rows), metric=metric)


def save_labels_csv(path, ids: list[str], labels) -> None:
    lines = ["id,label"]
    for i, lab in zip(ids, labels):
        lines.append(f"{i},{lab}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_labels_csv(path) -> dict[str, str]:
    """Labels by id from ``id,label`` rows; ids are unique."""
    lines = _lines(path)
    if lines and lines[0][1] == "id,label":
        lines = lines[1:]
    out = {}
    for k, ln in lines:
        i, lab = _cells(path, k, ln, 2, number=False)
        if i in out:
            raise FormatError(f"{path}:{k}: duplicate id {i!r}")
        out[i] = lab
    return out


def save_values_csv(path, values, header: str | None = None) -> None:
    lines = [] if header is None else [header]
    lines.extend(_fmt(v) for v in values)
    Path(path).write_text("\n".join(lines) + "\n")


def save_table_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# manifests


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def save_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

