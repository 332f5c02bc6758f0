import json

import numpy as np
import pytest

from conftest import block_contrast
from spdtraj import io
from spdtraj.alignment import TrajectoryPair, align_dq, resample_trajectory
from spdtraj.cli import main


def run(argv):
    return main(argv)


def _artifact_checksums(manifest_path):
    man = json.loads(manifest_path.read_text())
    return {entry["path"].split("/")[-1]: entry["sha256"] for entry in man["outputs"]}


# ---------------------------------------------------------------------------
# simulate


def test_simulate_exp1_matrix_count(tmp_path):
    out = tmp_path / "exp1"
    code = run(
        ["simulate", "exp1", "--k", "3", "--T", "4", "--n", "8", "--seed", "7",
         "--out-dir", str(out)]
    )
    assert code == 0
    archives = sorted(out.glob("set*.spdt"))
    assert len(archives) == 3
    total = sum(io.load_trajectory(p).length for p in archives)
    assert total == 12


def test_simulate_exp2_repeatable_checksums(tmp_path):
    args = ["simulate", "exp2", "--n", "6", "--length", "100", "--window", "40",
            "--step", "10", "--out-length", "10", "--seed", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-dir", str(out1)]) == 0
    assert run(args + ["--out-dir", str(out2)]) == 0
    c1 = _artifact_checksums(out1 / "manifest.json")
    c2 = _artifact_checksums(out2 / "manifest.json")
    assert c1 == c2


def test_simulate_exp2_invalid_window_exits_2(tmp_path):
    code = run(
        ["simulate", "exp2", "--window", "400", "--length", "300",
         "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# distance


@pytest.fixture
def twoclass_dir(tmp_path):
    out = tmp_path / "tc"
    assert (
        run(
            ["simulate", "twoclass", "--n-per-class", "4", "--n", "3", "--T", "8",
             "--separation", "2.5", "--seed", "5", "--out-dir", str(out)]
        )
        == 0
    )
    return out


def test_distance_duplicate_inputs_zero_matrix(tmp_path, twoclass_dir):
    src = sorted(twoclass_dir.glob("traj*.spdt"))[0]
    dup = tmp_path / "dup.spdt"
    dup.write_bytes(src.read_bytes())
    out = tmp_path / "d.csv"
    assert run(["distance", str(src), str(dup), "--metric", "dc", "--out", str(out)]) == 0
    D = io.load_distance_csv(out)
    assert np.abs(D.values).max() < 1e-8


def test_distance_dq_not_exceeding_dc(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))[:4]]
    dc_out = tmp_path / "dc.csv"
    dq_out = tmp_path / "dq.csv"
    assert run(["distance", *inputs, "--metric", "dc", "--grid", "40", "--out", str(dc_out)]) == 0
    assert run(["distance", *inputs, "--metric", "dq", "--grid", "40", "--out", str(dq_out)]) == 0
    Dc = io.load_distance_csv(dc_out)
    Dq = io.load_distance_csv(dq_out)
    assert np.all(Dq.values <= Dc.values + 1e-8)
    # histogram and per-pair alignment report emitted for dq
    assert dq_out.with_suffix(".reduction_hist.csv").exists()
    report = dq_out.with_suffix(".alignment_report.csv").read_text().splitlines()
    assert report[0] == "id1,id2,d_c,d_q,relative_reduction"
    assert len(report) == 1 + 4 * 3 // 2
    # the refinement counters go to the manifest only
    man = json.loads(dq_out.with_suffix(".manifest.json").read_text())
    dc_man = json.loads(dc_out.with_suffix(".manifest.json").read_text())
    for key in ("refine_nonconverged", "refine_rounds", "refine_evaluations"):
        assert isinstance(man[key], int) and man[key] >= 0
        assert key not in dc_man
    assert 0 < man["refine_rounds"] <= man["refine_evaluations"]
    assert "dq_asymmetry_quantiles" not in dc_man


def test_distance_dq_manifest_asymmetry_quantiles(tmp_path, twoclass_dir):
    # nearest-rank p50 and p90, and the max, of |d_ij - d_ji| over the
    # pairs, each pair's two directions computed by align_dq
    paths = sorted(twoclass_dir.glob("traj*.spdt"))[:4]
    out = tmp_path / "dq.csv"
    argv = ["distance", *map(str, paths), "--metric", "dq", "--grid", "40", "--out", str(out)]
    assert run(argv) == 0
    man = json.loads(out.with_suffix(".manifest.json").read_text())
    trajs = [io.load_trajectory(p) for p in paths]
    gaps = []
    for i in range(4):
        for j in range(i + 1, 4):
            d_ij, _ = align_dq(TrajectoryPair(trajs[i], trajs[j]), grid=40)
            d_ji, _ = align_dq(TrajectoryPair(trajs[j], trajs[i]), grid=40)
            gaps.append(abs(d_ij - d_ji))
    p50, p90 = np.quantile(gaps, [0.5, 0.9], method="inverted_cdf")
    assert man["dq_asymmetry_quantiles"] == {"p50": p50, "p90": p90, "max": max(gaps)}
    assert man["dq_max_asymmetry"] == max(gaps) > 0


def test_distance_dq_report_dc_column_matches_dc_run(tmp_path, twoclass_dir):
    # the dq pass computes d_c itself; its report must carry exactly the
    # values a dc run writes
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))[:5]]
    dc_out, dq_out = tmp_path / "dc.csv", tmp_path / "dq.csv"
    assert run(["distance", *inputs, "--metric", "dc", "--grid", "30", "--out", str(dc_out)]) == 0
    assert run(["distance", *inputs, "--metric", "dq", "--grid", "30", "--out", str(dq_out)]) == 0
    lines = dc_out.read_text().splitlines()
    ids = lines[0].split(",")
    dc_cells = [row.split(",") for row in lines[1:]]
    report = dq_out.with_suffix(".alignment_report.csv").read_text().splitlines()
    assert len(report) == 1 + 5 * 4 // 2
    for row in report[1:]:
        id1, id2, d_c = row.split(",")[:3]
        assert d_c == dc_cells[ids.index(id1)][ids.index(id2)]


def test_distance_mixed_dims_exit_2(tmp_path, twoclass_dir, capsys):
    # classify loads its collection through the same helper, so it agrees
    other = tmp_path / "other"
    assert (
        run(
            ["simulate", "twoclass", "--n-per-class", "1", "--n", "4", "--T", "8",
             "--separation", "1.0", "--seed", "2", "--out-dir", str(other)]
        )
        == 0
    )
    a = sorted(twoclass_dir.glob("traj*.spdt"))[0]
    b = sorted(other.glob("traj*.spdt"))[0]
    b = b.rename(b.with_name("other.spdt"))  # one stem would be a duplicate id
    labels = ["--labels", str(twoclass_dir / "labels.csv")]
    for command in (["distance"], ["classify", *labels]):
        capsys.readouterr()
        code = run([*command, str(a), str(b), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: inputs have mixed dimensions [3, 4] and no --basis given"
        ]


def test_distance_ill_conditioned_pair_exit_1(tmp_path, capsys):
    # consecutive samples whose pair matrix has a smallest eigenvalue of 2.07e-14
    from conftest import spread_unitdet_pair
    from spdtraj.estimation import CovarianceTrajectory

    bad = CovarianceTrajectory(matrices=np.stack(spread_unitdet_pair(3, 1e7, 0, (0.5, np.inf))))
    good = CovarianceTrajectory(matrices=np.stack([np.eye(3), np.diag([2.0, 1.0, 0.5])]))
    paths = [tmp_path / "bad.spdt", tmp_path / "good.spdt"]
    for path, traj in zip(paths, (bad, good)):
        io.save_trajectory(path, traj)
    capsys.readouterr()
    argv = ["distance", *map(str, paths), "--metric", "dc", "--grid", "2",
            "--out", str(tmp_path / "d.csv")]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: pair matrix is not positive definite")


def test_distance_point_and_trajectory_match_constant_copy(tmp_path, rng):
    # a single matrix in a collection with trajectories is compared as the
    # constant trajectory it resamples to, in either listing order
    from conftest import random_spd, sample_curve, smooth_unitdet_curve
    from spdtraj.alignment import _swap_to_canonical, _trajectory_features
    from spdtraj.analysis import distance_matrix
    from spdtraj.estimation import CovarianceTrajectory

    grid = 20
    a = sample_curve(smooth_unitdet_curve(rng, 3), 5)
    fa = _trajectory_features(a, grid, False, None)
    while True:  # the point must come first in the pair's canonical order
        p = CovarianceTrajectory(matrices=random_spd(rng, 3)[None])
        copy = resample_trajectory(p, grid)
        if not _swap_to_canonical(_trajectory_features(copy, grid, False, None), fa):
            break
    pa, aa = tmp_path / "p.spdt", tmp_path / "a.spdt"
    io.save_trajectory(pa, p)
    io.save_trajectory(aa, a)
    for metric in ("dc", "dq"):
        expected = distance_matrix([copy, a], metric=metric, grid=grid).values[0, 1]
        for order in ((pa, aa), (aa, pa)):
            out = tmp_path / f"{metric}.csv"
            argv = ["distance", *map(str, order), "--metric", metric,
                    "--grid", str(grid), "--out", str(out)]
            assert run(argv) == 0
            assert io.load_distance_csv(out).values[0, 1] == expected


def test_distance_thread_count_invariance(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))[:5]]
    o1, o2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert run(["distance", *inputs, "--threads", "1", "--out", str(o1)]) == 0
    assert run(["distance", *inputs, "--threads", "4", "--out", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_distance_matrix_items_byte_identical_across_reruns_and_threads(tmp_path):
    data = tmp_path / "exp1"
    argv = ["simulate", "exp1", "--k", "2", "--T", "4", "--n", "12", "--seed", "3",
            "--out-dir", str(data)]
    assert run(argv) == 0
    inputs = [str(p) for p in sorted(data.glob("set*.spdt"))]
    texts = []
    for k, threads in enumerate(("1", "1", "2")):
        out = tmp_path / f"d{k}.csv"
        assert run(["distance", *inputs, "--items", "matrices", "--metric", "dc",
                    "--threads", threads, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("command", ["distance", "classify"])
@pytest.mark.parametrize("items", ["trajectories", "matrices"])
@pytest.mark.parametrize("same_file", [True, False])
def test_duplicate_item_ids_exit_2(tmp_path, twoclass_dir, capsys, command, items, same_file):
    # the same archive twice, or two archives with one stem, would give two
    # items one id, which classify --distances refuses
    a = sorted(twoclass_dir.glob("traj*.spdt"))[0]
    b = a
    if not same_file:
        b = tmp_path / "other" / a.name
        b.parent.mkdir()
        b.write_bytes(sorted(twoclass_dir.glob("traj*.spdt"))[1].read_bytes())
    out = tmp_path / "out.csv"
    argv = [command, str(a), str(b), "--items", items, "--out", str(out)]
    if command == "classify":
        argv += ["--labels", str(twoclass_dir / "labels.csv")]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: duplicate item id {a.stem!r}: inputs {a} and {b} share a file stem"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"SPDT\x01\x00", "too short"),
        (b"SPDT" + np.array([60000, 60000], "<u4").tobytes() + bytes(16), "header implies"),
    ],
)
def test_distance_malformed_archive_exit_2(tmp_path, twoclass_dir, capsys, payload, message):
    bad = tmp_path / "bad.spdt"
    bad.write_bytes(payload)
    good = str(sorted(twoclass_dir.glob("traj*.spdt"))[0])
    assert run(["distance", good, str(bad), "--out", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_rejects_full_dimension(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))[:2]]
    code = run(["reduce", *inputs, "--d", "3", "--out", str(tmp_path / "b.stfb")])
    assert code == 2


def test_reduce_deterministic_basis(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))[:3]]
    b1, b2 = tmp_path / "b1.stfb", tmp_path / "b2.stfb"
    for b in (b1, b2):
        assert run(
            ["reduce", *inputs, "--d", "2", "--seed", "3", "--max-iters", "40",
             "--out", str(b)]
        ) == 0
    assert b1.read_bytes() == b2.read_bytes()
    man = json.loads(b1.with_suffix(".manifest.json").read_text())
    assert man["stopped_by"] in ("tolerance", "max_iters", "line_search")
    assert man["converged"] == (man["stopped_by"] == "tolerance")
    assert b1.with_suffix(".trace.csv").exists()


def test_distance_with_reduce_block_pattern(tmp_path):
    out = tmp_path / "exp1"
    assert run(
        ["simulate", "exp1", "--k", "3", "--T", "4", "--n", "12", "--seed", "2",
         "--out-dir", str(out)]
    ) == 0
    inputs = [str(p) for p in sorted(out.glob("set*.spdt"))]
    basis, dpath = tmp_path / "b.stfb", tmp_path / "d.csv"
    assert run(["reduce", *inputs, "--d", "4", "--max-iters", "60", "--out", str(basis)]) == 0
    assert run(
        ["distance", *inputs, "--items", "matrices", "--metric", "dc",
         "--basis", str(basis), "--out", str(dpath)]
    ) == 0
    D = io.load_distance_csv(dpath)
    labels = np.array([i // 4 for i in range(12)])
    _, _, ratio = block_contrast(D.values, labels)
    assert ratio < 1.0


# ---------------------------------------------------------------------------
# classify


def test_classify_separable(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    out = tmp_path / "acc.csv"
    code = run(
        ["classify", *inputs, "--labels", str(twoclass_dir / "labels.csv"),
         "--folds", "4", "--k", "1", "--grid", "30", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    overall = float(text.splitlines()[1].split(",")[1])
    assert overall >= 0.95
    assert out.with_suffix(".confusion.csv").exists()


def test_classify_missing_label_exit_2(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    bad = tmp_path / "labels.csv"
    lines = (twoclass_dir / "labels.csv").read_text().splitlines()
    bad.write_text("\n".join(lines[:-1]) + "\n")
    code = run(
        ["classify", *inputs, "--labels", str(bad), "--folds", "4",
         "--out", str(tmp_path / "acc.csv")]
    )
    assert code == 2


def test_classify_from_precomputed_distances(tmp_path, twoclass_dir):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    dpath = tmp_path / "d.csv"
    assert run(["distance", *inputs, "--grid", "30", "--out", str(dpath)]) == 0
    out = tmp_path / "acc.csv"
    code = run(
        ["classify", "--distances", str(dpath),
         "--labels", str(twoclass_dir / "labels.csv"), "--folds", "4",
         "--out", str(out)]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# distance and classify load their collections alike


@pytest.mark.parametrize("command", ["distance", "classify"])
def test_basis_is_a_manifest_input(tmp_path, twoclass_dir, command):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    basis = tmp_path / "b.stfb"
    assert run(["reduce", *inputs, "--d", "2", "--max-iters", "5", "--out", str(basis)]) == 0
    extra = ["--labels", str(twoclass_dir / "labels.csv"), "--folds", "4"]
    extra = extra if command == "classify" else []
    out = tmp_path / "out.csv"
    assert run(
        [command, *inputs, *extra, "--basis", str(basis), "--grid", "20", "--out", str(out)]
    ) == 0
    man = json.loads(out.with_suffix(".manifest.json").read_text())
    assert {"path": str(basis), "sha256": io.sha256_file(basis)} in man["inputs"]


def test_basis_of_another_dimension_exit_2(tmp_path, twoclass_dir, capsys):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    other = tmp_path / "other"
    assert run(
        ["simulate", "twoclass", "--n-per-class", "1", "--n", "4", "--T", "8",
         "--seed", "2", "--out-dir", str(other)]
    ) == 0
    basis = tmp_path / "b.stfb"
    four = [str(p) for p in sorted(other.glob("traj*.spdt"))]
    assert run(["reduce", *four, "--d", "2", "--max-iters", "5", "--out", str(basis)]) == 0
    capsys.readouterr()
    code = run(["distance", *inputs, "--basis", str(basis), "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "configuration error: inputs have dimensions [3]; the basis takes 4"
    ]


# ---------------------------------------------------------------------------
# logdet


def test_logdet_identity_trajectories(tmp_path):
    from spdtraj.estimation import CovarianceTrajectory

    paths = []
    for i in range(3):
        p = tmp_path / f"t{i}.spdt"
        io.save_trajectory(
            p, CovarianceTrajectory(matrices=np.repeat(np.eye(3)[None], 5, axis=0))
        )
        paths.append(str(p))
    out = tmp_path / "ld.csv"
    assert run(["logdet", *paths, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    assert lines[0].count(",") == 2  # 3 columns
    body = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(body, np.zeros((5, 3)))


def test_logdet_matches_library(tmp_path, twoclass_dir):
    from spdtraj.estimation import logdet_curve

    p = sorted(twoclass_dir.glob("traj*.spdt"))[0]
    out = tmp_path / "ld.csv"
    assert run(["logdet", str(p), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    got = np.array([float(v) for v in lines for v in [v]])
    expected = logdet_curve(io.load_trajectory(p))
    np.testing.assert_allclose(got, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# bench


def test_bench_outputs_rows_and_ordering(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(
        ["bench", "--sizes", "4,8", "--T", "10", "--grid", "30", "--reps", "1",
         "--align", "on", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "size,t_dc_seconds,t_dq_seconds"
    assert len(lines) == 3
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        assert float(row[2]) >= float(row[1])  # alignment costs more


def test_bench_align_off_omits_column(tmp_path):
    out = tmp_path / "bench.csv"
    assert run(
        ["bench", "--sizes", "4", "--T", "8", "--reps", "1", "--align", "off",
         "--out", str(out)]
    ) == 0
    assert out.read_text().splitlines()[0] == "size,t_dc_seconds"


def test_bench_bad_sizes_exit_2(tmp_path):
    assert run(["bench", "--sizes", "1", "--out", str(tmp_path / "b.csv")]) == 2


@pytest.mark.parametrize("grid", ["1", "0"])
@pytest.mark.parametrize("command", ["distance", "classify", "bench"])
def test_grid_below_two_exit_2(tmp_path, twoclass_dir, capsys, command, grid):
    inputs = [str(p) for p in sorted(twoclass_dir.glob("traj*.spdt"))]
    out = ["--grid", grid, "--out", str(tmp_path / "o.csv")]
    argv = {
        "distance": ["distance", *inputs[:2], "--metric", "dq", *out],
        "classify": ["classify", *inputs, "--labels", str(twoclass_dir / "labels.csv"), *out],
        "bench": ["bench", "--sizes", "3", "--reps", "1", *out],
    }[command]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--grid must be at least 2" in err


@pytest.mark.parametrize("grid", ["2001", "100000000"])
@pytest.mark.parametrize("command", ["distance", "classify", "bench"])
def test_grid_above_the_cap_exit_2(tmp_path, capsys, command, grid):
    # the inputs do not exist: the grid is rejected before any file is read
    inputs = [str(tmp_path / f"missing{k}.spdt") for k in range(2)]
    out = tmp_path / "out.csv"
    argv = {
        "distance": ["distance", *inputs, "--metric", "dq"],
        "classify": ["classify", *inputs, "--labels", str(tmp_path / "missing.csv")],
        "bench": ["bench", "--sizes", "3"],
    }[command] + ["--grid", grid, "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --grid must be at most 2000, got {grid}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("reduce", "--pair-cap", "0", "--pair-cap must be at least 1, got 0"),
        ("reduce", "--pair-cap", "-3", "--pair-cap must be at least 1, got -3"),
        ("reduce", "--seed", "-1", "--seed must be at least 0, got -1"),
        ("reduce", "--max-iters", "-1", "--max-iters must be at least 0, got -1"),
        ("reduce", "--tol", "-1", "--tol must be at least 0, got -1.0"),
        ("reduce", "--tol", "nan", "--tol must be at least 0, got nan"),
        ("classify", "--folds", "1", "--folds must be at least 2, got 1"),
        ("classify", "--k", "0", "--k must be at least 1, got 0"),
        ("classify", "--seed", "-1", "--seed must be at least 0, got -1"),
        ("distance", "--w-det", "-1", "--w-det must be at least 0, got -1.0"),
        ("bench", "--reps", "0", "--reps must be at least 1, got 0"),
    ],
)
def test_malformed_numeric_option_exit_2(tmp_path, capsys, command, option, value, message):
    # the inputs do not exist: the option is rejected before any file is read
    inputs = [str(tmp_path / f"missing{k}.spdt") for k in range(2)]
    out = tmp_path / "out.csv"
    argv = {
        "reduce": ["reduce", *inputs, "--d", "2"],
        "classify": ["classify", *inputs, "--labels", str(tmp_path / "missing.csv")],
        "distance": ["distance", *inputs, "--include-logdet"],
        "bench": ["bench", "--sizes", "3"],
    }[command] + [option, value, "--out", str(out)]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {message}"]
    assert not out.exists()


_IDS = "a,b,c,d"
_ROWS = ["0.0,1.0,5.0,5.0", "1.0,0.0,5.0,5.0", "5.0,5.0,0.0,1.0", "5.0,5.0,1.0,0.0"]
_LABELS = ["id,label", "a,0", "b,0", "c,1", "d,1"]


@pytest.mark.parametrize(
    "target, line, text, message",
    [
        ("distances", 3, "1.0,0.0,x,5.0", "cell 'x' is not a number"),
        ("distances", 3, "1.0,0.0,5.0", "expected 4 cells, found 3"),
        ("distances", 4, "5.0,5.0,0.0,nan", "cell 'nan' is not finite"),
        ("distances", 4, "5.0,5.0,0.0,-1.0", "negative distance -1.0"),
        ("distances", 1, "a,b,a,d", "duplicate id 'a'"),
        ("labels", 3, "b 0", "expected 2 cells, found 1"),
        ("labels", 5, "a,1", "duplicate id 'a'"),
    ],
)
def test_classify_malformed_csv_exit_2(tmp_path, capsys, target, line, text, message):
    files = {"distances": [_IDS, *_ROWS], "labels": list(_LABELS)}
    args = ["classify", "--folds", "2", "--out", str(tmp_path / "acc.csv")]
    for name, lines in files.items():
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
        args += [f"--{name}", str(tmp_path / f"{name}.csv")]
    assert run(args) == 0  # the well-formed files are accepted
    capsys.readouterr()
    files[target][line - 1] = text
    (tmp_path / f"{target}.csv").write_text("\n".join(files[target]) + "\n")
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{target}.csv:{line}: {message}" in err


# ---------------------------------------------------------------------------
# manifests

def test_every_command_writes_manifest(tmp_path, twoclass_dir):
    assert (twoclass_dir / "manifest.json").exists()
    man = json.loads((twoclass_dir / "manifest.json").read_text())
    assert man["command"] == "simulate-twoclass"
    assert man["outputs"]
    assert all("sha256" in e for e in man["outputs"])


# ---------------------------------------------------------------------------
# dependencies

def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy is not a runtime dependency: importing it would add about 28 MB
    # of resident memory and a quarter of a second to every command
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys; import spdtraj, spdtraj.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert out.stdout.strip() == "[]"
