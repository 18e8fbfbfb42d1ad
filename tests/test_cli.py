"""End-to-end tests for the command line front end.

Everything runs through main(argv) in temporary directories: the full
synth -> cluster -> train -> infer -> eval round trip, the documented exit
codes (0 success, 2 usage, 3 data error, 4 degenerate input), JSON error
objects on stderr, and byte-identical rerun determinism.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from egopose import (
    CameraIntrinsics,
    ClusterModel,
    ExemplarBank,
    ForestModel,
    Frame,
    Joint,
    Pose,
    PoseSequence,
    load_features,
    load_homographies,
    load_pose_sequence,
    save_pose_sequence,
    train_models,
)
from egopose.classify import load_classifier
from egopose.cli import _load_camera, main
from egopose.synth import STAND_TEMPLATE, default_camera
from test_classify import MALFORMED_FOREST_RECORDS

SCRIPT = {
    "segments": [
        ["stand_idle", 20],
        ["sit_down", 20],
        ["sit_idle", 20],
        ["stand_up", 20],
        ["walk", 30],
    ],
    "seed": 5,
    "pixel_noise": 0.25,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, capsysbinary_placeholder=None):
    """Run the whole pipeline once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    models = root / "models"
    out = root / "out"
    models.mkdir()
    out.mkdir()

    script = root / "script.json"
    script.write_text(json.dumps(SCRIPT))
    assert main(["synth", "--script", str(script), "--out-dir", str(data)]) == 0

    assert (
        main(
            [
                "cluster",
                "--poses",
                str(data / "poses.jsonl"),
                "--out",
                str(models / "clusters.json"),
                "--bank-out",
                str(models / "bank.json"),
                "--homographies",
                str(data / "homographies.jsonl"),
                "--features-out",
                str(models / "features.jsonl"),
                "--k",
                "8",
                "--window",
                "8",
            ]
        )
        == 0
    )

    assert (
        main(
            [
                "train",
                "--features",
                str(models / "features.jsonl"),
                "--bank",
                str(models / "bank.json"),
                "--trees",
                "15",
                "--out",
                str(models / "forest.json"),
            ]
        )
        == 0
    )

    assert (
        main(
            [
                "infer",
                "--input",
                str(data / "homographies.jsonl"),
                "--bank",
                str(models / "bank.json"),
                "--cluster-model",
                str(models / "clusters.json"),
                "--classifier-model",
                str(models / "forest.json"),
                "--static-h",
                str(data / "static_h.jsonl"),
                "--window",
                "8",
                "--out",
                str(out / "path.jsonl"),
            ]
        )
        == 0
    )

    assert (
        main(
            [
                "eval",
                "--pred",
                str(out / "path_poses.jsonl"),
                "--gt",
                str(data / "poses.jsonl"),
                "--out",
                str(out / "report.json"),
            ]
        )
        == 0
    )
    return {"root": root, "data": data, "models": models, "out": out, "script": script}


# ---------------------------------------------------------------------------
# round-trip artifacts


def test_synth_artifacts(workspace):
    data = workspace["data"]
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["frames"] == 110
    for name in ("poses.jsonl", "homographies.jsonl", "correspondences.jsonl", "static_h.jsonl", "labels.jsonl"):
        assert (data / name).exists()
    # --camera reads a synth manifest's intrinsics as it reads a camera file
    assert _load_camera(data / "manifest.json") == CameraIntrinsics(**manifest["intrinsics"]) == default_camera()


def test_cluster_artifacts(workspace):
    models = workspace["models"]
    clusters = json.loads((models / "clusters.json").read_text())
    assert len(clusters["labels"]) == 8
    bank = json.loads((models / "bank.json").read_text())
    assert bank["k"] == 8
    rows = [json.loads(x) for x in (models / "features.jsonl").read_text().splitlines() if x]
    assert len(rows) == 103  # frames 3..105 carry a full 8-frame window
    assert len(rows[0]["v"]) == 9 * 7
    assert all(0 <= r["class"] < 8 for r in rows)


def test_infer_artifacts(workspace):
    out = workspace["out"]
    path_rows = [json.loads(x) for x in (out / "path.jsonl").read_text().splitlines() if x]
    assert len(path_rows) == 103
    assert {"t", "exemplar", "cluster"} <= set(path_rows[0])
    pose_rows = [json.loads(x) for x in (out / "path_poses.jsonl").read_text().splitlines() if x]
    assert len(pose_rows) == 103
    assert pose_rows[0]["t"] == 3  # original frame indices survive


def test_eval_report(workspace):
    report = json.loads((workspace["out"] / "report.json").read_text())
    assert set(report["groups"]) == {"Head", "Elbows", "Wrists", "Knees", "Ankles"}
    # decoding the training stream itself can recover the identity path,
    # so the error may be exactly zero; it must never be negative or NaN
    assert report["overall_mean_cm"] >= 0.0
    assert np.isfinite(report["overall_mean_cm"])
    for g in report["groups"].values():
        assert g["count"] > 0


def test_stage_stdout_messages(workspace, capsys, tmp_path):
    models = workspace["models"]
    data = workspace["data"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--classifier-model",
            str(models / "forest.json"),
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "energy: U=" in text
    assert "ms/frame" in text


# ---------------------------------------------------------------------------
# solvers without a classifier model


def test_always_standing_needs_no_classifier(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--solver",
            "always-standing",
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 0
    rows = [json.loads(x) for x in (tmp_path / "p_poses.jsonl").read_text().splitlines() if x]
    assert len(rows) == 103
    first = rows[0]["joints"]
    assert all(r["joints"] == first for r in rows)


def test_kdtree_solver_uses_training_features(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--solver",
            "kdtree",
            "--features",
            str(models / "features.jsonl"),
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "p_poses.jsonl").exists()
    assert not (tmp_path / "p.jsonl").exists()  # baselines decode no path


def test_kdtree_solver_requires_features_flag(workspace, tmp_path, capsys):
    data, models = workspace["data"], workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--solver",
            "kdtree",
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "features" in err["message"]


def test_path_solver_requires_classifier_model(workspace, tmp_path, capsys):
    data, models = workspace["data"], workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert "classifier-model" in err["message"]


def test_infer_accepts_correspondence_input(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(data / "correspondences.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--classifier-model",
            str(models / "forest.json"),
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 0
    assert (tmp_path / "p.jsonl").exists()


def test_knn_classifier_via_cli(workspace, tmp_path, capsys):
    models = workspace["models"]
    data = workspace["data"]
    rc = main(
        [
            "train",
            "--features",
            str(models / "features.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--classifier",
            "knn",
            "--knn-k",
            "5",
            "--loo",
            "--out",
            str(tmp_path / "knn.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    # each row votes with its 5 nearest other rows, by a naive full sort
    _, x, classes = load_features(models / "features.jsonl")
    hits = 0
    for i, v in enumerate(x):
        d2 = ((x - v) ** 2).sum(axis=1)
        order = [j for j in np.lexsort((np.arange(len(x)), d2)) if j != i][:5]
        hits += int(np.bincount(classes[order], minlength=8).argmax() == classes[i])
    assert f"leave-one-out accuracy: {hits / len(x):.4f}" in out
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--classifier-model",
            str(tmp_path / "knn.json"),
            "--knn-k",
            "5",
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 0


@pytest.mark.parametrize("k", ["0", "-1"])
def test_knn_k_below_one_exits_3(workspace, tmp_path, capsys, k):
    models = workspace["models"]
    train = ["train", "--features", str(models / "features.jsonl"), "--bank", str(models / "bank.json")]
    train += ["--classifier", "knn", "--out", str(tmp_path / "knn.json")]
    assert main(train + ["--loo", "--knn-k", k]) == 3
    assert "knn_k" in json.loads(capsys.readouterr().err.strip())["message"]
    assert not (tmp_path / "knn.json").exists()
    assert main(train) == 0
    capsys.readouterr()
    rc = main(
        ["infer", "--input", str(workspace["data"] / "homographies.jsonl"), "--bank", str(models / "bank.json")]
        + ["--cluster-model", str(models / "clusters.json"), "--classifier-model", str(tmp_path / "knn.json")]
        + ["--knn-k", k, "--window", "8", "--out", str(tmp_path / "p.jsonl")]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and "knn_k" in err["message"]


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_usage_errors_exit_2(workspace):
    with pytest.raises(SystemExit) as e:
        main(["synth"])  # missing required flags
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["explode", "--now"])
    assert e.value.code == 2


def test_missing_file_exits_3_with_json_stderr(workspace, tmp_path, capsys):
    rc = main(
        [
            "infer",
            "--input",
            str(tmp_path / "nope.jsonl"),
            "--bank",
            str(workspace["models"] / "bank.json"),
            "--cluster-model",
            str(workspace["models"] / "clusters.json"),
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert set(err) == {"error", "message"}


def test_invalid_static_prior_exits_3(workspace, tmp_path, capsys):
    data = workspace["data"]
    lines = (data / "static_h.jsonl").read_text().splitlines()
    lines[3] = json.dumps({"t": 3, "h": float("nan")})
    bad = tmp_path / "static_h.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(
        [
            "infer",
            "--input",
            str(data / "homographies.jsonl"),
            "--bank",
            str(workspace["models"] / "bank.json"),
            "--cluster-model",
            str(workspace["models"] / "clusters.json"),
            "--classifier-model",
            str(workspace["models"] / "forest.json"),
            "--static-h",
            str(bad),
            "--window",
            "8",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidProbability"


@pytest.mark.parametrize("flag", ["--bank", "--cluster-model", "--classifier-model", "--camera", "--config"])
def test_model_file_holding_no_json_object_exits_3(workspace, tmp_path, capsys, flag):
    models = workspace["models"]
    files = {
        "--bank": models / "bank.json",
        "--cluster-model": models / "clusters.json",
        "--classifier-model": models / "forest.json",
    }
    files[flag] = tmp_path / "list.json"
    files[flag].write_text("[1, 2]")
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
    for name, path in files.items():
        argv += [name, str(path)]
    rc = main(argv + ["--window", "8", "--out", str(tmp_path / "p.jsonl")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(files[flag]) in err["message"]


@pytest.mark.parametrize(
    "flag, field, value",
    [
        ("--bank", "poses_file", 5),
        ("--bank", "cluster_of", None),
        ("--bank", "sequence_breaks", [[1]]),
        ("--cluster-model", "labels", 5),
        ("--classifier-model", "feature_dim", None),
        ("--classifier-model", "trees", [5]),
        ("--classifier-model", "trees", []),
        ("--bank", "sequence_breaks", [2.6]),
        ("--bank", "k", 8.5),
    ],
)
def test_model_field_of_the_wrong_type_exits_3(workspace, tmp_path, capsys, flag, field, value):
    models = workspace["models"]
    files = {
        "--bank": models / "bank.json",
        "--cluster-model": models / "clusters.json",
        "--classifier-model": models / "forest.json",
    }
    rec = json.loads(files[flag].read_text())
    if flag == "--bank":
        rec["poses_file"] = str(models / rec["poses_file"])  # an absolute path, found from tmp_path
    rec[field] = value
    files[flag] = tmp_path / "wrong.json"
    files[flag].write_text(json.dumps(rec))
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
    for name, path in files.items():
        argv += [name, str(path)]
    rc = main(argv + ["--window", "8", "--out", str(tmp_path / "p.jsonl")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(files[flag]) in err["message"]


@pytest.mark.parametrize("rec", MALFORMED_FOREST_RECORDS)
def test_malformed_forest_file_exits_3(workspace, tmp_path, capsys, rec):
    models = workspace["models"]
    forest = tmp_path / "forest.json"
    forest.write_text(json.dumps(rec))
    rc = main(
        ["infer", "--input", str(workspace["data"] / "homographies.jsonl"), "--bank", str(models / "bank.json")]
        + ["--cluster-model", str(models / "clusters.json"), "--classifier-model", str(forest)]
        + ["--window", "8", "--out", str(tmp_path / "p.jsonl")]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(forest) in err["message"]


def test_invalid_script_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"segments": [["sit_idle", 5], ["walk", 5]]}))
    rc = main(["synth", "--script", str(bad), "--out-dir", str(tmp_path / "d")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ScriptError"


def _infer_argv(workspace, tmp_path, *extra):
    models = workspace["models"]
    return [
        "infer",
        "--input",
        str(workspace["data"] / "homographies.jsonl"),
        "--bank",
        str(models / "bank.json"),
        "--cluster-model",
        str(models / "clusters.json"),
        "--classifier-model",
        str(models / "forest.json"),
        "--window",
        "8",
        "--out",
        str(tmp_path / "p.jsonl"),
        *extra,
    ]


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--camera", {"fx": None, "fy": 1.0, "cx": 0.5, "cy": 0.4}),
        ("--camera", {"intrinsics": {"fx": 1.0}}),
        ("--config", 5),
        ("--config", {"delta": None}),
        ("--config", {"k": True}),
        ("--config", {"feature_mode": 3}),
        ("--camera", {"fx": "1.1", "fy": 1.1, "cx": 0.5, "cy": 0.375}),
        ("--camera", {"fx": 1.1, "fy": True, "cx": 0.5, "cy": 0.375}),
        ("--camera", {"fx": 1.1, "fy": 1.1, "cx": 0.5, "cy": 0.375, "k1": 0.1}),
        ("--camera", {"intrinsics": {"fx": 1.1, "fy": 1.1, "cx": 0.5, "cy": 0.375, "skew": "0"}}),
    ],
)
def test_malformed_json_input_exits_3_naming_the_file(workspace, tmp_path, capsys, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    rc = main(_infer_argv(workspace, tmp_path, flag, str(bad)))
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}: ")


def test_config_values_keep_their_json_type(tmp_path):
    from egopose.cli import _load_config

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"speed_gamma": 2.5, "delta": 1, "feature_mode": "rotation"}))
    loaded = _load_config(SimpleNamespace(config=str(cfg)))
    assert loaded["speed_gamma"] == 2.5
    assert type(loaded["delta"]) is int and loaded["feature_mode"] == "rotation"


@pytest.mark.parametrize("bad_line", [0, 1])
def test_malformed_stream_record_exits_3_naming_file_and_line(workspace, tmp_path, capsys, bad_line):
    data = workspace["data"]
    lines = (data / "homographies.jsonl").read_text().splitlines()
    lines[bad_line] = "5"
    stream = tmp_path / "h.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    argv = ["cluster", "--poses", str(data / "poses.jsonl"), "--homographies", str(stream)]
    rc = main(argv + ["--out", str(tmp_path / "c.json"), "--k", "8", "--window", "8"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"] == f"{stream}:{bad_line + 1}: expected a JSON object, found int"
    assert not (tmp_path / "c.json").exists()


def test_null_static_prior_exits_3_naming_file_and_line(workspace, tmp_path, capsys):
    lines = (workspace["data"] / "static_h.jsonl").read_text().splitlines()
    lines[2] = json.dumps({"h": None})
    bad = tmp_path / "static_h.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(_infer_argv(workspace, tmp_path, "--static-h", str(bad)))
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}:3: ")


def test_unnormalized_homography_record_exits_4(workspace, tmp_path, capsys):
    lines = (workspace["data"] / "homographies.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    rec["h"][0] = 2.0
    lines[4] = json.dumps(rec)
    stream = tmp_path / "h.jsonl"
    stream.write_text("\n".join(lines) + "\n")
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--input") + 1] = str(stream)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NormalizationFailure"


@pytest.mark.parametrize(
    "script",
    [
        {"segments": 5},
        {"segments": [["walk"]]},
        {"segments": [["fly", 5]]},
        {"segments": [["walk", 5]], "seed": None},
        [1],
        {"segments": [["walk", 40.7]]},
        {"segments": [["stand_idle", 5], ["walk", "30"]]},
        {"segments": [["walk", 5]], "seed": 2.5},
        {"segments": [["walk", 5]], "joint_jitter": "0.004"},
    ],
)
def test_malformed_script_exits_3_naming_the_file(tmp_path, capsys, script):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(script))
    rc = main(["synth", "--script", str(bad), "--out-dir", str(tmp_path / "d")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}: ")
    assert not (tmp_path / "d").exists()


def test_unknown_config_key_exits_3(workspace, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 8, "warp_speed": 9}))
    rc = main(
        [
            "cluster",
            "--poses",
            str(workspace["data"] / "poses.jsonl"),
            "--out",
            str(tmp_path / "c.json"),
            "--config",
            str(cfg),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert "warp_speed" in err["message"]


def test_homography_count_mismatch_exits_3(workspace, tmp_path, capsys):
    data = workspace["data"]
    short = tmp_path / "short.jsonl"
    lines = (data / "homographies.jsonl").read_text().splitlines()
    short.write_text("\n".join(lines[:-5]) + "\n")
    rc = main(
        [
            "cluster",
            "--poses",
            str(data / "poses.jsonl"),
            "--out",
            str(tmp_path / "c.json"),
            "--homographies",
            str(short),
            "--k",
            "8",
            "--window",
            "8",
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "LengthMismatch"
    assert not (tmp_path / "c.json").exists()  # checked before anything is written
    assert not (tmp_path / "bank.json").exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before the length checks")


def test_stream_mismatch_is_found_before_dlt_and_kmeans(workspace, tmp_path, capsys, monkeypatch):
    data = workspace["data"]
    monkeypatch.setattr("egopose.pipeline.kmeans", _must_not_run)
    monkeypatch.setattr("egopose.cli.estimate_homography", _must_not_run)
    poses = ["--poses", str(data / "poses.jsonl"), str(data / "poses.jsonl")]
    out = ["--out", str(tmp_path / "c.json"), "--k", "8", "--window", "8"]
    # two pose files, one correspondence stream: no stream gets its DLT
    rc = main(["cluster", *poses, "--homographies", str(data / "correspondences.jsonl"), *out])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "LengthMismatch"
    # one stream per pose file, the second one short: no k-means
    short = tmp_path / "short.jsonl"
    short.write_text("\n".join((data / "homographies.jsonl").read_text().splitlines()[:-1]) + "\n")
    rc = main(["cluster", *poses, "--homographies", str(data / "homographies.jsonl"), str(short), *out])
    assert rc == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "LengthMismatch"
    assert os.listdir(tmp_path) == ["short.jsonl"]  # nothing written


@pytest.mark.parametrize("k", ["0", "-3"])
def test_cluster_k_below_one_exits_3(workspace, tmp_path, capsys, k):
    poses = str(workspace["data"] / "poses.jsonl")
    rc = main(["cluster", "--poses", poses, "--out", str(tmp_path / "c.json"), "--k", k])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"k must be at least 1, got {k}"}
    assert os.listdir(tmp_path) == []  # nothing written


@pytest.mark.parametrize("bad", [1e200, 2.0**511])  # the reader rejects NaN and inf itself
def test_cluster_pose_beyond_the_kmeans_bound_exits_3(workspace, tmp_path, capsys, bad):
    lines = (workspace["data"] / "poses.jsonl").read_text().splitlines()
    rec = json.loads(lines[7])
    rec["joints"][Joint.Head][2] = bad
    lines[7] = json.dumps(rec)
    poses = tmp_path / "poses.jsonl"
    poses.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = main(["cluster", "--poses", str(poses), "--out", str(out / "c.json"), "--k", "1"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "pose row 7 is not finite or its squared norm exceeds 2**1020"}
    assert not out.exists()


def test_train_zero_trees_exits_3(workspace, tmp_path, capsys):
    models = workspace["models"]
    rc = main(
        ["train", "--features", str(models / "features.jsonl"), "--bank", str(models / "bank.json")]
        + ["--trees", "0", "--out", str(tmp_path / "forest.json")]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": "n_trees must be at least 1, got 0"}
    assert os.listdir(tmp_path) == []


def test_cluster_with_non_finite_intrinsics_exits_3(workspace, tmp_path, capsys):
    data = workspace["data"]
    camera = tmp_path / "cam.json"
    camera.write_text(json.dumps({"fx": float("nan"), "fy": 1.1, "cx": 0.5, "cy": 0.375}))
    out = tmp_path / "out"
    rc = main(
        ["cluster", "--poses", str(data / "poses.jsonl"), "--homographies", str(data / "homographies.jsonl")]
        + ["--feature-mode", "rotation", "--camera", str(camera), "--k", "8", "--window", "8"]
        + ["--out", str(out / "clusters.json")]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{camera}: camera intrinsics must be finite"}
    assert not out.exists()


@pytest.mark.parametrize("bad", [-1, 8])
def test_train_class_id_outside_bank_exits_3(workspace, tmp_path, capsys, bad):
    models = workspace["models"]
    rows = [json.loads(line) for line in (models / "features.jsonl").read_text().splitlines()]
    rows[3]["class"] = bad  # the bank holds 8 clusters
    feats = tmp_path / "features.jsonl"
    feats.write_text("".join(json.dumps(r) + "\n" for r in rows))
    for classifier in ("knn", "forest"):
        rc = main(
            ["train", "--features", str(feats), "--bank", str(models / "bank.json")]
            + ["--classifier", classifier, "--trees", "2", "--out", str(tmp_path / "model.json")]
        )
        assert rc == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "DimMismatch"
        assert not (tmp_path / "model.json").exists()


def test_infer_reads_the_classifier_file_once(workspace, tmp_path, capsys, monkeypatch):
    data, models = workspace["data"], workspace["models"]
    forest = str(models / "forest.json")
    opened = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        opened.append(str(path))
        return real_open(path, *args, **kwargs)

    def infer_with(model):
        return main(
            ["infer", "--input", str(data / "homographies.jsonl"), "--bank", str(models / "bank.json")]
            + ["--cluster-model", str(models / "clusters.json"), "--classifier-model", str(model)]
            + ["--window", "8", "--out", str(tmp_path / "p.jsonl")]
        )

    knn = str(tmp_path / "knn.json")
    train = ["train", "--features", str(models / "features.jsonl"), "--bank", str(models / "bank.json")]
    assert main(train + ["--classifier", "knn", "--out", knn]) == 0
    monkeypatch.setattr("builtins.open", counting_open)
    for model in (forest, knn):
        assert infer_with(model) == 0
        assert opened.count(model) == 1
    monkeypatch.undo()
    # malformed classifier files still exit 3, naming the file
    broken = tmp_path / "broken.json"
    broken.write_text('{"trees": [')
    no_dim = tmp_path / "no_dim.json"
    no_dim.write_text(json.dumps({"trees": [{"hist": [1, 0]}], "n_classes": 2}))
    rec = json.loads((tmp_path / "knn.json").read_text())
    cut_classes = tmp_path / "cut_classes.json"
    cut_classes.write_text(json.dumps({**rec, "classes": [c + 0.5 for c in rec["classes"]]}))
    cut_n_classes = tmp_path / "cut_n_classes.json"
    cut_n_classes.write_text(json.dumps({**rec, "n_classes": rec["n_classes"] + 0.5}))
    for model in (broken, no_dim, cut_classes, cut_n_classes):
        assert infer_with(model) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and str(model) in err["message"]


def test_nan_path_parameter_exits_3(workspace, tmp_path, capsys):
    models = workspace["models"]
    rc = main(
        [
            "infer",
            "--input",
            str(workspace["data"] / "homographies.jsonl"),
            "--bank",
            str(models / "bank.json"),
            "--cluster-model",
            str(models / "clusters.json"),
            "--classifier-model",
            str(models / "forest.json"),
            "--window",
            "8",
            "--delta",
            "nan",
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"


def test_degenerate_pose_exits_4(workspace, tmp_path, capsys):
    joints = STAND_TEMPLATE.copy()
    joints[Joint.ShoulderRight] = joints[Joint.ShoulderLeft] + [0.0, 0.0, 0.2]
    seq = PoseSequence([Pose(joints, Frame.WEARER_LOCAL)])
    pred = tmp_path / "pred.jsonl"
    save_pose_sequence(pred, seq)
    gt = tmp_path / "gt.jsonl"
    save_pose_sequence(gt, PoseSequence([Pose(STAND_TEMPLATE.copy(), Frame.WEARER_LOCAL)]))
    rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DegeneratePose"


def test_eval_disjoint_times_exits_3(workspace, tmp_path, capsys):
    seq = PoseSequence([Pose(STAND_TEMPLATE.copy(), Frame.WEARER_LOCAL)] * 3)
    pred = tmp_path / "pred.jsonl"
    save_pose_sequence(pred, seq, times=np.array([1000, 1001, 1002]))
    rc = main(
        [
            "eval",
            "--pred",
            str(pred),
            "--gt",
            str(workspace["data"] / "poses.jsonl"),
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert rc == 3
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism


def test_synth_reruns_are_byte_identical(workspace, tmp_path):
    script = workspace["script"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--script", str(script), "--out-dir", str(a)]) == 0
    assert main(["synth", "--script", str(script), "--out-dir", str(b)]) == 0
    for name in ("poses.jsonl", "homographies.jsonl", "correspondences.jsonl", "static_h.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    assert main(["synth", "--script", str(script), "--out-dir", str(c), "--seed", "6"]) == 0
    assert (a / "poses.jsonl").read_bytes() != (c / "poses.jsonl").read_bytes()


def test_model_fit_reruns_are_byte_identical(workspace, tmp_path):
    data = workspace["data"]
    outs = []
    for name in ("m1", "m2"):
        d = tmp_path / name
        d.mkdir()
        assert (
            main(
                [
                    "cluster",
                    "--poses",
                    str(data / "poses.jsonl"),
                    "--out",
                    str(d / "clusters.json"),
                    "--bank-out",
                    str(d / "bank.json"),
                    "--homographies",
                    str(data / "homographies.jsonl"),
                    "--features-out",
                    str(d / "features.jsonl"),
                    "--k",
                    "8",
                    "--window",
                    "8",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "train",
                    "--features",
                    str(d / "features.jsonl"),
                    "--bank",
                    str(d / "bank.json"),
                    "--trees",
                    "15",
                    "--out",
                    str(d / "forest.json"),
                ]
            )
            == 0
        )
        outs.append(d)
    for name in ("clusters.json", "bank.json", "features.jsonl", "forest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_training_equals_library_training(workspace, tmp_path):
    """cluster + train on two recordings build the same models as train_models."""
    script = workspace["script"]
    recs = [tmp_path / "rec0", tmp_path / "rec1"]
    for seed, rec in enumerate(recs):
        assert main(["synth", "--script", str(script), "--out-dir", str(rec), "--seed", str(seed + 7)]) == 0
    d = tmp_path / "cli"
    assert (
        main(
            ["cluster", "--poses", *[str(r / "poses.jsonl") for r in recs]]
            + ["--homographies", *[str(r / "homographies.jsonl") for r in recs]]
            + ["--out", str(d / "clusters.json"), "--k", "8", "--window", "8", "--seed", "3"]
        )
        == 0
    )
    assert (
        main(
            ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json")]
            + ["--trees", "5", "--out", str(d / "forest.json"), "--seed", "3"]
        )
        == 0
    )

    seqs = [load_pose_sequence(r / "poses.jsonl") for r in recs]
    hs = [load_homographies(r / "homographies.jsonl") for r in recs]
    lib = train_models(seqs, hs, k=8, window=8, n_trees=5, seed=3)
    cluster = ClusterModel.load(d / "clusters.json")
    assert np.array_equal(cluster.centroids, lib.cluster.centroids)
    assert cluster.labels == lib.cluster.labels
    bank = ExemplarBank.load(d / "bank.json")
    assert np.array_equal(bank.poses, lib.bank.poses)
    assert np.array_equal(bank.cluster_of, lib.bank.cluster_of)
    assert bank.sequence_breaks.tolist() == lib.bank.sequence_breaks.tolist() == [len(seqs[0])]
    assert np.array_equal(bank.adjacent, lib.bank.adjacent)
    frames, feats, classes = load_features(d / "features.jsonl")
    assert np.array_equal(feats, lib.train_features)
    assert np.array_equal(frames, lib.train_feature_frames)
    assert frames.max() > len(seqs[0])  # the second recording's rows are offset
    assert np.array_equal(classes, lib.bank.cluster_of[frames])
    back = ForestModel.load(d / "forest.json")
    for name in ("roots", "feat", "thresh", "right", "leaf_ptr", "leaf_class", "leaf_count"):
        assert np.array_equal(getattr(back, name), getattr(lib.classifier, name))
    # and the files themselves are the ones the library bundle writes
    lib.save(tmp_path / "lib")
    for name in ("clusters.json", "bank.json", "bank_poses.jsonl", "features.jsonl", "forest.json"):
        assert (d / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
    # a kNN model from train is the one train_models holds
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json")]
    assert main(train + ["--classifier", "knn", "--out", str(d / "knn.json")]) == 0
    knn = load_classifier(d / "knn.json")
    lib_knn = train_models(seqs, hs, k=8, window=8, classifier="knn", seed=3).classifier
    assert np.array_equal(knn.features, lib_knn.features)
    assert np.array_equal(knn.classes, lib_knn.classes)
    assert knn.n_classes == lib_knn.n_classes == 8


def test_infer_reruns_are_byte_identical(workspace, tmp_path):
    data, models = workspace["data"], workspace["models"]
    results = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        out.mkdir()
        assert (
            main(
                [
                    "infer",
                    "--input",
                    str(data / "homographies.jsonl"),
                    "--bank",
                    str(models / "bank.json"),
                    "--cluster-model",
                    str(models / "clusters.json"),
                    "--classifier-model",
                    str(models / "forest.json"),
                    "--static-h",
                    str(data / "static_h.jsonl"),
                    "--window",
                    "8",
                    "--out",
                    str(out / "path.jsonl"),
                ]
            )
            == 0
        )
        results.append(out)
    assert (results[0] / "path.jsonl").read_bytes() == (results[1] / "path.jsonl").read_bytes()
    assert (results[0] / "path_poses.jsonl").read_bytes() == (results[1] / "path_poses.jsonl").read_bytes()


def test_config_file_matches_flags(workspace, tmp_path):
    data = workspace["data"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 8, "window": 8}))
    d = tmp_path / "viacfg"
    d.mkdir()
    assert (
        main(
            [
                "cluster",
                "--poses",
                str(data / "poses.jsonl"),
                "--out",
                str(d / "clusters.json"),
                "--bank-out",
                str(d / "bank.json"),
                "--homographies",
                str(data / "homographies.jsonl"),
                "--features-out",
                str(d / "features.jsonl"),
                "--config",
                str(cfg),
            ]
        )
        == 0
    )
    ref = workspace["models"]
    for name in ("clusters.json", "bank.json", "features.jsonl"):
        assert (d / name).read_bytes() == (ref / name).read_bytes()
