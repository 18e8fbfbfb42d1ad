"""End-to-end tests for the command line front end.

Everything runs through main(argv) in temporary directories: the full
synth -> cluster -> train -> infer -> eval round trip, the documented exit
codes (0 success, 2 usage, 3 data error, 4 degenerate input), JSON error
objects on stderr, and byte-identical rerun determinism.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import egopose
import egopose.cli as cli
import egopose.errors as errors
from egopose import (
    CameraIntrinsics,
    ClusterModel,
    ExemplarBank,
    ForestModel,
    Frame,
    Joint,
    MotionScript,
    Pose,
    PoseSequence,
    generate,
    load_features,
    load_homographies,
    load_pose_sequence,
    save_pose_sequence,
    train_models,
    valid_feature_centers,
)
from egopose.classify import KnnModel
from egopose.cli import DEFAULT_CONFIG, _load_camera, _path_params, main
from egopose.pipeline import build_bank
from egopose.synth import STAND_TEMPLATE, default_camera
from test_classify import MALFORMED_FOREST_RECORDS
from test_pipeline import as_older_files

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
    assert list(clusters) == ["centroids_file", "labels"] and clusters["centroids_file"] == "clusters_centroids.npy"
    assert len(clusters["labels"]) == 8 and np.load(models / "clusters_centroids.npy").shape == (8, 75)
    bank = json.loads((models / "bank.json").read_text())
    assert bank["k"] == 8 and bank["poses_file"] == "bank_poses.npy"
    assert np.load(models / "bank_poses.npy").shape == (110, 75)
    rows = [json.loads(x) for x in (models / "features.jsonl").read_text().splitlines() if x]
    assert len(rows) == 103  # frames 3..105 carry a full 8-frame window
    assert len(rows[0]["v"]) == 9 * 7
    assert all(list(r) == ["t", "v"] for r in rows)  # a row's class is its bank pose's cluster


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
    bank = ExemplarBank.load(models / "bank.json")
    frames, x = load_features(models / "features.jsonl", len(bank.poses))
    classes = bank.cluster_of[frames]
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


def test_knn_leave_one_out_with_more_than_k_plus_one_copies_of_a_row(workspace, tmp_path, capsys):
    models = workspace["models"]
    bank = ExemplarBank.load(models / "bank.json")
    frames, x = load_features(models / "features.jsonl", len(bank.poses))
    # nine copies of row 12, four of them at lower indices; k + 1 = 6
    copies = [2, 5, 7, 9, 12, 20, 31, 40, 41]
    x[copies] = x[12]
    features = tmp_path / "features.jsonl"
    features.write_text("".join(json.dumps({"t": int(t), "v": v.tolist()}) + "\n" for t, v in zip(frames, x)))
    train = ["train", "--features", str(features), "--bank", str(models / "bank.json"), "--classifier", "knn"]
    assert main(train + ["--knn-k", "5", "--loo", "--out", str(tmp_path / "knn.json")]) == 0
    # each row votes with its 5 nearest other rows, by a naive full sort
    classes = bank.cluster_of[frames]
    hits = 0
    for i, v in enumerate(x):
        d2 = ((x - v) ** 2).sum(axis=1)
        order = [j for j in np.lexsort((np.arange(len(x)), d2)) if j != i][:5]
        hits += int(np.bincount(classes[order], minlength=8).argmax() == classes[i])
    assert f"leave-one-out accuracy: {hits / len(x):.4f}" in capsys.readouterr().out


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
    with pytest.raises(SystemExit) as e:
        main(["train", "--features", "f.jsonl", "--out", "m.json"])  # the bank gives each row its class
    assert e.value.code == 2


def test_infer_takes_no_seed(workspace, tmp_path):
    """infer draws nothing at random; a config file keeps the shared seed key."""
    with pytest.raises(SystemExit) as e:
        main(_infer_argv(workspace, tmp_path, "--seed", "1"))
    assert e.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_infer_argv(workspace, tmp_path, "--config", str(cfg))) == 0


ERROR_TYPES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.EgoPoseError)]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=[c.__name__ for c in ERROR_TYPES])
def test_exit_code_follows_the_error_type(tmp_path, capsys, monkeypatch, error):
    """Exit 4 for every Degenerate error raised inside a subcommand, 3 for
    every other package error."""

    def fail(script):
        raise error("planted")

    monkeypatch.setattr(cli, "generate", fail)
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT))
    rc = main(["synth", "--script", str(script), "--out-dir", str(tmp_path / "d")])
    assert rc == (4 if issubclass(error, errors.Degenerate) else 3)
    assert json.loads(capsys.readouterr().err.strip()) == {"error": error.__name__, "message": "planted"}


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
        ("--cluster-model", "labels", None),  # a cluster model without sit/stand labels
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
    for key in ("poses_file", "centroids_file"):  # as an absolute path, found from tmp_path
        if key in rec:
            rec[key] = str(models / rec[key])
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
        ("--config", {"k": 20.5}),  # integral keys are checked, not truncated
        ("--config", {"window": 7.9}),
        ("--config", {"trees": 2.5}),
        ("--config", {"knn_k": 5.5}),
        ("--config", {"seed": 1.5}),
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


@pytest.mark.parametrize("text", ['{"speed_mu": Infinity}', '{"stat_mu": Infinity, "stat_gamma": 0}'])
def test_infinite_slope_in_config_exits_3(workspace, tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)  # json reads Infinity as a float
    assert main(_infer_argv(workspace, tmp_path, "--config", str(cfg))) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and "finite" in err["message"]


def test_config_values_keep_their_json_type(tmp_path):
    from egopose.cli import _load_config

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"speed_gamma": 2.5, "delta": 1, "feature_mode": "rotation", "window": 8.0}))
    loaded = _load_config(SimpleNamespace(config=str(cfg)))
    assert loaded["speed_gamma"] == 2.5
    assert type(loaded["delta"]) is int and loaded["feature_mode"] == "rotation"
    assert type(loaded["window"]) is int and loaded["window"] == 8


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


@pytest.mark.parametrize("seed", ["1", "2", "4"])
def test_train_with_no_row_out_of_bag_says_so_and_exits_0(tmp_path, capsys, seed):
    """Two rows and one tree: at these seeds the bootstrap draws both rows,
    so no row is out of bag and there is no OOB accuracy to print."""
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps({"poses_file": "bank_poses.npy", "cluster_of": [0, 1], "k": 2, "sequence_breaks": []}))
    feats = tmp_path / "features.jsonl"
    feats.write_text('{"t": 0, "v": [0.0]}\n{"t": 1, "v": [1.0]}\n')
    out = tmp_path / "forest.json"
    rc = main(["train", "--features", str(feats), "--bank", str(bank), "--trees", "1", "--seed", seed, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == "oob accuracy: no row was out of bag\n"
    assert out.exists()


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


def test_train_takes_each_row_class_from_the_bank(workspace, tmp_path):
    models = workspace["models"]
    bank = ExemplarBank.load(models / "bank.json")
    rows = [json.loads(line) for line in (models / "features.jsonl").read_text().splitlines()]
    shifted = tmp_path / "shifted.jsonl"  # an older file's class key, contradicting the bank: ignored
    shifted.write_text("".join(json.dumps({**r, "class": (int(bank.cluster_of[r["t"]]) + 1) % 8}) + "\n" for r in rows))
    train = ["train", "--features", str(shifted), "--bank", str(models / "bank.json"), "--trees", "15"]
    assert main(train + ["--out", str(tmp_path / "forest.json")]) == 0
    assert (tmp_path / "forest.json").read_bytes() == (models / "forest.json").read_bytes()


def test_train_reads_the_bank_file_but_not_its_poses(workspace, tmp_path, capsys):
    """train needs only each pose's cluster: with the pose file gone it
    writes the same model, and a bad field still exits 3 naming the file."""
    models = workspace["models"]
    bank = tmp_path / "bank.json"
    shutil.copy(models / "bank.json", bank)  # without bank_poses.npy beside it
    train = ["train", "--features", str(models / "features.jsonl"), "--bank", str(bank), "--trees", "15"]
    assert main(train + ["--out", str(tmp_path / "forest.json")]) == 0
    assert (tmp_path / "forest.json").read_bytes() == (models / "forest.json").read_bytes()
    capsys.readouterr()
    rec = json.loads(bank.read_text())
    for field, value in (("k", 2.5), ("cluster_of", [rec["k"]] * len(rec["cluster_of"])), ("sequence_breaks", [0])):
        bank.write_text(json.dumps({**rec, field: value}))
        assert main(train + ["--out", str(tmp_path / "bad.json")]) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"].startswith(f"{bank}: ")
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("t", ["-1", "n_poses"])
def test_feature_row_outside_the_bank_exits_3_naming_its_line(workspace, tmp_path, capsys, t):
    models = workspace["models"]
    n_poses = len(ExemplarBank.load(models / "bank.json").poses)
    lines = (models / "features.jsonl").read_text().splitlines()
    lines[3] = json.dumps({**json.loads(lines[3]), "t": -1 if t == "-1" else n_poses})
    feats = tmp_path / "features.jsonl"
    feats.write_text("\n".join(lines) + "\n")
    train = ["train", "--features", str(feats), "--bank", str(models / "bank.json"), "--trees", "2"]
    runs = [train + ["--classifier", kind, "--out", str(tmp_path / "model.json")] for kind in ("forest", "knn")]
    runs.append(_infer_argv(workspace, tmp_path, "--solver", "kdtree", "--features", str(feats)))
    for argv in runs:
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"{feats}:4: t must index one of the bank's {n_poses} poses")
    assert os.listdir(tmp_path) == ["features.jsonl"]


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

    knn, features = str(tmp_path / "knn.json"), str(models / "features.jsonl")
    train = ["train", "--features", features, "--bank", str(models / "bank.json")]
    assert main(train + ["--classifier", "knn", "--out", knn]) == 0
    monkeypatch.setattr("builtins.open", counting_open)
    for model in (forest, knn):
        assert infer_with(model) == 0
        assert opened.count(model) == 1
    assert opened.count(features) == 1  # the kNN model's rows
    monkeypatch.undo()
    # malformed classifier files still exit 3, naming the file
    broken = tmp_path / "broken.json"
    broken.write_text('{"trees": [')
    no_dim = tmp_path / "no_dim.json"
    no_dim.write_text(json.dumps({"trees": [{"hist": [1, 0]}], "n_classes": 2}))
    rec = json.loads((tmp_path / "knn.json").read_text())
    with_classes = tmp_path / "with_classes.json"
    with_classes.write_text(json.dumps({**rec, "classes": [0.5]}))
    unnamed = tmp_path / "unnamed.json"
    unnamed.write_text(json.dumps({"features": 0.5}))
    for model in (broken, no_dim, with_classes, unnamed):
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


def _reference_pose_file(path, poses, times) -> None:
    """The pose-file writer of one record per Pose object."""
    with open(path, "w") as f:
        for t, p in zip(times, poses):
            f.write(json.dumps({"t": int(t), "frame": p.frame.value, "joints": p.joints.tolist()}) + "\n")


def test_pose_files_keep_the_bytes_of_one_record_per_pose(workspace, tmp_path):
    """synth's poses.jsonl and infer's path_poses.jsonl, each written from
    the sequence's array, are the bytes of a writer that formats one Pose at
    a time."""
    data, out = workspace["data"], workspace["out"]
    poses = generate(MotionScript.from_json(workspace["script"])).poses
    _, bank = build_bank([poses], k=8, seed=0)
    exemplars = [json.loads(line)["exemplar"] for line in (out / "path.jsonl").read_text().splitlines()]
    bank_poses = [Pose.from_vector(v) for v in bank.poses]
    cases = [
        (data / "poses.jsonl", poses.poses, range(len(poses))),
        (out / "path_poses.jsonl", [bank_poses[e] for e in exemplars], valid_feature_centers(len(poses), 8)),
    ]
    for written, ref_poses, times in cases:
        assert len(ref_poses) == len(times) > 0
        _reference_pose_file(tmp_path / "ref.jsonl", ref_poses, times)
        assert written.read_bytes() == (tmp_path / "ref.jsonl").read_bytes(), written.name


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
    for name in ("clusters.json", "clusters_centroids.npy", "bank.json", "bank_poses.npy", "features.jsonl", "forest.json"):
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
    frames, feats = load_features(d / "features.jsonl", len(bank.poses))
    assert np.array_equal(feats, lib.train_features)
    assert np.array_equal(frames, lib.train_feature_frames)
    assert frames.max() > len(seqs[0])  # the second recording's rows are offset
    back = ForestModel.load(d / "forest.json")
    for name in ("roots", "feat", "thresh", "right", "leaf_ptr", "leaf_class", "leaf_count"):
        assert np.array_equal(getattr(back, name), getattr(lib.classifier, name))
    # a kNN model from train is the one train_models holds
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json")]
    assert main(train + ["--classifier", "knn", "--out", str(d / "knn.json")]) == 0
    knn = KnnModel.load(d / "knn.json", bank)
    lib_knn = train_models(seqs, hs, k=8, window=8, classifier="knn", seed=3)
    assert np.array_equal(knn.features, lib_knn.classifier.features)
    assert np.array_equal(knn.classes, lib_knn.classifier.classes)
    assert knn.n_classes == lib_knn.classifier.n_classes == 8
    # and the files themselves are the library bundle's, which adds only meta.json
    for kind, models in (("forest", lib), ("knn", lib_knn)):
        models.save(tmp_path / kind)
        names = {"clusters.json", "clusters_centroids.npy", "bank.json", "bank_poses.npy", "features.jsonl", f"{kind}.json"}
        assert set(os.listdir(tmp_path / kind)) == names | {"meta.json"}
        for name in names:
            assert (d / name).read_bytes() == (tmp_path / kind / name).read_bytes()


def test_knn_files_decode_as_the_library_bundle(workspace, tmp_path, capsys):
    """infer over the CLI's kNN files prints the energy line and writes the
    path file that infer over the library bundle, loaded back, gives."""
    data = workspace["data"]
    d = tmp_path / "cli"
    shutil.copytree(workspace["models"], d)
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json")]
    assert main(train + ["--classifier", "knn", "--out", str(d / "knn.json")]) == 0
    capsys.readouterr()
    energy, files = _decode_over(workspace, d, capsys, "--classifier-model", "{d}/knn.json")
    hs = load_homographies(data / "homographies.jsonl")
    train_models([load_pose_sequence(data / "poses.jsonl")], [hs], k=8, window=8, classifier="knn").save(tmp_path / "lib")
    models = egopose.TrainedModels.load(tmp_path / "lib")
    static_h = egopose.load_static(data / "static_h.jsonl")
    result = egopose.infer(hs, models, static_h, _path_params(DEFAULT_CONFIG))
    result.path.save(tmp_path / "path.jsonl", models.bank)
    assert energy == ["energy: U={U:.6f} T={T:.6f} V={V:.6f} S={S:.6f} total={total:.6f}".format(**result.path.energy_dict())]
    assert files["path.jsonl"] == (tmp_path / "path.jsonl").read_bytes()


@pytest.mark.parametrize("shift", [0, 1])
def test_knn_file_of_an_older_version_exits_3_naming_it(workspace, tmp_path, capsys, shift):
    """A kNN file that holds its rows and their classes, as older versions
    wrote it, is never read: its classes could contradict the bank."""
    models = workspace["models"]
    bank = ExemplarBank.load(models / "bank.json")
    frames, x = load_features(models / "features.jsonl", len(bank.poses))
    classes = (bank.cluster_of[frames] + shift) % bank.k
    knn = tmp_path / "knn.json"
    knn.write_text(json.dumps({"n_classes": bank.k, "features": x.tolist(), "classes": classes.tolist()}))
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--classifier-model") + 1] = str(knn)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{knn}: ") and "egopose train" in err["message"]
    assert not (tmp_path / "p.jsonl").exists()


def _decode_over(workspace, d, capsys, *flags):
    """The energy line and the output files of one infer over the model files
    in d; "{d}" in a flag stands for d."""
    out = d / "out" / "path.jsonl"
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
    argv += ["--static-h", str(workspace["data"] / "static_h.jsonl"), "--window", "8"]
    argv += ["--bank", str(d / "bank.json"), "--cluster-model", str(d / "clusters.json")]
    assert main(argv + [f.format(d=d) for f in flags] + ["--out", str(out)]) == 0
    energy = [line for line in capsys.readouterr().out.splitlines() if line.startswith("energy: ")]
    files = {p.name: p.read_bytes() for p in out.parent.iterdir()}
    shutil.rmtree(out.parent)
    return energy, files


def test_model_files_in_the_older_format_exit_3_naming_clusters_json(workspace, tmp_path, capsys):
    """Model files whose centroids and bank poses are JSON text, as older
    versions wrote them, are rejected at the cluster model, whichever
    classifier infer reads."""
    old = tmp_path / "old"
    shutil.copytree(workspace["models"], old)
    knn = ["train", "--features", str(old / "features.jsonl"), "--bank", str(old / "bank.json")]
    assert main(knn + ["--classifier", "knn", "--out", str(old / "knn.json")]) == 0
    as_older_files(old)
    capsys.readouterr()
    out = tmp_path / "out" / "path.jsonl"
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl"), "--window", "8"]
    argv += ["--bank", str(old / "bank.json"), "--cluster-model", str(old / "clusters.json"), "--out", str(out)]
    for flags in (
        ["--classifier-model", str(old / "forest.json")],
        ["--classifier-model", str(old / "knn.json")],
        ["--solver", "kdtree", "--features", str(old / "features.jsonl")],
    ):
        assert main(argv + flags) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ValueError" and err["message"] == f"{old / 'clusters.json'}: missing field 'centroids_file'"
    assert not out.parent.exists()


def _truncated(path, a):
    path.write_bytes(path.read_bytes()[:-8])


def _with_entry(value):
    def write(path, a):
        a = a.copy()
        a[-1, -1] = value
        np.save(path, a)

    return write


ARRAY_DEFECTS = {
    "truncated": _truncated,
    "int-dtype": lambda path, a: np.save(path, a.astype(np.int64)),
    "object-array": lambda path, a: np.save(path, a.astype(object)),
    "74-columns": lambda path, a: np.save(path, a[:, :74]),
    "1-D": lambda path, a: np.save(path, a.ravel()),
    "NaN": _with_entry(np.nan),
    "inf": _with_entry(np.inf),
    "missing-file": lambda path, a: path.unlink(),
}


@pytest.mark.parametrize("defect", list(ARRAY_DEFECTS))
@pytest.mark.parametrize("array_file", ["bank_poses.npy", "clusters_centroids.npy"])
def test_malformed_model_array_file_exits_3_naming_it(workspace, tmp_path, capsys, array_file, defect):
    d = tmp_path / "models"
    shutil.copytree(workspace["models"], d)
    path = d / array_file
    ARRAY_DEFECTS[defect](path, np.load(path))
    argv = _infer_argv(workspace, tmp_path)
    for flag, name in (("--bank", "bank.json"), ("--cluster-model", "clusters.json"), ("--classifier-model", "forest.json")):
        argv[argv.index(flag) + 1] = str(d / name)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{path}: ")
    assert not (tmp_path / "p.jsonl").exists()


def test_bank_file_naming_a_jsonl_pose_file_exits_3_naming_that_file(workspace, tmp_path, capsys):
    """bank.json as older versions wrote it names bank_poses.jsonl, which is
    not read as poses."""
    d = tmp_path / "models"
    shutil.copytree(workspace["models"], d)
    as_older_files(d)
    for name in ("clusters.json", "clusters_centroids.npy"):  # a current cluster model
        shutil.copy(workspace["models"] / name, d / name)
    argv = _infer_argv(workspace, tmp_path)
    for flag, name in (("--bank", "bank.json"), ("--cluster-model", "clusters.json")):
        argv[argv.index(flag) + 1] = str(d / name)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"] == f"{d / 'bank_poses.jsonl'}: not an NPY file"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_after_writing_the_outputs(workspace, tmp_path, capsys, monkeypatch):
    assert main(_infer_argv(workspace, tmp_path / "open")) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(_infer_argv(workspace, tmp_path / "closed")) == 141
    monkeypatch.undo()
    assert capsys.readouterr().err == ""
    for name in ("p.jsonl", "p_poses.jsonl"):
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "open" / name).read_bytes()


def test_closed_stdout_prints_nothing_at_exit(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"segments": [["stand_idle", 5]]}))
    src = str(Path(egopose.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["synth", "--script", str(script), "--out-dir", str(tmp_path / "d")]
    cmd = [sys.executable, "-c", "import sys; from egopose.cli import main; sys.exit(main())", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # no reader left: the first write to stdout fails
    err = proc.communicate(timeout=120)[1]
    assert (proc.returncode, err) == (141, b"")
    assert (tmp_path / "d" / "poses.jsonl").exists()


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
