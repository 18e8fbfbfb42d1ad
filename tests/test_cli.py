"""End-to-end tests for the command line front end.

Everything runs through main(argv) in temporary directories: the full
synth -> cluster -> train -> infer -> eval round trip, the documented exit
codes (0 success, 2 usage, 3 data error, 4 degenerate input), JSON error
objects on stderr, and byte-identical rerun determinism.
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import asdict
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
    FeatureSettings,
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
                "--homographies",
                str(data / "homographies.jsonl"),
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
    # infer reads the vote size from the kNN file, and checks it there
    knn = tmp_path / "knn.json"
    knn.write_text(json.dumps({**json.loads(knn.read_text()), "k": int(k)}))
    rc = main(
        ["infer", "--input", str(workspace["data"] / "homographies.jsonl"), "--bank", str(models / "bank.json")]
        + ["--cluster-model", str(models / "clusters.json"), "--classifier-model", str(knn)]
        + ["--out", str(tmp_path / "p.jsonl")]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"] == f"{knn}: knn_k must be at least 1, got {k}"


def test_knn_file_without_k_exits_3_naming_it(workspace, tmp_path, capsys):
    """A kNN file written before it held its vote size k is not read with a
    default k: re-running egopose train replaces it."""
    models = workspace["models"]
    knn = tmp_path / "knn.json"
    train = ["train", "--features", str(models / "features.jsonl"), "--bank", str(models / "bank.json")]
    assert main(train + ["--classifier", "knn", "--knn-k", "5", "--out", str(knn)]) == 0
    knn.write_text(json.dumps({"features": json.loads(knn.read_text())["features"]}))
    capsys.readouterr()
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--classifier-model") + 1] = str(knn)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ValueError", "message": f"{knn}: missing field 'k'"}
    assert not (tmp_path / "p.jsonl").exists()


def test_train_loo_with_a_forest_exits_3_before_writing(workspace, tmp_path, capsys):
    """--loo scores a kNN model's rows; with a forest it is an error, not
    ignored."""
    models = workspace["models"]
    train = ["train", "--features", str(models / "features.jsonl"), "--bank", str(models / "bank.json")]
    assert main(train + ["--trees", "2", "--loo", "--out", str(tmp_path / "forest.json")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and "--loo" in err["message"]
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_readme_commands_parse():
    """Every egopose command in the README's sh blocks, continued lines
    joined, is one the parser accepts, so a removed flag cannot linger in
    the docs. Nothing runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("egopose ")]
    assert {argv[0] for argv in commands} == {"synth", "cluster", "train", "infer", "eval"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README command egopose {shlex.join(argv)} does not parse")


def test_readme_prose_flags_exist():
    """Every --flag in a backticked span of the README's prose, outside its
    code blocks, is one that the subcommand the span names (`cluster --k`)
    accepts, or else one that some subcommand accepts, so a removed flag
    cannot linger in the text either. Nothing runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}
    anywhere = set().union(*accepted.values())
    seen, wrong = set(), []
    for span in re.findall(r"`([^`]+)`", prose):
        named = [word for word in span.split()[:2] if word in accepted]
        for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", span):
            seen.add(flag)
            if flag not in (accepted[named[0]] if named else anywhere):
                wrong.append(f"`{' '.join(span.split())}`: {flag}")
    assert {"--config", "--camera", "--homographies", "--classifier-model"} <= seen
    assert not wrong, wrong


def test_readme_python_names_resolve():
    """Every name the README's `from egopose import (...)` block imports, and
    every backticked `pipeline.`, `egopose.`, `records.` or `geometry.` name,
    exists, so a removed function cannot linger in the docs. Nothing runs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^from egopose import \((.*?)\)", readme, re.M | re.S)
    imported = [name for block in blocks for name in re.findall(r"\w+", re.sub(r"#.*", "", block))]
    assert imported
    missing = [name for name in imported if not hasattr(egopose, name)]
    named = re.findall(r"`((?:pipeline|egopose|records|geometry)(?:\.\w+)+)", readme)
    assert named
    for dotted in named:
        head, *attrs = dotted.split(".")
        obj = egopose if head == "egopose" else importlib.import_module(f"egopose.{head}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(dotted)
    assert not missing, f"the README names {missing}, which egopose does not define"


# the CLI's defaults, pinned here so that a default changed at its owner (PathParams,
# FeatureSettings or train_models) shows as a deliberate edit
CONFIG_DEFAULTS = {
    "delta": 0.1,
    "speed_gamma": 10.0,
    "speed_mu": 0.01,
    "stat_gamma": 5.0,
    "stat_mu": 0.02,
    "tau": 0.99,
    "prune": 0.01,
    "k": 300,
    "window": 30,
    "feature_mode": "homography",
    "trees": 100,
    "knn_k": 30,
    "seed": 0,
}


def test_default_config_keeps_its_keys_values_and_types():
    assert DEFAULT_CONFIG == CONFIG_DEFAULTS
    assert {key: type(val) for key, val in DEFAULT_CONFIG.items()} == {key: type(val) for key, val in CONFIG_DEFAULTS.items()}
    assert cli._INTEGRAL_KEYS == {"k", "window", "trees", "knn_k", "seed"}


def test_default_config_reads_each_training_default_from_its_owner():
    """egopose cluster and train default to what train_models and
    FeatureSettings() default to, and the inner routines default to nothing."""
    train = inspect.signature(train_models).parameters
    settings = FeatureSettings()
    assert DEFAULT_CONFIG["window"] == settings.window == train["window"].default
    assert DEFAULT_CONFIG["feature_mode"] == settings.mode == train["feature_mode"].default
    for key, name in (("k", "k"), ("trees", "n_trees"), ("knn_k", "knn_k"), ("seed", "seed")):
        assert DEFAULT_CONFIG[key] == train[name].default, key
    inner = {
        egopose.valid_feature_centers: ["window"],
        egopose.feature_windows: ["window"],
        build_bank: ["k", "seed"],
        egopose.train_forest: ["n_trees", "seed"],
        KnnModel: ["k"],
    }
    for func, names in inner.items():
        params = inspect.signature(func).parameters
        assert all(params[name].default is inspect.Parameter.empty for name in names), func.__name__


def test_no_parameter_that_no_caller_sets_is_left():
    rate, up = ("frame_rate_hz",), ("up",)
    gone = {
        PoseSequence: rate,
        PoseSequence.of: rate,
        load_pose_sequence: rate,
        egopose.skeleton.load_pose_sequence_with_times: rate,
        generate: ("camera", "frame_rate_hz"),
        egopose.normalized_matrix: up,
        build_bank: up,
        train_models: up,
    }
    for func, names in gone.items():
        assert not set(inspect.signature(func).parameters) & set(names), func
    assert not hasattr(PoseSequence.of(np.zeros((1, 25, 3)), Frame.SENSOR), "frame_rate_hz")
    assert not hasattr(egopose, "constant_static") and not hasattr(egopose.classify, "constant_static")
    assert list(inspect.signature(egopose.prune).parameters) == ["costs", "dists", "threshold"]


def _readme_call_forms(readme: str):
    """(text, callable, [(name, shown default)]) for each inline backticked
    call form of the README, such as `PoseSequence.of(joints, frame)`, whose
    callable egopose defines; a bare name shows no default
    (inspect.Parameter.empty). A form on an object the text only names
    (`models.save(dir)`, `rows(hs)`, `len(...)`) is skipped."""
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)  # a code block's calls pass values, not defaults
    for span in re.findall(r"`([^`]+)`", prose):
        try:
            call = ast.parse(span.replace("\n", " "), mode="eval").body
        except SyntaxError:
            continue
        if not isinstance(call, ast.Call):
            continue
        dotted, node = [], call.func
        while isinstance(node, ast.Attribute):
            dotted.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            continue
        if node.id == "egopose":
            obj = egopose
        elif importlib.util.find_spec(f"egopose.{node.id}") is not None:
            obj = importlib.import_module(f"egopose.{node.id}")
        elif hasattr(egopose, node.id):
            obj = getattr(egopose, node.id)
        else:
            continue
        for attr in dotted:
            obj = getattr(obj, attr)  # a missing name fails here
        shown = [(arg.id, inspect.Parameter.empty) for arg in call.args if isinstance(arg, ast.Name)]
        shown += [(kw.arg, eval(compile(ast.Expression(kw.value), span, "eval"), vars(egopose))) for kw in call.keywords]
        yield " ".join(span.split()), obj, shown


def test_readme_call_forms_match_the_signatures():
    """Every parameter a backticked call form in the README names exists on
    the real callable, and every default it shows is the real default, so a
    deleted parameter or a changed default cannot linger in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    checked, wrong = set(), []
    for text, obj, shown in _readme_call_forms(readme):
        checked.add(text.split("(")[0])
        params = inspect.signature(obj).parameters
        for name, default in shown:
            if name not in params:
                wrong.append(f"{text}: no parameter {name!r}")
            elif default is not inspect.Parameter.empty and params[name].default != default:
                wrong.append(f"{text}: {name} defaults to {params[name].default!r}, not {default!r}")
    assert {"PoseSequence.of", "egopose.load_models", "pipeline.FeatureSettings"} <= checked
    assert not wrong, wrong


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
            "--out",
            str(tmp_path / "p.jsonl"),
        ]
    )
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    message = f"{bad}: static sitting probability nan at frame 3 is not in [0, 1]"  # no NumPy scalar repr
    assert err == {"error": "InvalidProbability", "message": message}


@pytest.mark.parametrize("flag", ["--bank", "--cluster-model", "--classifier-model", "--camera", "--config"])
def test_model_file_holding_no_json_object_exits_3(workspace, tmp_path, capsys, flag):
    models = workspace["models"]
    files = {
        "--bank": models / "bank.json",
        "--cluster-model": models / "clusters.json",
        "--classifier-model": models / "forest.json",
    }
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    shutil.copy(models / "meta.json", tmp_path)  # the feature settings beside the cluster model
    if flag == "--camera":  # cluster reads it, and records the camera in meta.json
        argv = ["cluster", "--poses", str(workspace["data"] / "poses.jsonl"), "--camera", str(bad)]
    else:
        files[flag] = bad
        argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
        for name, path in files.items():
            argv += [name, str(path)]
    rc = main(argv + ["--out", str(tmp_path / "out" / "p.jsonl")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert str(bad) in err["message"]
    assert not (tmp_path / "out").exists()


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
    shutil.copy(models / "meta.json", tmp_path)  # the feature settings beside the cluster model
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
    for name, path in files.items():
        argv += [name, str(path)]
    rc = main(argv + ["--out", str(tmp_path / "p.jsonl")])
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
        + ["--out", str(tmp_path / "p.jsonl")]
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
    assert err == {"error": "ScriptError", "message": f"{bad}: walk requires standing"}


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
    if flag == "--camera":  # cluster reads it, before it writes anything
        argv = ["cluster", "--poses", str(workspace["data"] / "poses.jsonl"), flag, str(bad)]
        argv += ["--out", str(tmp_path / "out" / "clusters.json")]
    else:
        argv = _infer_argv(workspace, tmp_path / "out", flag, str(bad))
    rc = main(argv)
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{bad}: ")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_non_finite_correspondence_exits_3_naming_its_line(workspace, tmp_path, capsys, token):
    """A NaN or infinite coordinate is rejected where it is read, naming the
    file and line, before any homography is estimated or file written."""
    data, models = workspace["data"], workspace["models"]
    lines = (data / "correspondences.jsonl").read_text().splitlines()
    rec = json.loads(lines[4])
    rec["dst"][0][1] = float(token.lower())
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines[:4] + [json.dumps(rec)] + lines[5:]) + "\n")
    assert token in bad.read_text()
    want = {"error": "ValueError", "message": f"{bad}:5: src and dst coordinates must be finite"}
    out = tmp_path / "out"
    poses = str(data / "poses.jsonl")
    rc = main(["cluster", "--poses", poses, "--homographies", str(bad), "--out", str(out / "c.json"), "--k", "8"])
    assert rc == 3 and json.loads(capsys.readouterr().err.strip()) == want
    model_flags = ["--bank", str(models / "bank.json"), "--cluster-model", str(models / "clusters.json")]
    model_flags += ["--classifier-model", str(models / "forest.json")]
    rc = main(["infer", "--input", str(bad), *model_flags, "--out", str(out / "p.jsonl")])
    assert rc == 3 and json.loads(capsys.readouterr().err.strip()) == want
    assert not out.exists()  # nothing written


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
            + ["--out", str(tmp_path / "p.jsonl")]
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
                    "--homographies",
                    str(data / "homographies.jsonl"),
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
    dk = tmp_path / "cli_knn"  # the same cluster output, for a kNN model
    shutil.copytree(d, dk)
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
    train = ["train", "--features", str(dk / "features.jsonl"), "--bank", str(dk / "bank.json")]
    assert main(train + ["--classifier", "knn", "--knn-k", "5", "--out", str(dk / "knn.json")]) == 0
    knn = KnnModel.load(dk / "knn.json", bank)
    lib_knn = train_models(seqs, hs, k=8, window=8, classifier="knn", knn_k=5, seed=3)
    assert np.array_equal(knn.features, lib_knn.classifier.features)
    assert np.array_equal(knn.classes, lib_knn.classifier.classes)
    assert knn.n_classes == lib_knn.classifier.n_classes == 8 and knn.k == lib_knn.classifier.k == 5
    # and the files themselves are the library bundle's: the same set, byte for byte
    for cli_dir, models, kind in ((d, lib, "forest"), (dk, lib_knn, "knn")):
        lib_dir = tmp_path / f"lib_{kind}"
        models.save(lib_dir)
        names = {"clusters.json", "clusters_centroids.npy", "meta.json", "bank.json", "bank_poses.npy", "features.jsonl"}
        assert set(os.listdir(cli_dir)) == set(os.listdir(lib_dir)) == names | {f"{kind}.json"}
        for name in os.listdir(cli_dir):
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes(), name


def test_removed_output_flags_are_usage_errors(workspace, tmp_path):
    """cluster writes every model file beside --out, and infer its poses to
    <out>_poses.jsonl: no flag moves one elsewhere."""
    data = workspace["data"]
    cluster = ["cluster", "--poses", str(data / "poses.jsonl"), "--out", str(tmp_path / "clusters.json")]
    infer = _infer_argv(workspace, tmp_path, "--poses-out", str(tmp_path / "poses.jsonl"))
    for argv in (cluster + ["--bank-out", str(tmp_path / "bank.json")], cluster + ["--features-out", "f.jsonl"], infer):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
    assert os.listdir(tmp_path) == []


def test_cluster_that_fails_part_way_leaves_the_models_it_would_replace(workspace, tmp_path, capsys, monkeypatch):
    """cluster stages its files and moves them into place only once all are
    written: a write that fails leaves every file of the directory as it was,
    still loadable, and no staging directory."""
    d = tmp_path / "models"
    shutil.copytree(workspace["models"], d)
    before = {name: (d / name).read_bytes() for name in os.listdir(d)}

    def fail(self, path):
        raise OSError("planted")

    monkeypatch.setattr(ExemplarBank, "save", fail)
    data = workspace["data"]
    argv = ["cluster", "--poses", str(data / "poses.jsonl"), "--homographies", str(data / "homographies.jsonl")]
    assert main(argv + ["--k", "5", "--window", "6", "--out", str(d / "clusters.json")]) == 3
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "OSError", "message": "planted"}
    assert {name: (d / name).read_bytes() for name in os.listdir(d)} == before
    monkeypatch.undo()
    assert egopose.TrainedModels.load(d).bank.k == 8


def test_cluster_removes_the_features_of_an_earlier_run_that_it_does_not_write(workspace, tmp_path, capsys):
    """A features.jsonl of rotation features, left by an earlier cluster
    into the same directory, is never trained on beside a meta.json that
    says homography: cluster without streams removes it, so train exits 3
    naming the missing file."""
    data = workspace["data"]
    d = tmp_path / "m"
    argv = ["cluster", "--poses", str(data / "poses.jsonl"), "--k", "8", "--window", "8", "--out", str(d / "clusters.json")]
    rotation = ["--homographies", str(data / "homographies.jsonl"), "--feature-mode", "rotation"]
    assert main(argv + rotation + ["--camera", str(data / "manifest.json")]) == 0
    assert (d / "features.jsonl").exists()
    assert main(argv) == 0
    assert json.loads((d / "meta.json").read_text()) == {"window": 8, "feature_mode": "homography"}
    assert sorted(os.listdir(d)) == ["bank.json", "bank_poses.npy", "clusters.json", "clusters_centroids.npy", "meta.json"]
    capsys.readouterr()
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json"), "--trees", "2"]
    assert main(train + ["--out", str(d / "forest.json")]) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError" and str(d / "features.jsonl") in err["message"]
    assert not (d / "forest.json").exists()


def test_infer_decodes_with_the_feature_settings_the_model_was_built_with(workspace, tmp_path, capsys):
    """A model built from rotation features decodes with them: infer, given
    no settings, takes the window, feature mode and camera from the
    meta.json that cluster wrote, and writes the path and poses that the
    library's infer gives on the same directory loaded as a bundle."""
    data = workspace["data"]
    d = tmp_path / "rotation"
    argv = ["cluster", "--poses", str(data / "poses.jsonl"), "--homographies", str(data / "homographies.jsonl")]
    argv += ["--feature-mode", "rotation", "--camera", str(data / "manifest.json"), "--k", "8", "--window", "8"]
    assert main(argv + ["--out", str(d / "clusters.json")]) == 0
    meta = json.loads((d / "meta.json").read_text())
    assert meta == {"window": 8, "feature_mode": "rotation", "camera": asdict(default_camera())}
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json"), "--trees", "5"]
    assert main(train + ["--out", str(d / "forest.json")]) == 0
    capsys.readouterr()
    energy, files = _decode_over(workspace, d, capsys, "--classifier-model", "{d}/forest.json")
    models = egopose.TrainedModels.load(d)
    assert models.settings == egopose.FeatureSettings(8, "rotation", default_camera())
    hs = load_homographies(data / "homographies.jsonl")
    result = egopose.infer(hs, models, egopose.load_static(data / "static_h.jsonl"), _path_params(DEFAULT_CONFIG))
    result.path.save(tmp_path / "path.jsonl", models.bank)
    save_pose_sequence(tmp_path / "path_poses.jsonl", result.poses, times=result.centers)
    assert energy == ["energy: U={U:.6f} T={T:.6f} V={V:.6f} S={S:.6f} total={total:.6f}".format(**result.path.energy_dict())]
    for name in ("path.jsonl", "path_poses.jsonl"):
        assert files[name] == (tmp_path / name).read_bytes(), name


def test_cluster_rotation_features_without_a_camera_exit_3_before_writing(workspace, tmp_path, capsys):
    """cluster records its feature settings even without homography streams,
    so it checks them before it writes anything: rotation features without a
    camera, and a window below 2."""
    data = workspace["data"]
    out = ["--k", "8", "--out", str(tmp_path / "m" / "clusters.json")]
    bad = [(["--feature-mode", "rotation"], "ValueError", "rotation features need camera intrinsics")]
    bad += [(["--window", w], "OutOfRange", f"window must be at least 2, got {w}") for w in ("1", "0", "-1")]
    for settings, error, message in bad:
        for streams in ([], ["--homographies", str(data / "homographies.jsonl")]):
            assert main(["cluster", "--poses", str(data / "poses.jsonl"), *streams, *settings, *out]) == 3
            err = json.loads(capsys.readouterr().err.strip())
            assert err == {"error": error, "message": message}
    assert os.listdir(tmp_path) == []


def test_model_files_without_meta_json_exit_3_naming_it(workspace, tmp_path, capsys):
    """Model files whose cluster model has no meta.json beside it, as cluster
    wrote them before it recorded its feature settings, are not decoded
    with guessed settings; nor are they with a recorded window below 2."""
    d = tmp_path / "models"
    shutil.copytree(workspace["models"], d)
    (d / "meta.json").unlink()
    argv = _infer_argv(workspace, tmp_path)
    for flag, name in (("--bank", "bank.json"), ("--cluster-model", "clusters.json"), ("--classifier-model", "forest.json")):
        argv[argv.index(flag) + 1] = str(d / name)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "FileNotFoundError" and str(d / "meta.json") in err["message"]
    assert not (tmp_path / "p.jsonl").exists()
    for window in (1, 0, -1):
        (d / "meta.json").write_text(json.dumps({"window": window, "feature_mode": "homography"}))
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": f"{d / 'meta.json'}: window must be at least 2, got {window}"}
        assert not (tmp_path / "p.jsonl").exists()


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
    argv += ["--static-h", str(workspace["data"] / "static_h.jsonl")]
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
    argv = ["infer", "--input", str(workspace["data"] / "homographies.jsonl")]
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
                "--homographies",
                str(data / "homographies.jsonl"),
                "--config",
                str(cfg),
            ]
        )
        == 0
    )
    ref = workspace["models"]
    for name in ("clusters.json", "bank.json", "features.jsonl"):
        assert (d / name).read_bytes() == (ref / name).read_bytes()


# ---------------------------------------------------------------------------
# data errors name their file


def _with_lines(src, dst, change):
    """dst: the JSONL file src with change applied to its list of lines."""
    lines = src.read_text().splitlines()
    change(lines)
    dst.write_text("".join(line + "\n" for line in lines))
    return dst


def test_static_file_one_record_short_exits_3_naming_it(workspace, tmp_path, capsys):
    short = _with_lines(workspace["data"] / "static_h.jsonl", tmp_path / "static_h.jsonl", lambda lines: lines.pop())
    assert main(_infer_argv(workspace, tmp_path, "--static-h", str(short))) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "LengthMismatch", "message": f"{short}: static file holds 109 frames, expected 110"}


def test_singular_homography_record_exits_4_naming_its_line(workspace, tmp_path, capsys):
    singular = json.dumps({"t": 4, "h": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]})
    stream = _with_lines(workspace["data"] / "homographies.jsonl", tmp_path / "h.jsonl", lambda lines: lines.__setitem__(4, singular))
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--input") + 1] = str(stream)
    assert main(argv) == 4
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "SingularMatrix", "message": f"{stream}:5: homography is singular"}


def test_input_shorter_than_one_window_exits_3_naming_it(workspace, tmp_path, capsys):
    stream = _with_lines(workspace["data"] / "homographies.jsonl", tmp_path / "h.jsonl", lambda lines: lines.__delitem__(slice(5, None)))
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--input") + 1] = str(stream)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "OutOfRange", "message": f"{stream}: 6 frames are too short for one 8-frame feature window"}
    assert not (tmp_path / "p.jsonl").exists()


def _swap(i, j):
    def change(lines):
        lines[i], lines[j] = lines[j], lines[i]

    return change


@pytest.mark.parametrize(
    "name, flag, change, line",
    [
        ("homographies.jsonl", "--input", _swap(40, 90), 41),
        ("homographies.jsonl", "--input", lambda lines: lines.pop(50), 51),
        ("correspondences.jsonl", "--input", _swap(10, 11), 11),
        ("static_h.jsonl", "--static-h", _swap(30, 60), 31),
    ],
)
def test_stream_records_out_of_frame_order_exit_3_naming_the_line(workspace, tmp_path, capsys, name, flag, change, line):
    """A stream is read in file order, so a swapped or dropped record would
    move every later frame; its t says so, and infer exits 3 at that line."""
    stream = _with_lines(workspace["data"] / name, tmp_path / name, change)
    argv = _infer_argv(workspace, tmp_path)
    if flag == "--input":
        argv[argv.index("--input") + 1] = str(stream)
    else:
        argv += [flag, str(stream)]
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{stream}:{line}: t must count the frames")
    assert not (tmp_path / "p.jsonl").exists()


def test_forest_fit_on_another_clustering_exits_3_naming_it(workspace, tmp_path, capsys):
    """forest.json records the clustering its classes name. cluster run again
    into the directory with another seed gives other clusters, so the forest
    that train fit before is rejected rather than decoded; the same seed
    gives the same clusters, and the forest still loads. A forest file that
    records no clustering is rejected too."""
    data, d = workspace["data"], tmp_path / "m"
    cluster = ["cluster", "--poses", str(data / "poses.jsonl"), "--homographies", str(data / "homographies.jsonl")]
    cluster += ["--k", "8", "--window", "8", "--out", str(d / "clusters.json")]
    assert main(cluster + ["--seed", "0"]) == 0
    train = ["train", "--features", str(d / "features.jsonl"), "--bank", str(d / "bank.json"), "--trees", "3"]
    assert main(train + ["--out", str(d / "forest.json")]) == 0
    argv = _infer_argv(workspace, tmp_path)
    for flag, name in (("--bank", "bank.json"), ("--cluster-model", "clusters.json"), ("--classifier-model", "forest.json")):
        argv[argv.index(flag) + 1] = str(d / name)
    before = ExemplarBank.load(d / "bank.json").cluster_of
    assert main(cluster + ["--seed", "0"]) == 0
    assert main(argv) == 0
    assert main(cluster + ["--seed", "5"]) == 0
    assert not np.array_equal(ExemplarBank.load(d / "bank.json").cluster_of, before)
    capsys.readouterr()
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "ValueError" and err["message"].startswith(f"{d / 'forest.json'}: the forest was fit on another")
    assert "re-run egopose train" in err["message"]
    rec = json.loads((workspace["models"] / "forest.json").read_text())
    del rec["clustering"]
    unrecorded = tmp_path / "forest.json"
    unrecorded.write_text(json.dumps(rec))
    argv = _infer_argv(workspace, tmp_path)
    argv[argv.index("--classifier-model") + 1] = str(unrecorded)
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["message"].startswith(f"{unrecorded}: the forest records no clustering")


def test_empty_or_unknown_input_stream_exits_3_naming_it(workspace, tmp_path, capsys):
    for content, message in (("\n", "empty input stream"), ('{"t": 0, "x": 1}\n', "expected homography or correspondence records")):
        stream = tmp_path / "in.jsonl"
        stream.write_text(content)
        argv = _infer_argv(workspace, tmp_path)
        argv[argv.index("--input") + 1] = str(stream)
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().err.strip()) == {"error": "ValueError", "message": f"{stream}: {message}"}


def test_train_with_no_feature_rows_exits_3_before_writing(workspace, tmp_path, capsys):
    empty = tmp_path / "features.jsonl"
    empty.write_text("")
    train = ["train", "--features", str(empty), "--bank", str(workspace["models"] / "bank.json")]
    assert main(train + ["--out", str(tmp_path / "forest.json")]) == 3
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "ValueError", "message": f"{empty}: no feature rows"}
    assert not (tmp_path / "forest.json").exists()


def test_infer_warns_past_half_a_second_a_frame(workspace, tmp_path, capsys, monkeypatch):
    real = cli.infer

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        result.timings["total_per_frame_s"] = 0.6
        return result

    monkeypatch.setattr(cli, "infer", slow)
    assert main(_infer_argv(workspace, tmp_path)) == 0
    assert "warning: 0.600 s/frame exceeds the 0.5 s/frame budget" in capsys.readouterr().out.splitlines()

