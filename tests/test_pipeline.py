"""Integration tests for feature building, model training, and inference."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from egopose import (
    CameraIntrinsics,
    Frame,
    Homography,
    LengthMismatch,
    MotionScript,
    OutOfRange,
    PathParams,
    PoseSequence,
    SingularMatrix,
    TrainedModels,
    features_from_homographies,
    generate,
    infer,
    load_features,
    normalize_pose,
    normalized_matrix,
    save_features,
    save_pose_sequence,
    train_models,
    valid_feature_centers,
)
from egopose.geometry import feature_windows, rotations_from_homographies
import egopose.evaluation as evaluation
import egopose.pathopt as pathopt
import egopose.pipeline as pipeline
from egopose.classify import ForestModel, KnnModel
from egopose.clustering import ExemplarBank, hip_heights, sit_stand_threshold
from egopose.costs import prune, unary_costs
from egopose.errors import Infeasible
from egopose.pathopt import Trellis, solve_paper_dp
from egopose.pipeline import SOLVERS, UP_AXIS, load_models
from egopose.synth import default_camera


def make_homographies(n, seed=0, scale=0.02):
    rng = np.random.default_rng(seed)
    from egopose import Homography

    out = []
    for _ in range(n):
        m = np.eye(3) + rng.normal(0.0, scale, size=(3, 3))
        out.append(Homography.from_matrix(m))
    return out


def training_material(seed=0, n_idle=40, n_walk=50, n_sit=30):
    """Two short scripted recordings plus their homography streams."""
    a = generate(
        MotionScript(
            [("stand_idle", n_idle), ("sit_down", 20), ("sit_idle", n_sit)],
            seed=seed,
            pixel_noise=0.0,
        )
    )
    b = generate(MotionScript([("walk", n_walk), ("turn_left", 15)], seed=seed + 1, pixel_noise=0.0))
    sequences = [a.poses, b.poses]
    streams = [a.homographies, b.homographies]
    return sequences, streams, a, b


# ---------------------------------------------------------------------------
# feature windows


def test_valid_feature_centers_bounds():
    centers = valid_feature_centers(100, 30)
    assert centers[0] == 14
    assert centers[-1] == 84
    assert len(centers) == 71
    assert valid_feature_centers(30, 30).tolist() == [14]
    assert valid_feature_centers(29, 30).size == 0
    # a 2-frame window pairs every frame with its successor
    assert valid_feature_centers(5, 2).tolist() == [0, 1, 2, 3]


def test_features_match_manual_concatenation():
    hs = make_homographies(12, seed=1)
    x, centers = features_from_homographies(hs, window=4)
    assert x.shape == (len(centers), 9 * 3)
    for row, c in zip(x, centers):
        start = c - 1  # (window - 1) // 2 homographies to the left
        expected = np.concatenate([hs[i].h.reshape(-1) for i in range(start, start + 3)])
        assert np.allclose(row, expected)


def test_features_explicit_centers_subset():
    hs = make_homographies(12, seed=2)
    full, centers = features_from_homographies(hs, window=4)
    some = feature_windows(hs, [3, 7], 4)
    lookup = {c: row for c, row in zip(centers, full)}
    assert np.allclose(some[0], lookup[3])
    assert np.allclose(some[1], lookup[7])


def test_rotation_features_need_camera():
    hs = make_homographies(8, seed=3, scale=0.005)
    with pytest.raises(ValueError):
        features_from_homographies(hs, window=4, mode="rotation")
    from egopose import rotation_from_homography
    from egopose.synth import default_camera

    cam = default_camera()
    x, centers = features_from_homographies(hs, window=4, mode="rotation", camera=cam)
    for row, c in zip(x, centers):
        expected = np.concatenate(
            [rotation_from_homography(hs[i], cam).reshape(-1) for i in range(c - 1, c + 2)]
        )
        assert np.allclose(row, expected)


def test_unknown_feature_mode_rejected():
    hs = make_homographies(6)
    with pytest.raises(ValueError):
        features_from_homographies(hs, window=4, mode="affine")


def _reference_rotation(h, camera):
    """K^-1 H K over one matrix at a time, rescaled to determinant 1."""
    km = camera.k
    if abs(np.linalg.det(km)) < 1e-12:
        raise SingularMatrix("intrinsics matrix is singular")
    m = np.linalg.inv(km) @ h.h @ km
    det = np.linalg.det(m)
    if abs(det) < 1e-12:
        raise SingularMatrix("conjugated matrix is singular")
    return m / np.cbrt(det)


def _reference_features(hs, window=30, mode="homography", camera=None, centers=None):
    """Features built one matrix and one center at a time, each window
    concatenated from its maps and the rows stacked at the end."""
    if centers is None:
        centers = valid_feature_centers(len(hs) + 1, window)
    centers = np.asarray(centers, dtype=int)
    if mode == "homography":
        mats = [h.h for h in hs]
    elif mode == "rotation":
        if camera is None:
            raise ValueError("rotation features need camera intrinsics")
        mats = [_reference_rotation(h, camera) for h in hs]
    else:
        raise ValueError(f"unknown feature mode {mode!r}")
    rows = []
    for c in centers.tolist():
        if window < 2:
            raise OutOfRange(f"window must be at least 2, got {window}")
        lo, hi = c - (window - 1) // 2, c + window // 2
        if lo < 0 or hi > len(mats):
            raise OutOfRange(f"window [{lo}, {hi}] outside available frames 0..{len(mats)}")
        rows.append(np.concatenate([m.reshape(-1) for m in mats[lo:hi]]))
    if not rows:
        return np.empty((0, 9 * (window - 1))), centers
    return np.stack(rows), centers


def _features(hs, window=30, mode="homography", camera=None, centers=None):
    """features_from_homographies at every center whose window fits, or
    feature_windows over the same maps at chosen centers."""
    if centers is None:
        return features_from_homographies(hs, window, mode, camera)
    maps = rotations_from_homographies(hs, camera) if mode == "rotation" else hs
    return feature_windows(maps, centers, window), np.asarray(centers, dtype=int)


def _assert_same_features(hs, **kw):
    want_x, want_c = _reference_features(hs, **kw)
    got_x, got_c = _features(hs, **kw)
    assert got_x.shape == want_x.shape and np.array_equal(got_x, want_x)
    assert np.array_equal(got_c, want_c)


def _assert_same_error(hs, error, **kw):
    with pytest.raises(error) as want:
        _reference_features(hs, **kw)
    with pytest.raises(error) as got:
        _features(hs, **kw)
    assert str(got.value) == str(want.value)


FEATURE_MODES = [("homography", None), ("rotation", default_camera())]


@pytest.mark.parametrize("mode, camera", FEATURE_MODES)
@pytest.mark.parametrize("window", range(2, 32))
def test_features_equal_the_per_center_loop(window, mode, camera):
    hs = make_homographies(45, seed=window)
    _assert_same_features(hs, window=window, mode=mode, camera=camera)
    rng = np.random.default_rng(window)
    fit = valid_feature_centers(len(hs) + 1, window)
    picks = rng.choice(fit, size=7)  # unsorted, repeats allowed
    for centers in (picks, fit[::-1], [fit[0], fit[-1]], []):
        _assert_same_features(hs, window=window, mode=mode, camera=camera, centers=centers)


@pytest.mark.parametrize("mode, camera", FEATURE_MODES)
def test_features_of_a_synthetic_stream_equal_the_per_center_loop(mode, camera):
    out = generate(MotionScript([("walk", 60), ("turn_left", 20), ("sit_down", 20), ("sit_idle", 30)], seed=5))
    _assert_same_features(out.homographies, mode=mode, camera=camera)


@pytest.mark.parametrize("mode, camera", FEATURE_MODES)
@pytest.mark.parametrize("window", [2, 3, 4, 30, 31])
def test_features_without_a_center_are_empty(window, mode, camera):
    for n in (0, 1, window - 2):  # too short for one window
        hs = make_homographies(n, seed=n)
        _assert_same_features(hs, window=window, mode=mode, camera=camera)
    hs = make_homographies(40, seed=9)
    _assert_same_features(hs, window=window, mode=mode, camera=camera, centers=[])


@pytest.mark.parametrize("mode, camera", FEATURE_MODES)
@pytest.mark.parametrize(
    "window, centers",
    [(1, None), (0, None), (-3, None), (1, [5]), (4, [0]), (4, [19]), (4, [5, 19, 0]), (4, [-1]), (4, [-100]), (5, [2, -40])],
)
def test_features_raise_out_of_range_as_the_per_center_loop(window, centers, mode, camera):
    hs = make_homographies(20, seed=4)
    _assert_same_error(hs, OutOfRange, window=window, mode=mode, camera=camera, centers=centers)


def test_features_raise_singular_matrix_as_the_per_center_loop():
    hs = make_homographies(12, seed=5)
    tiny = CameraIntrinsics(fx=1e-7, fy=1e-7, cx=0.5, cy=0.4)  # det K = 1e-14
    _assert_same_error(hs, SingularMatrix, window=4, mode="rotation", camera=tiny)
    flat = Homography(np.eye(3))
    flat.h = np.diag([1.0, 1.0, 0.0])  # bypasses the constructor's singularity check
    _assert_same_error(hs[:6] + [flat] + hs[6:], SingularMatrix, window=4, mode="rotation", camera=default_camera())


def test_features_raise_value_error_as_the_per_center_loop():
    hs = make_homographies(12, seed=6)
    _assert_same_error(hs, ValueError, window=4, mode="affine")
    _assert_same_error(hs, ValueError, window=4, mode="rotation")
    _assert_same_error(hs, ValueError, window=1, mode="affine")  # the mode is checked first


def test_normalized_matrix_converts_sensor_poses():
    out = generate(MotionScript([("walk", 10)], seed=4))
    mat = normalized_matrix(out.poses)
    assert mat.shape == (10, 75)
    for row, p in zip(mat, out.poses.poses):
        expected = normalize_pose(p, UP_AXIS).to_vector()
        assert np.allclose(row, expected)
    assert out.poses.poses[0].frame == Frame.SENSOR


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    frames = np.array([3, 4, 9])
    x = rng.normal(size=(3, 27))
    path = tmp_path / "features.jsonl"
    save_features(path, frames, x)
    assert [set(json.loads(line)) for line in path.read_text().splitlines()] == [{"t", "v"}] * 3
    f2, x2 = load_features(path, 10)
    assert np.array_equal(f2, frames)
    assert np.array_equal(x2, x)


def as_older_files(model_dir):
    """Rewrite the model files in model_dir as older versions wrote them:
    clusters.json with a leading k and its centroids as a JSON list,
    bank.json naming its poses' JSONL file, bank_poses.jsonl, each
    features.jsonl row with the class of its bank pose, and a bundle without
    knn.json and with a leading theta_sit in meta.json, the hip-height
    threshold build_bank estimates from the bank poses."""
    model_dir = Path(model_dir)
    bank = ExemplarBank.load(model_dir / "bank.json")
    clusters = model_dir / "clusters.json"
    rec = json.loads(clusters.read_text())
    centroids = model_dir / rec.pop("centroids_file")
    clusters.write_text(json.dumps({"k": bank.k, "centroids": np.load(centroids).tolist(), **rec}))
    centroids.unlink()
    rec = json.loads((model_dir / "bank.json").read_text())
    (model_dir / rec["poses_file"]).unlink()
    save_pose_sequence(model_dir / "bank_poses.jsonl", PoseSequence.of(bank.poses, Frame.WEARER_LOCAL))
    (model_dir / "bank.json").write_text(json.dumps({**rec, "poses_file": "bank_poses.jsonl"}))
    features = model_dir / "features.jsonl"
    if features.exists():
        rows = [json.loads(line) for line in features.read_text().splitlines()]
        features.write_text("".join(json.dumps({**r, "class": int(bank.cluster_of[r["t"]])}) + "\n" for r in rows))
    meta = model_dir / "meta.json"
    if meta.exists():
        (model_dir / "knn.json").unlink(missing_ok=True)
        theta_sit = sit_stand_threshold(hip_heights(bank.poses))
        meta.write_text(json.dumps({"theta_sit": theta_sit, **json.loads(meta.read_text())}, indent=2))


# ---------------------------------------------------------------------------
# training


def test_train_models_validates_lengths(monkeypatch):
    sequences, streams, _, _ = training_material()

    def no_kmeans(*args, **kwargs):
        raise AssertionError("k-means ran before the length checks")

    monkeypatch.setattr("egopose.pipeline.kmeans", no_kmeans)
    with pytest.raises(LengthMismatch):
        train_models(sequences, streams[:1], k=4, window=8)
    with pytest.raises(LengthMismatch):
        train_models(sequences, [streams[0][:-2], streams[1]], k=4, window=8)


def test_train_models_builds_consistent_bundle():
    sequences, streams, _, _ = training_material()
    models = train_models(sequences, streams, k=6, window=8, n_trees=15, seed=0)
    n_total = sum(len(s) for s in sequences)
    assert models.bank.poses.shape == (n_total, 75)
    assert models.bank.sequence_breaks.tolist() == [len(sequences[0])]
    assert models.bank.k == 6
    assert len(models.cluster.labels) == 6
    assert isinstance(models.classifier, ForestModel)
    # feature frames must carry the per-sequence offset
    first_len = len(sequences[0])
    in_second = models.train_feature_frames >= first_len
    assert in_second.any() and (~in_second).any()
    probs = models.cluster_probs(models.train_features[:5])
    assert probs.shape == (5, 6)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_train_models_knn_classifier():
    sequences, streams, _, _ = training_material(seed=10)
    models = train_models(sequences, streams, k=5, window=8, classifier="knn", knn_k=7)
    assert isinstance(models.classifier, KnnModel)
    assert models.classifier.features is models.train_features  # held once
    assert models.knn_k == 7
    probs = models.cluster_probs(models.train_features[:4])
    assert probs.shape == (4, 5)
    assert np.allclose(probs.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        train_models(sequences, streams, k=5, window=8, classifier="svm")


def test_trained_models_save_load_parity(tmp_path):
    sequences, streams, _, _ = training_material(seed=20)
    models = train_models(sequences, streams, k=5, window=8, n_trees=10, seed=1)
    models.save(tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert list(meta) == ["window", "feature_mode", "classifier", "knn_k"]
    again = TrainedModels.load(tmp_path)
    assert again.window == models.window
    assert again.feature_mode == models.feature_mode
    assert isinstance(again.classifier, ForestModel)
    assert np.array_equal(again.bank.cluster_of, models.bank.cluster_of)
    assert np.array_equal(again.bank.sequence_breaks, models.bank.sequence_breaks)
    assert np.allclose(again.bank.poses, models.bank.poses)
    assert np.array_equal(again.train_feature_frames, models.train_feature_frames)
    x = models.train_features[:6]
    assert np.allclose(again.cluster_probs(x), models.cluster_probs(x))


@pytest.mark.parametrize(
    "meta",
    [
        [1, 2],
        {"window": None},
        {"camera": {"fx": None, "fy": 1.0, "cx": 0.5, "cy": 0.4}},
        {"camera": 5},
        {"window": 8.5},
        {"window": "8"},
        {"knn_k": 2.5},
        {"knn_k": True},
        {"classifier": "svm"},
        {"classifier": None},
        {"classifier": ["forest"]},
        {"window": True},
        {"knn_k": None},
        {"feature_mode": 5},
        {"camera": {"fx": 1.0, "fy": 1.0, "cx": 0.5}},
        {"camera": {"fx": 1.0, "fy": 1.0, "cx": 0.5, "cy": float("nan")}},
        {"feature_mode": "sideways"},
        {"feature_mode": None},
        {"feature_mode": "rotation"},  # the bundle holds no camera
        {"camera": {"fx": True, "fy": 1.0, "cx": 0.5, "cy": 0.4}},
        {"camera": {"fx": 1.0, "fy": "1.1", "cx": 0.5, "cy": 0.4}},
        {"camera": {"fx": 1.0, "fy": 1.0, "cx": 0.5, "cy": 0.4, "focal": 1.0}},
        {"knn_k": 0},  # checked on load, not at the first decode
    ],
)
def test_trained_models_meta_of_the_wrong_shape_names_the_file(tmp_path, meta):
    sequences, streams, _, _ = training_material(seed=20)
    train_models(sequences, streams, k=5, window=8, n_trees=2, seed=1).save(tmp_path)
    path = tmp_path / "meta.json"
    if isinstance(meta, dict):
        meta = {**json.loads(path.read_text()), **meta}
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        TrainedModels.load(tmp_path)


@pytest.fixture(scope="module")
def knn_bundle():
    """A kNN bundle from train_models, and a recording to decode with it."""
    sequences, streams, _, _ = training_material(seed=50)
    models = train_models(sequences, streams, k=5, window=8, classifier="knn", knn_k=4, seed=2)
    probe = generate(MotionScript([("stand_idle", 20), ("sit_down", 20), ("sit_idle", 20)], seed=98))
    return models, probe


def test_knn_bundle_keeps_its_features_once_and_reloads_the_same_model(tmp_path, knn_bundle):
    models, probe = knn_bundle
    models.save(tmp_path / "new")
    assert json.loads((tmp_path / "new" / "knn.json").read_text()) == {"features": "features.jsonl"}
    assert json.loads((tmp_path / "new" / "meta.json").read_text())["classifier"] == "knn"
    want = infer(probe.homographies, models, static_h=probe.static_h)
    again = TrainedModels.load(tmp_path / "new")
    assert isinstance(again.classifier, KnnModel) and again.knn_k == 4
    assert again.classifier.features is again.train_features
    assert np.array_equal(again.classifier.features, models.classifier.features)
    assert np.array_equal(again.classifier.classes, models.classifier.classes)
    assert again.classifier.n_classes == models.classifier.n_classes
    x = models.train_features[::7]
    assert np.array_equal(again.cluster_probs(x), models.cluster_probs(x))
    got = infer(probe.homographies, again, static_h=probe.static_h)
    assert np.array_equal(got.dists, want.dists)
    assert got.path.indices == want.path.indices
    assert got.path.energy_dict() == want.path.energy_dict()
    # the bundle's model is knn.json: without it the bundle does not load
    models.save(tmp_path / "bare")
    (tmp_path / "bare" / "knn.json").unlink()
    with pytest.raises(OSError) as info:
        TrainedModels.load(tmp_path / "bare")
    assert str(tmp_path / "bare" / "knn.json") in str(info.value)
    # one written before that held a second copy of the rows, with their classes: retrain it
    inline = {"n_classes": 5, "features": models.train_features.tolist(), "classes": models.classifier.classes.tolist()}
    (tmp_path / "new" / "knn.json").write_text(json.dumps(inline))
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'new' / 'knn.json'))}: .*egopose train"):
        TrainedModels.load(tmp_path / "new")


def test_load_models_builds_the_classifier_the_file_holds(tmp_path, knn_bundle):
    models, _ = knn_bundle
    models.save(tmp_path)
    forest = train_models(*training_material(seed=50)[:2], k=5, window=8, n_trees=3, seed=2).classifier
    forest.save(tmp_path / "forest.json")
    files = [str(tmp_path / name) for name in ("clusters.json", "bank.json")]
    settings = {"window": 8, "feature_mode": "homography", "camera": None, "knn_k": 4}
    got = load_models(*files, tmp_path / "forest.json", **settings)
    assert isinstance(got.classifier, ForestModel) and got.train_features is None
    for name in ("feat", "thresh", "right", "leaf_count"):
        assert np.array_equal(getattr(got.classifier, name), getattr(forest, name))
    got = load_models(*files, tmp_path / "knn.json", **settings)
    assert isinstance(got.classifier, KnnModel) and got.classifier.features is got.train_features
    assert np.array_equal(got.classifier.features, models.classifier.features)
    assert np.array_equal(got.classifier.classes, models.classifier.classes)
    assert got.classifier.n_classes == 5
    # each class reads only its own kind of file
    bank = ExemplarBank.load(tmp_path / "bank.json")
    for load, name, field in ((ForestModel.load, "knn.json", "trees"), (KnnModel.load, "forest.json", "features")):
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / name))}: missing field '{field}'"):
            load(tmp_path / name, *([bank] if load == KnnModel.load else []))


@pytest.mark.parametrize(
    "name, change",
    [
        ("clusters.json", {"labels": None}),  # unlabeled: infer would fail on its first decode
        ("clusters.json", "drop a cluster"),
        ("forest.json", {"n_classes": 7}),  # valid on its own, since every leaf class is below 6
    ],
)
def test_models_that_disagree_with_the_bank_are_rejected_on_load_naming_the_file(tmp_path, trained, name, change):
    trained.save(tmp_path)
    path = tmp_path / name
    rec = json.loads(path.read_text())
    if change == "drop a cluster":
        centroids = tmp_path / rec["centroids_file"]
        np.save(centroids, np.load(centroids)[:-1])
        change = {"labels": rec["labels"][:-1]}
    path.write_text(json.dumps({**rec, **change}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*the bank's 6 clusters"):
        TrainedModels.load(tmp_path)


def test_bundle_meta_that_disagrees_with_its_files_is_rejected(tmp_path, knn_bundle):
    models, _ = knn_bundle
    models.save(tmp_path)
    meta_path = tmp_path / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**meta, "classifier": "forest"}))
    with pytest.raises(OSError) as info:
        TrainedModels.load(tmp_path)
    assert str(tmp_path / "forest.json") in str(info.value)
    meta_path.write_text(json.dumps({**meta, "classifier": "svm"}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(meta_path))}: .*svm"):
        TrainedModels.load(tmp_path)
    # a kNN bundle is its features: without them it cannot load
    meta_path.write_text(json.dumps(meta))
    (tmp_path / "features.jsonl").unlink()
    with pytest.raises(OSError) as info:
        TrainedModels.load(tmp_path)
    assert str(tmp_path / "features.jsonl") in str(info.value)


@pytest.mark.parametrize("kind", ["forest", "knn"])
def test_bundle_in_the_older_format_is_rejected_naming_clusters_json(tmp_path, kind):
    """An older bundle, whose centroids and bank poses are JSON text, is
    rejected at its first file rather than read."""
    sequences, streams, _, _ = training_material(seed=20)
    models = train_models(sequences, streams, k=5, window=8, classifier=kind, n_trees=4, knn_k=4, seed=1)
    models.save(tmp_path)
    as_older_files(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'clusters.json'))}: missing field 'centroids_file'$"):
        TrainedModels.load(tmp_path)


@pytest.mark.parametrize("t", ["-1", "n_poses"])
def test_bundle_feature_row_outside_the_bank_names_its_line(tmp_path, knn_bundle, t):
    models, _ = knn_bundle
    models.save(tmp_path)
    path = tmp_path / "features.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "t": -1 if t == "-1" else len(models.bank.poses)})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: t must index one of the bank's"):
        TrainedModels.load(tmp_path)


def test_knn_bundle_must_hold_its_training_features(tmp_path, knn_bundle):
    models, _ = knn_bundle
    bare = TrainedModels(models.cluster, models.bank, classifier=models.classifier)
    with pytest.raises(ValueError, match="train_features"):
        bare.save(tmp_path)
    assert not (tmp_path / "meta.json").exists()


def test_path_solvers_name_a_missing_classifier(tmp_path, trained, test_stream):
    bare = TrainedModels(trained.cluster, trained.bank, window=trained.window)
    for solver in ("paper", "exact", "path-cluster"):
        with pytest.raises(ValueError, match="classifier"):
            infer(test_stream.homographies, bare, solver=solver)
    with pytest.raises(ValueError, match="classifier"):
        bare.save(tmp_path)
    result = infer(test_stream.homographies, bare, solver="always-standing")
    assert len(result.poses) == len(result.centers)


# ---------------------------------------------------------------------------
# inference


@pytest.fixture(scope="module")
def trained():
    sequences, streams, _, _ = training_material(seed=30)
    return train_models(sequences, streams, k=6, window=8, n_trees=15, seed=2)


@pytest.fixture(scope="module")
def test_stream():
    out = generate(
        MotionScript([("stand_idle", 20), ("sit_down", 20), ("sit_idle", 20)], seed=99, pixel_noise=0.0)
    )
    return out


def test_infer_paper_returns_full_cover(trained, test_stream):
    result = infer(test_stream.homographies, trained, static_h=test_stream.static_h)
    n_frames = len(test_stream.homographies) + 1
    expected_centers = valid_feature_centers(n_frames, trained.window)
    assert np.array_equal(result.centers, expected_centers)
    assert len(result.poses) == len(expected_centers)
    assert result.path is not None
    assert len(result.path.indices) == len(expected_centers)
    assert all(0 <= i < len(trained.bank.poses) for i in result.path.indices)
    assert result.poses.poses[0].frame == Frame.WEARER_LOCAL
    for key in ("features_s", "classify_s", "costs_s", "solve_s", "total_s", "prune_retries"):
        assert key in result.timings
    assert result.dists.shape == (len(expected_centers), trained.bank.k)


def test_infer_exact_never_worse_than_paper(trained, test_stream):
    paper = infer(test_stream.homographies, trained, static_h=test_stream.static_h, solver="paper")
    exact = infer(test_stream.homographies, trained, static_h=test_stream.static_h, solver="exact")
    assert exact.path.total <= paper.path.total + 1e-9


def test_infer_constant_baselines(trained, test_stream):
    for solver in ("always-standing", "always-sitting"):
        result = infer(test_stream.homographies, trained, solver=solver)
        assert result.path is None
        first = result.poses.poses[0].to_vector()
        for p in result.poses.poses:
            assert np.array_equal(p.to_vector(), first)


def test_infer_kdtree_baseline(trained, test_stream):
    result = infer(test_stream.homographies, trained, solver="kdtree")
    assert result.path is None
    assert len(result.poses) == len(result.centers)
    bank_rows = {tuple(np.round(v, 9)) for v in trained.bank.poses}
    for p in result.poses.poses:
        assert tuple(np.round(p.to_vector(), 9)) in bank_rows


def test_infer_kdtree_reuses_the_knn_classifier_index(knn_bundle, monkeypatch):
    """A kNN bundle's classifier holds the training features, so its index
    answers the 1-NN baseline; only a bundle without one builds an index."""
    models, probe = knn_bundle
    built = []

    class CountingIndex(evaluation.KnnIndex):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    forest_like = replace(models, classifier=None)
    want = infer(probe.homographies, forest_like, solver="kdtree")
    monkeypatch.setattr(evaluation, "KnnIndex", CountingIndex)
    for _ in range(2):
        got = infer(probe.homographies, models, solver="kdtree")
        assert [p.to_vector().tolist() for p in got.poses.poses] == [p.to_vector().tolist() for p in want.poses.poses]
    assert built == []
    infer(probe.homographies, forest_like, solver="kdtree")
    assert built == [1]


def test_infer_validates_inputs(trained, test_stream):
    with pytest.raises(ValueError):
        infer(test_stream.homographies, trained, solver="magic")
    with pytest.raises(LengthMismatch):
        infer(test_stream.homographies, trained, static_h=np.zeros(3))
    with pytest.raises(OutOfRange):
        infer(test_stream.homographies[:3], trained)


def test_infer_default_static_is_uninformative(trained, test_stream):
    implicit = infer(test_stream.homographies, trained)
    explicit = infer(
        test_stream.homographies,
        trained,
        static_h=np.full(len(test_stream.homographies) + 1, 0.5),
    )
    assert implicit.path.indices == explicit.path.indices
    assert implicit.path.total == pytest.approx(explicit.path.total)


@pytest.fixture(scope="module")
def overconfident():
    """Two-tree forests whose pruned trellises strand the path: (models,
    probe, threshold, retries infer needs) for a model that relaxes once and
    one that relaxes down to threshold 0."""
    probe = generate(MotionScript([("stand_idle", 30), ("walk", 30)], seed=77, pixel_noise=0.0))
    cases = []
    for seed, k, thr, retries in ((40, 8, 0.5, 1), (30, 12, 0.2, 7)):
        sequences, streams, _, _ = training_material(seed=seed)
        cases.append((train_models(sequences, streams, k=k, window=8, n_trees=2, seed=3), probe, thr, retries))
    return cases


def test_infer_survives_overconfident_classifier(overconfident):
    """Noise-free idle blocks give bit-identical features; the forest then
    votes probability one and aggressive pruning can strand the path. The
    solver must relax the threshold instead of failing."""
    models, probe, _, _ = overconfident[0]
    result = infer(
        probe.homographies,
        models,
        static_h=probe.static_h,
        params=PathParams(prune_threshold=0.5),
    )
    assert len(result.path.indices) == len(result.centers)
    assert result.timings["prune_retries"] == 1  # 0.5 strands the path, 0.05 does not


def _reference_relaxed_decode(hs, models, static_h, params):
    """The paper decode as infer ran it before it checked reachability: build
    a trellis and run the DP at each threshold t, t/10, ... (0 once below
    1e-6) until the DP stops raising Infeasible. Returns (path, retries,
    the threshold of the path)."""
    x, centers = features_from_homographies(hs, models.window, models.feature_mode, models.camera)
    dists, bank = models.cluster_probs(x), models.bank
    costs = unary_costs(dists, static_h[centers], bank, models.cluster.labels, params)
    thr, retries = params.prune_threshold, 0
    while True:
        kept = prune(costs, dists, bank, replace(params, prune_threshold=thr))
        try:
            return solve_paper_dp(kept, params), retries, thr
        except Infeasible:
            if thr == 0.0:
                raise
            thr = 0.0 if thr < 1e-6 else thr / 10.0
            retries += 1


def test_infer_matches_the_retry_loop_and_solves_once(overconfident, monkeypatch):
    calls = {"solve": 0, "check": 0}
    solve, check = pipeline.solve_paper_dp, Trellis.admits_path

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "solve_paper_dp", counted("solve", solve))
    monkeypatch.setattr(Trellis, "admits_path", counted("check", check))
    for models, probe, thr, retries in overconfident:
        for params in (PathParams(prune_threshold=thr), PathParams(prune_threshold=0.0)):
            want, want_retries, last_thr = _reference_relaxed_decode(probe.homographies, models, probe.static_h, params)
            calls.update(solve=0, check=0)
            got = infer(probe.homographies, models, static_h=probe.static_h, params=params)
            assert got.path.indices == want.indices
            assert got.path.energy_dict() == want.energy_dict()
            assert got.timings["prune_retries"] == want_retries == (retries if params.prune_threshold else 0)
            # one DP call; threshold 0 is never checked, since every pose is kept there
            assert calls["solve"] == 1
            assert calls["check"] == want_retries + (last_thr > 0.0)


def _reference_path_cluster(trellis, dists, params):
    """solve_path_cluster as it was before it checked the argmax sequence:
    solve the restriction to each frame's argmax cluster, and on Infeasible
    solve again on the cluster-level Viterbi sequence."""
    present = [np.unique(trellis.bank.cluster_of[idx]) for idx in trellis.indices]
    chosen = [int(p[int(dists[n][p].argmax())]) for n, p in enumerate(present)]
    try:
        return pathopt.solve_paper_dp(pathopt._restrict(trellis, chosen), params)
    except Infeasible:
        chosen = pathopt._cluster_viterbi(trellis, dists)
        return pathopt.solve_paper_dp(pathopt._restrict(trellis, chosen), params)


def test_path_cluster_checks_the_argmax_sequence_and_solves_once(overconfident, monkeypatch):
    calls = {"solve": 0}
    solve, path_cluster = pathopt.solve_paper_dp, pipeline.solve_path_cluster
    decodes = []

    def counted(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def recorded(*args):
        decodes.append(args)
        return path_cluster(*args)

    monkeypatch.setattr(pathopt, "solve_paper_dp", counted)
    monkeypatch.setattr(pipeline, "solve_path_cluster", recorded)
    fallbacks = 0
    for models, probe, _, _ in overconfident:
        for thr in (0.01, 0.5):
            decodes.clear()
            params = PathParams(prune_threshold=thr)
            got = infer(probe.homographies, models, static_h=probe.static_h, params=params, solver="path-cluster")
            (args,) = decodes
            calls["solve"] = 0
            want = _reference_path_cluster(*args)
            fallbacks += calls["solve"] - 1
            assert got.path.indices == want.indices
            assert got.path.energy_dict() == want.energy_dict()
            calls["solve"] = 0
            path_cluster(*args)
            assert calls["solve"] == 1
    assert fallbacks == 4  # the argmax restriction strands every one of these decodes


def test_every_exported_name_resolves():
    import egopose

    assert len(set(egopose.__all__)) == len(egopose.__all__)
    assert [name for name in egopose.__all__ if not hasattr(egopose, name)] == []


def test_solver_registry_is_complete():
    assert set(SOLVERS) == {
        "paper",
        "exact",
        "path-cluster",
        "kdtree",
        "always-standing",
        "always-sitting",
    }


def test_infer_path_cluster_runs(trained, test_stream):
    result = infer(
        test_stream.homographies, trained, static_h=test_stream.static_h, solver="path-cluster"
    )
    assert result.path is not None
    paper = infer(test_stream.homographies, trained, static_h=test_stream.static_h)
    # the restriction can only tie or lose against the unrestricted DP
    exact = infer(test_stream.homographies, trained, static_h=test_stream.static_h, solver="exact")
    assert result.path.total >= exact.path.total - 1e-9
    assert paper.path.total >= exact.path.total - 1e-9
