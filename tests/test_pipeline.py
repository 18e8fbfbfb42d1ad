"""Integration tests for feature building, model training, and inference."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from egopose import (
    CameraIntrinsics,
    CostParams,
    Frame,
    Homography,
    LengthMismatch,
    MotionScript,
    OutOfRange,
    PathParams,
    SingularMatrix,
    TrainedModels,
    features_from_homographies,
    generate,
    infer,
    load_features,
    normalize_pose,
    normalized_matrix,
    save_features,
    train_models,
    valid_feature_centers,
)
import egopose.pathopt as pathopt
import egopose.pipeline as pipeline
from egopose.classify import ForestModel, KnnModel
from egopose.costs import UnaryCosts, prune, unary_costs
from egopose.errors import Infeasible
from egopose.pathopt import Trellis, solve_paper_dp
from egopose.pipeline import SOLVERS, UP_AXIS
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
    some, got = features_from_homographies(hs, window=4, centers=[3, 7])
    assert got.tolist() == [3, 7]
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


def _assert_same_features(hs, **kw):
    want_x, want_c = _reference_features(hs, **kw)
    got_x, got_c = features_from_homographies(hs, **kw)
    assert got_x.shape == want_x.shape and np.array_equal(got_x, want_x)
    assert np.array_equal(got_c, want_c)


def _assert_same_error(hs, error, **kw):
    with pytest.raises(error) as want:
        _reference_features(hs, **kw)
    with pytest.raises(error) as got:
        features_from_homographies(hs, **kw)
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
    classes = np.array([0, 2, 1])
    path = tmp_path / "features.jsonl"
    save_features(path, frames, x, classes)
    f2, x2, c2 = load_features(path)
    assert np.array_equal(f2, frames)
    assert np.array_equal(x2, x)
    assert np.array_equal(c2, classes)


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
    again = TrainedModels.load(tmp_path)
    assert again.theta_sit == pytest.approx(models.theta_sit)
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
        {"theta_sit": True},
        {"theta_sit": "0.5"},
        {"theta_sit": float("nan")},
        {"theta_sit": float("inf")},
        {"theta_sit": None},
        {"feature_mode": "sideways"},
        {"feature_mode": None},
        {"feature_mode": "rotation"},  # the bundle holds no camera
        {"camera": {"fx": True, "fy": 1.0, "cx": 0.5, "cy": 0.4}},
        {"camera": {"fx": 1.0, "fy": "1.1", "cx": 0.5, "cy": 0.4}},
        {"camera": {"fx": 1.0, "fy": 1.0, "cx": 0.5, "cy": 0.4, "focal": 1.0}},
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
    assert not (tmp_path / "new" / "knn.json").exists()
    assert json.loads((tmp_path / "new" / "meta.json").read_text())["classifier"] == "knn"
    # a bundle written before the features were stored once also holds knn.json; it is ignored
    models.save(tmp_path / "old")
    models.classifier.save(tmp_path / "old" / "knn.json")
    want = infer(probe.homographies, models, static_h=probe.static_h)
    for name in ("new", "old"):
        again = TrainedModels.load(tmp_path / name)
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


def test_knn_bundle_must_hold_its_training_features(tmp_path, knn_bundle):
    models, _ = knn_bundle
    bare = TrainedModels(models.cluster, models.bank, models.theta_sit, classifier=models.classifier)
    with pytest.raises(ValueError, match="train_features"):
        bare.save(tmp_path)
    assert not (tmp_path / "meta.json").exists()


def test_path_solvers_name_a_missing_classifier(tmp_path, trained, test_stream):
    bare = TrainedModels(trained.cluster, trained.bank, trained.theta_sit, window=trained.window)
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
        cost_params=CostParams(prune_threshold=0.5),
    )
    assert len(result.path.indices) == len(result.centers)
    assert result.timings["prune_retries"] == 1  # 0.5 strands the path, 0.05 does not


def _reference_relaxed_decode(hs, models, static_h, cost_params):
    """The paper decode as infer ran it before it checked reachability: build
    a trellis and run the DP at each threshold t, t/10, ... (0 once below
    1e-6) until the DP stops raising Infeasible. Returns (path, retries,
    the threshold of the path)."""
    x, centers = features_from_homographies(hs, models.window, models.feature_mode, models.camera)
    dists, bank = models.cluster_probs(x), models.bank
    costs = unary_costs(dists, static_h[centers], bank, models.cluster.labels, cost_params)
    thr, retries = cost_params.prune_threshold, 0
    while True:
        kept = prune(costs, dists, bank, replace(cost_params, prune_threshold=thr))
        try:
            return solve_paper_dp(Trellis.from_costs(kept, bank)), retries, thr
        except Infeasible:
            if thr == 0.0:
                raise
            thr = 0.0 if thr < 1e-6 else thr / 10.0
            retries += 1


def test_infer_matches_the_retry_loop_and_solves_once(overconfident, monkeypatch):
    calls = {"solve": 0, "check": 0}
    solve, check = pipeline.solve_paper_dp, UnaryCosts.admits_path

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "solve_paper_dp", counted("solve", solve))
    monkeypatch.setattr(UnaryCosts, "admits_path", counted("check", check))
    for models, probe, thr, retries in overconfident:
        for params in (CostParams(prune_threshold=thr), CostParams(prune_threshold=0.0)):
            want, want_retries, last_thr = _reference_relaxed_decode(probe.homographies, models, probe.static_h, params)
            calls.update(solve=0, check=0)
            got = infer(probe.homographies, models, static_h=probe.static_h, cost_params=params)
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
    chosen = [int(p[int(dists[n][p].argmax())]) for n, p in enumerate(pathopt._present_clusters(trellis))]
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
            params = CostParams(prune_threshold=thr)
            got = infer(probe.homographies, models, static_h=probe.static_h, cost_params=params, solver="path-cluster")
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


def test_inference_result_save(tmp_path, trained, test_stream):
    result = infer(test_stream.homographies, trained, static_h=test_stream.static_h)
    result.save(tmp_path, trained.bank)
    assert (tmp_path / "poses.jsonl").exists()
    assert (tmp_path / "path.jsonl").exists()
    assert (tmp_path / "energy.json").exists()
    assert (tmp_path / "timings.json").exists()
    import json

    energy = json.loads((tmp_path / "energy.json").read_text())
    assert energy["total"] == pytest.approx(result.path.total)
    assert set(energy) == {"U", "T", "V", "S", "total"}


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
