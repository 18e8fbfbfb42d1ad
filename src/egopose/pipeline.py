"""Glue between the stages: feature building, model training, inference.

A trained model bundle holds the pose clusters, the exemplar bank with its
neighbor graph, the per-frame classifier (random forest or k-NN vote), and
the feature settings needed to reproduce the classifier's inputs at
inference time. write_models is its one writer, for egopose cluster and for
TrainedModels.save: clusters.json with clusters_centroids.npy and
meta.json beside it (the FeatureSettings: window, feature_mode, and camera
if set), bank.json with bank_poses.npy, features.jsonl
(a {t, v} row per training frame, whose class is bank.cluster_of[t]), and
forest.json (which records the clustering_digest of the bank it was fit
on, and the FeatureSettings record of its rows) or knn.json (which names
features.jsonl and holds the vote size k). The two .npy files are NumPy's
own format, written and read only by records.save_array and
records.load_array. load_models reads them for TrainedModels.load and
egopose infer. An older bundle, which held its centroids and bank poses as
JSON text, is rejected naming clusters.json.
"""

from __future__ import annotations

import contextlib
import operator
import os
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .classify import (
    ForestModel,
    KnnModel,
    forest_proba_batch,
    knn_proba,
    load_features,
    save_features,
    train_forest,
)
from .clustering import (
    ClusterModel,
    ExemplarBank,
    SitStand,
    clustering_digest,
    hip_heights,
    kmeans,
    label_clusters,
    sit_stand_threshold,
)
from .costs import unary_costs, prune
from .errors import LengthMismatch, OutOfRange
from .evaluation import baseline_constant, baseline_kdtree
from .geometry import CameraIntrinsics, feature_windows, rotations_from_homographies
from .pathopt import (
    PathParams,
    PosePath,
    solve_exact_dp,
    solve_paper_dp,
    solve_path_cluster,
)
from .records import integral, load_json_object, model_fields, write_json_object
from .skeleton import Frame, PoseSequence, normalize_poses

UP_AXIS = np.array([0.0, 0.0, 1.0])

SOLVERS = ("paper", "exact", "path-cluster", "kdtree", "always-standing", "always-sitting")


def valid_feature_centers(n_frames: int, window: int) -> np.ndarray:
    """Frame indices whose feature window fits inside the stream."""
    first = (window - 1) // 2
    last = (n_frames - 1) - (window // 2)
    return np.arange(first, last + 1)  # empty when the window does not fit


@dataclass(frozen=True)
class FeatureSettings:
    """The motion features a classifier reads: windows of `window` frames
    (window - 1 maps each) of the homographies themselves (mode
    "homography"), or of the camera rotations they give through the
    intrinsics (mode "rotation", which needs camera). Checked when built:
    ValueError for an unknown mode, then for rotation without a camera, then
    TypeError for a window that is no integer (np.int64(8) reads as 8), and
    OutOfRange for one below 2."""

    window: int = 30
    mode: str = "homography"
    camera: CameraIntrinsics | None = None

    def __post_init__(self):
        if self.mode not in ("homography", "rotation"):
            raise ValueError(f"unknown feature mode {self.mode!r}")
        if self.mode == "rotation" and self.camera is None:
            raise ValueError("rotation features need camera intrinsics")
        object.__setattr__(self, "window", operator.index(self.window))  # frozen: set once, here
        if self.window < 2:
            raise OutOfRange(f"window must be at least 2, got {self.window}")

    def rows(self, hs, out: np.ndarray | None = None):
        """(features, centers): the feature row of every frame of the
        homography stream hs whose window fits, and those frames' indices.
        With out, one row per such frame, the features are written into it
        (feature_windows' out)."""
        centers = valid_feature_centers(len(hs) + 1, self.window)
        maps = rotations_from_homographies(hs, self.camera) if self.mode == "rotation" else hs
        return feature_windows(maps, centers, self.window, out), centers

    def record(self) -> dict:
        """window, feature_mode and, when set, camera, as meta.json holds them."""
        rec = {"window": self.window, "feature_mode": self.mode}
        if self.camera is not None:
            rec["camera"] = asdict(self.camera)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "FeatureSettings":
        """The settings of a record; every check, the window's included, is a
        ValueError (or a KeyError or TypeError); other keys are ignored."""
        camera = CameraIntrinsics.from_record(rec["camera"]) if "camera" in rec else None
        window = integral(rec, "window")
        try:
            return cls(window, rec["feature_mode"], camera)
        except OutOfRange as e:  # model_fields would keep it an OutOfRange
            raise ValueError(str(e)) from e

    def save(self, out_dir) -> None:
        """Write out_dir/meta.json, the record."""
        write_json_object(os.path.join(out_dir, "meta.json"), self.record(), indent=2)

    @classmethod
    def load(cls, path) -> "FeatureSettings":
        """The settings of the meta.json file at path; every check is a
        ValueError naming the file."""
        meta = load_json_object(path)
        with model_fields(path):
            return cls.from_record(meta)


def normalized_matrix(seq: PoseSequence) -> np.ndarray:
    """Wearer-local (n, 75) matrix; sensor-frame poses get normalized about
    UP_AXIS, the +z up of every pose file."""
    if seq.frame == Frame.WEARER_LOCAL:
        return seq.as_matrix()
    return normalize_poses(seq.joints, UP_AXIS).reshape(-1, 75)


def _classifier_kind(model) -> str:
    """"forest" or "knn"; ValueError for a bundle without a classifier."""
    if isinstance(model, ForestModel):
        return "forest"
    if isinstance(model, KnnModel):
        return "knn"
    raise ValueError("no classifier: the path solvers need a forest or a kNN model")


@dataclass
class TrainedModels:
    cluster: ClusterModel
    bank: ExemplarBank
    settings: FeatureSettings = FeatureSettings()
    classifier: ForestModel | KnnModel | None = None  # None: only the baseline solvers run
    train_features: np.ndarray | None = None
    train_feature_frames: np.ndarray | None = None

    def cluster_probs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if _classifier_kind(self.classifier) == "forest":
            return forest_proba_batch(self.classifier, x)
        return knn_proba(self.classifier, x)

    def save(self, out_dir) -> None:
        """Write the bundle to out_dir with write_models, its cluster model as
        clusters.json; ValueError, before any file is written, for a bundle
        without a classifier."""
        _classifier_kind(self.classifier)
        write_models(self, os.path.join(out_dir, "clusters.json"))

    @classmethod
    def load(cls, in_dir) -> "TrainedModels":
        """The bundle save wrote, read by load_models. Its classifier is the
        one of forest.json and knn.json that the directory holds: ValueError
        naming in_dir when it holds both or neither."""
        held = [name for name in ("forest.json", "knn.json") if os.path.exists(os.path.join(in_dir, name))]
        if len(held) != 1:
            raise ValueError(f"{in_dir}: a bundle holds one of forest.json and knn.json, found {held}")
        names = ("clusters.json", "bank.json", *held, "features.jsonl")
        clusters, bank, model_file, feats = (os.path.join(in_dir, name) for name in names)
        has_feats = held == ["forest.json"] and os.path.exists(feats)  # a kNN model's rows are its features
        return load_models(clusters, bank, model_file, feats if has_feats else None)


def write_models(models: TrainedModels, clusters) -> None:
    """Write models' files, all or none of them: the cluster model at the path
    clusters (its centroids in the <stem>_centroids.npy beside it) and, in
    its directory, meta.json, bank.json with bank_poses.npy, features.jsonl
    when models hold training features, and forest.json or knn.json when they
    hold a classifier. Every file is written into a fresh directory inside
    that one and moved into place only once all are written, so a write that
    fails leaves the directory as it was. A features.jsonl that models do not
    hold, and the other kind's classifier file, are then removed, so that no
    file of an earlier write is read with these models; with no classifier,
    a classifier file is left as it is."""
    kind = None if models.classifier is None else _classifier_kind(models.classifier)
    if kind == "knn" and models.classifier.features is not models.train_features:
        raise ValueError("a kNN bundle keeps its model as features.jsonl, so it must hold train_features")
    stale = ["features.jsonl"] if models.train_features is None else []
    stale += {"forest": ["knn.json"], "knn": ["forest.json"]}.get(kind, [])
    out_dir = os.path.dirname(os.path.abspath(clusters))
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        models.cluster.save(os.path.join(stage, os.path.basename(clusters)))
        models.settings.save(stage)
        models.bank.save(os.path.join(stage, "bank.json"))
        feat_path = os.path.join(stage, "features.jsonl")
        if models.train_features is not None:
            save_features(feat_path, models.train_feature_frames, models.train_features)
        if kind == "forest":
            models.classifier.save(os.path.join(stage, "forest.json"), models.bank.cluster_of, models.settings.record())
        elif kind == "knn":
            models.classifier.save(os.path.join(stage, "knn.json"), feat_path)  # names features.jsonl, staged beside it
        for name in os.listdir(stage):
            os.replace(os.path.join(stage, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    for name in stale:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def load_models(clusters, bank, classifier=None, features=None) -> TrainedModels:
    """The models in the given files, each read once: a cluster model with
    the feature settings of the meta.json beside it, a bank, optionally a
    classifier (a forest when its record holds trees, else a kNN file naming
    its feature file) and training features, which are a kNN model's rows
    unless given. Every check across files runs here, a ValueError naming the
    file: first, before any model file is read, for meta.json settings that
    are missing or malformed, cannot compute their feature mode, or have a
    window below 2 (FeatureSettings.load); then for a cluster model without a
    sit/stand label per bank cluster, a forest of another class count, fit
    on another clustering of the bank (its "clustering" record) or on
    features of other settings than meta.json's (its "feature_settings"
    record), or whose rows are not 9 * (window - 1) long, and a t outside
    the bank. A kNN model reads its classes from the bank itself."""
    settings = FeatureSettings.load(os.path.join(os.path.dirname(clusters), "meta.json"))
    cluster, bank = ClusterModel.load(clusters), ExemplarBank.load(bank)
    if cluster.labels is None or len(cluster.labels) != bank.k:
        raise ValueError(f"{clusters}: the cluster model must hold sit/stand labels for the bank's {bank.k} clusters")
    model = frames = x = None
    if classifier is not None:
        rec = load_json_object(classifier)
        if "trees" in rec:
            with model_fields(classifier):
                model = ForestModel.from_record(rec)
                if model.n_classes != bank.k:
                    raise ValueError(f"n_classes must be the bank's {bank.k} clusters, found {model.n_classes}")
                if rec.get("clustering") != clustering_digest(bank.cluster_of):
                    fault = "records no clustering" if "clustering" not in rec else "was fit on another clustering"
                    raise ValueError(f"the forest {fault} of the bank's poses; re-run egopose train")
                if "feature_settings" not in rec:
                    raise ValueError("the forest records no feature settings; re-run egopose train")
                fit = FeatureSettings.from_record(rec["feature_settings"])
                if fit != settings:
                    raise ValueError(
                        f"the forest was fit on features {fit.record()}, not meta.json's {settings.record()};"
                        " re-run egopose train"
                    )
                dim = 9 * (settings.window - 1)  # feature_windows' row length
                if model.feature_dim != dim:
                    raise ValueError(f"feature_dim must be {dim} for a window of {settings.window}, found {model.feature_dim}")
        else:
            model, frames = KnnModel.from_record(classifier, rec, bank)
            x = model.features
    if features is not None:
        frames, x = load_features(features, len(bank.poses))
    return TrainedModels(cluster, bank, settings, model, train_features=x, train_feature_frames=frames)


def build_bank(sequences, k: int, seed: int):
    """Cluster the training poses, label the clusters sitting- or
    standing-like, and build the exemplar bank with its neighbor graph.

    The sequences are stacked in order; each sequence start after the first
    becomes a bank break, so neighbor edges never span two recordings. Each
    sequence's normalized poses are copied into one preallocated matrix, so
    only one sequence's are alive beside it. The sit/stand hip-height
    threshold is estimated from the poses. Returns (cluster model, bank);
    bank.cluster_of holds each stacked pose's cluster.
    """
    all_poses = np.empty((sum(len(seq) for seq in sequences), 75))
    breaks, offset = [], 0
    for seq in sequences:
        if offset > 0:
            breaks.append(offset)
        all_poses[offset : offset + len(seq)] = normalized_matrix(seq)
        offset += len(seq)

    cluster = kmeans(all_poses, k, seed=seed)
    label_clusters(cluster, sit_stand_threshold(hip_heights(all_poses)))
    return cluster, ExemplarBank.build(all_poses, cluster.assignment, breaks, k)


def _check_lengths(sequences, homographies_per_seq) -> None:
    """LengthMismatch unless there is one homography list per pose sequence,
    each holding one homography fewer than its sequence holds poses."""
    if len(sequences) != len(homographies_per_seq):
        raise LengthMismatch("one homography list per pose sequence required")
    for n, (seq, hs) in enumerate(zip(sequences, homographies_per_seq)):
        if len(hs) != len(seq) - 1:
            raise LengthMismatch(f"sequence {n}: {len(hs)} homographies for {len(seq)} poses, need len(poses) - 1")


def build_features(sequences, homographies_per_seq, settings: FeatureSettings = FeatureSettings()):
    """Motion features of every training frame with a full window.

    sequences and homographies_per_seq run in parallel, one homography
    between each pair of consecutive poses. Returns (features, frames), where
    frames index the poses stacked in sequence order, as in build_bank.
    Every stream's centers are found first, and its rows are then written
    into one preallocated features array, so no other array of them is
    allocated.
    """
    _check_lengths(sequences, homographies_per_seq)
    centers = [valid_feature_centers(len(hs) + 1, settings.window) for hs in homographies_per_seq]
    features = np.empty((sum(map(len, centers)), 9 * (settings.window - 1)))
    frames = np.empty(len(features), dtype=int)
    row = offset = 0
    for seq, hs, c in zip(sequences, homographies_per_seq, centers):
        settings.rows(hs, out=features[row : row + len(c)])
        frames[row : row + len(c)] = c + offset
        row += len(c)
        offset += len(seq)
    if not len(features):
        raise OutOfRange("no frame has a full feature window")
    return features, frames


def fit_classifier(kind: str, features, classes, n_classes: int, n_trees: int, seed: int, knn_k: int):
    """The per-frame classifier of the given kind ("forest" or "knn") on the
    training features labeled with classes in [0, n_classes): a forest of
    n_trees grown from seed, or the kNN model that holds the features and
    votes with its knn_k nearest rows."""
    if kind == "forest":
        return train_forest(features, classes, n_trees=n_trees, seed=seed, n_classes=n_classes)
    if kind == "knn":
        return KnnModel(features, classes, n_classes, knn_k)
    raise ValueError(f"unknown classifier {kind!r}")


def train_models(
    sequences,
    homographies_per_seq,
    k: int = 300,
    window: int = FeatureSettings.window,
    feature_mode: str = FeatureSettings.mode,
    camera: CameraIntrinsics | None = None,
    classifier: str = "forest",
    n_trees: int = 100,
    knn_k: int = 30,
    seed: int = 0,
) -> TrainedModels:
    """Build the bank (build_bank) and the training features
    (build_features) with FeatureSettings(window, feature_mode, camera),
    then fit the per-frame classifier on those features with each frame's
    cluster as its class. The settings, K and the kNN vote size are checked
    before the k-means: each of K and knn_k must be an integer (np.int64(5)
    reads as 5; 5.5 is a TypeError).
    """
    _check_lengths(sequences, homographies_per_seq)  # before the k-means, not after
    settings = FeatureSettings(window, feature_mode, camera)
    k, knn_k = operator.index(k), operator.index(knn_k)
    cluster, bank = build_bank(sequences, k, seed)
    features, feature_frames = build_features(sequences, homographies_per_seq, settings)
    model = fit_classifier(classifier, features, bank.cluster_of[feature_frames], k, n_trees, seed, knn_k)
    return TrainedModels(cluster, bank, settings, model, train_features=features, train_feature_frames=feature_frames)


@dataclass
class InferenceResult:
    centers: np.ndarray  # original frame index of each decoded pose
    poses: PoseSequence  # wearer-local
    path: PosePath | None  # None for the non-path solvers
    dists: np.ndarray  # (M, K) classifier outputs
    timings: dict = field(default_factory=dict)


def infer(
    hs,
    models: TrainedModels,
    static_h: np.ndarray | None = None,
    params: PathParams = PathParams(),
    solver: str = "paper",
) -> InferenceResult:
    """Decode a pose sequence from a homography stream.

    static_h covers the full stream (len(hs) + 1 frames); None means the
    uninformative constant 0.5. Solvers: the first-order DP ("paper"), the
    exact DP ("exact"), the two-stage baseline ("path-cluster"), nearest
    feature neighbor ("kdtree"), and the constant-pose baselines. params
    weighs U and T, with one delta for both, and sets the prune threshold.

    The path solvers decode one trellis: unary_costs' trellis over the (N, K)
    cost table, pruned at the first threshold of params.prune_threshold,
    /10, ... (0 once below 1e-6) whose candidates admit a finite-energy path
    (Trellis.admits_path). 0 keeps every pose, so it always does. A pruned
    trellis is the one table with a new (N, K) mask of kept clusters, so a
    rejected threshold costs one comparison and the reach pass. A frame
    where no cluster above the threshold has poses keeps every pose of its
    most probable cluster that has any. timings["prune_retries"] counts the
    thresholds skipped.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    n_frames = len(hs) + 1
    static_h = np.full(n_frames, 0.5) if static_h is None else np.asarray(static_h, dtype=float)
    if len(static_h) != n_frames:
        raise LengthMismatch(f"{len(static_h)} static values for {n_frames} frames")

    timings = {}
    t0 = time.perf_counter()
    x, centers = models.settings.rows(hs)
    if not len(centers):
        raise OutOfRange("stream too short for one feature window")
    timings["features_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if solver in ("paper", "exact", "path-cluster"):
        dists = models.cluster_probs(x)
    else:  # baselines never consult the classifier; keep the shape contract
        dists = np.full((len(centers), models.bank.k), 1.0 / models.bank.k)
    timings["classify_s"] = time.perf_counter() - t0

    bank, labels = models.bank, models.cluster.labels
    path = None
    t0 = time.perf_counter()
    if solver in ("paper", "exact", "path-cluster"):
        costs = unary_costs(dists, static_h[centers], bank, labels, params)
        thr, retries = params.prune_threshold, 0
        trellis = prune(costs, dists, thr)
        while thr > 0.0 and not trellis.admits_path():
            thr = 0.0 if thr < 1e-6 else thr / 10.0
            retries += 1
            trellis = prune(costs, dists, thr)
        timings["costs_s"] = time.perf_counter() - t0
        timings["prune_retries"] = retries
        t0 = time.perf_counter()
        if solver == "path-cluster":
            path = solve_path_cluster(trellis, dists, params)
        else:
            path = (solve_paper_dp if solver == "paper" else solve_exact_dp)(trellis, params)
        poses = PoseSequence.of(bank.poses[path.indices], Frame.WEARER_LOCAL)
    elif solver == "kdtree":
        if models.train_features is None:
            raise ValueError("kdtree solver needs stored training features")
        own = isinstance(models.classifier, KnnModel) and models.classifier.features is models.train_features
        index = models.classifier.index() if own else None
        poses = baseline_kdtree(models.train_features, bank.poses[models.train_feature_frames], x, index)
    else:
        mode = SitStand.STANDING_LIKE if solver == "always-standing" else SitStand.SITTING_LIKE
        p = baseline_constant(bank, labels, mode)
        poses = PoseSequence.of(np.tile(p.joints, (len(centers), 1, 1)), p.frame)
    timings["solve_s"] = time.perf_counter() - t0
    timings["solve_per_frame_s"] = timings["solve_s"] / len(centers)
    timings["total_s"] = sum(v for k, v in timings.items() if k.endswith("_s") and k != "solve_per_frame_s")
    timings["total_per_frame_s"] = timings["total_s"] / len(centers)
    return InferenceResult(centers, poses, path, dists, timings)
