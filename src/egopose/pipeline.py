"""Glue between the stages: feature building, model training, inference.

A trained model bundle holds the pose clusters, the exemplar bank with its
neighbor graph, the per-frame classifier (random forest or k-NN vote), and
the feature configuration needed to reproduce the classifier's inputs at
inference time. TrainedModels.save writes the files egopose cluster and
train write, clusters.json with clusters_centroids.npy, bank.json with
bank_poses.npy, features.jsonl (a {t, v} row per training frame, whose class
is bank.cluster_of[t]), and forest.json or knn.json (which names
features.jsonl), plus meta.json (window, feature_mode, classifier "forest" or
"knn", knn_k, camera if set). The two .npy files are NumPy's own format,
written and read only by records.save_array and records.load_array.
load_models reads them for TrainedModels.load and egopose infer. An older
bundle, which held its centroids and bank poses as JSON text, is rejected
naming clusters.json.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .classify import (
    ForestModel,
    KnnModel,
    constant_static,
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


def valid_feature_centers(n_frames: int, window: int = 30) -> np.ndarray:
    """Frame indices whose feature window fits inside the stream."""
    first = (window - 1) // 2
    last = (n_frames - 1) - (window // 2)
    if last < first:
        return np.empty(0, dtype=int)
    return np.arange(first, last + 1)


def features_from_homographies(
    hs,
    window: int = 30,
    mode: str = "homography",
    camera: CameraIntrinsics | None = None,
):
    """Stack per-frame motion features at every frame whose window fits;
    returns (matrix, center indices).

    mode "homography" stacks the normalized homographies themselves;
    "rotation" first converts each one to its infinitesimal camera rotation,
    which needs the intrinsics."""
    centers = valid_feature_centers(len(hs) + 1, window)
    _check_feature_mode(mode, camera)
    maps = rotations_from_homographies(hs, camera) if mode == "rotation" else hs
    return feature_windows(maps, centers, window), centers


def _check_feature_mode(mode: str, camera: CameraIntrinsics | None) -> None:
    """ValueError unless mode is "homography", or "rotation" with a camera."""
    if mode not in ("homography", "rotation"):
        raise ValueError(f"unknown feature mode {mode!r}")
    if mode == "rotation" and camera is None:
        raise ValueError("rotation features need camera intrinsics")


def _check_knn_k(knn_k: int) -> int:
    """knn_k; ValueError unless it is at least 1."""
    if knn_k < 1:
        raise ValueError(f"knn_k must be at least 1, got {knn_k}")
    return knn_k


def normalized_matrix(seq: PoseSequence, up: np.ndarray = UP_AXIS) -> np.ndarray:
    """Wearer-local (n, 75) matrix; sensor-frame poses get normalized."""
    if seq.frame == Frame.WEARER_LOCAL:
        return seq.as_matrix()
    return normalize_poses(seq.joints, up).reshape(-1, 75)


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
    window: int = 30
    feature_mode: str = "homography"
    camera: CameraIntrinsics | None = None
    classifier: ForestModel | KnnModel | None = None  # None: only the baseline solvers run
    knn_k: int = 30
    train_features: np.ndarray | None = None
    train_feature_frames: np.ndarray | None = None

    def cluster_probs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if _classifier_kind(self.classifier) == "forest":
            return forest_proba_batch(self.classifier, x)
        return knn_proba(self.classifier, x, self.knn_k)

    def save(self, out_dir) -> None:
        kind = _classifier_kind(self.classifier)
        if kind == "knn" and self.classifier.features is not self.train_features:
            raise ValueError("a kNN bundle keeps its model as features.jsonl, so it must hold train_features")
        os.makedirs(out_dir, exist_ok=True)
        self.cluster.save(os.path.join(out_dir, "clusters.json"))
        self.bank.save(os.path.join(out_dir, "bank.json"))
        feat_path = os.path.join(out_dir, "features.jsonl")
        if self.train_features is not None:
            save_features(feat_path, self.train_feature_frames, self.train_features)
        if kind == "forest":
            self.classifier.save(os.path.join(out_dir, "forest.json"))
        else:
            self.classifier.save(os.path.join(out_dir, "knn.json"), feat_path)
        meta = {"window": self.window, "feature_mode": self.feature_mode, "classifier": kind, "knn_k": self.knn_k}
        if self.camera is not None:
            meta["camera"] = asdict(self.camera)
        write_json_object(os.path.join(out_dir, "meta.json"), meta, indent=2)

    @classmethod
    def load(cls, in_dir) -> "TrainedModels":
        """The bundle save wrote, read by load_models."""
        meta_path = os.path.join(in_dir, "meta.json")
        meta = load_json_object(meta_path)
        with model_fields(meta_path):  # every meta field is checked before the model files are read
            kind = meta.get("classifier")
            if kind not in ("forest", "knn"):
                raise ValueError(f"classifier must be \"forest\" or \"knn\", found {kind!r}")
            settings = {
                "window": integral(meta, "window"),
                "feature_mode": meta["feature_mode"],
                "camera": CameraIntrinsics.from_record(meta["camera"]) if "camera" in meta else None,
                "knn_k": integral(meta, "knn_k") if "knn_k" in meta else 30,
            }
            _check_feature_mode(settings["feature_mode"], settings["camera"])
            _check_knn_k(settings["knn_k"])
        names = ("clusters.json", "bank.json", f"{kind}.json", "features.jsonl")
        clusters, bank, model_file, feats = (os.path.join(in_dir, name) for name in names)
        has_feats = kind == "forest" and os.path.exists(feats)  # a kNN model's rows are its features
        return load_models(clusters, bank, model_file, feats if has_feats else None, **settings)


def load_models(clusters, bank, classifier=None, features=None, *, window, feature_mode, camera, knn_k) -> TrainedModels:
    """The models in the given files, each read once: a cluster model, a
    bank, optionally a classifier (a forest when its record holds trees, else
    a kNN file naming its feature file) and training features, which are a
    kNN model's rows unless given. Every check across files runs here:
    ValueError for knn_k < 1 or a bad feature mode before any file is read,
    and naming the file for a cluster model without a sit/stand label per
    bank cluster, a forest of another class count, or a t outside the bank."""
    _check_feature_mode(feature_mode, camera)
    _check_knn_k(knn_k)
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
        else:
            frames, x = load_features(KnnModel.rows_file(classifier, rec), len(bank.poses))
            model = KnnModel(x, bank.cluster_of[frames], bank.k)
    if features is not None:
        frames, x = load_features(features, len(bank.poses))
    return TrainedModels(cluster, bank, window, feature_mode, camera, model, knn_k, train_features=x, train_feature_frames=frames)


def build_bank(sequences, k: int = 300, seed: int = 0, up: np.ndarray = UP_AXIS):
    """Cluster the training poses, label the clusters sitting- or
    standing-like, and build the exemplar bank with its neighbor graph.

    The sequences are stacked in order; each sequence start after the first
    becomes a bank break, so neighbor edges never span two recordings. The
    sit/stand hip-height threshold is estimated from the poses. Returns
    (cluster model, bank); bank.cluster_of holds each stacked pose's cluster.
    """
    mats, breaks, offset = [], [], 0
    for seq in sequences:
        if offset > 0:
            breaks.append(offset)
        mats.append(normalized_matrix(seq, up))
        offset += len(seq)
    all_poses = np.vstack(mats)

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


def build_features(
    sequences,
    homographies_per_seq,
    window: int = 30,
    mode: str = "homography",
    camera: CameraIntrinsics | None = None,
):
    """Motion features of every training frame with a full window.

    sequences and homographies_per_seq run in parallel, one homography
    between each pair of consecutive poses. Returns (features, frames), where
    frames index the poses stacked in sequence order, as in build_bank.
    """
    _check_lengths(sequences, homographies_per_seq)
    x_rows, frame_rows = [], []
    offset = 0
    for seq, hs in zip(sequences, homographies_per_seq):
        x, centers = features_from_homographies(hs, window, mode, camera)
        if len(centers):
            x_rows.append(x)
            frame_rows.append(centers + offset)
        offset += len(seq)
    if not x_rows:
        raise OutOfRange("no frame has a full feature window")
    return np.vstack(x_rows), np.concatenate(frame_rows)


def fit_classifier(kind: str, features, classes, n_classes: int, n_trees: int, seed: int):
    """The per-frame classifier of the given kind ("forest" or "knn") on the
    training features labeled with classes in [0, n_classes): a forest of
    n_trees grown from seed, or the kNN model that holds the features."""
    if kind == "forest":
        return train_forest(features, classes, n_trees=n_trees, seed=seed, n_classes=n_classes)
    if kind == "knn":
        return KnnModel(features, classes, n_classes)
    raise ValueError(f"unknown classifier {kind!r}")


def train_models(
    sequences,
    homographies_per_seq,
    k: int = 300,
    window: int = 30,
    feature_mode: str = "homography",
    camera: CameraIntrinsics | None = None,
    classifier: str = "forest",
    n_trees: int = 100,
    knn_k: int = 30,
    seed: int = 0,
    up: np.ndarray = UP_AXIS,
) -> TrainedModels:
    """Build the bank (build_bank) and the training features
    (build_features), then fit the per-frame classifier on those features
    with each frame's cluster as its class.
    """
    _check_lengths(sequences, homographies_per_seq)  # before the k-means, not after
    cluster, bank = build_bank(sequences, k, seed, up)
    features, feature_frames = build_features(sequences, homographies_per_seq, window, feature_mode, camera)
    model = fit_classifier(classifier, features, bank.cluster_of[feature_frames], k, n_trees, seed)
    return TrainedModels(
        cluster, bank, window, feature_mode, camera, model, knn_k, train_features=features, train_feature_frames=feature_frames
    )


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
    if static_h is None:
        static_h = constant_static(n_frames)
    static_h = np.asarray(static_h, dtype=float)
    if len(static_h) != n_frames:
        raise LengthMismatch(f"{len(static_h)} static values for {n_frames} frames")

    timings = {}
    t0 = time.perf_counter()
    x, centers = features_from_homographies(hs, models.window, models.feature_mode, models.camera)
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
        trellis = prune(costs, dists, bank, params)
        while thr > 0.0 and not trellis.admits_path():
            thr = 0.0 if thr < 1e-6 else thr / 10.0
            retries += 1
            trellis = prune(costs, dists, bank, replace(params, prune_threshold=thr))
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
