"""Glue between the stages: feature building, model training, inference.

A trained model bundle holds the pose clusters, the exemplar bank with its
neighbor graph, the per-frame classifier (random forest or k-NN vote), and
the feature configuration needed to reproduce the classifier's inputs at
inference time. TrainedModels.save writes clusters.json, bank.json with
bank_poses.jsonl, features.jsonl (a {t, v, class} row per training frame),
forest.json for a forest, and meta.json (theta_sit, window, feature_mode,
classifier "forest" or "knn", knn_k, camera if set). A kNN model is its
training rows, kept only in features.jsonl and rebuilt with the bank's k;
the knn.json of older bundles is ignored.
"""

from __future__ import annotations

import math
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
from .costs import CostParams, unary_costs, prune
from .errors import LengthMismatch, OutOfRange
from .evaluation import baseline_constant, baseline_kdtree
from .geometry import CameraIntrinsics, feature_windows, rotations_from_homographies
from .pathopt import (
    PathParams,
    PosePath,
    Trellis,
    solve_exact_dp,
    solve_paper_dp,
    solve_path_cluster,
)
from .records import integral, load_json_object, model_fields, number, read_records, write_json_object, write_records
from .skeleton import Frame, Pose, PoseSequence, normalize_poses, save_pose_sequence

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
    centers=None,
):
    """Stack per-frame motion features; returns (matrix, center indices).

    mode "homography" stacks the normalized homographies themselves;
    "rotation" first converts each one to its infinitesimal camera rotation,
    which needs the intrinsics. Centers default to every frame whose window
    fits."""
    if centers is None:
        centers = valid_feature_centers(len(hs) + 1, window)
    centers = np.asarray(centers, dtype=int)
    _check_feature_mode(mode, camera)
    maps = rotations_from_homographies(hs, camera) if mode == "rotation" else hs
    return feature_windows(maps, centers, window), centers


def _check_feature_mode(mode: str, camera: CameraIntrinsics | None) -> None:
    """ValueError unless mode is "homography", or "rotation" with a camera."""
    if mode not in ("homography", "rotation"):
        raise ValueError(f"unknown feature mode {mode!r}")
    if mode == "rotation" and camera is None:
        raise ValueError("rotation features need camera intrinsics")


def normalized_matrix(seq: PoseSequence, up: np.ndarray = UP_AXIS) -> np.ndarray:
    """Wearer-local (n, 75) matrix; sensor-frame poses get normalized."""
    x = seq.as_matrix()
    if len(seq) and seq[0].frame != Frame.WEARER_LOCAL:  # one frame tag per sequence
        x = normalize_poses(x, up).reshape(-1, 75)
    return x


def save_features(path, frames, x: np.ndarray, classes) -> None:
    rows = np.asarray(x, dtype=float)  # one row at a time to lists, never the whole matrix
    recs = ({"t": int(t), "v": v.tolist(), "class": int(c)} for t, v, c in zip(frames, rows, classes))
    write_records(path, recs)


def load_features(path):
    rows = []

    def record(rec):
        v = np.array(rec["v"], dtype=float)
        if v.ndim != 1 or (rows and len(v) != len(rows[0])):
            raise ValueError(f"feature v must be a flat list as long as the first row's, found shape {v.shape}")
        rows.append(v)
        return integral(rec, "t"), integral(rec, "class")

    frames_classes = list(read_records(path, record))
    x = np.stack(rows) if rows else np.empty((0, 0))
    return np.array([t for t, _ in frames_classes], dtype=int), x, np.array([c for _, c in frames_classes], dtype=int)


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
    theta_sit: float
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
        if kind == "forest":
            self.classifier.save(os.path.join(out_dir, "forest.json"))
        if self.train_features is not None:
            frames, path = self.train_feature_frames, os.path.join(out_dir, "features.jsonl")
            save_features(path, frames, self.train_features, self.bank.cluster_of[frames])
        meta = {
            "theta_sit": self.theta_sit,
            "window": self.window,
            "feature_mode": self.feature_mode,
            "classifier": kind,
            "knn_k": self.knn_k,
        }
        if self.camera is not None:
            meta["camera"] = asdict(self.camera)
        write_json_object(os.path.join(out_dir, "meta.json"), meta, indent=2)

    @classmethod
    def load(cls, in_dir) -> "TrainedModels":
        meta_path = os.path.join(in_dir, "meta.json")
        meta = load_json_object(meta_path)
        with model_fields(meta_path):  # every meta field is checked before the model files are read
            kind, theta_sit = meta.get("classifier"), number(meta, "theta_sit")
            if kind not in ("forest", "knn"):
                raise ValueError(f"classifier must be \"forest\" or \"knn\", found {kind!r}")
            if not math.isfinite(theta_sit):
                raise ValueError(f"theta_sit must be finite, found {theta_sit}")
            fields = {
                "window": integral(meta, "window"),
                "feature_mode": meta["feature_mode"],
                "camera": CameraIntrinsics.from_record(meta["camera"]) if "camera" in meta else None,
                "knn_k": integral(meta, "knn_k") if "knn_k" in meta else 30,
            }
            _check_feature_mode(fields["feature_mode"], fields["camera"])
        cluster = ClusterModel.load(os.path.join(in_dir, "clusters.json"))
        bank = ExemplarBank.load(os.path.join(in_dir, "bank.json"))
        feats = frames = None
        feat_path = os.path.join(in_dir, "features.jsonl")
        if kind == "knn" or os.path.exists(feat_path):  # a kNN model is its features
            frames, feats, classes = load_features(feat_path)
        forest_path = os.path.join(in_dir, "forest.json")
        classifier = KnnModel(feats, classes, bank.k) if kind == "knn" else ForestModel.load(forest_path)
        return cls(
            cluster,
            bank,
            theta_sit,
            classifier=classifier,
            train_features=feats,
            train_feature_frames=frames,
            **fields,
        )


def build_bank(
    sequences,
    k: int = 300,
    seed: int = 0,
    theta_sit: float | None = None,
    up: np.ndarray = UP_AXIS,
):
    """Cluster the training poses, label the clusters sitting- or
    standing-like, and build the exemplar bank with its neighbor graph.

    The sequences are stacked in order; each sequence start after the first
    becomes a bank break, so neighbor edges never span two recordings.
    theta_sit=None estimates the sit/stand hip-height threshold from the
    poses. Returns (cluster model, bank, theta_sit); bank.cluster_of holds
    each stacked pose's cluster.
    """
    mats, breaks, offset = [], [], 0
    for seq in sequences:
        if offset > 0:
            breaks.append(offset)
        mats.append(normalized_matrix(seq, up))
        offset += len(seq)
    all_poses = np.vstack(mats)

    cluster = kmeans(all_poses, k, seed=seed)
    if theta_sit is None:
        theta_sit = sit_stand_threshold(hip_heights(all_poses))
    label_clusters(cluster, theta_sit)
    bank = ExemplarBank.build(all_poses, cluster.assignment, breaks, k)
    return cluster, bank, float(theta_sit)


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
    theta_sit: float | None = None,
    up: np.ndarray = UP_AXIS,
) -> TrainedModels:
    """Build the bank (build_bank) and the training features
    (build_features), then fit the per-frame classifier on those features
    with each frame's cluster as its class.
    """
    _check_lengths(sequences, homographies_per_seq)  # before the k-means, not after
    cluster, bank, theta_sit = build_bank(sequences, k, seed, theta_sit, up)
    features, feature_frames = build_features(sequences, homographies_per_seq, window, feature_mode, camera)
    model = fit_classifier(classifier, features, bank.cluster_of[feature_frames], k, n_trees, seed)
    return TrainedModels(
        cluster,
        bank,
        theta_sit,
        window=window,
        feature_mode=feature_mode,
        camera=camera,
        classifier=model,
        knn_k=knn_k,
        train_features=features,
        train_feature_frames=feature_frames,
    )


@dataclass
class InferenceResult:
    centers: np.ndarray  # original frame index of each decoded pose
    poses: PoseSequence  # wearer-local
    path: PosePath | None  # None for the non-path solvers
    dists: np.ndarray  # (M, K) classifier outputs
    timings: dict = field(default_factory=dict)

    def save(self, out_dir, bank: ExemplarBank | None = None) -> None:
        os.makedirs(out_dir, exist_ok=True)
        save_pose_sequence(os.path.join(out_dir, "poses.jsonl"), self.poses, times=self.centers)
        if self.path is not None and bank is not None:
            self.path.save(os.path.join(out_dir, "path.jsonl"), bank)
            self.path.save_energy(os.path.join(out_dir, "energy.json"))
        write_json_object(os.path.join(out_dir, "timings.json"), self.timings, indent=2)


def infer(
    hs,
    models: TrainedModels,
    static_h: np.ndarray | None = None,
    cost_params: CostParams = CostParams(),
    path_params: PathParams = PathParams(),
    solver: str = "paper",
) -> InferenceResult:
    """Decode a pose sequence from a homography stream.

    static_h covers the full stream (len(hs) + 1 frames); None means the
    uninformative constant 0.5. Solvers: the first-order DP ("paper"), the
    exact DP ("exact"), the two-stage baseline ("path-cluster"), nearest
    feature neighbor ("kdtree"), and the constant-pose baselines.

    The path solvers decode one trellis, pruned at the first threshold of
    cost_params.prune_threshold, /10, ... (0 once below 1e-6) whose candidates
    admit a finite-energy path (UnaryCosts.admits_path). 0 keeps every pose,
    so it always does. timings["prune_retries"] counts the thresholds skipped.
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
        costs = unary_costs(dists, static_h[centers], bank, labels, cost_params)
        thr, retries = cost_params.prune_threshold, 0
        kept = prune(costs, dists, bank, cost_params)
        while thr > 0.0 and not kept.admits_path(bank.adjacent):
            thr = 0.0 if thr < 1e-6 else thr / 10.0
            retries += 1
            kept = prune(costs, dists, bank, replace(cost_params, prune_threshold=thr))
        trellis = Trellis.from_costs(kept, bank)
        timings["costs_s"] = time.perf_counter() - t0
        timings["prune_retries"] = retries
        t0 = time.perf_counter()
        if solver == "path-cluster":
            path = solve_path_cluster(trellis, dists, path_params)
        else:
            path = (solve_paper_dp if solver == "paper" else solve_exact_dp)(trellis, path_params)
        poses = PoseSequence([Pose.from_vector(v, Frame.WEARER_LOCAL) for v in bank.poses[path.indices]])
    elif solver == "kdtree":
        if models.train_features is None:
            raise ValueError("kdtree solver needs stored training features")
        poses = baseline_kdtree(models.train_features, bank.poses[models.train_feature_frames], x)
    else:
        mode = SitStand.STANDING_LIKE if solver == "always-standing" else SitStand.SITTING_LIKE
        p = baseline_constant(bank, labels, mode)
        poses = PoseSequence([p] * len(centers))
    timings["solve_s"] = time.perf_counter() - t0
    timings["solve_per_frame_s"] = timings["solve_s"] / len(centers)
    timings["total_s"] = sum(v for k, v in timings.items() if k.endswith("_s") and k != "solve_per_frame_s")
    timings["total_per_frame_s"] = timings["total_s"] / len(centers)
    return InferenceResult(centers, poses, path, dists, timings)
