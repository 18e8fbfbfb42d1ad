"""Glue between the stages: feature building, model training, inference.

A trained model bundle holds the pose clusters, the exemplar bank with its
neighbor graph, the per-frame classifier (random forest or k-NN vote), and
the feature configuration needed to reproduce the classifier's inputs at
inference time.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

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
    assign_clusters,
    hip_heights,
    kmeans,
    label_clusters,
    sit_stand_threshold,
)
from .costs import CostParams, unary_costs, prune
from .errors import Infeasible, LengthMismatch, OutOfRange
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
from .records import integral, load_json_object, model_fields, read_records, write_json_object, write_records
from .skeleton import Frame, Pose, PoseSequence, normalize_poses

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
    maps = hs
    if mode == "rotation":
        if camera is None:
            raise ValueError("rotation features need camera intrinsics")
        maps = rotations_from_homographies(hs, camera)
    elif mode != "homography":
        raise ValueError(f"unknown feature mode {mode!r}")
    return feature_windows(maps, centers, window), centers


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


@dataclass
class TrainedModels:
    cluster: ClusterModel
    bank: ExemplarBank
    theta_sit: float
    window: int = 30
    feature_mode: str = "homography"
    camera: CameraIntrinsics | None = None
    classifier: str = "forest"
    forest: ForestModel | None = None
    knn: KnnModel | None = None
    knn_k: int = 30
    train_features: np.ndarray | None = None
    train_feature_frames: np.ndarray | None = None

    def cluster_probs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.classifier == "forest":
            return forest_proba_batch(self.forest, x)
        return knn_proba(self.knn, x, self.knn_k)

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        self.cluster.save(os.path.join(out_dir, "clusters.json"))
        self.bank.save(os.path.join(out_dir, "bank.json"))
        if self.forest is not None:
            self.forest.save(os.path.join(out_dir, "forest.json"))
        if self.knn is not None:
            self.knn.save(os.path.join(out_dir, "knn.json"))
        if self.train_features is not None:
            classes = self.bank.cluster_of[self.train_feature_frames]
            save_features(
                os.path.join(out_dir, "features.jsonl"),
                self.train_feature_frames,
                self.train_features,
                classes,
            )
        meta = {
            "theta_sit": self.theta_sit,
            "window": self.window,
            "feature_mode": self.feature_mode,
            "classifier": self.classifier,
            "knn_k": self.knn_k,
        }
        if self.camera is not None:
            c = self.camera
            meta["camera"] = {"fx": c.fx, "fy": c.fy, "cx": c.cx, "cy": c.cy, "skew": c.skew}
        write_json_object(os.path.join(out_dir, "meta.json"), meta, indent=2)

    @classmethod
    def load(cls, in_dir) -> "TrainedModels":
        meta_path = os.path.join(in_dir, "meta.json")
        meta = load_json_object(meta_path)
        cluster = ClusterModel.load(os.path.join(in_dir, "clusters.json"))
        bank = ExemplarBank.load(os.path.join(in_dir, "bank.json"))
        forest = knn = None
        fpath = os.path.join(in_dir, "forest.json")
        if os.path.exists(fpath):
            forest = ForestModel.load(fpath)
        kpath = os.path.join(in_dir, "knn.json")
        if os.path.exists(kpath):
            knn = KnnModel.load(kpath)
        feats = frames = None
        feat_path = os.path.join(in_dir, "features.jsonl")
        if os.path.exists(feat_path):
            frames, feats, _ = load_features(feat_path)
        with model_fields(meta_path):
            return cls(
                cluster,
                bank,
                float(meta["theta_sit"]),
                window=int(meta["window"]),
                feature_mode=meta["feature_mode"],
                camera=CameraIntrinsics(**meta["camera"]) if "camera" in meta else None,
                classifier=meta["classifier"],
                forest=forest,
                knn=knn,
                knn_k=int(meta.get("knn_k", 30)),
                train_features=feats,
                train_feature_frames=frames,
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
    label_clusters(cluster, all_poses, theta_sit)
    assignments = assign_clusters(cluster, all_poses)
    bank = ExemplarBank.build(all_poses, assignments, breaks, k)
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
    targets = bank.cluster_of[feature_frames]

    forest = knn = None
    if classifier == "forest":
        forest = train_forest(features, targets, n_trees=n_trees, seed=seed, n_classes=k)
    elif classifier == "knn":
        knn = KnnModel(features, targets, k)
    else:
        raise ValueError(f"unknown classifier {classifier!r}")
    return TrainedModels(
        cluster,
        bank,
        theta_sit,
        window=window,
        feature_mode=feature_mode,
        camera=camera,
        classifier=classifier,
        forest=forest,
        knn=knn,
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
        from .skeleton import save_pose_sequence

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
        solve = {
            "paper": lambda tr: solve_paper_dp(tr, path_params),
            "exact": lambda tr: solve_exact_dp(tr, path_params),
            "path-cluster": lambda tr: solve_path_cluster(tr, dists, path_params),
        }[solver]
        # an over-aggressive prune can strand the path; relax until feasible
        # (threshold 0 always is: staying put costs a finite amount)
        thr = cost_params.prune_threshold
        retries = 0
        while True:
            cp = replace(cost_params, prune_threshold=thr)
            trellis = Trellis.from_costs(prune(costs, dists, bank, cp), bank)
            if retries == 0:
                timings["costs_s"] = time.perf_counter() - t0
                t0 = time.perf_counter()
            try:
                path = solve(trellis)
                break
            except Infeasible:
                if thr == 0.0:
                    raise
                thr = 0.0 if thr < 1e-6 else thr / 10.0
                retries += 1
        timings["prune_retries"] = retries
        vecs = bank.poses[path.indices]
        poses = PoseSequence([Pose.from_vector(v, Frame.WEARER_LOCAL) for v in vecs])
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
