"""Pose clustering and the exemplar motion bank.

Normalized training poses are grouped by k-means into K clusters; the bank
keeps every training pose (in time order), its cluster id, the boundaries
between source sequences, and the cluster adjacency observed across
consecutive training frames. Clusters get a sitting/standing label from the
hip height of their centroid.
"""

from __future__ import annotations

import hashlib
import operator
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import TooFewPoses
from .records import integral, integral_array, load_array, load_json_object, model_fields, save_array, write_json_object
from .skeleton import Joint
from .sqdist import SAFE_NORM, rounding_margin

_HIP_Z = [3 * Joint.HipLeft + 2, 3 * Joint.HipRight + 2]
_ANKLE_Z = [3 * Joint.AnkleLeft + 2, 3 * Joint.AnkleRight + 2]


class SitStand(str, Enum):
    SITTING_LIKE = "sitting"
    STANDING_LIKE = "standing"


@dataclass
class ClusterModel:
    """K centroids over 75-dim normalized poses, optionally labeled."""

    centroids: np.ndarray
    labels: list | None = None
    # training diagnostics, not serialized; assignment is each training
    # row's nearest centroid
    objective: float | None = None
    n_iter: int | None = None
    converged: bool | None = None
    assignment: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=float)
        if self.centroids.ndim != 2 or self.centroids.shape[1] != 75:
            raise ValueError(f"centroids must be (K, 75), got {self.centroids.shape}")
        if self.labels is not None and len(self.labels) != len(self.centroids):
            raise ValueError("one label per centroid required")

    def save(self, path) -> None:
        """JSON with the labels and a centroid-file reference; the centroids go
        to the sibling <stem>_centroids.npy."""
        centroids_file = _sibling_name(path, "_centroids.npy")
        save_array(_beside(path, centroids_file), self.centroids)
        rec = {"centroids_file": centroids_file, "labels": [l.value for l in self.labels] if self.labels else None}
        write_json_object(path, rec)

    @classmethod
    def load(cls, path) -> "ClusterModel":
        """The model save wrote, with the centroids of the NPY file it names,
        read by records.load_array. A file that holds its centroids as a
        JSON list, as older versions wrote it, is rejected naming it."""
        rec = load_json_object(path)
        with model_fields(path):
            labels = [SitStand(l) for l in rec["labels"]] if rec.get("labels") else None
            centroids_path = _beside(path, rec["centroids_file"])
        centroids = load_array(centroids_path, 75)  # a fault there is the array file's, not a field's
        with model_fields(path):
            return cls(centroids, labels)


def _sibling_name(path, suffix: str) -> str:
    """The name of the file beside path that holds one of its arrays:
    path's stem followed by suffix."""
    return os.path.splitext(os.path.basename(path))[0] + suffix


def _beside(path, name) -> str:
    """The path of the file name that the record at path names."""
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def kmeans(x: np.ndarray, k: int, seed: int, max_iters: int = 100) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding (Arthur & Vassilvitskii,
    SODA 2007).

    Stops when assignments are stable or after max_iters. Empty clusters are
    re-seeded from the point farthest from its centroid. The objective
    (sum of squared distances) never increases across iterations. The
    returned model's assignment holds each row's nearest returned centroid.
    A row that is not finite, or whose squared norm exceeds SAFE_NORM,
    raises ValueError before seeding. So does input whose distance sums
    could overflow: every centre is a row or a mean of rows, so no sum of n
    squared distances (the seeding's d2.sum(), the objective) exceeds
    B = sum_i (|x_i| + max_j |x_j|)^2, and B must stay 1/16 below 2^1024;
    the error names the row of the largest norm.

    Every float equals that of the plain algorithm, up to the assignment's
    last-bit rounding below:
    - Seeding keeps d2, each row's exact squared distance (the row sum of
      (x - c) ** 2) to its nearest centre so far, under np.minimum. One
      mat-vec gives approx = |x|^2 + |c|^2 - 2 x.c for a new centre c, and
      sqdist.rounding_margin's m bounds the exact distance from below by
      approx - m (both norms are at most SAFE_NORM, so the proof holds). A
      row with approx - m >= d2 keeps d2 under np.minimum anyway, so only
      the other rows get the exact distance, and d2 and every draw are
      unchanged (the skip of Raff, IJCAI 2021).
    - Assignment takes (|x|^2 + |c|^2) - 2 x.c, clips it at 0 and takes the
      argmin (ties -> lowest id) in row blocks; x @ c.T comes one block of
      _PRODUCT_ROWS rows at a time into a reused buffer, so no (n, K) array
      is allocated. A BLAS may round an entry of a block's product in the
      last bit otherwise than one full product does: OpenBLAS 0.3.31 does so
      for 606 of the 3.24 million entries at 10 800 x 75 against K = 300
      (in the last four columns), by at most 3e-15. So the assignment is the
      plain algorithm's unless two centroids tie within that rounding;
      test_kmeans_equals_the_plain_reference checks it, partial last blocks
      included.
    - Seeding's squared distances, the objective's differences and the
      rows sorted by cluster all go through one (n, d) work array.
    - A centroid is the mean of its rows in ascending row order, taken as a
      contiguous slice after one stable sort by cluster.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if n < k:
        raise TooFewPoses(f"{n} poses for {k} clusters")
    rows = np.empty((n, d))  # the one (n, d) work array: squares, differences, sorted rows
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected
        xx = np.multiply(x, x, out=rows).sum(axis=1)
    bad = np.flatnonzero(~(xx <= SAFE_NORM))
    if len(bad):
        raise ValueError(f"pose row {bad[0]} is not finite or its squared norm exceeds 2**1020")
    r = np.sqrt(xx) * 2.0**-510  # norms in units of 2^510, so each term of B / 2^1020 is at most 4
    if ((r + r.max()) ** 2).sum() > 15.0:
        big = int(xx.argmax())
        raise ValueError(
            f"pose row {big} has squared norm {xx[big]:.4g}: at that scale "
            f"the squared distances of {n} rows could overflow"
        )
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, d))
    centroids[0] = x[rng.integers(n)]
    d2 = _row_sqdist(x, centroids[0], rows)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[c] = x[rng.integers(n)]
        else:
            centroids[c] = x[rng.choice(n, p=d2 / total)]
        norms = xx + centroids[c] @ centroids[c]
        # a one-column matrix product: a threaded OpenBLAS mat-vec of the
        # same shape can take 8 ms against 0.2 ms on a 2-vCPU host
        lower = (x @ centroids[c, :, None])[:, 0]
        lower *= -2.0
        lower += norms
        lower -= rounding_margin(norms, d, out=norms)
        near = np.flatnonzero(lower < d2)
        part = np.take(x, near, axis=0, out=rows[: len(near)], mode="clip")
        d2[near] = np.minimum(d2[near], _row_sqdist(part, centroids[c], part))

    assign = None
    prev_obj = np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iters + 1):
        new_assign, point_d = _nearest_centroids(x, xx, centroids)
        # direct-form objective: the expansion carries cancellation noise
        # that would keep a perfect clustering away from exactly 0
        np.take(centroids, new_assign, axis=0, out=rows, mode="clip")  # "raise" would buffer out
        np.subtract(x, rows, out=rows)
        rows *= rows
        obj = float(rows.sum())
        assert obj <= prev_obj + 1e-9 * max(1.0, prev_obj), "objective increased"
        prev_obj = obj
        if assign is not None and np.array_equal(new_assign, assign):
            converged = True
            break
        assign = new_assign

        counts = np.bincount(assign, minlength=k)
        np.take(x, np.argsort(assign, kind="stable"), axis=0, out=rows, mode="clip")
        ends = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            centroids[c] = rows[ends[c] - counts[c] : ends[c]].mean(axis=0)
        for c in np.flatnonzero(counts == 0):
            far = int(point_d.argmax())
            centroids[c] = x[far]
            point_d[far] = -1.0  # each reseed takes a distinct point
    if not converged:
        assign, _ = _nearest_centroids(x, xx, centroids)

    return ClusterModel(centroids, objective=prev_obj, n_iter=n_iter, converged=converged, assignment=assign)


def _row_sqdist(x: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The row sums of (x - c) ** 2, the squares taken in out, an array
    shaped like x (x itself may be out)."""
    np.subtract(x, c, out=out)
    out *= out
    return out.sum(axis=1)


# Rows per matrix product of the assignment pass, so that its buffer does
# not grow with n. Each product is one threaded BLAS call, and under CPU
# contention (another threaded BLAS process on the same 2 vCPUs) a call can
# wait a scheduler time slice for its threads: kmeans at 10 800 x 75, K = 300
# took 10.8-21.6 s with 256-row products, 2.6-4.0 s with 2048 rows and 2.1-4.1 s
# with one full product.
_PRODUCT_ROWS = 2048
# Rows per block of the argmin, so that at K = 300 the block's buffer and
# its rows of the matrix product (600 KB each) stay in a 2 MB L2.
_ASSIGN_ROWS = 256


def _nearest_centroids(x: np.ndarray, xx: np.ndarray, c: np.ndarray):
    """Per row of x, with xx its squared norms: the nearest centroid by
    (xx + |c|^2) - 2 x.c clipped at 0, and that distance. Equal values go to
    the lowest id, but the BLAS may round x.c in one column otherwise than
    in another, so even bit-identical centroids may split their rows
    (assign_clusters joins them). x @ c.T is taken _PRODUCT_ROWS
    rows at a time into one reused buffer, so nothing of n x K is allocated."""
    cc = (c * c).sum(axis=1)
    nearest = np.empty(len(x), dtype=np.intp)
    dist = np.empty(len(x))
    product = np.empty((min(_PRODUCT_ROWS, len(x)), len(c)))
    buf = np.empty((min(_ASSIGN_ROWS, len(x)), len(c)))
    for p0 in range(0, len(x), _PRODUCT_ROWS):
        gram = np.matmul(x[p0 : p0 + _PRODUCT_ROWS], c.T, out=product[: len(x) - p0])
        for r0 in range(0, len(gram), _ASSIGN_ROWS):
            g = gram[r0 : r0 + _ASSIGN_ROWS]
            rows = slice(p0 + r0, p0 + r0 + len(g))
            b = np.add(xx[rows, None], cc, out=buf[: len(g)])
            g *= 2.0
            b -= g
            np.maximum(b, 0.0, out=b)
            idx = b.argmin(axis=1)
            nearest[rows] = idx
            dist[rows] = b[np.arange(len(g)), idx]
    return nearest, dist


def assign_clusters(model: ClusterModel, x: np.ndarray) -> np.ndarray:
    """Nearest centroid id of each row of x. Bit-identical centroids go to
    the lowest of their ids; a tie between different centroids within the
    last-bit rounding of x.c may go to either."""
    x = np.asarray(x, dtype=float)
    ids: dict = {}  # one bytes key per distinct centroid, as KnnIndex groups its rows
    lowest = np.fromiter((ids.setdefault(c.tobytes(), j) for j, c in enumerate(model.centroids)), np.intp)
    return lowest[_nearest_centroids(x, (x * x).sum(axis=1), model.centroids)[0]]


def hip_heights(x: np.ndarray) -> np.ndarray:
    """(n,) up-axis hip midpoint minus mean ankle height of n pose vectors
    (n, 75), in normalized units."""
    x = np.asarray(x, dtype=float)
    return x[:, _HIP_Z].mean(axis=1) - x[:, _ANKLE_Z].mean(axis=1)


def sit_stand_threshold(heights: np.ndarray) -> float:
    """Midpoint of the two modes of a 1-D 2-means on training hip heights."""
    h = np.sort(np.asarray(heights, dtype=float))
    lo, hi = h[0], h[-1]
    if hi - lo < 1e-12:
        return float(lo)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        left = h[h <= mid]
        right = h[h > mid]
        if len(left) == 0 or len(right) == 0:
            break
        new_lo, new_hi = left.mean(), right.mean()
        if abs(new_lo - lo) < 1e-12 and abs(new_hi - hi) < 1e-12:
            lo, hi = new_lo, new_hi
            break
        lo, hi = new_lo, new_hi
    return float((lo + hi) / 2.0)


def label_clusters(model: ClusterModel, theta_sit: float) -> list:
    """Label each centroid sitting/standing by hip height against theta_sit:
    a centroid is sitting-like iff its hip height is strictly below it."""
    sitting = hip_heights(model.centroids) < theta_sit
    labels = [SitStand.SITTING_LIKE if s else SitStand.STANDING_LIKE for s in sitting]
    model.labels = labels
    return labels


def build_neighbor_graph(cluster_of: np.ndarray, sequence_breaks, k: int) -> np.ndarray:
    """(k, k) bool table of the symmetric cluster adjacency observed across
    consecutive training frames.

    Every cluster neighbors itself. Clusters a, b are neighbors iff some
    training step i -> i+1 that does not cross a sequence break has
    {cluster_of[i], cluster_of[i+1]} == {a, b}. sequence_breaks lists the
    indices that start a new source sequence.
    """
    cluster_of = np.asarray(cluster_of, dtype=int)
    steps = ~np.isin(np.arange(1, len(cluster_of)), list(sequence_breaks))
    a, b = cluster_of[:-1][steps], cluster_of[1:][steps]
    adjacent = np.eye(k, dtype=bool)
    adjacent[a, b] = adjacent[b, a] = True
    return adjacent


@dataclass
class ExemplarBank:
    """All training poses in time order plus cluster structure.

    poses: (n, 75) normalized pose vectors; cluster_of: (n,) cluster ids in
    [0, k); sequence_breaks: indices where a new source sequence starts,
    kept sorted.

    Derived at construction, and what every solver reads:
    adjacent: (k, k) bool table, adjacent[a, b] iff clusters a and b are
    neighbors, from build_neighbor_graph;
    segment_of: (n,) source-sequence id of each pose, so a step j -> i
    stays inside one sequence iff segment_of[j] == segment_of[i];
    neighbors: the sorted ids of each row of adjacent, a view kept because
    perfbench/layers.py reads it (ROADMAP item 5 deletes it).
    """

    poses: np.ndarray
    cluster_of: np.ndarray
    sequence_breaks: np.ndarray
    k: int
    adjacent: np.ndarray = field(init=False, repr=False)
    segment_of: np.ndarray = field(init=False, repr=False)
    neighbors: list = field(init=False, repr=False)

    def __post_init__(self):
        self.k = operator.index(self.k)  # a NumPy integer saves as a plain int
        self.poses = np.asarray(self.poses, dtype=float)
        if self.poses.ndim != 2 or self.poses.shape[1] != 75:
            raise ValueError("bank poses must be (n, 75)")
        self.cluster_of, self.sequence_breaks = _checked_clusters(self.cluster_of, self.sequence_breaks, self.k, len(self.poses))
        self.adjacent = build_neighbor_graph(self.cluster_of, self.sequence_breaks, self.k)
        self.segment_of = self.sequence_breaks.searchsorted(np.arange(len(self.poses)), side="right")
        self.neighbors = [np.flatnonzero(row) for row in self.adjacent]

    @classmethod
    def build(cls, poses: np.ndarray, cluster_of: np.ndarray, sequence_breaks, k: int) -> "ExemplarBank":
        return cls(poses, cluster_of, sequence_breaks, k)

    def crosses_break(self, j: int, i: int) -> bool:
        """True when the step j -> i spans a sequence boundary."""
        return bool(self.segment_of[j] != self.segment_of[i])

    def save(self, path) -> None:
        """JSON with a pose-file reference; the poses go to the sibling
        <stem>_poses.npy, an (n, 75) float64 NPY file."""
        poses_file = _sibling_name(path, "_poses.npy")
        save_array(_beside(path, poses_file), self.poses)
        rec = {
            "k": self.k,
            "poses_file": poses_file,
            "cluster_of": self.cluster_of.tolist(),
            "sequence_breaks": self.sequence_breaks.tolist(),
        }
        write_json_object(path, rec)

    @classmethod
    def load(cls, path) -> "ExemplarBank":
        """The bank save wrote, its fields read by read_bank_fields, with the
        poses of the NPY file it names, read by records.load_array. A file
        that names a JSONL pose file, as older versions wrote it, is
        rejected naming that file."""
        pose_path, cluster_of, sequence_breaks, k = read_bank_fields(path)
        poses = load_array(pose_path, 75)  # a fault there is the pose file's, not a field's
        with model_fields(path):
            return cls(poses, cluster_of, sequence_breaks, k)


def _checked_clusters(cluster_of, sequence_breaks, k: int, n_poses: int):
    """cluster_of as an int array and the breaks as a sorted one; ValueError
    unless they hold one cluster id in [0, k) per pose and breaks inside the
    poses."""
    cluster_of = np.asarray(cluster_of, dtype=int)
    sequence_breaks = np.asarray(sorted(int(b) for b in sequence_breaks), dtype=int)
    if cluster_of.shape != (n_poses,):
        raise ValueError("cluster_of must hold one cluster id per pose")
    if len(cluster_of) and (cluster_of.min() < 0 or cluster_of.max() >= k):
        raise ValueError("cluster id out of range")
    for b in sequence_breaks:
        if not (0 < b < n_poses):
            raise ValueError("sequence break outside pose range")
    return cluster_of, sequence_breaks


def read_bank_fields(path):
    """(pose file path, cluster_of, sequence_breaks, k) of the bank file
    ExemplarBank.save wrote, without reading the pose file. Every field is
    checked, against the others too (one cluster id in [0, k) per pose as
    cluster_of counts them), and a fault raises ValueError naming the file. A
    neighbors key, which older files hold, is ignored, since the graph is
    derived from cluster_of and the breaks."""
    rec = load_json_object(path)
    with model_fields(path):
        pose_path = _beside(path, rec["poses_file"])
        cluster_of = integral_array(rec["cluster_of"], "cluster_of")
        k = integral(rec, "k")
        breaks = integral_array(rec["sequence_breaks"], "sequence_breaks")
        cluster_of, breaks = _checked_clusters(cluster_of, breaks, k, len(cluster_of))
    return pose_path, cluster_of, breaks, k


def clustering_digest(cluster_of) -> str:
    """A 16-hex-digit digest of a bank's cluster_of: a classifier file records
    the one of the clustering it was fit on, so that it is never read with
    another."""
    return hashlib.sha256(np.ascontiguousarray(cluster_of, dtype="<i8").tobytes()).hexdigest()[:16]
