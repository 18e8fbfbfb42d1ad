"""Per-frame pose-cluster classification.

The primary classifier is a random forest over motion features: each tree is
grown on a bootstrap sample to purity (or until fewer than two samples),
choosing at every node the best Gini split among ceil(sqrt(d)) candidate
features with midpoint thresholds. One search per node covers all candidate
columns at once: a stable sort of each column, the sums of squared class
counts left and right of every cut as integer cumsums along that order, and
the loss at every cut between distinct values. The counts are exact
integers, so each loss is the float a per-class count gives; ties go to the
smallest threshold, then to the candidate drawn first. Trees are nested
dicts from growth to file, grown from an explicit stack and read by one
router that sends groups of rows down them, so neither step recurses. Tree
probabilities are per-leaf normalized class histograms, averaged over trees.
A k-NN classifier over the same features is available as an alternative
probability provider. It finds neighbors exactly in two stages: one matrix
product per block of queries bounds every squared distance within a proven
rounding margin, and only the rows those bounds cannot rule out get the
exact distance, the row sum of (point - v) ** 2; ties go to the lower
training index. A static per-frame sitting probability h can be read from
file or held at the uninformative constant 0.5.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, DimMismatch, EmptyModel, InvalidProbability, LengthMismatch
from .records import load_json_object, model_fields, read_records, write_json_object, write_records


@contextmanager
def _recursion_headroom(n: int = 20000):
    """Room for json, whose C encoder and decoder also recurse once per tree
    level and count against the interpreter's limit, to follow trees grown to
    purity; the interpreter's own limit is put back on exit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, n))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# random forest


@dataclass
class ForestModel:
    """Trees as nested dicts, {"feat", "thresh", "left", "right"} for a split
    (x[feat] <= thresh goes left) and {"hist"} for a leaf's class counts;
    predictions route these dicts and files hold them as they are."""

    trees: list
    feature_dim: int
    n_classes: int
    oob_accuracy: float | None = None  # not serialized

    def __post_init__(self):
        if not self.trees:  # a forest of no trees votes 0/0
            raise ValueError("trees must hold at least one tree")

    def save(self, path) -> None:
        """The bytes json.dump writes for {"feature_dim", "n_classes",
        "trees"}, encoded a tree at a time by json.dumps, which runs the C
        encoder that json.dump never uses."""
        with open(path, "w") as f, _recursion_headroom():
            f.write(f'{{"feature_dim": {json.dumps(self.feature_dim)}, "n_classes": {json.dumps(self.n_classes)}, "trees": [')
            for i, tree in enumerate(self.trees):
                f.write((", " if i else "") + json.dumps(tree))
            f.write("]}")

    @classmethod
    def load(cls, path) -> "ForestModel":
        with _recursion_headroom():
            rec = load_json_object(path)
        trees = rec["trees"]  # KeyError: the file holds no forest
        with model_fields(path):
            model = cls(trees, int(rec["feature_dim"]), int(rec["n_classes"]))
            _check_trees(model.trees, model.feature_dim, model.n_classes)
        return model


def _check_trees(trees, feature_dim: int, n_classes: int) -> None:
    """ValueError unless trees is a list of trees whose every node is a split
    {"feat": int in [0, feature_dim), "thresh": number, "left", "right"} or a
    leaf {"hist": list of n_classes non-negative counts with a finite,
    positive sum}, which normalizes to a class distribution."""
    if not isinstance(trees, list):
        raise ValueError(f"trees must be a list, found {type(trees).__name__}")
    stack = list(trees)
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            raise ValueError(f"tree node must be an object, found {type(node).__name__}")
        if "hist" in node:
            hist = node["hist"]
            if not (isinstance(hist, list) and len(hist) == n_classes):
                raise ValueError(f"leaf hist must be a list of {n_classes} counts")
            try:  # min and sum walk the counts in C; NaN fails 0 < sum
                counts_ok = min(hist) >= 0 and 0 < sum(hist) < math.inf
            except (TypeError, ValueError):  # a count that is not a number, or no counts
                counts_ok = False
            if not counts_ok:
                raise ValueError("leaf hist must hold non-negative counts with a finite, positive sum")
            continue
        feat, thresh = node.get("feat"), node.get("thresh")
        if type(feat) is not int or not 0 <= feat < feature_dim:
            raise ValueError(f"split feat {feat!r} is not a feature index in [0, {feature_dim})")
        if type(thresh) not in (int, float):
            raise ValueError(f"split thresh {thresh!r} is not a number")
        stack += (node.get("left"), node.get("right"))


def _best_split(x_node: np.ndarray, y_node: np.ndarray, hist: np.ndarray):
    """Best midpoint split of a node over its m candidate features, or None.

    x_node is the node's (n, m) block of candidate columns, y_node its class
    ids and hist their counts. Returns (loss, j, threshold) where loss = n -
    sum_c n_c^2/n summed over the two children (n times the weighted Gini
    impurity, up to a constant), j is the column of x_node, and ties go to
    the smallest threshold, then to the lowest j.
    """
    n, m = x_node.shape
    cols = np.arange(m)
    order = np.argsort(x_node, axis=0, kind="stable")
    xs = x_node[order, cols]
    ys = y_node[order]
    # occ[p, j]: samples of class ys[p, j] sorted before position p in column
    # j, read off a stable sort by class (a radix sort for small class ids)
    by_class = np.argsort(ys.astype(np.min_scalar_type(len(hist) - 1)), axis=0, kind="stable")
    occ = np.empty_like(by_class)
    occ[by_class, cols] = np.arange(n)[:, None]
    occ -= (np.cumsum(hist) - hist)[ys]
    # sums of squared class counts left and right of each cut, as integer
    # cumsums of the change one sample makes; each is below 2**53, so every
    # loss is the float that summing squared per-class counts gives
    sq_left = np.cumsum(2 * occ + 1, axis=0)[:-1]
    sq_right = hist @ hist - np.cumsum(2 * (hist[ys] - occ) - 1, axis=0)[:-1]
    left_n = np.arange(1, n, dtype=float)[:, None]
    right_n = n - left_n
    loss = (left_n - sq_left / left_n) + (right_n - sq_right / right_n)
    loss[~(xs[1:] > xs[:-1])] = np.inf  # no cut between equal values
    pos = loss.argmin(axis=0)  # first minimum -> smallest threshold
    col_loss = loss[pos, cols]
    j = int(col_loss.argmin())  # first column on ties
    if not np.isfinite(col_loss[j]):
        return None
    lo, hi = xs[pos[j], j], xs[pos[j] + 1, j]
    thresh = (lo + hi) / 2.0
    if not (thresh < hi):  # midpoint rounded up: <= would empty the right side
        thresh = lo
    return float(col_loss[j]), j, float(thresh)


def _grow_tree(x: np.ndarray, y: np.ndarray, idx: np.ndarray, rng, n_classes: int, m_try: int) -> dict:
    """One tree on the samples idx, grown depth-first from an explicit stack,
    left subtree before right, so the RNG draws come in preorder."""
    root = {}
    stack = [(root, idx)]
    while stack:
        node, idx = stack.pop()
        sub_y = y[idx]
        hist = np.bincount(sub_y, minlength=n_classes)
        split = None
        if len(idx) >= 2 and hist.max() < len(idx):
            feats = rng.choice(x.shape[1], size=m_try, replace=False)
            x_node = x[idx[:, None], feats]
            split = _best_split(x_node, sub_y, hist)
        if split is None:  # pure, a single sample, or candidates all constant
            node["hist"] = hist.tolist()
            continue
        _, j, thresh = split
        go_left = x_node[:, j] <= thresh
        node.update(feat=int(feats[j]), thresh=thresh, left={}, right={})
        stack.append((node["right"], idx[~go_left]))
        stack.append((node["left"], idx[go_left]))
    return root


def _tree_proba(tree: dict, x: np.ndarray, n_classes: int) -> np.ndarray:
    """(len(x), n_classes) normalized leaf histograms of one tree: the rows
    go down the dicts in groups, one comparison per split a group reaches."""
    out = np.zeros((len(x), n_classes))
    stack = [(tree, np.arange(len(x)))]
    while stack:
        node, rows = stack.pop()
        if "hist" in node:
            hist = np.asarray(node["hist"], dtype=float)
            out[rows] = hist / hist.sum()
            continue
        go_left = x[rows, node["feat"]] <= node["thresh"]
        for child, sub in ((node["right"], rows[~go_left]), (node["left"], rows[go_left])):
            if len(sub):
                stack.append((child, sub))
    return out


def train_forest(
    features: np.ndarray,
    classes: np.ndarray,
    n_trees: int = 100,
    seed: int = 0,
    n_classes: int | None = None,
    compute_oob: bool = True,
) -> ForestModel:
    """Train a bootstrap forest; deterministic for a fixed seed.

    Parameters
    ----------
    features : (n, d) array of motion features.
    classes : (n,) integer class (cluster) ids in [0, n_classes).
    n_classes : histogram width; defaults to max(classes) + 1.
    """
    if n_trees < 1:
        raise ValueError(f"n_trees must be at least 1, got {n_trees}")
    x = np.asarray(features, dtype=float)
    y = np.asarray(classes, dtype=int)
    if x.ndim != 2 or len(x) != len(y):
        raise DimMismatch("features and classes must have matching first dimension")
    if len(np.unique(y)) < 2:
        raise DegenerateLabels("training set has a single class")
    if y.min() < 0:
        raise DimMismatch("class ids must be non-negative")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.max() >= n_classes:
        raise DimMismatch("class id exceeds n_classes")

    n, d = x.shape
    m_try = math.ceil(math.sqrt(d))
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    votes = np.zeros((n, n_classes))
    for ss in seeds:
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        tree = _grow_tree(x, y, boot, rng, n_classes, m_try)
        trees.append(tree)
        if compute_oob:
            oob = np.setdiff1d(np.arange(n), boot, assume_unique=False)
            if len(oob) > 0:
                votes[oob] += _tree_proba(tree, x[oob], n_classes)

    model = ForestModel(trees, d, n_classes)
    if compute_oob:
        seen = votes.sum(axis=1) > 0
        if seen.any():
            model.oob_accuracy = float((votes[seen].argmax(axis=1) == y[seen]).mean())
    return model


def forest_proba(model: ForestModel, v: np.ndarray) -> np.ndarray:
    """Class distribution for one feature vector: mean of per-leaf histograms."""
    v = np.asarray(v, dtype=float)
    if v.shape != (model.feature_dim,):
        raise DimMismatch(f"expected a {model.feature_dim}-vector, got {v.shape}")
    return forest_proba_batch(model, v[None])[0]


def forest_proba_batch(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """(n, n_classes) distributions, row i equal to forest_proba(model, x[i])."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise DimMismatch(f"expected (n, {model.feature_dim}) features")
    acc = np.zeros((len(x), model.n_classes))
    for tree in model.trees:
        acc += _tree_proba(tree, x, model.n_classes)
    acc /= len(model.trees)
    return acc / acc.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# exact k-NN

# Queries per matrix product: each (queries, n) temporary of a block is a
# 16-row table of distances or bounds.
_SCAN_QUERIES = 16
# A bound at or above this may hide an intermediate that overflowed (the
# exact path sums squares up to twice it), so such rows are candidates.
_SAFE_NORM = 2.0**1020
_UNIT_ROUNDOFF = 2.0**-53


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest d2 in ascending order, ties by the lower
    position and NaN last: np.lexsort((positions, d2))[:k]."""
    if k < len(d2):
        kth = np.partition(d2, k - 1)[k - 1]
        if not np.isnan(kth):
            # the k smallest are all <= kth, so only those need sorting
            cand = np.flatnonzero(d2 <= kth)
            return cand[np.argsort(d2[cand], kind="stable")[:k]]
    return np.argsort(d2, kind="stable")[:k]


class KnnIndex:
    """Exact k-nearest-neighbor index: a matrix-product prefilter with a
    proven rounding margin, then exact distances for the rows it keeps.

    A query's exact squared distances are the row sums of (point - v) ** 2,
    the same floats as ((points - v) ** 2).sum(axis=1); the k smallest come
    nearest first, ties at equal distance go to the lower training index,
    and NaN distances sort last.

    Each block of queries gets approx = |p|^2 + |v|^2 - 2 p.v from one
    matrix product, the squared norms of the points computed once. With
    gamma_n = n u / (1 - n u) for the unit roundoff u (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), a dot product of length d is
    off by at most gamma_d times the sum of its |terms|, whatever the
    summation order, thread split or fused multiply-add. So approx is within
    2 gamma_d + 3u (to first order), and the exact float within
    2 gamma_{d+2}, of the real distance, in units of |p|^2 + |v|^2, and

        |approx - exact| <= m = 8 gamma_{d+3} (|p|^2 + |v|^2) + (d + 3) 2^-1071,

    where the factor 8 leaves room for rounding m and approx +- m, and the
    last term covers products that underflow. With T the k-th smallest
    approx + m, a row with approx - m > T has k rows strictly nearer, so
    only the rows with approx - m <= T get the exact distance. A row whose
    |p|^2 + |v|^2 is NaN, infinite or near overflow is always kept, so NaN
    and infinite entries, and k >= n, reach the exact distances on the same
    path.
    """

    def __init__(self, points: np.ndarray):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be (n, d)")
        if len(self.points) == 0:
            raise EmptyModel("index holds no points")
        self._sq_norms = np.einsum("ij,ij->i", self.points, self.points)

    def query(self, v: np.ndarray, k: int) -> np.ndarray:
        """Indices of the k nearest points, nearest first."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.points.shape[1],):
            raise DimMismatch("query dimension mismatch")
        return self.query_batch(v[None], k)[0]

    def query_batch(self, vs: np.ndarray, k: int) -> np.ndarray:
        """(m, k) indices whose row i equals query(vs[i], k); ValueError for
        k < 1."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        vs = np.asarray(vs, dtype=float)
        if vs.ndim != 2 or vs.shape[1] != self.points.shape[1]:
            raise DimMismatch("query dimension mismatch")
        return self._scan(vs, min(k, len(self.points)))

    def _scan(self, vs: np.ndarray, k: int) -> np.ndarray:
        """k nearest of each row of vs, for 1 <= k <= n: the bounds of a
        block of queries, then the exact distances of each query's
        candidates."""
        n, d = self.points.shape
        gamma = (d + 3) * _UNIT_ROUNDOFF / (1 - (d + 3) * _UNIT_ROUNDOFF)
        tiny = (d + 3) * 2.0**-1071
        out = np.empty((len(vs), k), dtype=int)
        for q0 in range(0, len(vs), _SCAN_QUERIES):
            batch = vs[q0 : q0 + _SCAN_QUERIES]
            with np.errstate(over="ignore", invalid="ignore"):  # such rows are unsafe
                norms = np.einsum("ij,ij->i", batch, batch)[:, None] + self._sq_norms
                unsafe = ~(norms <= _SAFE_NORM)
                approx = batch @ self.points.T
                approx *= -2.0
                approx += norms
                margin = norms
                margin *= 8.0 * gamma
                margin += tiny
                upper = approx + margin
                lower = np.subtract(approx, margin, out=approx)
            upper[unsafe] = np.inf
            lower[unsafe] = -np.inf
            upper.partition(k - 1, axis=1)
            cut = upper[:, k - 1]
            for j, v in enumerate(batch):
                cand = np.flatnonzero(lower[j] <= cut[j])
                diff = self.points[cand]
                diff -= v
                diff *= diff
                out[q0 + j] = cand[_nearest(diff.sum(axis=1), k)]
        return out


@dataclass
class KnnModel:
    """Training features with class ids (and optionally bank pose indices)."""

    features: np.ndarray
    classes: np.ndarray
    n_classes: int
    pose_indices: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.classes = np.asarray(self.classes, dtype=int)
        if len(self.features) != len(self.classes):
            raise DimMismatch("features and classes must have matching length")
        if len(self.classes) and not (0 <= self.classes.min() and self.classes.max() < self.n_classes):
            raise DimMismatch(f"class ids must lie in [0, {self.n_classes})")
        if self.pose_indices is not None:
            self.pose_indices = np.asarray(self.pose_indices, dtype=int)
        self._index = None

    def index(self) -> KnnIndex:
        if self._index is None:
            self._index = KnnIndex(self.features)
        return self._index

    def save(self, path) -> None:
        rec = {
            "n_classes": self.n_classes,
            "features": self.features.tolist(),
            "classes": self.classes.tolist(),
            "pose_indices": None if self.pose_indices is None else self.pose_indices.tolist(),
        }
        write_json_object(path, rec)

    @classmethod
    def load(cls, path) -> "KnnModel":
        rec = load_json_object(path)
        pi = rec.get("pose_indices")
        with model_fields(path):
            return cls(
                np.array(rec["features"], dtype=float),
                np.array(rec["classes"], dtype=int),
                int(rec["n_classes"]),
                None if pi is None else np.array(pi, dtype=int),
            )


def knn_proba(model: KnnModel, v: np.ndarray, k: int = 30) -> np.ndarray:
    """Class distribution from the k nearest training features; for an
    (n, d) batch of features, the (n, n_classes) distributions row by row.
    ValueError for k < 1."""
    if len(model.features) == 0:
        raise EmptyModel("knn model holds no training points")
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return knn_proba(model, v[None], k)[0]
    nn = model.index().query_batch(v, k)
    cells = np.arange(len(v))[:, None] * model.n_classes + model.classes[nn]
    probs = np.bincount(cells.ravel(), minlength=len(v) * model.n_classes).astype(float)
    probs = probs.reshape(len(v), model.n_classes)
    return probs / probs.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# static sitting probability and the frame verdict


def dynamic_sit_stand(probs: np.ndarray, labels):
    """Frame verdict from cluster probabilities: sitting iff the summed
    sitting-like mass exceeds 0.5; ties go to standing."""
    from .clustering import SitStand

    probs = np.asarray(probs, dtype=float)
    if len(probs) != len(labels):
        raise LengthMismatch("one label per cluster required")
    sit_mass = float(probs[[l == SitStand.SITTING_LIKE for l in labels]].sum())
    return SitStand.SITTING_LIKE if sit_mass > 0.5 else SitStand.STANDING_LIKE


def constant_static(n_frames: int, value: float = 0.5) -> np.ndarray:
    """Uninformative static provider: h == value for every frame."""
    return np.full(n_frames, float(value))


def check_static(h) -> np.ndarray:
    """h as a float array; raises InvalidProbability on a value that is NaN,
    infinite or outside [0, 1] (NaN would fail every tau comparison and
    silently switch the sitting prior off)."""
    h = np.asarray(h, dtype=float)
    bad = np.flatnonzero(~((h >= 0.0) & (h <= 1.0)))
    if len(bad):
        raise InvalidProbability(f"static sitting probability {h[bad[0]]!r} at frame {bad[0]} is not in [0, 1]")
    return h


def save_static(path, h: np.ndarray) -> None:
    write_records(path, ({"t": i, "h": float(v)} for i, v in enumerate(np.asarray(h, dtype=float))))


def load_static(path, expected_frames: int | None = None) -> np.ndarray:
    h = check_static(list(read_records(path, lambda rec: float(rec["h"]))))
    if expected_frames is not None and len(h) != expected_frames:
        raise LengthMismatch(f"static file holds {len(h)} frames, expected {expected_frames}")
    return h
