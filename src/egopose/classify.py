"""Per-frame pose-cluster classification.

The primary classifier is a random forest over motion features: each tree is
grown on a bootstrap sample to purity (or until fewer than two samples),
choosing at every node the best Gini split among ceil(sqrt(d)) candidate
features with midpoint thresholds. One search per node covers all candidate
columns at once: a stable sort of each column, the sums of squared class
counts left and right of every cut as integer cumsums along that order, and
the loss at every cut between distinct values. The counts are exact
integers, so each loss is the float a per-class count gives; ties go to the
smallest threshold, then to the candidate drawn first. A forest is one set
of flat node arrays from growth to file, each tree in preorder and each
leaf's nonzero class counts in a sparse (CSR) table. Growth appends to them
from an explicit stack, and one router moves every row of every tree down a
level per step, so nothing recurses. Tree probabilities are per-leaf
normalized class histograms, averaged over trees. A k-NN classifier over the
same features is available as an alternative probability provider. It finds
neighbors exactly in two stages over the distinct training rows, each held
once: one matrix product per block of queries bounds every squared distance
within a proven rounding margin, and only the rows those bounds cannot rule
out get the exact distance, the row sum of (point - v) ** 2; ties go to the
lower training index. Training features are kept one {t, v} row per frame, t
indexing the bank pose whose cluster is the row's class. A static per-frame
sitting probability h is read from file and checked here.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .clustering import clustering_digest
from .errors import DegenerateLabels, DimMismatch, EmptyModel, InvalidProbability, LengthMismatch
from .records import integral, integral_array, load_json_object, model_fields, number, number_array, read_frames
from .records import read_records, write_json_object, write_records
from .sqdist import SAFE_NORM, rounding_margin


# ---------------------------------------------------------------------------
# random forest

# The node arrays of a forest, in file order.
_NODE_ARRAYS = ("roots", "feat", "thresh", "right", "leaf_ptr", "leaf_class", "leaf_count")


@dataclass
class ForestModel:
    """A forest as flat arrays over the nodes of all its trees, in memory and
    in files: the layout of CART and scikit-learn's Tree. Tree t's nodes come
    in preorder from roots[t] up to the next root. A split i (feat[i] >= 0)
    sends x[feat[i]] <= thresh[i] to its left child i + 1 and the rest to
    right[i], past the left child and inside the tree, so routing only moves
    forward. A leaf has feat == -1 (right == -1, thresh == 0) and holds the
    counts leaf_count[leaf_ptr[i]:leaf_ptr[i + 1]] of the increasing classes
    leaf_class[...]; a split's range is empty."""

    feature_dim: int
    n_classes: int
    roots: np.ndarray
    feat: np.ndarray
    thresh: np.ndarray
    right: np.ndarray
    leaf_ptr: np.ndarray
    leaf_class: np.ndarray
    leaf_count: np.ndarray
    oob_accuracy: float | None = None  # not serialized

    def __post_init__(self):
        """ValueError unless the arrays route every row to one leaf in each
        tree, and each leaf normalizes to a class distribution."""
        for name in _NODE_ARRAYS:
            values = getattr(self, name)
            a = number_array(values, name) if name == "thresh" else integral_array(values, name)
            if a.ndim != 1:
                raise ValueError(f"{name} must be a list of numbers")
            setattr(self, name, a)
        n, roots = len(self.feat), self.roots
        lengths = (len(self.thresh), len(self.right), len(self.leaf_ptr) - 1, len(self.leaf_count))
        if lengths != (n, n, n, len(self.leaf_class)):
            raise ValueError("feat, thresh, right and leaf_ptr[1:] must match, and leaf_count leaf_class, in length")
        if not (len(roots) and roots[0] == 0 and np.all(np.diff(roots) > 0) and roots[-1] < n):
            raise ValueError(f"roots must hold at least one tree, rising strictly from 0 below {n}")
        if np.any(self.feat < -1) or np.any(self.feat >= self.feature_dim):
            raise ValueError(f"feat must be -1 at a leaf or a feature index in [0, {self.feature_dim})")
        split = np.flatnonzero(self.feat >= 0)
        tree_end = np.append(roots[1:], n)[np.searchsorted(roots, split, side="right") - 1]
        if np.any(self.right[split] <= split + 1) or np.any(self.right[split] >= tree_end):
            raise ValueError("a split's right child must lie past its left child, inside its tree")
        leaf, size = self.feat == -1, np.diff(self.leaf_ptr)
        ptr_ends = self.leaf_ptr[0] == 0 and self.leaf_ptr[-1] == len(self.leaf_class)
        if not ptr_ends or np.any(np.sign(size) != leaf):  # sign 1 at a leaf, 0 at a split
            raise ValueError("leaf_ptr must rise from 0 to len(leaf_class), at leaves only")
        first = self.leaf_ptr[:-1][leaf]  # each leaf's first entry
        rising = np.diff(self.leaf_class) > 0
        rising[first[1:] - 1] = True  # the next leaf starts afresh
        if not rising.all() or np.any(self.leaf_class < 0) or np.any(self.leaf_class >= self.n_classes):
            raise ValueError(f"a leaf's classes must rise within [0, {self.n_classes})")
        total = np.add.reduceat(self.leaf_count.astype(float), first)
        if np.any(self.leaf_count < 0) or not np.all(total > 0):
            raise ValueError("a leaf's counts must be non-negative with a positive sum")
        self._leaf_p = self.leaf_count / np.repeat(total, size[leaf])  # normalized leaf histograms

    @property
    def trees(self) -> list:
        """Each tree as nested dicts ({"feat", "thresh", "left", "right"} or
        {"hist"}), built for the benchmark's traced node count; it goes when
        the benchmark reads a node count instead (ROADMAP, benchmark v2)."""
        nodes = [None] * len(self.feat)
        for i in reversed(range(len(self.feat))):  # children before their parent
            if self.feat[i] < 0:
                lo, hi = self.leaf_ptr[i : i + 2]
                hist = np.zeros(self.n_classes, dtype=np.int64)
                hist[self.leaf_class[lo:hi]] = self.leaf_count[lo:hi]
                nodes[i] = {"hist": hist.tolist()}
            else:
                split = {"feat": int(self.feat[i]), "thresh": float(self.thresh[i])}
                nodes[i] = {**split, "left": nodes[i + 1], "right": nodes[self.right[i]]}
        return [nodes[r] for r in self.roots]

    def save(self, path, cluster_of, settings: dict) -> None:
        """Write the forest, with the clustering_digest of cluster_of, the
        bank clusters it was fit on, as "clustering", and the record of the
        feature settings its rows were built with (FeatureSettings.record)
        as "feature_settings"."""
        trees = {name: getattr(self, name).tolist() for name in _NODE_ARRAYS}
        rec = {"feature_dim": self.feature_dim, "n_classes": self.n_classes, "clustering": clustering_digest(cluster_of)}
        rec["feature_settings"] = settings
        write_json_object(path, {**rec, "trees": trees})

    @classmethod
    def from_record(cls, rec: dict) -> "ForestModel":
        trees = rec["trees"]
        if not isinstance(trees, dict):  # a list of nested trees: the format before flat arrays
            raise ValueError("trees must be an object of node arrays; retrain a forest of nested trees")
        arrays = {name: trees[name] for name in _NODE_ARRAYS}  # KeyError: a missing array
        return cls(integral(rec, "feature_dim"), integral(rec, "n_classes"), **arrays)

    @classmethod
    def load(cls, path) -> "ForestModel":
        rec = load_json_object(path)
        with model_fields(path):
            return cls.from_record(rec)


def _vote(model: ForestModel, acc: np.ndarray, x: np.ndarray, rows_of_tree: list) -> None:
    """Add the normalized class histogram of the leaf that x[r] reaches in
    tree t to acc[r], for each row r in rows_of_tree[t], tree after tree.
    Every (row, tree) pair moves down one level per step. A tree adds to
    each (row, class) cell at most once and the zeros it skips add nothing,
    so acc gets the floats that summing dense histograms in tree order gives."""
    sizes = [len(rows) for rows in rows_of_tree]
    rows, node = np.concatenate(rows_of_tree), np.repeat(model.roots, sizes)
    live = np.flatnonzero(model.feat[node] >= 0)
    while len(live):
        at = node[live]
        go_left = x[rows[live], model.feat[at]] <= model.thresh[at]
        node[live] = np.where(go_left, at + 1, model.right[at])
        live = live[model.feat[node[live]] >= 0]
    start = model.leaf_ptr[node]
    width = model.leaf_ptr[node + 1] - start
    ends = np.cumsum(width)
    entry = np.arange(width.sum()) + np.repeat(start - ends + width, width)
    row, classes, p = np.repeat(rows, width), model.leaf_class[entry], model._leaf_p[entry]
    cut = np.append(0, ends)[np.cumsum([0] + sizes)]  # each tree's entries
    for lo, hi in zip(cut[:-1], cut[1:]):
        acc[row[lo:hi], classes[lo:hi]] += p[lo:hi]


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


def _grow_tree(x: np.ndarray, y: np.ndarray, idx: np.ndarray, rng, n_classes: int, m_try: int, nodes: dict) -> None:
    """Append one tree on the samples idx to nodes, lists keyed like the
    arrays of ForestModel. The tree grows depth-first from an explicit stack,
    left subtree before right, so its nodes and the RNG draws both come in
    preorder."""
    stack = [(idx, -1)]  # a node's samples, and the split it is the right child of
    while stack:
        idx, parent = stack.pop()
        i = len(nodes["feat"])
        if parent >= 0:
            nodes["right"][parent] = i
        sub_y = y[idx]
        hist = np.bincount(sub_y, minlength=n_classes)
        split = None
        if len(idx) >= 2 and hist.max() < len(idx):
            feats = rng.choice(x.shape[1], size=m_try, replace=False)
            x_node = x[idx[:, None], feats]
            split = _best_split(x_node, sub_y, hist)
        if split is None:  # pure, a single sample, or candidates all constant
            present = np.flatnonzero(hist)
            nodes["leaf_class"] += present.tolist()
            nodes["leaf_count"] += hist[present].tolist()
            feat, thresh = -1, 0.0
        else:
            _, j, thresh = split
            go_left = x_node[:, j] <= thresh
            feat = int(feats[j])
            stack += [(idx[~go_left], i), (idx[go_left], -1)]  # left popped first
        nodes["feat"].append(feat)
        nodes["thresh"].append(thresh)
        nodes["right"].append(-1)  # a split's is set when its right child is popped
        nodes["leaf_ptr"].append(len(nodes["leaf_class"]))


def train_forest(
    features: np.ndarray,
    classes: np.ndarray,
    n_trees: int,
    seed: int,
    n_classes: int | None = None,
) -> ForestModel:
    """Train a bootstrap forest, with its out-of-bag accuracy; deterministic
    for a fixed seed.

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
    nodes = {name: [0] if name == "leaf_ptr" else [] for name in _NODE_ARRAYS}
    oob = []
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        nodes["roots"].append(len(nodes["feat"]))
        _grow_tree(x, y, boot, rng, n_classes, m_try, nodes)
        oob.append(np.setdiff1d(np.arange(n), boot))

    model = ForestModel(d, n_classes, **nodes)
    votes = np.zeros((n, n_classes))
    _vote(model, votes, x, oob)
    seen = votes.sum(axis=1) > 0
    if seen.any():
        model.oob_accuracy = float((votes[seen].argmax(axis=1) == y[seen]).mean())
    return model


def forest_proba_batch(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """(n, n_classes) class distributions, row i the mean of the leaf
    histograms that x[i] reaches."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise DimMismatch(f"expected (n, {model.feature_dim}) features")
    acc = np.zeros((len(x), model.n_classes))
    _vote(model, acc, x, [np.arange(len(x))] * len(model.roots))
    acc /= len(model.roots)
    return acc / acc.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# exact k-NN

# Queries per matrix product: each (queries, distinct rows) temporary of a
# block is a 32-row table of bounds.
_SCAN_QUERIES = 32


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
    """Exact k-nearest-neighbor index over the distinct training rows: a
    matrix-product prefilter with a proven rounding margin, then exact
    distances for the distinct rows it keeps.

    A query's exact squared distances are the row sums of (point - v) ** 2,
    the same floats as ((points - v) ** 2).sum(axis=1); the k smallest come
    nearest first, ties at equal distance go to the lower training index,
    and NaN distances sort last.

    Each distinct row (rows are the same when their bytes are) is held once,
    with its count and the ascending training indices of its copies. Copies
    have bit-identical distances, so both stages run over distinct rows.
    Each block of queries gets approx = |p|^2 + |v|^2 - 2 p.v from one
    matrix product, the squared norms of the rows computed once, and
    sqdist.rounding_margin's proven m with approx - m <= exact <= approx + m.
    With T the smallest approx + m at which the distinct rows at or below it
    hold at least k training rows, a row with approx - m > T has k training
    rows strictly nearer, so only the rows with approx - m <= T get the
    exact distance. The first k copies of each such row, the only ones that
    can be among the k nearest, are then ranked by (distance, training
    index). A row whose |p|^2 + |v|^2 is NaN, infinite or above SAFE_NORM
    is always kept, so NaN and infinite entries, and k >= n, reach the exact
    distances on the same path.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be (n, d)")
        if len(points) == 0:
            raise EmptyModel("index holds no points")
        ids: dict = {}  # one bytes key per distinct row; np.unique(axis=0) allocates far more
        row_of = np.fromiter((ids.setdefault(p.tobytes(), len(ids)) for p in points), int, len(points))
        # the training indices of distinct row r, ascending, are copies[starts[r] : starts[r] + counts[r]]
        self._copies = np.argsort(row_of, kind="stable")
        self._counts = np.bincount(row_of)
        self._starts = np.cumsum(self._counts) - self._counts
        self._rows = points if len(self._counts) == len(points) else points[self._copies[self._starts]]
        self._sq_norms = np.einsum("ij,ij->i", self._rows, self._rows)

    def query_batch(self, vs: np.ndarray, k: int) -> np.ndarray:
        """(m, k) indices: row i holds the k nearest points to vs[i],
        nearest first. ValueError for k < 1."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        vs = np.asarray(vs, dtype=float)
        if vs.ndim != 2 or vs.shape[1] != self._rows.shape[1]:
            raise DimMismatch("query dimension mismatch")
        return self._scan(vs, min(k, len(self._copies)))

    def _scan(self, vs: np.ndarray, k: int) -> np.ndarray:
        """k nearest of each row of vs, for 1 <= k <= n: the bounds of a
        block of queries, the exact distances of its (query, distinct row)
        candidates, then each query's copies ranked."""
        n = len(self._copies)
        out = np.empty((len(vs), k), dtype=int)
        for q0 in range(0, len(vs), _SCAN_QUERIES):
            batch = vs[q0 : q0 + _SCAN_QUERIES]
            q, row = self._candidates(batch, k)
            diff = self._rows[row]
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN distances sort last
                diff -= batch[q]
                diff *= diff
                d2 = diff.sum(axis=1)
            # each candidate's first k copies, ordered by query, then training index
            length = np.minimum(self._counts[row], k)
            end = np.cumsum(length)
            at = self._copies[np.repeat(self._starts[row] - end + length, length) + np.arange(end[-1])]
            key = np.repeat(q * n, length) + at
            order = np.argsort(key)  # keys are unique
            at, d2 = at[order], np.repeat(d2, length)[order]
            bounds = np.searchsorted(key[order], np.arange(len(batch) + 1) * n)
            for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                out[q0 + j] = at[a:b][_nearest(d2[a:b], k)]
        return out

    def _candidates(self, batch: np.ndarray, k: int):
        """The (query, distinct row) pairs of a block whose lower bound is at
        most the query's cut T, ordered by query, then row."""
        u, d = self._rows.shape
        with np.errstate(over="ignore", invalid="ignore"):  # such rows are unsafe
            norms = np.einsum("ij,ij->i", batch, batch)[:, None] + self._sq_norms
            unsafe = ~(norms <= SAFE_NORM)
            approx = (batch * -2.0) @ self._rows.T  # -2 p.v, within the same proven error
            approx += norms
            margin = rounding_margin(norms, d, out=norms)
            upper = approx + margin
            lower = approx - margin
        upper[unsafe] = np.inf
        lower[unsafe] = -np.inf
        # each distinct row holds a training row, so T is at most the k-th
        # smallest upper bound, and every row kept has a lower bound below it
        upper.partition(min(k, u) - 1, axis=1)
        wide = np.flatnonzero(lower <= upper[:, min(k, u) - 1, None])
        q, row = np.divmod(wide, u)
        with np.errstate(over="ignore", invalid="ignore"):  # the upper bounds of those rows
            bound = np.where(unsafe.ravel()[wide], np.inf, approx.ravel()[wide] + margin.ravel()[wide])
        order = np.lexsort((bound, q))
        held = np.cumsum(self._counts[row[order]])  # strictly rising, so searchsorted finds each query's T
        before = np.r_[0, held][np.searchsorted(q, np.arange(len(batch)))]
        cut = bound[order[np.searchsorted(held, before + k)]]
        keep = lower.ravel()[wide] <= cut[q]
        return q[keep], row[keep]


@dataclass
class KnnModel:
    """Training features with their class ids, voting with the k nearest.
    Its file holds k and names the feature file of its rows, each row's class
    its bank pose's cluster."""

    features: np.ndarray
    classes: np.ndarray
    n_classes: int
    k: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.classes = integral_array(self.classes, "classes")
        if len(self.features) != len(self.classes):
            raise DimMismatch("features and classes must have matching length")
        if len(self.classes) and not (0 <= self.classes.min() and self.classes.max() < self.n_classes):
            raise DimMismatch(f"class ids must lie in [0, {self.n_classes})")
        self.k = operator.index(self.k)  # a NumPy integer saves as a plain int
        if self.k < 1:
            raise ValueError(f"knn_k must be at least 1, got {self.k}")
        self._index = None

    def index(self) -> KnnIndex:
        if self._index is None:
            self._index = KnnIndex(self.features)
        return self._index

    def votes(self, nn: np.ndarray) -> np.ndarray:
        """(n, n_classes) counts of the classes of each row of training-row
        indices nn (n, m)."""
        cells = np.arange(len(nn))[:, None] * self.n_classes + self.classes[nn]
        return np.bincount(cells.ravel(), minlength=len(nn) * self.n_classes).reshape(len(nn), self.n_classes)

    def save(self, path, rows_path) -> None:
        """Write the kNN file: k, and the path of the feature file holding
        this model's rows (save_features wrote it), relative to the kNN file."""
        rows = os.path.relpath(rows_path, os.path.dirname(os.path.abspath(path)))
        write_json_object(path, {"features": rows, "k": self.k})

    @classmethod
    def from_record(cls, path, rec: dict, bank):
        """(model, frames): the model the kNN record read from path describes
        and the bank poses of its rows. ValueError naming path for a record
        without an integral k of at least 1, or that holds rows or classes."""
        with model_fields(path):
            if not isinstance(rec["features"], str) or {"classes", "n_classes"} & rec.keys():
                raise ValueError("a kNN file names its feature file and holds no row or class; re-run egopose train")
            k = integral(rec, "k")
        rows = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), rec["features"]))
        frames, x = load_features(rows, len(bank.poses))
        with model_fields(path):  # a k below 1
            return cls(x, bank.cluster_of[frames], bank.k, k), frames

    @classmethod
    def load(cls, path, bank) -> "KnnModel":
        """The model that the kNN file at path describes (from_record)."""
        return cls.from_record(path, load_json_object(path), bank)[0]


def knn_proba(model: KnnModel, v: np.ndarray) -> np.ndarray:
    """(n, n_classes) class distributions of an (n, d) batch of features,
    row i from the model.k nearest training features of v[i]."""
    v = np.asarray(v, dtype=float)  # a model without training points raises EmptyModel in index()
    probs = model.votes(model.index().query_batch(v, model.k)).astype(float)
    return probs / probs.sum(axis=1, keepdims=True)


def save_features(path, frames, x: np.ndarray) -> None:
    """One {"t", "v"} row per training frame: its bank pose and features."""
    rows = np.asarray(x, dtype=float)  # one row at a time to lists, never the whole matrix
    write_records(path, ({"t": int(t), "v": v.tolist()} for t, v in zip(frames, rows)))


def load_features(path, n_poses: int):
    """(frames, x) of a feature file over a bank of n_poses poses; ValueError
    naming path:line for a t outside [0, n_poses). An older row's class is ignored."""
    rows = []

    def record(rec):
        t = integral(rec, "t")
        if not 0 <= t < n_poses:
            raise ValueError(f"t must index one of the bank's {n_poses} poses, found {t}")
        v = number_array(rec["v"], "v")
        if v.ndim != 1 or (rows and len(v) != len(rows[0])):
            raise ValueError(f"feature v must be a flat list as long as the first row's, found shape {v.shape}")
        rows.append(v)
        return t

    frames = np.array(list(read_records(path, record)), dtype=int)
    return frames, np.stack(rows) if rows else np.empty((0, 0))


# ---------------------------------------------------------------------------
# static sitting probability and the frame verdict


def check_static(h) -> np.ndarray:
    """h as a float array; raises InvalidProbability on a value that is NaN,
    infinite or outside [0, 1] (NaN would fail every tau comparison and
    silently switch the sitting prior off)."""
    h = np.asarray(h, dtype=float)
    bad = np.flatnonzero(~((h >= 0.0) & (h <= 1.0)))
    if len(bad):
        raise InvalidProbability(f"static sitting probability {float(h[bad[0]])} at frame {bad[0]} is not in [0, 1]")
    return h


def save_static(path, h: np.ndarray) -> None:
    write_records(path, ({"t": i, "h": float(v)} for i, v in enumerate(np.asarray(h, dtype=float))))


def load_static(path, expected_frames: int | None = None) -> np.ndarray:
    """The static sitting probabilities of a {t, h} stream; every fault,
    check_static's and a length other than expected_frames included, names
    the file."""
    h = list(read_frames(path, lambda rec: number(rec, "h")))
    with model_fields(path):
        h = check_static(h)
        if expected_frames is not None and len(h) != expected_frames:
            raise LengthMismatch(f"static file holds {len(h)} frames, expected {expected_frames}")
    return h
