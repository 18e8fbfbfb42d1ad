import inspect
import json
import math
import re
import sys

import numpy as np
import pytest

import egopose.classify as classify
from egopose.classify import (
    ForestModel,
    _best_split,
    _grow_tree,
    KnnIndex,
    KnnModel,
    forest_proba_batch,
    knn_proba,
    load_static,
    save_features,
    save_static,
    train_forest,
)
from egopose.cli import DEFAULT_CONFIG
from egopose.clustering import ExemplarBank, clustering_digest
from egopose.errors import DegenerateLabels, DimMismatch, EmptyModel, InvalidProbability, LengthMismatch
from egopose.pipeline import FeatureSettings, train_models
from memory_util import traced_peak


def two_blobs(rng, n=500, d=8, margin=1.0):
    a = rng.normal(size=(n, d)) * 0.2
    b = rng.normal(size=(n, d)) * 0.2
    a[:, 0] -= margin / 2 + 0.5
    b[:, 0] += margin / 2 + 0.5
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    perm = rng.permutation(len(x))
    return x[perm], y[perm]


def bank_of(cluster_of, k):
    """A bank whose poses (all zero) lie in the given clusters."""
    return ExemplarBank(np.zeros((len(cluster_of), 75)), cluster_of, [], k)


def walk_tree(tree, v):
    """The normalized leaf histogram a nested-dict tree gives v."""
    node = tree
    while "feat" in node:
        node = node["left"] if v[node["feat"]] <= node["thresh"] else node["right"]
    h = np.array(node["hist"], dtype=float)
    return h / h.sum()


def dict_forest_proba(trees, x, n_classes):
    """The dict router forest_proba_batch must match float for float: each
    tree's dense normalized leaf histograms summed in tree order."""
    acc = np.zeros((len(x), n_classes))
    for tree in trees:
        acc += np.array([walk_tree(tree, v) for v in x]).reshape(len(x), n_classes)
    acc /= len(trees)
    return acc / acc.sum(axis=1, keepdims=True)


def flatten(trees):
    """The node arrays of nested-dict trees in preorder, {"hist"} leaves
    keeping their nonzero counts: the layout train_forest must build."""
    arrays = {name: [] for name in classify._NODE_ARRAYS}
    arrays["leaf_ptr"].append(0)
    for tree in trees:
        arrays["roots"].append(len(arrays["feat"]))
        stack = [(tree, -1)]
        while stack:
            node, parent = stack.pop()
            if parent >= 0:
                arrays["right"][parent] = len(arrays["feat"])
            if "hist" in node:
                hist = np.array(node["hist"])
                arrays["leaf_class"] += np.flatnonzero(hist).tolist()
                arrays["leaf_count"] += hist[hist > 0].tolist()
                arrays["feat"].append(-1)
                arrays["thresh"].append(0.0)
            else:
                stack += [(node["right"], len(arrays["feat"])), (node["left"], -1)]
                arrays["feat"].append(node["feat"])
                arrays["thresh"].append(node["thresh"])
            arrays["right"].append(-1)
            arrays["leaf_ptr"].append(len(arrays["leaf_class"]))
    return {name: np.array(values, dtype=float if name == "thresh" else np.int64) for name, values in arrays.items()}


def node_arrays(model):
    return {name: getattr(model, name) for name in classify._NODE_ARRAYS}


def assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def test_forest_oob_on_separable_blobs():
    rng = np.random.default_rng(0)
    x, y = two_blobs(rng, n=500, margin=1.0)
    model = train_forest(x, y, n_trees=25, seed=1)
    assert model.oob_accuracy is not None
    assert model.oob_accuracy > 0.95


def test_forest_default_is_100_trees():
    """train_models owns the tree count; egopose train reads it from there."""
    default = inspect.signature(train_models).parameters["n_trees"].default
    assert default == DEFAULT_CONFIG["trees"] == 100
    rng = np.random.default_rng(1)
    x, y = two_blobs(rng, n=30)
    model = train_forest(x, y, default, 0)
    assert len(model.roots) == 100


def test_forest_memorizes_single_point_per_class():
    # bootstrap resampling means trees whose sample misses a class cannot
    # vote for it, so the training class gets the plurality, not all of it
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    y = np.array([0, 1, 2])
    model = train_forest(x, y, n_trees=40, seed=3)
    for i in range(3):
        probs = forest_proba_batch(model, x[i : i + 1])[0]
        assert probs.argmax() == i
        assert probs[i] > 0.5


def test_forest_rejects_degenerate_input():
    x = np.zeros((10, 3))
    with pytest.raises(DegenerateLabels):
        train_forest(x, np.zeros(10, dtype=int), 2, 0)
    with pytest.raises(DimMismatch):
        train_forest(x, np.array([0, 1]), 2, 0)


@pytest.mark.parametrize("n_trees", [0, -2])
def test_forest_needs_at_least_one_tree(n_trees):
    x = np.arange(10.0)[:, None]
    with pytest.raises(ValueError, match=f"n_trees must be at least 1, got {n_trees}"):
        train_forest(x, np.arange(10) % 2, n_trees=n_trees, seed=0)


def test_forest_deterministic():
    rng = np.random.default_rng(2)
    x, y = two_blobs(rng, n=60)
    a = train_forest(x, y, n_trees=10, seed=5)
    b = train_forest(x, y, n_trees=10, seed=5)
    assert_same_arrays(node_arrays(a), node_arrays(b))


def test_forest_proba_is_distribution():
    rng = np.random.default_rng(3)
    x, y = two_blobs(rng, n=80)
    model = train_forest(x, y, n_trees=15, seed=0)
    for _ in range(30):
        p = forest_proba_batch(model, rng.normal(size=(1, x.shape[1])))[0]
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_forest_proba_matches_manual_tree_walk():
    rng = np.random.default_rng(4)
    x, y = two_blobs(rng, n=60)
    model = train_forest(x, y, n_trees=12, seed=2)
    trees, _ = reference_forest(x, y, 12, 2, 2)
    for _ in range(10):
        v = rng.normal(size=x.shape[1])
        ref = np.mean([walk_tree(t, v) for t in trees], axis=0)
        ref = ref / ref.sum()
        assert np.allclose(forest_proba_batch(model, v[None])[0], ref, atol=1e-12)


def test_forest_batch_equals_single():
    rng = np.random.default_rng(5)
    x, y = two_blobs(rng, n=50)
    model = train_forest(x, y, n_trees=8, seed=1)
    trees, _ = reference_forest(x, y, 8, 1, 2)
    q = rng.normal(size=(20, x.shape[1]))
    batch = forest_proba_batch(model, q)
    for i in range(len(q)):
        ref = np.mean([walk_tree(t, q[i]) for t in trees], axis=0)
        assert np.allclose(batch[i], ref / ref.sum(), atol=1e-12)
        assert np.array_equal(batch[i], forest_proba_batch(model, q[i : i + 1])[0])
    for bad in (q[0], q[:, :-1], q[None]):
        with pytest.raises(DimMismatch):
            forest_proba_batch(model, bad)


def _reference_gini_split(x_col, y, n_classes):
    """Best midpoint threshold for one feature, or None: the one-hot
    cumsum that _best_split's integer counts must match float for float.

    Returns (loss, threshold) where loss = n - sum_c n_c^2/n summed over the
    two children (n times the weighted Gini impurity, up to a constant).
    """
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(xs)
    valid = xs[1:] > xs[:-1]
    if not valid.any():
        return None
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    cum = onehot.cumsum(axis=0)
    total = cum[-1]
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    sq_left = (cum[:-1] ** 2).sum(axis=1)
    sq_right = ((total[None, :] - cum[:-1]) ** 2).sum(axis=1)
    loss = (left_n - sq_left / left_n) + (right_n - sq_right / right_n)
    loss[~valid] = np.inf
    pos = int(loss.argmin())  # first minimum -> smallest threshold
    if not np.isfinite(loss[pos]):
        return None
    thresh = (xs[pos] + xs[pos + 1]) / 2.0
    if not (thresh < xs[pos + 1]):  # midpoint rounded up: <= would empty the right side
        thresh = xs[pos]
    return float(loss[pos]), float(thresh)


def _reference_best_split(x_node, y_node, n_classes):
    """One _reference_gini_split per column; the first column wins ties."""
    best = None
    for j in range(x_node.shape[1]):
        res = _reference_gini_split(x_node[:, j], y_node, n_classes)
        if res is not None and (best is None or res[0] < best[0]):
            best = (res[0], j, res[1])
    return best


def _split_cases(rng):
    """(x_node, y_node, n_classes) nodes for the split-search comparison."""
    up = np.nextafter(1.0, 2.0)  # odd last bit: the midpoint with the next float rounds up
    big = np.finfo(float).max
    yield np.array([[up, 0.0], [np.nextafter(up, 2.0), 0.0]]), np.array([0, 1]), 2  # n=2, one constant
    yield np.array([[1.0], [1.0]]), np.array([0, 1]), 3  # n=2, nothing to split
    yield np.array([[big * 0.9], [big]]), np.array([1, 0]), 2  # the sum overflows to inf
    yield np.array([[0.0, 1.0], [-0.0, 2.0], [0.0, np.nan], [np.inf, 1.0]]), np.array([0, 1, 1, 0]), 2
    yield np.array([[1.0], [np.nan], [1.0]]), np.array([0, 1, 0]), 2  # no cut next to a NaN
    col = rng.normal(size=30)
    yield np.stack([col, col.copy(), -col], axis=1), rng.integers(0, 3, size=30), 3  # equal losses in draw order
    for _ in range(300):
        n = int(rng.choice([2, 3, 5, 12, 60, 250]))
        m = int(rng.choice([1, 2, 17]))
        kind = rng.integers(4)
        if kind == 0:  # a few values: long runs of ties
            x = rng.integers(0, 4, size=(n, m)).astype(float)
        elif kind == 1:  # consecutive floats: midpoints round either way
            x = np.nextafter(1.0, 2.0) + rng.integers(0, 6, size=(n, m)) * np.spacing(1.0)
        else:
            x = rng.normal(size=(n, m))
        x[:, rng.random(m) < 0.2] = 7.0  # constant columns
        n_classes = int(rng.choice([2, 5, 40, 300]))  # ids past 255 need 16-bit sort keys
        present = rng.choice(n_classes, size=min(n_classes, int(rng.integers(1, 6))), replace=False)
        yield x, rng.choice(present, size=n), n_classes + int(rng.integers(0, 3))


def test_best_split_equals_per_feature_reference():
    splits = 0
    for x, y, n_classes in _split_cases(np.random.default_rng(21)):
        with np.errstate(over="ignore"):
            got = _best_split(x, y, np.bincount(y, minlength=n_classes))
            want = _reference_best_split(x, y, n_classes)
        assert got == want
        assert repr(got) == repr(want)  # the sign of a zero threshold too
        splits += got is not None
    assert splits > 200


def _reference_grow_tree(x, y, idx, rng, n_classes, m_try):
    """The recursive grower of nested dicts with the per-feature one-hot
    split search: the stack-based _grow_tree must build their flattened
    arrays from the same RNG draws."""
    sub_y = y[idx]
    hist = np.bincount(sub_y, minlength=n_classes)
    if len(idx) < 2 or hist.max() == len(idx):
        return {"hist": hist.tolist()}
    feats = rng.choice(x.shape[1], size=m_try, replace=False)
    best = _reference_best_split(x[idx][:, feats], sub_y, n_classes)
    if best is None:  # candidates all constant: no way to split
        return {"hist": hist.tolist()}
    _, j, thresh = best
    feat = int(feats[j])
    go_left = x[idx, feat] <= thresh
    return {
        "feat": feat,
        "thresh": thresh,
        "left": _reference_grow_tree(x, y, idx[go_left], rng, n_classes, m_try),
        "right": _reference_grow_tree(x, y, idx[~go_left], rng, n_classes, m_try),
    }


def _grow_cases(rng):
    """(x, y, n_classes) training sets for the grower comparison."""
    x = rng.normal(size=(150, 6))
    yield x, rng.integers(0, 5, size=150), 5
    # tied values, a constant column and a duplicated column
    x = rng.integers(0, 3, size=(120, 5)).astype(float)
    x[:, 1] = 7.0
    x[:, 3] = x[:, 0]
    yield x, rng.integers(0, 4, size=120), 4
    # a class per sample: leaves hold a single sample
    yield rng.normal(size=(40, 3)), np.arange(40), 40
    # histograms wider than the classes present
    yield rng.normal(size=(80, 4)), rng.choice([1, 4, 6], size=80), 12
    # 1-D features
    yield rng.normal(size=(100, 1)).round(1), rng.integers(0, 3, size=100), 3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grow_tree_equals_recursive_reference(seed):
    data = np.random.default_rng(100 + seed)
    for x, y, n_classes in _grow_cases(data):
        m_try = math.ceil(math.sqrt(x.shape[1]))
        for tree_seed in range(3):
            boot = np.random.default_rng(tree_seed).integers(0, len(x), size=len(x))
            rng_a, rng_b = np.random.default_rng(seed * 10 + tree_seed), np.random.default_rng(seed * 10 + tree_seed)
            got = {name: [] for name in classify._NODE_ARRAYS}
            got["roots"].append(0)
            got["leaf_ptr"].append(0)
            _grow_tree(x, y, boot, rng_a, n_classes, m_try, got)
            want = flatten([_reference_grow_tree(x, y, boot, rng_b, n_classes, m_try)])
            assert_same_arrays(node_arrays(ForestModel(x.shape[1], n_classes, **got)), want)
            assert rng_a.random() == rng_b.random()  # the same number of draws


def reference_forest(x, y, n_trees, seed, n_classes):
    """Nested-dict trees from _reference_grow_tree and the OOB accuracy of
    their dict routes, drawn from the seeds train_forest spawns."""
    n, d = x.shape
    trees, votes = [], np.zeros((n, n_classes))
    for ss in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(ss)
        boot = rng.integers(0, n, size=n)
        trees.append(_reference_grow_tree(x, y, boot, rng, n_classes, math.ceil(math.sqrt(d))))
        oob = np.setdiff1d(np.arange(n), boot)
        for r in oob:
            votes[r] += walk_tree(trees[-1], x[r])
    seen = votes.sum(axis=1) > 0
    return trees, float((votes[seen].argmax(axis=1) == y[seen]).mean())


def test_train_forest_equals_reference_grower():
    # the forest-cli shape in small: many classes, few samples each, tied
    # and constant columns
    for seed in range(4):
        rng = np.random.default_rng(22 + seed)
        x = rng.normal(size=(240, 36)).round(2)
        x[:, 5] = 1.0
        x[:, 7] = x[:, 3]
        y = rng.integers(0, 60, size=240)
        got = train_forest(x, y, n_trees=6, seed=seed, n_classes=64)
        trees, oob_accuracy = reference_forest(x, y, 6, seed, 64)
        assert_same_arrays(node_arrays(got), flatten(trees))
        assert got.oob_accuracy == oob_accuracy
        q = np.concatenate([rng.normal(size=(50, 36)).round(2), x[:50]])
        q[0, 3] = np.nan
        assert np.array_equal(forest_proba_batch(got, q), dict_forest_proba(trees, q, 64))


def _chain_trees(depth, n_classes=3):
    """One nested-dict tree whose splits nest depth levels deep: split i
    sends x[0] <= i + 0.5 to a leaf of class i % n_classes, the rest one
    level down, and the last level to a uniform leaf."""
    root = node = {}
    for i in range(depth):
        leaf = {"hist": [int(c == i % n_classes) for c in range(n_classes)]}
        node.update(feat=0, thresh=i + 0.5, left=leaf, right={})
        node = node["right"]
    node["hist"] = [1] * n_classes
    return [root]


def _chain_forest(depth, n_classes=3):
    return ForestModel(1, n_classes, **flatten(_chain_trees(depth, n_classes)))


def test_forest_of_no_trees_is_rejected_when_built():
    arrays = flatten(_chain_trees(2))
    with pytest.raises(ValueError, match="at least one tree"):
        ForestModel(1, 3, **{**arrays, "roots": []})


def test_deep_tree_needs_no_recursion_limit_change(tmp_path):
    q = np.array([[0.0], [1.2], [1500.0], [2998.9], [2999.7]])
    want = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3]])
    rng = np.random.default_rng(13)
    x, y = two_blobs(rng, n=40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        trees = _chain_trees(3000)
        model = _chain_forest(3000)
        assert np.array_equal(forest_proba_batch(model, q), want)
        assert np.array_equal(forest_proba_batch(model, q), dict_forest_proba(trees, q, 3))
        assert np.array_equal(forest_proba_batch(model, q[3:4]), want[3:4])
        path = tmp_path / "deep.json"
        model.save(path, y, FeatureSettings().record())
        back = ForestModel.load(path)
        assert_same_arrays(node_arrays(back), node_arrays(model))
        assert np.array_equal(forest_proba_batch(back, q), want)
        trained = train_forest(x, y, n_trees=3, seed=0)
        forest_proba_batch(trained, x[:5])
        forest_proba_batch(trained, x[:1])
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("bad", [-1, 2])
def test_class_ids_outside_range_are_rejected(tmp_path, bad):
    x = [[0.0], [1.0], [10.0], [11.0]]
    y = [0, 0, 1, bad]
    with pytest.raises(DimMismatch):
        KnnModel(x, y, 2, 1)
    with pytest.raises(DimMismatch):
        train_forest(x, y, n_trees=2, seed=0, n_classes=2)
    if bad < 0:
        with pytest.raises(DimMismatch):
            train_forest(x, y, n_trees=2, seed=0)
    # a kNN file holds no class id, each row's comes from the bank: one that does is from an older version
    path = tmp_path / "knn.json"
    path.write_text(json.dumps({"n_classes": 2, "features": x, "classes": y}))
    with pytest.raises(ValueError, match="egopose train") as info:
        KnnModel.load(path, bank_of([0, 0, 1, 1], 2))
    assert str(path) in str(info.value)


def test_forest_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x, y = two_blobs(rng, n=40)
    model = train_forest(x, y, n_trees=5, seed=0)
    path = tmp_path / "forest.json"
    model.save(path, y, FeatureSettings().record())
    back = ForestModel.load(path)
    assert_same_arrays(node_arrays(back), node_arrays(model))
    assert np.array_equal(forest_proba_batch(back, x), forest_proba_batch(model, x))
    assert back.feature_dim == model.feature_dim
    assert back.n_classes == model.n_classes


def test_knn_exact_match_single_neighbor():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 6))
    y = rng.integers(0, 12, size=50)
    y[17] = 9
    model = KnnModel(x, y, 12, k=1)
    probs = knn_proba(model, x[17][None])[0]
    assert probs[9] == 1.0


def test_knn_full_vote_gives_class_frequencies():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 5, size=40)
    model = KnnModel(x, y, 5, k=40)
    probs = knn_proba(model, rng.normal(size=4)[None])[0]
    freq = np.bincount(y, minlength=5) / 40.0
    assert np.allclose(probs, freq)


def test_knn_distance_ties_take_lower_index():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    idx = KnnIndex(pts)
    assert idx.query_batch(np.zeros((1, 2)), 2).tolist() == [[0, 1]]
    for bad in (np.zeros(2), np.zeros((1, 3))):
        with pytest.raises(DimMismatch):
            idx.query_batch(bad, 2)


def test_knn_empty_training_raises():
    with pytest.raises(EmptyModel):
        KnnIndex(np.zeros((0, 3)))


def _whole_array_scan(pts, v, k):
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN distances sort last
        d2 = ((pts - v) ** 2).sum(axis=1)
    return np.lexsort((np.arange(len(d2)), d2))[:k]


@pytest.mark.parametrize("dim", [3, 261])
def test_knn_blocked_scan_matches_whole_array_scan(dim):
    rng = np.random.default_rng(11)
    # a 1/4 grid gives many equal distances; 2 100 points span several blocks
    pts = rng.integers(-4, 5, size=(2100, dim)) / 4.0
    pts[5] = np.nan  # NaN distances sort last
    idx = KnnIndex(pts)
    queries = np.concatenate([rng.integers(-4, 5, size=(35, dim)) / 4.0, pts[[7, 7, 1999]]])
    for k in (1, 20, 2100, 3000):
        got = idx.query_batch(queries, k)
        for v, row in zip(queries, got):
            want = _whole_array_scan(pts, v, k)
            assert np.array_equal(row, want)
            assert np.array_equal(idx.query_batch(v[None], k)[0], want)


def _adversarial_knn_cases():
    rng = np.random.default_rng(13)

    def grid(n, d=6):  # a 1/4 grid gives many equal distances
        return rng.integers(-4, 5, size=(n, d)) / 4.0

    pts = grid(400)
    qs = np.concatenate([grid(20), pts[:5]])
    inf_pts = pts.copy()
    inf_pts[3, 1], inf_pts[10, 0], inf_pts[11] = np.inf, -np.inf, np.inf
    inf_qs = np.concatenate([qs, inf_pts[[3, 10, 11]], np.full((1, 6), np.nan)])
    inf_qs[0, 2] = np.inf
    # |p|^2 + |v|^2 near or above the largest float: the nearest rows of
    # these queries have squared norms that overflow, and their distances to
    # the other queries overflow too
    near, far = 1e153 * np.ones(6), 1e154 * np.ones(6)
    big_pts = np.concatenate([pts, near + grid(30) * 1e140, far + grid(30) * 1e141, -far + grid(10) * 1e141])
    big_qs = np.concatenate([qs, near + grid(3) * 1e140, far + grid(3) * 1e141, -far[None]])
    # 3 000 identical rows behind 200 others, some queries equal to them
    same = np.concatenate([grid(200), np.full((3000, 6), 0.25), grid(200)])
    same_qs = np.concatenate([qs, np.full((3, 6), 0.25), np.full((2, 6), 0.5)])
    # |p|^2 + |v|^2 - 2 p.v loses all but the leading digits of the distances
    off_pts = 1e8 + rng.normal(size=(400, 6)) * 4.0
    off_qs = np.concatenate([1e8 + rng.normal(size=(20, 6)) * 4.0, off_pts[:5]])
    return {
        "offset 1e8": (off_pts, off_qs),
        # the squares underflow below the smallest normal float
        "near 1e-160": (pts * 1e-160, qs * 1e-160),
        "near 1e150": (pts * 1e150, qs * 1e150),
        "near overflow": (big_pts, big_qs),
        "inf and NaN": (inf_pts, inf_qs),
        "3000 identical rows": (same, same_qs),
        "one point": (grid(1), qs),
        "d = 1": (grid(400, 1), grid(30, 1)),
    }


@pytest.mark.parametrize("case", list(_adversarial_knn_cases()))
def test_knn_scan_is_exact_on_adversarial_inputs(case):
    pts, queries = _adversarial_knn_cases()[case]
    idx = KnnIndex(pts)
    n = len(pts)
    for k in sorted({1, 20, max(n - 1, 1), n, n + 5}):
        got = idx.query_batch(queries, k)
        for v, row in zip(queries, got):
            want = _whole_array_scan(pts, v, k)
            assert np.array_equal(row, want), (case, k, v)
            assert np.array_equal(idx.query_batch(v[None], k)[0], want)


def _duplicate_knn_cases():
    """(distinct rows, queries): each case draws many copies of its few
    distinct rows, interleaved in index order."""
    rng = np.random.default_rng(17)
    grid = rng.integers(-4, 5, size=(4, 5)) / 4.0
    # four rows at distance 1 from the origin and one at distance 2
    ring = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [2.0, 0.0]])
    zeros = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, -0.0], [1.0, 1.0]])
    nan = np.array([[np.nan, 0.0], [-np.nan, 0.0], [1.0, 0.0], [0.0, 1.0]])
    inf = np.array([[np.inf, 0.0], [-np.inf, 0.0], [np.inf, np.inf], [1.0, 0.0], [0.0, 1.0]])
    plane = np.concatenate([np.zeros((1, 2)), ring[:3] * 0.5, [[np.inf, 0.0], [np.nan, 1.0]]])
    return {
        "interleaved copies": (grid, np.concatenate([rng.integers(-4, 5, size=(20, 5)) / 4.0, grid])),
        "equal distances across rows": (ring, np.concatenate([plane[:4], ring, [[3.0, 0.0]]])),
        "signed zeros": (zeros, np.concatenate([zeros, [[0.5, 0.5], [-0.0, 0.5]]])),
        "NaN rows": (nan, plane),
        "inf rows": (inf, plane),
    }


@pytest.mark.parametrize("case", list(_duplicate_knn_cases()))
def test_knn_duplicate_rows_match_whole_array_scan(case):
    distinct, queries = _duplicate_knn_cases()[case]
    rng = np.random.default_rng(19)
    pts = distinct[rng.permutation(np.repeat(np.arange(len(distinct)), 40))]
    idx = KnnIndex(pts)
    u, n = len(distinct), len(pts)
    assert len(idx._rows) == u  # each distinct row is held once
    for k in (1, 2, u - 1, u, u + 1, 39, 40, 41, 2 * 40 + 1, n - 1, n, n + 1):
        got = idx.query_batch(queries, k)
        for v, row in zip(queries, got):
            want = _whole_array_scan(pts, v, k)
            assert np.array_equal(row, want), (case, k, v)
            assert np.array_equal(idx.query_batch(v[None], k)[0], want)


def test_knn_scan_memory_stays_within_a_block():
    """2 000 queries with k = 20 against 3 000 rows drawn from 200 distinct
    ones: the scan bounds and ranks one block of queries at a time, so its
    traced peak (0.76 MB, the (2000, 20) output included) stays under half
    of the 3.2 MB that one (2000, 200) float table of the whole batch takes."""
    rng = np.random.default_rng(23)
    distinct = rng.integers(-8, 9, size=(200, 261)) / 4.0
    idx = KnnIndex(distinct[rng.integers(0, 200, size=3000)])
    queries = distinct[rng.integers(0, 200, size=2000)] + rng.integers(-1, 2, size=(2000, 261)) / 4.0
    peak = traced_peak(idx.query_batch, queries, 20)
    assert peak < 2000 * 200 * 8 / 2, peak


def test_knn_k_below_one_is_rejected():
    model = KnnModel(np.eye(3), [0, 1, 2], 3, 1)
    for k in (0, -1):
        with pytest.raises(ValueError, match="knn_k must be at least 1"):
            KnnModel(np.eye(3), [0, 1, 2], 3, k)
        with pytest.raises(ValueError):
            model.index().query_batch(np.zeros((2, 3)), k)


def test_knn_batch_matches_single_queries():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 20))
    y = rng.integers(0, 7, size=300)
    model = KnnModel(x, y, 7, k=9)
    q = np.concatenate([rng.normal(size=(40, 20)), x[:3]])
    probs = knn_proba(model, q)
    assert probs.shape == (43, 7)
    for v, row in zip(q, probs):
        assert np.array_equal(row, knn_proba(model, v[None])[0])
    low_dim = KnnIndex(rng.normal(size=(300, 3)))
    vs = rng.normal(size=(10, 3))
    assert np.array_equal(low_dim.query_batch(vs, 4), np.concatenate([low_dim.query_batch(v[None], 4) for v in vs]))
    for wrong in (np.zeros((2, 19)), np.zeros(20)):  # a single row is a (1, d) batch too
        with pytest.raises(DimMismatch):
            knn_proba(model, wrong)


def test_static_file_round_trip(tmp_path):
    path = tmp_path / "h.jsonl"
    save_static(path, np.array([0.995, 0.01]))
    back = load_static(path)
    assert np.allclose(back, [0.995, 0.01])
    with pytest.raises(LengthMismatch):
        load_static(path, expected_frames=3)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_static_file_rejects_values_outside_unit_interval(tmp_path, bad):
    path = tmp_path / "h.jsonl"
    save_static(path, np.array([0.0, bad, 1.0]))
    with pytest.raises(InvalidProbability, match="frame 1"):
        load_static(path)


def test_knn_model_file_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 4))
    frames = rng.permutation(30)[:20]
    bank = bank_of(rng.integers(0, 3, size=30), 3)
    model = KnnModel(x, bank.cluster_of[frames], 3, k=7)
    (tmp_path / "rows").mkdir()
    save_features(tmp_path / "rows" / "features.jsonl", frames, x)
    path = tmp_path / "knn.json"
    model.save(path, tmp_path / "rows" / "features.jsonl")
    assert json.loads(path.read_text()) == {"features": "rows/features.jsonl", "k": 7}  # no row and no class
    monkeypatch.chdir(tmp_path / "rows")  # the name is relative to the kNN file, not to the working directory
    back = KnnModel.load(path, bank)
    assert np.array_equal(back.features, x)
    assert np.array_equal(back.classes, bank.cluster_of[frames])
    assert back.n_classes == 3 and back.k == 7


@pytest.mark.parametrize("model_class", [ForestModel, KnnModel])
def test_model_file_holding_no_json_object_is_rejected(tmp_path, model_class):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object") as info:
        model_class.load(path, *([bank_of([0], 1)] if model_class is KnnModel else []))
    assert str(path) in str(info.value)


def _json_dump_bytes(rec, path):
    with open(path, "w") as f:
        json.dump(rec, f)
    return path.read_bytes()


def test_model_writers_match_json_dump(tmp_path):
    rng = np.random.default_rng(23)
    x, y = two_blobs(rng, n=40)
    forests = [train_forest(x, y, n_trees=4, seed=0), _chain_forest(300)]
    for n, model in enumerate(forests):
        path = tmp_path / f"forest{n}.json"
        model.save(path, y, FeatureSettings().record())
        trees = {name: values.tolist() for name, values in node_arrays(model).items()}
        rec = {"feature_dim": model.feature_dim, "n_classes": model.n_classes, "clustering": clustering_digest(y)}
        rec["feature_settings"] = {"window": 30, "feature_mode": "homography"}
        rec["trees"] = trees
        assert path.read_bytes() == _json_dump_bytes(rec, tmp_path / "want.json")
    model = KnnModel(x, y, 2, 30)
    path = tmp_path / "knn.json"
    model.save(path, tmp_path / "features.jsonl")
    assert path.read_bytes() == _json_dump_bytes({"features": "features.jsonl", "k": 30}, tmp_path / "want.json")


def forest_record():
    """A valid forest file: a leaf of classes 0 and 1, and a split on
    feature 1 into a leaf of class 0 and a leaf of class 1."""
    trees = {
        "roots": [0, 1],
        "feat": [-1, 1, -1, -1],
        "thresh": [0.0, 0.5, 0.0, 0.0],
        "right": [-1, 3, -1, -1],
        "leaf_ptr": [0, 2, 2, 3, 4],
        "leaf_class": [0, 1, 0, 1],
        "leaf_count": [1, 1, 2, 3],
    }
    return {"feature_dim": 2, "n_classes": 2, "trees": trees}


def _with_trees(**arrays):
    rec = forest_record()
    rec["trees"].update(arrays)
    return rec


MALFORMED_FOREST_RECORDS = [
    {**forest_record(), "feature_dim": None},
    {**forest_record(), "n_classes": [2]},
    {**forest_record(), "trees": 5},
    {**forest_record(), "trees": [5]},
    {**forest_record(), "trees": []},
    # the nested-dict format of older files
    {**forest_record(), "trees": [{"hist": [1, 1]}, {"feat": 1, "thresh": 0.5, "left": {"hist": [2, 0]}, "right": {"hist": [0, 3]}}]},
    {**forest_record(), "trees": {k: v for k, v in forest_record()["trees"].items() if k != "right"}},
    _with_trees(right=[-1, 1, -1, -1]),  # a split that is its own right child: a cycle
    _with_trees(right=[-1, 2, -1, -1]),  # the right child is the left one
    _with_trees(right=[-1, 4, -1, -1]),  # past the last node
    _with_trees(roots=[0, 1, 2], right=[-1, 3, -1, -1]),  # right child in the next tree
    _with_trees(feat=[-1, 2, -1, -1]),  # feature_dim is 2
    _with_trees(feat=[-2, 1, -1, -1]),  # a leaf is -1
    _with_trees(feat=[-1, 2.5, -1, -1]),
    _with_trees(feat=[-1, "1", -1, -1]),
    _with_trees(right=[-1, 3.5, -1, -1]),
    _with_trees(thresh=[0.0, None, 0.0, 0.0]),
    _with_trees(thresh=[0.0, 0.5, 0.0]),
    _with_trees(leaf_count=[1, 1, 2]),
    _with_trees(leaf_ptr=[0, 2, 1, 3, 4]),  # not monotone
    _with_trees(leaf_ptr=[0, 2, 2, 3, 4], leaf_class=[0, 1, 0, 1, 1], leaf_count=[1, 1, 2, 3, 1]),
    _with_trees(leaf_ptr=[1, 2, 2, 3, 4]),
    _with_trees(leaf_ptr=[0, 1, 2, 3, 4]),  # a split holding counts
    _with_trees(leaf_ptr=[0, 2, 2, 2, 4]),  # a leaf without counts
    _with_trees(leaf_class=[0, 1, 0, 2]),
    _with_trees(leaf_class=[0, 1, -1, 1]),
    _with_trees(leaf_class=[1, 0, 0, 1]),  # classes must increase within a leaf
    _with_trees(leaf_class=[1, 1, 0, 1]),
    _with_trees(leaf_count=[1, -3, 2, 3]),
    _with_trees(leaf_count=[1, float("nan"), 2, 3]),
    _with_trees(leaf_count=[1, float("inf"), 2, 3]),
    _with_trees(leaf_count=[1, 2.5, 2, 3]),
    _with_trees(leaf_count=[0, 0, 2, 3]),  # a zero-sum leaf
    _with_trees(roots=[]),
    _with_trees(roots=[0, 0]),
    _with_trees(roots=[1]),
    _with_trees(roots=[0, 1, 4]),
    _with_trees(roots=[[0, 1]]),
    _with_trees(feat=[-1, True, -1, -1]),  # NumPy would read true as 1
    _with_trees(leaf_count=[1, 1, 2, True]),
]


@pytest.mark.parametrize("rec", MALFORMED_FOREST_RECORDS)
def test_forest_file_with_fields_of_the_wrong_type_is_rejected(tmp_path, rec):
    path = tmp_path / "forest.json"
    path.write_text(json.dumps(forest_record()))
    good = ForestModel.load(path)
    assert np.array_equal(forest_proba_batch(good, [[0.0, 0.0], [0.0, 1.0]]), [[0.75, 0.25], [0.25, 0.75]])
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError) as info:
        ForestModel.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("features", None),
        ("classes", None),
        ("classes", [["a"]]),
        ("n_classes", None),
        ("n_classes", "two"),
        ("classes", [0, 1.9]),
        ("classes", [0, float("nan")]),
        ("n_classes", 2.5),
        ("classes", [0, True]),
        ("features", 5),
        ("features", [[0.0], [1.0]]),  # the rows themselves
        ("k", None),
        ("k", 0),
        ("k", 1.5),
        ("k", True),
        ("k", "1"),
    ],
)
def test_knn_file_with_fields_of_the_wrong_type_is_rejected(tmp_path, field, value):
    """A kNN file only names its feature file and holds its vote size k, an
    integer of at least 1. One that holds rows or classes, as files of older
    versions did, is rejected rather than read."""
    save_features(tmp_path / "features.jsonl", [0, 1], [[0.0], [1.0]])
    path = tmp_path / "knn.json"
    rec = {"features": "features.jsonl", "k": 1}
    path.write_text(json.dumps(rec))
    bank = bank_of([1, 0], 2)
    assert KnnModel.load(path, bank).classes.tolist() == [1, 0]
    path.write_text(json.dumps({**rec, field: value}))
    with pytest.raises(ValueError) as info:
        KnnModel.load(path, bank)
    assert str(path) in str(info.value)


def test_knn_index_and_model_check_their_shapes():
    with pytest.raises(ValueError, match=r"points must be \(n, d\)"):
        KnnIndex(np.zeros(3))
    with pytest.raises(DimMismatch, match="matching length"):
        KnnModel(np.zeros((3, 2)), [0, 1], 2, 1)
