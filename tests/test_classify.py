import json
import math
import sys

import numpy as np
import pytest

from egopose.classify import (
    ForestModel,
    _gini_split,
    _grow_tree,
    KnnIndex,
    KnnModel,
    constant_static,
    dynamic_sit_stand,
    forest_proba,
    forest_proba_batch,
    knn_proba,
    load_static,
    save_static,
    train_forest,
)
from egopose.clustering import SitStand
from egopose.errors import DegenerateLabels, DimMismatch, EmptyModel, InvalidProbability, LengthMismatch


def two_blobs(rng, n=500, d=8, margin=1.0):
    a = rng.normal(size=(n, d)) * 0.2
    b = rng.normal(size=(n, d)) * 0.2
    a[:, 0] -= margin / 2 + 0.5
    b[:, 0] += margin / 2 + 0.5
    x = np.vstack([a, b])
    y = np.array([0] * n + [1] * n)
    perm = rng.permutation(len(x))
    return x[perm], y[perm]


def walk_tree(tree, v):
    node = tree
    while "feat" in node:
        node = node["left"] if v[node["feat"]] <= node["thresh"] else node["right"]
    h = np.array(node["hist"], dtype=float)
    return h / h.sum()


def test_forest_oob_on_separable_blobs():
    rng = np.random.default_rng(0)
    x, y = two_blobs(rng, n=500, margin=1.0)
    model = train_forest(x, y, n_trees=25, seed=1)
    assert model.oob_accuracy is not None
    assert model.oob_accuracy > 0.95


def test_forest_default_is_100_trees():
    rng = np.random.default_rng(1)
    x, y = two_blobs(rng, n=30)
    model = train_forest(x, y, seed=0)
    assert len(model.trees) == 100


def test_forest_memorizes_single_point_per_class():
    # bootstrap resampling means trees whose sample misses a class cannot
    # vote for it, so the training class gets the plurality, not all of it
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    y = np.array([0, 1, 2])
    model = train_forest(x, y, n_trees=40, seed=3, compute_oob=False)
    for i in range(3):
        probs = forest_proba(model, x[i])
        assert probs.argmax() == i
        assert probs[i] > 0.5


def test_forest_rejects_degenerate_input():
    x = np.zeros((10, 3))
    with pytest.raises(DegenerateLabels):
        train_forest(x, np.zeros(10, dtype=int))
    with pytest.raises(DimMismatch):
        train_forest(x, np.array([0, 1]))


def test_forest_deterministic():
    rng = np.random.default_rng(2)
    x, y = two_blobs(rng, n=60)
    a = train_forest(x, y, n_trees=10, seed=5)
    b = train_forest(x, y, n_trees=10, seed=5)
    assert a.trees == b.trees


def test_forest_proba_is_distribution():
    rng = np.random.default_rng(3)
    x, y = two_blobs(rng, n=80)
    model = train_forest(x, y, n_trees=15, seed=0)
    for _ in range(30):
        p = forest_proba(model, rng.normal(size=x.shape[1]))
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_forest_proba_matches_manual_tree_walk():
    rng = np.random.default_rng(4)
    x, y = two_blobs(rng, n=60)
    model = train_forest(x, y, n_trees=12, seed=2)
    for _ in range(10):
        v = rng.normal(size=x.shape[1])
        ref = np.mean([walk_tree(t, v) for t in model.trees], axis=0)
        ref = ref / ref.sum()
        assert np.allclose(forest_proba(model, v), ref, atol=1e-12)


def test_forest_batch_equals_single():
    rng = np.random.default_rng(5)
    x, y = two_blobs(rng, n=50)
    model = train_forest(x, y, n_trees=8, seed=1)
    q = rng.normal(size=(20, x.shape[1]))
    batch = forest_proba_batch(model, q)
    for i in range(len(q)):
        ref = np.mean([walk_tree(t, q[i]) for t in model.trees], axis=0)
        assert np.allclose(batch[i], ref / ref.sum(), atol=1e-12)
        assert np.array_equal(batch[i], forest_proba(model, q[i]))


def _reference_grow_tree(x, y, idx, rng, n_classes, m_try):
    """The recursive grower: the stack-based _grow_tree must build the same
    dicts, key order included, from the same RNG draws."""
    sub_y = y[idx]
    hist = np.bincount(sub_y, minlength=n_classes)
    if len(idx) < 2 or hist.max() == len(idx):
        return {"hist": hist.tolist()}
    feats = rng.choice(x.shape[1], size=m_try, replace=False)
    best = None
    for f in feats:
        res = _gini_split(x[idx, f], sub_y, n_classes)
        if res is None:
            continue
        loss, thresh = res
        if best is None or loss < best[0]:
            best = (loss, int(f), thresh)
    if best is None:  # candidates all constant: no way to split
        return {"hist": hist.tolist()}
    _, feat, thresh = best
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
            got = _grow_tree(x, y, boot, rng_a, n_classes, m_try)
            want = _reference_grow_tree(x, y, boot, rng_b, n_classes, m_try)
            assert got == want
            assert json.dumps(got) == json.dumps(want)  # key order, as written to file
            assert rng_a.random() == rng_b.random()  # the same number of draws


def _chain_forest(depth, n_classes=3):
    """One tree whose splits nest depth levels deep: split i sends
    x[0] <= i + 0.5 to a leaf of class i % n_classes, the rest one level
    down, and the last level to a uniform leaf."""
    root = node = {}
    for i in range(depth):
        leaf = {"hist": [int(c == i % n_classes) for c in range(n_classes)]}
        node.update(feat=0, thresh=i + 0.5, left=leaf, right={})
        node = node["right"]
    node["hist"] = [1] * n_classes
    return ForestModel([root], 1, n_classes)


def test_deep_tree_needs_no_recursion_limit_change(tmp_path):
    q = np.array([[0.0], [1.2], [1500.0], [2998.9], [2999.7]])
    want = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1], [1 / 3, 1 / 3, 1 / 3]])
    rng = np.random.default_rng(13)
    x, y = two_blobs(rng, n=40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        model = _chain_forest(3000)
        assert np.array_equal(forest_proba_batch(model, q), want)
        assert np.array_equal(forest_proba(model, q[3]), want[3])
        assert sys.getrecursionlimit() == 1000
        path = tmp_path / "deep.json"
        model.save(path)
        assert sys.getrecursionlimit() == 1000
        back = ForestModel.load(path)
        assert sys.getrecursionlimit() == 1000
        assert np.array_equal(forest_proba_batch(back, q), want)
        trained = train_forest(x, y, n_trees=3, seed=0)
        forest_proba_batch(trained, x[:5])
        forest_proba(trained, x[0])
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize("bad", [-1, 2])
def test_class_ids_outside_range_are_rejected(tmp_path, bad):
    x = [[0.0], [1.0], [10.0], [11.0]]
    y = [0, 0, 1, bad]
    with pytest.raises(DimMismatch):
        KnnModel(x, y, 2)
    with pytest.raises(DimMismatch):
        train_forest(x, y, n_trees=2, n_classes=2)
    if bad < 0:
        with pytest.raises(DimMismatch):
            train_forest(x, y, n_trees=2)
    path = tmp_path / "knn.json"
    path.write_text(json.dumps({"n_classes": 2, "features": x, "classes": y, "pose_indices": None}))
    with pytest.raises(DimMismatch):
        KnnModel.load(path)


def test_forest_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    x, y = two_blobs(rng, n=40)
    model = train_forest(x, y, n_trees=5, seed=0)
    path = tmp_path / "forest.json"
    model.save(path)
    back = ForestModel.load(path)
    assert back.trees == model.trees
    assert back.feature_dim == model.feature_dim
    assert back.n_classes == model.n_classes


def test_knn_exact_match_single_neighbor():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 6))
    y = rng.integers(0, 12, size=50)
    y[17] = 9
    model = KnnModel(x, y, 12)
    probs = knn_proba(model, x[17], k=1)
    assert probs[9] == 1.0


def test_knn_full_vote_gives_class_frequencies():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 5, size=40)
    model = KnnModel(x, y, 5)
    probs = knn_proba(model, rng.normal(size=4), k=40)
    freq = np.bincount(y, minlength=5) / 40.0
    assert np.allclose(probs, freq)


def test_knn_distance_ties_take_lower_index():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    idx = KnnIndex(pts)
    assert list(idx.query(np.zeros(2), 2)) == [0, 1]
    assert idx.query_batch(np.zeros((1, 2)), 2).tolist() == [[0, 1]]


def test_knn_empty_training_raises():
    with pytest.raises(EmptyModel):
        KnnIndex(np.zeros((0, 3)))


def _whole_array_scan(pts, v, k):
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
            assert np.array_equal(idx.query(v, k), want)


def test_knn_batch_matches_single_queries():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(300, 20))
    y = rng.integers(0, 7, size=300)
    model = KnnModel(x, y, 7)
    q = np.concatenate([rng.normal(size=(40, 20)), x[:3]])
    probs = knn_proba(model, q, k=9)
    assert probs.shape == (43, 7)
    for v, row in zip(q, probs):
        assert np.array_equal(row, knn_proba(model, v, k=9))
    low_dim = KnnIndex(rng.normal(size=(300, 3)))
    vs = rng.normal(size=(10, 3))
    assert np.array_equal(low_dim.query_batch(vs, 4), np.stack([low_dim.query(v, 4) for v in vs]))
    with pytest.raises(DimMismatch):
        knn_proba(model, np.zeros((2, 19)))


def test_dynamic_sit_stand_rules():
    labels = [SitStand.SITTING_LIKE, SitStand.STANDING_LIKE]
    assert dynamic_sit_stand(np.array([1.0, 0.0]), labels) == SitStand.SITTING_LIKE
    assert dynamic_sit_stand(np.array([0.5, 0.5]), labels) == SitStand.STANDING_LIKE


def test_dynamic_sit_stand_matches_reference_summation():
    rng = np.random.default_rng(11)
    labels = [SitStand.SITTING_LIKE if b else SitStand.STANDING_LIKE for b in rng.integers(0, 2, size=10)]
    for _ in range(50):
        p = rng.dirichlet(np.ones(10))
        mass = sum(p[c] for c in range(10) if labels[c] == SitStand.SITTING_LIKE)
        want = SitStand.SITTING_LIKE if mass > 0.5 else SitStand.STANDING_LIKE
        assert dynamic_sit_stand(p, labels) == want


def test_constant_static_provider():
    h = constant_static(7)
    assert np.array_equal(h, np.full(7, 0.5))


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


def test_knn_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 3, size=20)
    model = KnnModel(x, y, 3, np.arange(20))
    path = tmp_path / "knn.json"
    model.save(path)
    back = KnnModel.load(path)
    assert np.allclose(back.features, x)
    assert np.array_equal(back.classes, y)
    assert back.n_classes == 3
    assert np.array_equal(back.pose_indices, np.arange(20))


@pytest.mark.parametrize("model_class", [ForestModel, KnnModel])
def test_model_file_holding_no_json_object_is_rejected(tmp_path, model_class):
    path = tmp_path / "model.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object") as info:
        model_class.load(path)
    assert str(path) in str(info.value)
