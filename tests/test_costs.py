import numpy as np
import pytest

from egopose.clustering import ExemplarBank, SitStand
from egopose.costs import prune, unary_costs
from egopose.errors import InvalidProbability, LengthMismatch
from egopose.pathopt import PathParams, Trellis


def make_bank(rng, n=40, k=4, breaks=()):
    poses = rng.normal(size=(n, 75))
    cluster_of = rng.integers(0, k, size=n)
    return ExemplarBank.build(poses, cluster_of, list(breaks), k)


def alternating_labels(k):
    return [SitStand.SITTING_LIKE if c % 2 == 0 else SitStand.STANDING_LIKE for c in range(k)]


def test_params_validation():
    PathParams()  # defaults are legal
    with pytest.raises(Exception):
        PathParams(delta=-0.1)
    with pytest.raises(ValueError):
        PathParams(delta=float("nan"))
    with pytest.raises(ValueError):
        PathParams(tau=float("nan"))
    with pytest.raises(ValueError):
        PathParams(prune_threshold=float("nan"))
    with pytest.raises(Exception):
        PathParams(tau=0.5)
    with pytest.raises(Exception):
        PathParams(prune_threshold=1.0)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_static_outside_unit_interval_rejected(bad):
    # NaN fails every tau comparison, so it would silently drop the prior
    rng = np.random.default_rng(0)
    bank = make_bank(rng)
    dists = np.full((3, bank.k), 1.0 / bank.k)
    with pytest.raises(InvalidProbability):
        unary_costs(dists, np.array([0.0, bad, 1.0]), bank, alternating_labels(bank.k))


@pytest.mark.parametrize("row", [[float("nan"), 1.0], [1.5, -0.5], [float("inf"), 0.0], [0.5, -1e-300]])
def test_cluster_probability_outside_unit_interval_rejected(row):
    # a NaN row used to end in Infeasible("no finite-energy path"), and
    # [1.5, -0.5] in negative costs
    bank = ExemplarBank.build(np.random.default_rng(1).normal(size=(10, 75)), [0] * 5 + [1] * 5, [], 2)
    dists = np.array([[0.5, 0.5], [0.5, 0.5], row])
    bad = int(np.flatnonzero(~((dists[2] >= 0) & (dists[2] <= 1)))[0])
    with pytest.raises(InvalidProbability, match=rf"at frame 2, cluster {bad} is not in \[0, 1\]"):
        unary_costs(dists, np.full(3, 0.5), bank, alternating_labels(2))
    edge = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]])  # the interval's ends are probabilities
    assert unary_costs(edge, np.full(3, 0.5), bank, alternating_labels(2)).table.min() == 0.0


def cost_at(out, n, pose):
    """The cost of exemplar pose at frame n, which must list it once."""
    (at,) = np.flatnonzero(out.indices[n] == pose)
    return out.frame(n)[1][at]


def test_perfect_confidence_neutral_static_gives_zero():
    rng = np.random.default_rng(0)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    pose = 7
    c = bank.cluster_of[pose]
    dists = np.zeros((1, bank.k))
    dists[0, c] = 1.0
    out = unary_costs(dists, np.array([0.5]), bank, labels)
    assert cost_at(out, 0, pose) == 0.0


def test_paper_arithmetic_standing_pose_confident_sit():
    # probs at the pose's cluster 0.6, h = 0.995 > tau -> e = 0.4 + 0.1
    rng = np.random.default_rng(1)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    standing = [i for i in range(len(bank.poses)) if labels[bank.cluster_of[i]] == SitStand.STANDING_LIKE]
    pose = standing[0]
    c = bank.cluster_of[pose]
    dists = np.full((1, bank.k), (1.0 - 0.6) / (bank.k - 1))
    dists[0, c] = 0.6
    out = unary_costs(dists, np.array([0.995]), bank, labels, PathParams(delta=0.1, tau=0.99))
    assert cost_at(out, 0, pose) == pytest.approx(0.5, abs=1e-12)


def test_full_table_matches_scalar_reference():
    rng = np.random.default_rng(2)
    bank = make_bank(rng, n=30, k=5)
    labels = alternating_labels(bank.k)
    n_frames = 6
    dists = rng.dirichlet(np.ones(bank.k), size=n_frames)
    h = rng.uniform(size=n_frames)
    h[2] = 0.995
    h[4] = 0.002
    params = PathParams(delta=0.1, tau=0.99)
    out = unary_costs(dists, h, bank, labels, params)
    for n in range(n_frames):
        for i in range(len(bank.poses)):
            c = bank.cluster_of[i]
            d = 0.0
            if h[n] >= params.tau and labels[c] == SitStand.STANDING_LIKE:
                d = params.delta
            elif h[n] <= 1.0 - params.tau and labels[c] == SitStand.SITTING_LIKE:
                d = params.delta
            assert cost_at(out, n, i) == pytest.approx(1.0 - dists[n][c] + d, abs=1e-12)


def test_costs_equal_the_per_exemplar_label_mask():
    rng = np.random.default_rng(12)
    bank = make_bank(rng, n=3000, k=30)
    labels = [SitStand.SITTING_LIKE if c % 3 == 0 else SitStand.STANDING_LIKE for c in range(bank.k)]
    dists = rng.dirichlet(np.ones(bank.k), size=8)
    h = np.array([0.5, 0.995, 0.002, 1.0, 0.0, 0.99, 0.01, 0.7])
    params = PathParams()
    out = unary_costs(dists, h, bank, labels, params)
    # the mask as it was built before: one label lookup per exemplar
    sitting_pose = np.array([labels[c] == SitStand.SITTING_LIKE for c in bank.cluster_of])
    for n in range(len(dists)):
        d = np.zeros(len(bank.poses))
        if h[n] >= params.tau:
            d[~sitting_pose] = params.delta
        elif h[n] <= 1.0 - params.tau:
            d[sitting_pose] = params.delta
        assert np.array_equal(out.frame(n)[1], 1.0 - dists[n][bank.cluster_of] + d)


def test_costs_bounded_and_neutral_static_no_penalty():
    rng = np.random.default_rng(3)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    n_frames = 10
    dists = rng.dirichlet(np.ones(bank.k), size=n_frames)
    params = PathParams(delta=0.1, tau=0.99)
    out = unary_costs(dists, np.full(n_frames, 0.5), bank, labels, params)
    for n in range(n_frames):
        costs = out.frame(n)[1]
        assert np.all(costs >= 0.0)
        assert np.all(costs <= 1.0 + params.delta + 1e-12)
        # h = 0.5 with tau > 0.5 must leave d = 0 everywhere
        base = 1.0 - dists[n][bank.cluster_of]
        assert np.allclose(costs, base)


def test_length_mismatch():
    rng = np.random.default_rng(4)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    dists = rng.dirichlet(np.ones(bank.k), size=3)
    with pytest.raises(LengthMismatch):
        unary_costs(dists, np.full(2, 0.5), bank, labels)


def test_prune_uniform_below_threshold_keeps_fallback():
    rng = np.random.default_rng(6)
    bank = make_bank(rng, n=50, k=4)
    labels = alternating_labels(bank.k)
    k300 = 300  # uniform over 300 clusters sits below the 0.01 threshold
    dists = np.full((2, bank.k), 1.0 / k300)
    out = unary_costs(dists, np.full(2, 0.5), bank, labels)
    pruned = prune(out, dists, 0.01)
    assert pruned.keep.tolist() == [[True, False, False, False]] * 2  # argmax tie -> cluster 0
    for n in range(2):
        assert np.array_equal(pruned.indices[n], np.flatnonzero(bank.cluster_of == 0))


def fallback_bank():
    """Clusters 2, 0 and 3 in index order; cluster 1 has no pose."""
    return ExemplarBank.build(np.random.default_rng(5).normal(size=(6, 75)), [2, 2, 0, 0, 3, 3], [], 4)


def test_prune_fallback_keeps_the_whole_most_probable_nonempty_cluster():
    bank = fallback_bank()
    dists = np.array(
        [
            [0.004, 0.0, 0.006, 0.002],  # nothing passes: cluster 2 is the most probable
            [0.005, 0.0, 0.005, 0.002],  # a tie: the smaller cluster id, though cluster 2 holds pose 0
            [0.004, 0.9, 0.003, 0.006],  # only the empty cluster passes: cluster 3
            [0.0, 0.9, 0.0, 0.0],  # only the empty cluster has mass: all tie, cluster 0
            [0.02, 0.9, 0.004, 0.006],  # cluster 0 passes: no fallback
        ]
    )
    out = unary_costs(dists, np.full(len(dists), 0.5), bank, alternating_labels(bank.k))
    pruned = prune(out, dists, 0.01)
    assert [idx.tolist() for idx in pruned.indices] == [[0, 1], [2, 3], [4, 5], [2, 3], [2, 3]]
    for n, idx in enumerate(pruned.indices):
        assert np.array_equal(pruned.frame(n)[1], out.table[n][bank.cluster_of[idx]])


def test_prune_threshold_zero_is_identity():
    rng = np.random.default_rng(7)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    dists = rng.dirichlet(np.ones(bank.k), size=4)
    out = unary_costs(dists, np.full(4, 0.5), bank, labels)
    # no copies: costs live once per (frame, cluster), and prune at 0 returns its input
    assert out.table.shape == (4, bank.k)
    assert prune(out, dists, 0.0) is out
    # every frame keeps every column through one read-only broadcast True
    assert out.keep.shape == out.table.shape and out.keep.all()
    assert out.keep.strides == (0, 0) and not out.keep.flags.writeable
    # it is the trellis the solvers read: no frame holds a copy of its costs
    assert Trellis.from_costs(out, bank) is out
    assert set(vars(out)) == {"table", "column_of", "keep", "bank"}
    for n in range(4):
        idx, e = out.frame(n)
        assert np.array_equal(idx, np.arange(len(bank.poses)))
        assert np.array_equal(e, out.table[n][bank.cluster_of])


@pytest.mark.parametrize("thr", [-0.01, 1.0, 1.5, float("nan")])
def test_prune_rejects_a_threshold_outside_zero_one(thr):
    """prune checks its threshold as PathParams checks prune_threshold."""
    rng = np.random.default_rng(7)
    bank = make_bank(rng)
    dists = rng.dirichlet(np.ones(bank.k), size=4)
    out = unary_costs(dists, np.full(4, 0.5), bank, alternating_labels(bank.k))
    with pytest.raises(ValueError, match=r"^prune threshold must lie in \[0, 1\)$"):
        prune(out, dists, thr)


def reference_prune(dists, bank, thr):
    """Per frame, the ascending poses of the clusters above thr, or else of
    the most probable cluster that has a pose (ties -> smaller id)."""
    kept = []
    for probs in dists:
        idx = [i for i in range(len(bank.poses)) if probs[bank.cluster_of[i]] > thr]
        if not idx:
            best = max(set(bank.cluster_of.tolist()), key=lambda c: (probs[c], -c))
            idx = [i for i in range(len(bank.poses)) if bank.cluster_of[i] == best]
        kept.append(idx)
    return kept


def test_prune_matches_reference_filter():
    rng = np.random.default_rng(8)
    bank = make_bank(rng, n=60, k=6)
    labels = alternating_labels(bank.k)
    dists = rng.dirichlet(np.ones(bank.k) * 0.3, size=8)
    out = unary_costs(dists, np.full(8, 0.5), bank, labels)
    thr = 0.05
    pruned = prune(out, dists, thr)
    assert [idx.tolist() for idx in pruned.indices] == reference_prune(dists, bank, thr)


@pytest.mark.parametrize("thr", [1e-6, 0.05, 0.3, 0.9])
def test_prune_equals_filtering_the_shared_full_bank_arange(thr):
    rng = np.random.default_rng(10)
    bank = make_bank(rng, n=80, k=7)
    bank = ExemplarBank.build(bank.poses, np.where(bank.cluster_of == 6, 0, bank.cluster_of), [], 7)  # 6 is empty
    dists = rng.dirichlet(np.ones(bank.k), size=12)
    dists[0] = 1.0 / bank.k  # every cluster above the lower thresholds
    dists[1] = np.eye(bank.k)[6]  # only the empty cluster passes: the fallback
    out = unary_costs(dists, np.full(12, 0.5), bank, alternating_labels(bank.k))
    pruned = prune(out, dists, thr)
    assert pruned.table is out.table
    for n, idx in enumerate(out.indices):
        assert np.array_equal(idx, np.arange(len(bank.poses)))  # the full bank, derived per frame
        want = idx[(dists[n] > thr)[bank.cluster_of[idx]]]
        if not len(want):
            probs = np.where(np.bincount(bank.cluster_of, minlength=bank.k) > 0, dists[n], -1.0)
            want = idx[bank.cluster_of[idx] == probs.argmax()]
        assert np.array_equal(pruned.indices[n], want)
    assert pruned.indices[1].tolist() == np.flatnonzero(bank.cluster_of == 0).tolist()
    with pytest.raises(ValueError, match="every bank pose"):
        prune(pruned, dists, thr)


def test_prune_keeps_argmin_above_threshold():
    rng = np.random.default_rng(9)
    bank = make_bank(rng, n=40, k=5)
    labels = alternating_labels(bank.k)
    for _ in range(20):
        dists = rng.dirichlet(np.ones(bank.k), size=3)
        out = unary_costs(dists, np.full(3, 0.5), bank, labels)
        pruned = prune(out, dists, 0.01)
        for n in range(3):
            best = out.indices[n][int(np.argmin(out.frame(n)[1]))]
            if dists[n][bank.cluster_of[best]] > 0.01:
                assert best in pruned.indices[n]


def test_distribution_width_and_labels_must_match_the_bank():
    rng = np.random.default_rng(3)
    bank = make_bank(rng)
    dists = np.full((2, bank.k), 1.0 / bank.k)
    with pytest.raises(LengthMismatch, match="match bank clusters"):
        unary_costs(dists[:, 1:], np.full(2, 0.5), bank, alternating_labels(bank.k))
    with pytest.raises(LengthMismatch, match="match bank clusters"):
        unary_costs(dists, np.full(2, 0.5), bank, alternating_labels(bank.k - 1))
