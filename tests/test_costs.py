import numpy as np
import pytest

from egopose.clustering import ExemplarBank, SitStand
from egopose.costs import CostParams, UnaryCosts, prune, unary_costs
from egopose.errors import InvalidProbability, LengthMismatch


def make_bank(rng, n=40, k=4, breaks=()):
    poses = rng.normal(size=(n, 75))
    cluster_of = rng.integers(0, k, size=n)
    return ExemplarBank.build(poses, cluster_of, list(breaks), k)


def alternating_labels(k):
    return [SitStand.SITTING_LIKE if c % 2 == 0 else SitStand.STANDING_LIKE for c in range(k)]


def test_params_validation():
    CostParams()  # defaults are legal
    with pytest.raises(Exception):
        CostParams(delta=-0.1)
    with pytest.raises(ValueError):
        CostParams(delta=float("nan"))
    with pytest.raises(ValueError):
        CostParams(tau=float("nan"))
    with pytest.raises(ValueError):
        CostParams(prune_threshold=float("nan"))
    with pytest.raises(Exception):
        CostParams(tau=0.5)
    with pytest.raises(Exception):
        CostParams(prune_threshold=1.0)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
def test_static_outside_unit_interval_rejected(bad):
    # NaN fails every tau comparison, so it would silently drop the prior
    rng = np.random.default_rng(0)
    bank = make_bank(rng)
    dists = np.full((3, bank.k), 1.0 / bank.k)
    with pytest.raises(InvalidProbability):
        unary_costs(dists, np.array([0.0, bad, 1.0]), bank, alternating_labels(bank.k))


def cost_at(out, n, pose):
    """The cost of exemplar pose at frame n, which must list it once."""
    (at,) = np.flatnonzero(out.indices[n] == pose)
    return out.costs[n][at]


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
    out = unary_costs(dists, np.array([0.995]), bank, labels, CostParams(delta=0.1, tau=0.99))
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
    params = CostParams(delta=0.1, tau=0.99)
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
    params = CostParams()
    out = unary_costs(dists, h, bank, labels, params)
    # the mask as it was built before: one label lookup per exemplar
    sitting_pose = np.array([labels[c] == SitStand.SITTING_LIKE for c in bank.cluster_of])
    for n in range(len(dists)):
        d = np.zeros(len(bank.poses))
        if h[n] >= params.tau:
            d[~sitting_pose] = params.delta
        elif h[n] <= 1.0 - params.tau:
            d[sitting_pose] = params.delta
        assert np.array_equal(out.costs[n], 1.0 - dists[n][bank.cluster_of] + d)


def test_costs_bounded_and_neutral_static_no_penalty():
    rng = np.random.default_rng(3)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    n_frames = 10
    dists = rng.dirichlet(np.ones(bank.k), size=n_frames)
    params = CostParams(delta=0.1, tau=0.99)
    out = unary_costs(dists, np.full(n_frames, 0.5), bank, labels, params)
    for n in range(n_frames):
        costs = out.costs[n]
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
    pruned = prune(out, dists, bank, CostParams(prune_threshold=0.01))
    for n in range(2):
        assert len(pruned.indices[n]) == 1
        assert pruned.indices[n][0] == 0  # argmax tie -> first pose


def test_prune_threshold_zero_is_identity():
    rng = np.random.default_rng(7)
    bank = make_bank(rng)
    labels = alternating_labels(bank.k)
    dists = rng.dirichlet(np.ones(bank.k), size=4)
    out = unary_costs(dists, np.full(4, 0.5), bank, labels)
    pruned = prune(out, dists, bank, CostParams(prune_threshold=0.0))
    for n in range(4):
        assert np.array_equal(pruned.indices[n], out.indices[n])
        assert np.array_equal(pruned.costs[n], out.costs[n])
        # no copies: a full-bank table is the largest array set of a decode
        assert pruned.indices[n] is out.indices[n] and pruned.costs[n] is out.costs[n]
    # every frame lists the whole bank through one shared read-only array
    assert all(i is out.indices[0] for i in out.indices)
    assert not out.indices[0].flags.writeable


def test_prune_matches_reference_filter():
    rng = np.random.default_rng(8)
    bank = make_bank(rng, n=60, k=6)
    labels = alternating_labels(bank.k)
    dists = rng.dirichlet(np.ones(bank.k) * 0.3, size=8)
    out = unary_costs(dists, np.full(8, 0.5), bank, labels)
    thr = 0.05
    pruned = prune(out, dists, bank, CostParams(prune_threshold=thr))
    for n in range(8):
        ref = [i for i in range(len(bank.poses)) if dists[n][bank.cluster_of[i]] > thr]
        if not ref:
            probs = dists[n][bank.cluster_of]
            ref = [int(probs.argmax())]
        assert list(pruned.indices[n]) == ref


def test_prune_keeps_argmin_above_threshold():
    rng = np.random.default_rng(9)
    bank = make_bank(rng, n=40, k=5)
    labels = alternating_labels(bank.k)
    for _ in range(20):
        dists = rng.dirichlet(np.ones(bank.k), size=3)
        out = unary_costs(dists, np.full(3, 0.5), bank, labels)
        pruned = prune(out, dists, bank, CostParams(prune_threshold=0.01))
        for n in range(3):
            best = out.indices[n][int(np.argmin(out.costs[n]))]
            if dists[n][bank.cluster_of[best]] > 0.01:
                assert best in pruned.indices[n]
