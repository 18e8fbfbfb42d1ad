import json
import re

import numpy as np
import pytest

from egopose import PathParams, brute_force, solve_exact_dp, solve_paper_dp, step_weight
from egopose.clustering import (
    ClusterModel,
    ExemplarBank,
    SitStand,
    assign_clusters,
    build_neighbor_graph,
    hip_heights,
    kmeans,
    label_clusters,
    sit_stand_threshold,
)
from egopose.errors import TooFewPoses
from egopose.sqdist import SAFE_NORM, rounding_margin
from egopose.skeleton import Frame, Joint, Pose, normalize_pose
from egopose.synth import SIT_TEMPLATE, STAND_TEMPLATE
from trellis_util import trellis_of

UP = np.array([0.0, 0.0, 1.0])


def template_vector(template):
    return normalize_pose(Pose(template.copy(), Frame.SENSOR), UP).to_vector()


def _reference_kmeans(x, k, seed, max_iters=100):
    """kmeans as it was before its seeding skip, blocked assignment and
    sorted update: (centroids, objective, n_iter, converged, the set of
    branches taken: "zero total" and "reseed")."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    rng = np.random.default_rng(seed)
    branches = set()

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            branches.add("zero total")
            centroids[c] = x[rng.integers(n)]
        else:
            centroids[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))

    assign = None
    prev_obj = np.inf
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iters + 1):
        dist = (x * x).sum(axis=1)[:, None] + (centroids * centroids).sum(axis=1)[None, :] - 2.0 * (x @ centroids.T)
        dist = np.maximum(dist, 0.0)
        new_assign = dist.argmin(axis=1)
        obj = float(((x - centroids[new_assign]) ** 2).sum())
        prev_obj = obj
        if assign is not None and np.array_equal(new_assign, assign):
            converged = True
            assign = new_assign
            break
        assign = new_assign

        counts = np.bincount(assign, minlength=k)
        for c in range(k):
            if counts[c] > 0:
                centroids[c] = x[assign == c].mean(axis=0)
        empties = np.flatnonzero(counts == 0)
        if len(empties) > 0:
            branches.add("reseed")
            point_d = dist[np.arange(n), assign].copy()
            for c in empties:
                far = int(point_d.argmax())
                centroids[c] = x[far]
                point_d[far] = -1.0
    return centroids.copy(), prev_obj, n_iter, converged, branches


def _kmeans_cases():
    """(name, x, k, seed, max_iters, branches the reference must take)."""
    rng = np.random.default_rng(21)
    blobs = np.repeat(rng.normal(size=(6, 75)), 40, axis=0) + 0.05 * rng.normal(size=(240, 75))
    plane = np.zeros((10, 75))  # seed 0 leaves a cluster empty after its first update
    plane[:, 0] = [-2.3, -0.1, 0, 0, 0, 5.3, -0.1, 4.8, 1.2, -0.5]
    plane[:, 1] = [4.2, 0, -1.4, -0.1, 0, -4.3, 0.3, -1.7, 0.2, -0.9]
    few = rng.normal(size=(5, 75))
    line = np.zeros((60, 75))
    line[:, 3] = np.sort(rng.integers(0, 5, size=60))  # exact ties on 5 integer points
    lattice = rng.integers(-1, 2, size=(90, 75)).astype(float)  # exact, often equidistant
    return [
        ("random", rng.normal(size=(300, 75)), 7, 3, 100, set()),
        ("blocks of the assignment pass", rng.normal(size=(3001, 75)), 8, 4, 100, set()),
        ("duplicate rows", few[rng.integers(0, 5, size=50)], 8, 5, 100, {"zero total", "reseed"}),
        ("equidistant ties", lattice, 6, 6, 100, set()),
        ("integer points on a line", line, 9, 7, 100, {"zero total", "reseed"}),
        ("empty cluster after an update", plane, 4, 0, 100, {"reseed"}),
        ("n == k", rng.normal(size=(12, 75)), 12, 9, 100, set()),
        ("all rows identical", np.tile(rng.integers(-3, 4, size=75), (20, 1)), 3, 10, 100, {"zero total", "reseed"}),
        ("k == 1", rng.normal(size=(50, 75)), 1, 11, 100, set()),
        ("cut before convergence", blobs, 12, 12, 2, set()),
        ("no iterations", blobs, 5, 13, 0, set()),
        ("tiny rows, squares underflow", 1e-160 * rng.normal(size=(200, 75)), 6, 14, 100, set()),
        ("huge rows", 2.0**480 * rng.normal(size=(200, 75)), 6, 15, 100, set()),
    ]


_KMEANS_CASES = _kmeans_cases()


@pytest.mark.parametrize("name, x, k, seed, max_iters, branches", _KMEANS_CASES, ids=[c[0] for c in _KMEANS_CASES])
def test_kmeans_equals_the_plain_reference(name, x, k, seed, max_iters, branches):
    centroids, objective, n_iter, converged, taken = _reference_kmeans(x, k, seed, max_iters)
    m = kmeans(x, k, seed, max_iters)
    assert branches <= taken
    assert np.array_equal(m.centroids, centroids)
    assert m.objective == objective and m.n_iter == n_iter and m.converged == converged
    assert converged == (name not in ("cut before convergence", "no iterations"))
    # the assignment is that of the returned centroids, by the plain formula
    plain = np.maximum((x * x).sum(axis=1)[:, None] + (centroids * centroids).sum(axis=1) - 2.0 * (x @ centroids.T), 0.0)
    assert np.array_equal(m.assignment, plain.argmin(axis=1))
    assert np.array_equal(m.assignment, assign_clusters(m, x))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1e200, 2.0**511])
def test_kmeans_rejects_a_row_beyond_the_bound_before_seeding(bad, k):
    # with k >= 2 such a row used to end in "probabilities contain NaN", and
    # with k == 1 in an AssertionError
    x = np.random.default_rng(16).normal(size=(10, 75))
    x[6, 40] = bad
    with pytest.raises(ValueError, match=r"pose row 6 is not finite or its squared norm exceeds 2\*\*1020"):
        kmeans(x, k, seed=0)
    x[6, 40] = 2.0**510  # a squared norm of 2**1020 is still covered
    centroids, objective, _, _, _ = _reference_kmeans(x, k, 0)
    m = kmeans(x, k, seed=0)
    assert np.array_equal(m.centroids, centroids) and m.objective == objective


@pytest.mark.parametrize("k", [1, 3])
def test_kmeans_rejects_rows_whose_distance_sums_could_overflow(k):
    # every row is within the per-row bound, but 200 of them used to
    # overflow the seeding's d2.sum() (k = 3) and end in numpy's
    # "Probabilities do not sum to 1", which names no row
    x = 2.0**505 * np.random.default_rng(17).normal(size=(200, 75))
    big = int((x * x).sum(axis=1).argmax())
    with pytest.raises(ValueError, match=rf"pose row {big} has squared norm .*: .* of 200 rows could overflow"):
        kmeans(x, k, seed=0)
    # fewer rows at that scale, or rows just inside the per-row bound, are
    # covered, and equal the plain algorithm
    edge = np.zeros((6, 75))  # B = (4 + 4 + 1.5^2 + 3) 2^1020
    edge[:3, :2] = [[2.0**510, 0.0], [-(2.0**510), 0.0], [0.0, 2.0**509]]
    for ok in (x[:20], edge):
        centroids, objective, _, _, _ = _reference_kmeans(ok, k, 0)
        m = kmeans(ok, k, seed=0)
        assert np.array_equal(m.centroids, centroids) and m.objective == objective
    edge[5, 3] = 2.0**510  # B = (4 + 4 + 1.5^2 + 2 + 4) 2^1020 leaves less than 1/16
    with pytest.raises(ValueError, match="pose row 0 has squared norm"):
        kmeans(edge, k, seed=0)


def test_rounding_margin_covers_the_proven_error_bounds():
    # approx is within 2 gamma_d + 3u and the exact float within
    # 2 gamma_{d+2} of the real distance, in units of |p|^2 + |v|^2
    u = 2.0**-53

    def gamma(n):
        return n * u / (1 - n * u)

    norms = np.array([2.0**-1000, 1e-300, 1.0, 3.7e5, SAFE_NORM * 2])
    for d in (1, 2, 75, 261, 10_000):
        need = (2 * gamma(d) + 3 * u + 2 * gamma(d + 2)) * norms
        assert np.all(rounding_margin(norms, d) > need)
        assert rounding_margin(np.zeros(1), d)[0] == (d + 3) * 2.0**-1071  # products that underflow


def test_kmeans_saturated_k_zero_objective():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 75))
    m = kmeans(x, 8, seed=1)
    assert m.objective == pytest.approx(0.0, abs=1e-18)
    # every point is its own centroid
    got = {tuple(np.round(c, 12)) for c in m.centroids}
    want = {tuple(np.round(v, 12)) for v in x}
    assert got == want


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(1)
    centers = np.zeros((3, 75))
    centers[1, 0] = 1.0
    centers[2, 1] = 1.5
    pts = np.vstack([c + 0.01 * rng.normal(size=(50, 75)) for c in centers])
    m = kmeans(pts, 3, seed=2)
    for c in centers:
        best = np.linalg.norm(m.centroids - c, axis=1).min()
        assert best < 0.05


def test_kmeans_too_few_poses():
    with pytest.raises(TooFewPoses):
        kmeans(np.zeros((2, 75)), 3, seed=0)


@pytest.mark.parametrize("k", [0, -3])
def test_kmeans_rejects_k_below_one(k):
    with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
        kmeans(np.zeros((5, 75)), k, seed=0)


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(60, 75))
    a = kmeans(x, 5, seed=7)
    b = kmeans(x, 5, seed=7)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_objective_matches_recomputation():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 75))
    m = kmeans(x, 4, seed=0)
    assign = assign_clusters(m, x)
    obj = sum(np.sum((x[i] - m.centroids[assign[i]]) ** 2) for i in range(len(x)))
    assert m.objective == pytest.approx(obj, rel=1e-9)


def test_assign_cluster_exact_centroid_and_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 75))
    m = kmeans(x, 9, seed=0)
    for j in range(len(m.centroids)):
        assert assign_clusters(m, m.centroids[j][None])[0] == j
    assert assign_clusters(m, m.centroids[7][None])[0] == 7


def test_assign_cluster_tie_takes_lower_id():
    centroids = np.zeros((3, 75))
    centroids[0, 0] = -1.0
    centroids[2, 0] = 1.0  # clusters 0 and 2 equidistant from origin; 1 far away
    centroids[1, 1] = 50.0
    m = ClusterModel(centroids)
    v = np.zeros(75)
    assert assign_clusters(m, v[None])[0] == 0


def test_assign_cluster_matches_linear_scan():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 75))
    m = kmeans(x, 6, seed=1)
    for _ in range(25):
        v = rng.normal(size=75)
        dists = [np.linalg.norm(v - c) for c in m.centroids]
        assert assign_clusters(m, v[None])[0] == int(np.argmin(dists))


def test_hip_height_of_templates():
    stand, sit = hip_heights(np.stack([template_vector(STAND_TEMPLATE), template_vector(SIT_TEMPLATE)]))
    # standing hips sit far above the ankles; roughly half a unit for a
    # 1.7 m figure with 0.3 m shoulders
    assert 0.3 < stand < 0.8
    assert sit < stand / 2.0


def _reference_hip_height(v):
    """The per-vector body hip_height had before hip_heights."""
    v = np.asarray(v, dtype=float)
    hips = v[[3 * Joint.HipLeft + 2, 3 * Joint.HipRight + 2]]
    ankles = v[[3 * Joint.AnkleLeft + 2, 3 * Joint.AnkleRight + 2]]
    return float(hips.mean() - ankles.mean())


def test_hip_heights_equal_the_per_pose_reference():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5000, 75)) * 10.0 ** rng.uniform(-3, 3, size=(5000, 1))
    want = np.array([_reference_hip_height(v) for v in x])
    assert np.array_equal(hip_heights(x), want)
    assert hip_heights(x[17:18])[0] == want[17]
    assert hip_heights(np.zeros((0, 75))).shape == (0,)


def test_label_clusters_equal_the_per_centroid_reference():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2000, 75))
    m = ClusterModel(rng.normal(size=(40, 75)))
    theta = sit_stand_threshold(np.array([_reference_hip_height(v) for v in x]))
    want = [SitStand.SITTING_LIKE if _reference_hip_height(c) < theta else SitStand.STANDING_LIKE for c in m.centroids]
    assert label_clusters(m, sit_stand_threshold(hip_heights(x))) == want == m.labels
    assert label_clusters(m, 0.0) == [
        SitStand.SITTING_LIKE if _reference_hip_height(c) < 0.0 else SitStand.STANDING_LIKE for c in m.centroids
    ]


def test_sit_stand_threshold_is_midpoint_of_modes():
    rng = np.random.default_rng(6)
    lo = 0.2 + 0.01 * rng.normal(size=200)
    hi = 0.55 + 0.01 * rng.normal(size=300)
    theta = sit_stand_threshold(np.concatenate([lo, hi]))
    # 2-means on well-separated modes converges to the two sample means
    assert theta == pytest.approx((lo.mean() + hi.mean()) / 2.0, abs=1e-3)


def test_label_clusters_hips_at_ankle_height():
    sit_vec = template_vector(SIT_TEMPLATE).copy()
    # force hips all the way down to the ankles
    sit_mat = sit_vec.reshape(25, 3)
    ankle_z = (sit_mat[Joint.AnkleLeft, 2] + sit_mat[Joint.AnkleRight, 2]) / 2.0
    sit_mat[Joint.HipLeft, 2] = ankle_z
    sit_mat[Joint.HipRight, 2] = ankle_z
    stand_vec = template_vector(STAND_TEMPLATE)
    m = ClusterModel(np.stack([sit_mat.reshape(-1), stand_vec]))
    train = np.stack([sit_mat.reshape(-1)] * 10 + [stand_vec] * 10)
    labels = label_clusters(m, sit_stand_threshold(hip_heights(train)))
    assert labels[0] == SitStand.SITTING_LIKE
    assert labels[1] == SitStand.STANDING_LIKE


def _rows(adjacent):
    """The neighbor ids in each row of an adjacency table."""
    return [np.flatnonzero(row) for row in adjacent]


def test_neighbor_graph_single_transition():
    adjacent = build_neighbor_graph(np.array([0, 0, 1, 1]), [], k=2)
    assert adjacent.dtype == bool and adjacent.shape == (2, 2)
    nbrs = _rows(adjacent)
    assert set(nbrs[0]) == {0, 1}
    assert set(nbrs[1]) == {0, 1}


def test_neighbor_graph_break_blocks_adjacency():
    nbrs = _rows(build_neighbor_graph(np.array([0, 1]), [1], k=2))
    assert set(nbrs[0]) == {0}
    assert set(nbrs[1]) == {1}


def test_neighbor_graph_matches_reference_scan():
    rng = np.random.default_rng(7)
    seq = rng.integers(0, 12, size=1000)
    breaks = sorted(rng.choice(np.arange(1, 1000), size=6, replace=False))
    breaks = [1] + breaks + [999]  # the second pose and the last pose start sequences
    nbrs = _rows(build_neighbor_graph(seq, breaks, k=12))
    ref = [{c} for c in range(12)]
    bset = set(breaks)
    for i in range(999):
        if (i + 1) not in bset:
            ref[seq[i]].add(int(seq[i + 1]))
            ref[seq[i + 1]].add(int(seq[i]))
    for c in range(12):
        assert nbrs[c].tolist() == sorted(ref[c])


def test_neighbor_graph_invariants_on_random_data():
    rng = np.random.default_rng(8)
    seq = rng.integers(0, 8, size=300)
    nbrs = _rows(build_neighbor_graph(seq, [100, 200], k=8))
    for c in range(8):
        assert c in set(int(x) for x in nbrs[c])
        for b in nbrs[c]:
            assert c in set(int(x) for x in nbrs[int(b)])
    # adjacency closure
    for i in range(299):
        if (i + 1) in (100, 200):
            continue
        assert seq[i + 1] in set(int(x) for x in nbrs[seq[i]])


def make_bank(rng, n=60, k=5, breaks=(20, 40)):
    poses = rng.normal(size=(n, 75))
    cluster_of = rng.integers(0, k, size=n)
    return ExemplarBank.build(poses, cluster_of, list(breaks), k)


def test_bank_crosses_break():
    rng = np.random.default_rng(9)
    bank = make_bank(rng)
    assert not bank.crosses_break(5, 10)
    assert bank.crosses_break(19, 20)
    assert bank.crosses_break(10, 45)
    assert bank.crosses_break(45, 10)  # symmetric in the endpoints
    assert not bank.crosses_break(20, 39)
    assert bank.segment_of.tolist() == [0] * 20 + [1] * 20 + [2] * 20


def _bank_file(tmp_path, **fields):
    """bank.json for poses in clusters 0, 0, 0, 1, 1, 1 with the given
    fields written as they are."""
    bank = ExemplarBank.build(np.random.default_rng(14).normal(size=(6, 75)), [0, 0, 0, 1, 1, 1], [], 2)
    path = tmp_path / "bank.json"
    bank.save(path)
    rec = json.loads(path.read_text())
    rec.update(fields)
    path.write_text(json.dumps(rec))
    return path


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", "2"),
        ("cluster_of", None),
        ("cluster_of", [[0]] * 6),
        ("sequence_breaks", [[1]]),
        ("k", None),
        ("poses_file", 5),
        ("cluster_of", [0, 0, 0.5, 1.7, 1, 1]),
        ("sequence_breaks", [2.6]),
        ("k", 2.9),
        ("cluster_of", [0, 0, 0, True, 1, 1]),
        ("sequence_breaks", [True]),
    ],
)
def test_bank_file_with_fields_of_the_wrong_type_is_rejected(tmp_path, field, value):
    path = _bank_file(tmp_path, **{field: value})
    with pytest.raises(ValueError) as info:
        ExemplarBank.load(path)
    assert str(path) in str(info.value)


def test_bank_file_of_the_older_format_loads_to_the_same_graph(tmp_path):
    # older files also held the graph, as the sorted neighbor ids of each cluster
    bank = make_bank(np.random.default_rng(13))
    path = tmp_path / "bank.json"
    bank.save(path)
    rec = json.loads(path.read_text())
    assert "neighbors" not in rec
    rec["neighbors"] = [np.flatnonzero(row).tolist() for row in bank.adjacent]
    path.write_text(json.dumps(rec))
    back = ExemplarBank.load(path)
    assert np.array_equal(back.adjacent, bank.adjacent)
    assert [nb.tolist() for nb in back.neighbors] == rec["neighbors"]


@pytest.mark.parametrize("neighbors", [[[0], [1]], [[0, 1, 7], [1]], [[1, 0], [1, 0, 1]], 5])
def test_bank_file_neighbor_lists_are_not_read(tmp_path, neighbors):
    # clusters 0, 0, 0, 1, 1, 1 in one sequence: 0 and 1 are neighbors,
    # whatever a stale neighbors key says
    derived = ExemplarBank.load(_bank_file(tmp_path))
    bank = ExemplarBank.load(_bank_file(tmp_path, neighbors=neighbors))
    assert bank.adjacent.all() and np.array_equal(bank.adjacent, derived.adjacent)
    # the cheapest path steps 1 -> 0 and stays inside cluster 0
    rows = np.full((4, 6), 0.5)
    rows[[0, 1, 2, 3], [4, 1, 2, 2]] = 0.0
    for solver in (solve_paper_dp, solve_exact_dp, brute_force):
        want = solver(trellis_of([(np.arange(6), r) for r in rows], derived))
        got = solver(trellis_of([(np.arange(6), r) for r in rows], bank))
        assert want.indices == got.indices == [4, 1, 2, 2]
        assert got.energy_dict() == want.energy_dict()
    assert step_weight(1, 2, bank, PathParams()) == 0.0


def test_bank_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    bank = make_bank(rng)
    path = tmp_path / "bank.json"
    bank.save(path)
    back = ExemplarBank.load(path)
    assert back.poses.dtype == np.float64 and np.array_equal(back.poses, bank.poses)
    assert np.array_equal(back.cluster_of, bank.cluster_of)
    assert np.array_equal(back.sequence_breaks, bank.sequence_breaks)
    for a, b in zip(back.neighbors, bank.neighbors):
        assert np.array_equal(a, b)
    assert np.array_equal(back.adjacent, bank.adjacent)
    for c in range(bank.k):
        assert np.flatnonzero(back.adjacent[c]).tolist() == back.neighbors[c].tolist()


def test_cluster_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    x = rng.normal(size=(30, 75))
    m = kmeans(x, 4, seed=0)
    label_clusters(m, sit_stand_threshold(hip_heights(x)))
    path = tmp_path / "clusters.json"
    m.save(path)
    back = ClusterModel.load(path)
    assert back.centroids.dtype == np.float64 and np.array_equal(back.centroids, m.centroids)
    assert back.labels == m.labels
    assert len(back.centroids) == 4


@pytest.mark.parametrize(
    "field, value",
    [("centroids", {"a": 1}), ("centroids", [[0.0] * 74]), ("labels", 5), ("labels", ["sideways"]), ("centroids_file", 5)],
)
def test_cluster_model_file_with_fields_of_the_wrong_type_is_rejected(tmp_path, field, value):
    """A bad field names clusters.json; bad centroids, an object array or
    (1, 74) in the centroid file, name that file."""
    path = tmp_path / "clusters.json"
    ClusterModel(np.zeros((1, 75)), [SitStand.SITTING_LIKE]).save(path)
    assert ClusterModel.load(path).labels == [SitStand.SITTING_LIKE]
    rec = json.loads(path.read_text())
    if field == "centroids":
        path = tmp_path / rec["centroids_file"]
        np.save(path, np.array(value, dtype=object if isinstance(value, dict) else float))
    else:
        path.write_text(json.dumps({**rec, field: value}))
    with pytest.raises(ValueError) as info:
        ClusterModel.load(tmp_path / "clusters.json")
    assert str(path) in str(info.value)


def test_cluster_model_file_of_the_older_format_is_rejected_naming_it(tmp_path):
    """Older files held the centroids as a JSON list, and no centroid file."""
    path = tmp_path / "clusters.json"
    path.write_text(json.dumps({"k": 1, "centroids": [[0.0] * 75], "labels": ["sitting"]}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing field 'centroids_file'$"):
        ClusterModel.load(path)


def _json_dump_bytes(rec, path):
    with open(path, "w") as f:
        json.dump(rec, f)
    return path.read_bytes()


def _np_save_bytes(a, path):
    np.save(path, a)
    return path.read_bytes()


def test_model_writers_match_json_dump(tmp_path):
    """The JSON records are json.dump's bytes, and each array file is
    np.save's bytes of the array."""
    rng = np.random.default_rng(15)
    bank = make_bank(rng)
    bank.save(tmp_path / "bank.json")
    rec = {
        "k": bank.k,
        "poses_file": "bank_poses.npy",
        "cluster_of": bank.cluster_of.tolist(),
        "sequence_breaks": bank.sequence_breaks.tolist(),
    }
    assert (tmp_path / "bank.json").read_bytes() == _json_dump_bytes(rec, tmp_path / "want.json")
    assert (tmp_path / "bank_poses.npy").read_bytes() == _np_save_bytes(bank.poses, tmp_path / "want.npy")
    x = rng.normal(size=(30, 75))
    model = kmeans(x, 4, seed=0)
    for labeled in (False, True):
        if labeled:
            label_clusters(model, sit_stand_threshold(hip_heights(x)))
        model.save(tmp_path / "clusters.json")
        rec = {
            "centroids_file": "clusters_centroids.npy",
            "labels": [l.value for l in model.labels] if labeled else None,
        }
        assert (tmp_path / "clusters.json").read_bytes() == _json_dump_bytes(rec, tmp_path / "want.json")
        assert (tmp_path / "clusters_centroids.npy").read_bytes() == _np_save_bytes(model.centroids, tmp_path / "want.npy")
