"""Acceptance suite: one test per shipped-behavior criterion.

Every test prints exactly one ``ACCEPTANCE n PASS/FAIL: detail`` line on the
real stdout (bypassing capture) and then asserts, so a plain ``pytest`` run
shows the seven verdicts inline.

The end-to-end criteria (3-5) pin their scripts and seeds: the orderings they
assert were verified for these exact configurations, and the generators are
bit-deterministic per seed, so reruns are reproducible.
"""

import math
import sys
import time

import numpy as np

from egopose import (
    CameraIntrinsics,
    ExemplarBank,
    FeatureSettings,
    Homography,
    Infeasible,
    KnnIndex,
    MotionScript,
    PathParams,
    PoseSequence,
    SitStand,
    assign_clusters,
    brute_force,
    energy_of_path,
    estimate_homography,
    forest_proba_batch,
    generate,
    hip_heights,
    infer,
    joint_errors,
    kmeans,
    knn_proba,
    normalize_pose,
    prune,
    rotations_from_homographies,
    sit_stand_threshold,
    solve_exact_dp,
    solve_paper_dp,
    train_forest,
    train_models,
    unary_costs,
    valid_feature_centers,
)
from egopose.cli import main
from egopose.synth import PIXEL_PITCH
from trellis_util import trellis_of

UP = np.array([0.0, 0.0, 1.0])


def report(capfd, criterion: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    with capfd.disabled():
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def norm_seq(seq: PoseSequence, idx) -> PoseSequence:
    return PoseSequence([normalize_pose(seq[i], UP) for i in idx])


def est_homographies(result):
    return [estimate_homography(s, d) for s, d in result.correspondences]


# ---------------------------------------------------------------------------
# criterion 1: the exact solver matches brute force on random trellises


def _random_instance(rng, max_frames, max_nodes):
    n_poses = int(rng.integers(4, 9))
    k = int(rng.integers(1, 4))
    cluster_seq = np.sort(rng.integers(0, k, size=n_poses))
    _, cluster_seq = np.unique(cluster_seq, return_inverse=True)
    breaks = [int(rng.integers(1, n_poses))] if rng.random() < 0.3 else []
    poses = rng.normal(size=(n_poses, 75))
    bank = ExemplarBank.build(poses, cluster_seq, breaks, int(cluster_seq.max()) + 1)
    n_frames = int(rng.integers(1, max_frames + 1))
    frames = []
    for _ in range(n_frames):
        m = int(rng.integers(1, min(max_nodes, n_poses) + 1))
        idx = rng.choice(n_poses, size=m, replace=False)
        # unary costs on the 1/64 grid keep every partial sum exactly
        # representable, so optimal totals can be compared with ==
        frames.append((idx, rng.integers(0, 65, size=m) / 64.0))
    return trellis_of(frames, bank)


def test_criterion_1_exact_solver_matches_brute_force(capfd):
    t0 = time.perf_counter()
    dyadic = PathParams(
        delta=0.125, speed_gamma=10.0, speed_mu=1.0 / 128, stat_gamma=5.0, stat_mu=1.0 / 64
    )
    first_order = PathParams(
        delta=0.125, speed_gamma=10.0, speed_mu=0.0, stat_gamma=5.0, stat_mu=0.0
    )
    rng = np.random.default_rng(17)
    checked = 0
    gaps = []
    while checked < 110:
        trellis = _random_instance(rng, max_frames=6, max_nodes=6)
        try:
            best = brute_force(trellis, dyadic)
        except Infeasible:
            continue
        exact = solve_exact_dp(trellis, dyadic)
        assert exact.total == best.total, (exact.total, best.total)
        paper = solve_paper_dp(trellis, dyadic)
        assert paper.total >= best.total - 1e-12
        gaps.append(paper.total - best.total)
        checked += 1
    zero_checked = 0
    while zero_checked < 30:
        trellis = _random_instance(rng, max_frames=6, max_nodes=6)
        try:
            best = brute_force(trellis, first_order)
        except Infeasible:
            continue
        paper = solve_paper_dp(trellis, first_order)
        assert paper.total == best.total, (paper.total, best.total)
        zero_checked += 1
    wall = time.perf_counter() - t0
    assert wall < 10.0, f"criterion 1 took {wall:.1f}s"
    report(
        capfd,
        1,
        True,
        f"exact==brute on {checked} random trellises (literal float equality); "
        f"first-order gap mean {np.mean(gaps):.4f} max {np.max(gaps):.4f}, "
        f"gap==0 on {zero_checked} instances with both penalties off; wall {wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: homography estimation and rotation recovery tolerances


def _rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * cross + (1.0 - math.cos(angle)) * (cross @ cross)


def test_criterion_2_homography_estimation_tolerances(capfd):
    camera = CameraIntrinsics(1.1, 1.1, 0.5, 0.375)
    k_mat = camera.k
    rng = np.random.default_rng(23)
    # 20 tracked points on a jittered grid spanning the image: spread-out
    # correspondences keep the least-squares problem well conditioned
    gx, gy = np.meshgrid(np.linspace(0.06, 0.94, 5), np.linspace(0.06, 0.69, 4))
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    worst_clean = worst_noisy = worst_rot = 0.0
    for _ in range(100):
        rot = _rodrigues(rng.normal(size=3), float(rng.uniform(-0.08, 0.08)))
        true = Homography.from_matrix(k_mat @ rot @ np.linalg.inv(k_mat))
        src = grid + rng.uniform(-0.03, 0.03, grid.shape)
        dst = true.apply(src)
        clean = estimate_homography(src, dst)
        worst_clean = max(worst_clean, float(np.abs(clean.h - true.h).max()))
        noisy = estimate_homography(src, dst + rng.normal(0.0, 0.5 * PIXEL_PITCH, size=dst.shape))
        worst_noisy = max(worst_noisy, float(np.abs(noisy.h - true.h).max()))
        recovered = rotations_from_homographies([true], camera)[0]
        worst_rot = max(worst_rot, float(np.abs(recovered - rot).max()))
    assert worst_clean < 1e-6, worst_clean
    assert worst_noisy < 1e-2, worst_noisy
    assert worst_rot < 1e-6, worst_rot
    report(
        capfd,
        2,
        True,
        f"100 homographies x 20 correspondences: noiseless worst {worst_clean:.2e} < 1e-6, "
        f"0.5px-noise worst {worst_noisy:.2e} < 1e-2, rotation round-trip worst {worst_rot:.2e} < 1e-6",
    )


# ---------------------------------------------------------------------------
# criterion 3: end-to-end ordering against the three baselines


def test_criterion_3_end_to_end_beats_baselines(capfd):
    train_a = [
        ("stand_idle", 140), ("sit_down", 60), ("sit_idle", 330), ("stand_up", 60),
        ("walk", 310), ("turn_left", 60), ("walk", 190), ("stand_idle", 140),
        ("sit_down", 90), ("sit_idle", 320), ("stand_up", 90), ("turn_right", 40),
    ]
    train_b = [
        ("walk", 310), ("stand_idle", 150), ("sit_down", 75), ("sit_idle", 310),
        ("stand_up", 75), ("walk", 230), ("turn_right", 90), ("stand_idle", 150),
        ("sit_down", 45), ("sit_idle", 290), ("stand_up", 45), ("turn_left", 60),
    ]
    test_script = [
        ("stand_idle", 350), ("sit_down", 60), ("sit_idle", 250), ("stand_up", 60),
        ("walk", 250), ("turn_right", 60), ("stand_idle", 300), ("sit_down", 70),
        ("sit_idle", 250), ("stand_up", 70), ("walk", 140),
    ]
    seq_a = generate(MotionScript(train_a, seed=201))
    seq_b = generate(MotionScript(train_b, seed=202))
    test = generate(MotionScript(test_script, seed=303))
    n_train = len(seq_a.poses) + len(seq_b.poses)
    n_test = len(test.poses)
    assert n_train >= 3600 and n_test >= 1800
    models = train_models(
        [seq_a.poses, seq_b.poses],
        [est_homographies(seq_a), est_homographies(seq_b)],
        k=50,
        window=30,
        n_trees=60,
        seed=0,
    )
    test_hs = est_homographies(test)
    errors = {}
    for name, solver, static in (
        ("full", "paper", test.static_h),
        ("path-cluster", "path-cluster", test.static_h),
        ("always-standing", "always-standing", None),
        ("always-sitting", "always-sitting", None),
    ):
        result = infer(test_hs, models, static_h=static, solver=solver)
        rep = joint_errors(result.poses, norm_seq(test.poses, result.centers))
        errors[name] = rep.overall_mean_cm
    ok = (
        errors["full"] < errors["path-cluster"]
        and errors["full"] < errors["always-standing"]
        and errors["full"] < errors["always-sitting"]
    )
    report(
        capfd,
        3,
        ok,
        f"{n_train} train / {n_test} test frames, 50 clusters: full {errors['full']:.2f}cm < "
        f"path-cluster {errors['path-cluster']:.2f}cm, always-standing {errors['always-standing']:.2f}cm, "
        f"always-sitting {errors['always-sitting']:.2f}cm",
    )


# ---------------------------------------------------------------------------
# criterion 4: the static term corrects dynamically ambiguous stretches


def test_criterion_4_static_term_reduces_label_error(capfd):
    # bank from one quiet pass stand -> sit -> stand, quantized by segment so
    # each idle block is one cluster and each transition splits at the sit
    # threshold; both idle rides then pay identical stationary costs and the
    # plateau verdict reduces to unary lean vs the static-mismatch penalty
    train_script = [("stand_idle", 60), ("sit_down", 30), ("sit_idle", 60), ("stand_up", 30)]
    train = generate(MotionScript(train_script, seed=7))
    vecs = np.stack([normalize_pose(p, UP).to_vector() for p in train.poses.poses])
    seg = np.concatenate([np.full(d, i) for i, (_, d) in enumerate(train_script)])
    hips = hip_heights(vecs)
    theta = sit_stand_threshold(hips)
    cluster_of = np.empty(len(vecs), dtype=int)
    cluster_of[seg == 0] = 0
    down = np.nonzero(seg == 1)[0]
    cluster_of[down[:15]] = 1
    cluster_of[down[15:]] = 2
    cluster_of[seg == 2] = 3
    up = np.nonzero(seg == 3)[0]
    cluster_of[up[:15]] = 4
    cluster_of[up[15:]] = 5
    bank = ExemplarBank.build(vecs, cluster_of, [], 6)
    labels = [
        SitStand.SITTING_LIKE if hips[cluster_of == c].mean() < theta else SitStand.STANDING_LIKE
        for c in range(6)
    ]
    assert [l.value for l in labels] == [
        "standing", "standing", "sitting", "sitting", "sitting", "standing",
    ]

    test_script = [
        ("stand_idle", 200), ("sit_down", 30), ("sit_idle", 150), ("stand_up", 30), ("stand_idle", 90),
    ]
    test = generate(MotionScript(test_script, seed=313))
    n = len(test.poses)
    gt_hips = hip_heights(np.stack([normalize_pose(p, UP).to_vector() for p in test.poses.poses]))
    tseg = np.concatenate([np.full(d, i) for i, (_, d) in enumerate(test_script)])
    # classifier stand-in for the ambiguous-dynamics regime: every idle window
    # gets the same sitting-leaning row regardless of the true side (lean 0.06
    # per frame, inside the delta=0.1 correction window); transitions are
    # confident and correct so the ramps stay anchored
    idle_row = np.array([0.22, 0.09, 0.16, 0.28, 0.16, 0.09])
    dists = np.tile(idle_row, (n, 1))
    for i in range(n):
        if tseg[i] == 1:
            c = 1 if gt_hips[i] >= theta else 2
        elif tseg[i] == 3:
            c = 4 if gt_hips[i] < theta else 5
        else:
            continue
        row = np.full(6, 0.1 / 5)
        row[c] = 0.9
        dists[i] = row

    params = PathParams()  # delta 0.1, tau 0.99, prune 0.01
    label_err = {}
    for name, h in (("static", test.static_h), ("constant", np.full(n, 0.5))):
        path = solve_paper_dp(prune(unary_costs(dists, h, bank, labels, params), dists, params.prune_threshold))
        pred_sit = np.array([labels[bank.cluster_of[i]].value == "sitting" for i in path.indices])
        label_err[name] = float((pred_sit != test.sit_labels).mean())
    ok = label_err["static"] < label_err["constant"]
    report(
        capfd,
        4,
        ok,
        f"scripted 0.99/0.01 static prior (tau 0.99, delta 0.1) label error "
        f"{label_err['static']:.4f} < constant-0.5 {label_err['constant']:.4f}",
    )


# ---------------------------------------------------------------------------
# criterion 5: timing budgets at the 10^4-pose bank scale


def test_criterion_5_budgets_at_scale(capfd):
    base = [
        ("stand_idle", 120), ("sit_down", 60), ("sit_idle", 180), ("stand_up", 60),
        ("walk", 240), ("turn_left", 60), ("stand_idle", 80), ("walk", 180),
        ("turn_right", 60), ("stand_idle", 120), ("sit_down", 70), ("sit_idle", 180),
        ("stand_up", 70), ("turn_right", 60), ("walk", 120), ("turn_left", 60),
        ("stand_idle", 80),
    ]
    streams = [generate(MotionScript(base, seed=500 + i)) for i in range(6)]
    models = train_models(
        [s.poses for s in streams],
        [s.homographies for s in streams],
        k=300,
        window=30,
        classifier="knn",
        knn_k=20,
        seed=0,
    )
    bank_size = len(models.bank.poses)
    assert bank_size >= 10_000
    test = generate(
        MotionScript(
            [
                ("stand_idle", 100), ("sit_down", 60), ("sit_idle", 120), ("stand_up", 60),
                ("walk", 180), ("turn_right", 60), ("stand_idle", 80),
            ],
            seed=777,
        )
    )
    result = infer(test.homographies, models, static_h=test.static_h)
    timings = result.timings
    ok = timings["total_per_frame_s"] <= 0.5 and timings["solve_per_frame_s"] <= 0.01
    report(
        capfd,
        5,
        ok,
        f"{bank_size}-pose bank, 300 clusters, prune 0.01: "
        f"total {timings['total_per_frame_s'] * 1e3:.1f}ms/frame <= 500ms, "
        f"solve {timings['solve_per_frame_s'] * 1e3:.2f}ms/frame <= 10ms "
        f"({len(result.centers)} frames, {timings['prune_retries']} prune retries)",
    )


# ---------------------------------------------------------------------------
# criterion 6: classifier components behave on their reference problems


def test_criterion_6_classifier_components(capfd):
    rng = np.random.default_rng(41)
    # two well-separated blobs: the out-of-bag estimate must be near-perfect
    center = np.full(8, 3.0) / math.sqrt(8.0)
    features = np.vstack(
        [rng.normal(+center, 0.5, size=(200, 8)), rng.normal(-center, 0.5, size=(200, 8))]
    )
    classes = np.repeat([0, 1], 200)
    forest = train_forest(features, classes, n_trees=100, seed=0)
    assert forest.oob_accuracy is not None and forest.oob_accuracy > 0.95

    # batched nearest neighbours must equal a naive per-row full sort
    points = rng.normal(size=(2000, 8))
    queries = rng.normal(size=(1000, 8))
    got = KnnIndex(points).query_batch(queries, 5)
    sq = ((queries[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    mismatches = 0
    for q in range(len(queries)):
        want = np.lexsort((np.arange(len(points)), sq[q]))[:5]
        if not np.array_equal(got[q], want):
            mismatches += 1
    assert mismatches == 0
    report(
        capfd,
        6,
        True,
        f"forest OOB {forest.oob_accuracy:.3f} > 0.95 on separable classes; "
        f"batched kNN matched the naive per-row scan on all 1000 queries",
    )


# ---------------------------------------------------------------------------
# criterion 7: per-module invariant battery


def test_criterion_7_module_invariants(capfd, tmp_path):
    rng = np.random.default_rng(59)
    # skeleton: normalization is idempotent and cancels yaw and translation
    sample = generate(MotionScript([("stand_idle", 3)], seed=3)).poses.poses[0]
    once = normalize_pose(sample, UP)
    twice = normalize_pose(once, UP)
    assert np.allclose(once.to_vector(), twice.to_vector(), atol=1e-12)
    angle = 1.1
    yaw = np.array(
        [
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = sample.to_vector().reshape(25, 3) @ yaw.T + np.array([0.4, -2.0, 0.1])
    moved_pose = type(sample).from_vector(moved.ravel(), frame=sample.frame)
    assert np.allclose(
        normalize_pose(moved_pose, UP).to_vector(), once.to_vector(), atol=1e-9
    )

    # geometry: a homography composed with its inverse is the identity map
    rot = _rodrigues([0.3, -0.2, 0.9], 0.07)
    k_mat = CameraIntrinsics(1.1, 1.1, 0.5, 0.375).k
    h = Homography.from_matrix(k_mat @ rot @ np.linalg.inv(k_mat))
    back = Homography.from_matrix(np.linalg.inv(h.h))
    pts = rng.uniform(0.1, 0.9, size=(40, 2))
    assert np.allclose(back.apply(h.apply(pts)), pts, atol=1e-9)

    # clustering: assignments are nearest-centroid; the neighbor graph is
    # symmetric and reflexive
    x = rng.normal(size=(120, 75))
    model = kmeans(x, 5, seed=1)
    got = assign_clusters(model, x)
    want = np.argmin(((x[:, None, :] - model.centroids[None]) ** 2).sum(axis=2), axis=1)
    assert np.array_equal(got, want)
    # more iterations never worsen the k-means objective
    early = kmeans(x, 5, seed=1, max_iters=1)
    assert model.objective <= early.objective + 1e-9 * max(1.0, early.objective)
    seq = np.sort(rng.integers(0, 5, size=40))
    bank = ExemplarBank.build(rng.normal(size=(40, 75)), seq, [], 5)
    for c in range(5):
        assert c in bank.neighbors[c]
        for d in bank.neighbors[c]:
            assert c in bank.neighbors[int(d)]

    # classify: probability rows are distributions
    feats = rng.normal(size=(60, 9))
    forest = train_forest(feats, rng.integers(0, 3, size=60), n_trees=10, seed=2)
    probs = forest_proba_batch(forest, feats[:7])
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    # costs: e = 1 - g + d with d in {0, delta}, and pruning respects the
    # threshold definition
    dists = rng.dirichlet(np.ones(5), size=6)
    h_vals = rng.uniform(0.0, 1.0, size=6)
    cbank = ExemplarBank.build(rng.normal(size=(15, 75)), np.repeat(np.arange(5), 3), [], 5)
    clabels = [SitStand.SITTING_LIKE if c % 2 else SitStand.STANDING_LIKE for c in range(5)]
    params = PathParams()
    costs = unary_costs(dists, h_vals, cbank, clabels, params)
    for n in range(6):
        for i, e in zip(*costs.frame(n)):
            g = dists[n, cbank.cluster_of[i]]
            sitting = clabels[cbank.cluster_of[i]].value == "sitting"
            d = 0.0
            if h_vals[n] >= params.tau and not sitting:
                d = params.delta
            elif h_vals[n] <= 1.0 - params.tau and sitting:
                d = params.delta
            assert abs(e - (1.0 - g + d)) < 1e-12
    pruned = prune(costs, dists, params.prune_threshold)
    for n in range(6):
        kept = set(cbank.cluster_of[i] for i in pruned.indices[n])
        assert kept == {c for c in range(5) if dists[n, c] > params.prune_threshold}

    # pathopt: the reported total decomposes exactly over the solved path
    trellis = _random_instance(np.random.default_rng(99), max_frames=5, max_nodes=5)
    path = solve_paper_dp(trellis)
    terms = path.energy_dict()
    assert abs(terms["U"] + terms["T"] + terms["V"] + terms["S"] - terms["total"]) < 1e-12
    assert abs(energy_of_path(trellis, path.indices).total - path.total) < 1e-12

    # evaluation: identical sequences score zero everywhere
    seq = norm_seq(generate(MotionScript([("walk", 40)], seed=11)).poses, range(40))
    rep = joint_errors(seq, seq)
    assert rep.overall_mean_cm == 0.0

    # synth: bit determinism per seed
    r1 = generate(MotionScript([("stand_idle", 10), ("sit_down", 10)], seed=4))
    r2 = generate(MotionScript([("stand_idle", 10), ("sit_down", 10)], seed=4))
    assert all(np.array_equal(a.h, b.h) for a, b in zip(r1.homographies, r2.homographies))

    # pipeline: the valid-center window arithmetic
    assert np.array_equal(valid_feature_centers(100, 30), np.arange(14, 85))
    assert len(valid_feature_centers(29, 30)) == 0
    feats, centers = FeatureSettings(window=4).rows(r1.homographies)
    assert feats.shape == (len(centers), 9 * 3)

    # cli: the synth entry point runs end to end
    script_file = tmp_path / "script.json"
    script_file.write_text('{"segments": [["stand_idle", 12]], "seed": 2}')
    code = main(["synth", "--script", str(script_file), "--out-dir", str(tmp_path / "out")])
    assert code == 0 and (tmp_path / "out" / "manifest.json").exists()

    report(
        capfd,
        7,
        True,
        "skeleton, geometry, clustering, classify, costs, pathopt, evaluation, "
        "synth, pipeline, cli invariants hold",
    )
