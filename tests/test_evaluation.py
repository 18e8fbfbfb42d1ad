"""Tests for evaluation alignment, grouped joint errors, and baselines.

The grouped-error oracle re-derives the alignment and the centimeter
conversion with inline scalar code instead of calling the module helpers.
"""

import json
import math

import numpy as np
import pytest

from egopose import (
    CM_PER_UNIT,
    DegeneratePose,
    EmptyLabel,
    ErrorReport,
    ExemplarBank,
    Frame,
    FrameMismatch,
    JOINT_GROUPS,
    Joint,
    Pose,
    PoseSequence,
    SitStand,
    baseline_constant,
    baseline_kdtree,
    joint_errors,
)
from egopose.evaluation import GroupError, _aligned
from egopose.synth import STAND_TEMPLATE


def standing_pose(seed=None, jitter=0.0, yaw=0.0, shift=(0.0, 0.0, 0.0)):
    joints = STAND_TEMPLATE.copy()
    if jitter:
        rng = np.random.default_rng(seed)
        joints = joints + rng.normal(0.0, jitter, size=joints.shape)
    if yaw:
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        joints = joints @ rot.T
    joints = joints + np.asarray(shift)
    return Pose(joints, Frame.WEARER_LOCAL)


def ref_align(joints):
    """Inline re-derivation: SpineBase to origin, then rotate about +z until
    the left->right shoulder vector points along +y."""
    joints = joints - joints[Joint.SpineBase]
    d = joints[Joint.ShoulderRight] - joints[Joint.ShoulderLeft]
    phi = math.atan2(d[0], d[1])
    c, s = math.cos(phi), math.sin(phi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return joints @ rot.T


# ---------------------------------------------------------------------------
# alignment


def test_align_idempotent():
    p = standing_pose(seed=1, jitter=0.01, yaw=0.8, shift=(0.4, -0.2, 0.1))
    once = _aligned(p.joints[None])
    twice = _aligned(once)
    assert np.allclose(once, twice, atol=1e-12)
    assert np.allclose(once[0, Joint.SpineBase], 0.0)
    d = once[0, Joint.ShoulderRight] - once[0, Joint.ShoulderLeft]
    assert abs(d[0]) < 1e-12
    assert d[1] > 0


def test_align_recovers_known_yaw():
    base = standing_pose()
    rotated = standing_pose(yaw=math.radians(37.0), shift=(1.0, 2.0, 0.0))
    a, b = _aligned(np.stack([base.joints, rotated.joints]))
    assert np.allclose(a, b, atol=1e-9)
    report = joint_errors(PoseSequence([rotated]), PoseSequence([base]))
    assert report.overall_mean_cm == pytest.approx(0.0, abs=1e-7)


def test_align_rejects_vertical_shoulders_and_wrong_frame():
    joints = STAND_TEMPLATE.copy()
    joints[Joint.ShoulderRight] = joints[Joint.ShoulderLeft] + [0.0, 0.0, 0.2]
    vertical = PoseSequence.of(joints[None], Frame.WEARER_LOCAL)
    with pytest.raises(DegeneratePose):
        joint_errors(vertical, PoseSequence([standing_pose()]))
    with pytest.raises(FrameMismatch):
        joint_errors(PoseSequence([Pose(STAND_TEMPLATE.copy(), Frame.SENSOR)]), PoseSequence([standing_pose()]))


# ---------------------------------------------------------------------------
# grouped joint errors


def test_empty_sequences_have_no_frames_to_compare():
    empty = PoseSequence.of(np.zeros((0, 25, 3)), Frame.WEARER_LOCAL)
    with pytest.raises(ValueError, match="no frames to compare"):
        joint_errors(empty, empty)


def test_zero_error_on_identical_sequences():
    seq = PoseSequence([standing_pose(seed=i, jitter=0.01) for i in range(4)])
    report = joint_errors(seq, seq)
    assert report.overall_mean_cm == pytest.approx(0.0, abs=1e-12)
    for name, group in report.groups.items():
        assert group.mean_cm == pytest.approx(0.0, abs=1e-12)
        expected = len(JOINT_GROUPS[name]) * 4
        assert group.count == expected


def test_head_offset_converts_to_centimeters():
    gt = PoseSequence([standing_pose()])
    moved = STAND_TEMPLATE.copy()
    moved[Joint.Head, 2] += 0.1  # vertical, unaffected by yaw alignment
    pred = PoseSequence([Pose(moved, Frame.WEARER_LOCAL)])
    report = joint_errors(pred, gt)
    assert report.groups["Head"].mean_cm == pytest.approx(15.0, abs=1e-9)
    for name in ("Elbows", "Wrists", "Knees", "Ankles"):
        assert report.groups[name].mean_cm == pytest.approx(0.0, abs=1e-9)
    assert report.overall_mean_cm == pytest.approx(15.0 / 9.0, abs=1e-9)


def test_standard_error_uses_sample_stddev_over_sqrt_count():
    gt = PoseSequence([standing_pose(), standing_pose()])
    a = STAND_TEMPLATE.copy()
    a[Joint.Head, 2] += 0.1
    b = STAND_TEMPLATE.copy()
    b[Joint.Head, 2] += 0.2
    pred = PoseSequence([Pose(a, Frame.WEARER_LOCAL), Pose(b, Frame.WEARER_LOCAL)])
    report = joint_errors(pred, gt)
    head = report.groups["Head"]
    assert head.mean_cm == pytest.approx(22.5)
    # sample stddev of [15, 30] over sqrt(2)
    assert head.se_cm == pytest.approx(np.std([15.0, 30.0], ddof=1) / math.sqrt(2.0))
    assert head.count == 2


def test_report_matches_scalar_reference():
    rng = np.random.default_rng(5)
    gt_poses, pred_poses = [], []
    for i in range(6):
        gt_poses.append(standing_pose(seed=100 + i, jitter=0.01, yaw=float(rng.uniform(-1, 1))))
        pred_poses.append(standing_pose(seed=200 + i, jitter=0.01, yaw=float(rng.uniform(-1, 1))))
    report = joint_errors(PoseSequence(pred_poses), PoseSequence(gt_poses))

    per_joint = {}
    for p, g in zip(pred_poses, gt_poses):
        pa, ga = ref_align(p.joints), ref_align(g.joints)
        dist = np.linalg.norm(pa - ga, axis=1) * 150.0
        for joints in JOINT_GROUPS.values():
            for j in joints:
                per_joint.setdefault(j, []).append(dist[j])
    all_vals = []
    for name, joints in JOINT_GROUPS.items():
        vals = np.concatenate([np.asarray(per_joint[j]) for j in joints])
        all_vals.append(vals)
        assert report.groups[name].mean_cm == pytest.approx(vals.mean(), abs=1e-9)
        assert report.groups[name].se_cm == pytest.approx(
            vals.std(ddof=1) / math.sqrt(len(vals)), abs=1e-9
        )
    assert report.overall_mean_cm == pytest.approx(np.concatenate(all_vals).mean(), abs=1e-9)


def test_report_invariant_to_yaw_and_translation_of_predictions():
    gt = PoseSequence([standing_pose(seed=i, jitter=0.02) for i in range(3)])
    pred = PoseSequence([standing_pose(seed=10 + i, jitter=0.02) for i in range(3)])
    moved = PoseSequence(
        [
            standing_pose(seed=10 + i, jitter=0.02, yaw=0.9 * (i + 1), shift=(i, -i, 0.5))
            for i in range(3)
        ]
    )
    base = joint_errors(pred, gt)
    shifted = joint_errors(moved, gt)
    assert shifted.overall_mean_cm == pytest.approx(base.overall_mean_cm, abs=1e-9)
    for name in JOINT_GROUPS:
        assert shifted.groups[name].mean_cm == pytest.approx(base.groups[name].mean_cm, abs=1e-9)


def test_length_mismatch_rejected():
    seq1 = PoseSequence([standing_pose()])
    seq2 = PoseSequence([standing_pose(), standing_pose()])
    with pytest.raises(ValueError):
        joint_errors(seq1, seq2)


def test_report_save_and_table(tmp_path):
    seq = PoseSequence([standing_pose(seed=3, jitter=0.01)])
    report = joint_errors(seq, PoseSequence([standing_pose()]))
    out = tmp_path / "report.json"
    report.save(out)
    data = json.loads(out.read_text())
    assert set(data["groups"]) == set(JOINT_GROUPS)
    assert data["overall_mean_cm"] == pytest.approx(report.overall_mean_cm)
    table = report.format_table()
    for name in JOINT_GROUPS:
        assert name in table
    assert "overall" in table
    assert ErrorReport(report.groups, report.overall_mean_cm).to_dict() == data


def _reference_align(p: Pose) -> np.ndarray:
    """The per-pose alignment the package had before the batch _aligned."""
    joints = p.joints - p.joints[Joint.SpineBase]
    d = joints[Joint.ShoulderRight] - joints[Joint.ShoulderLeft]
    phi = np.arctan2(d[0], d[1])
    c, s = np.cos(phi), np.sin(phi)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return joints @ rot.T


def _reference_joint_errors(pred: PoseSequence, gt: PoseSequence) -> ErrorReport:
    """joint_errors as it was before the batch: one pose pair at a time, and
    each group concatenated joint by joint."""
    per_joint = {j: [] for joints in JOINT_GROUPS.values() for j in joints}
    for a, b in zip(pred.poses, gt.poses):
        dist = np.linalg.norm(_reference_align(a) - _reference_align(b), axis=1) * CM_PER_UNIT
        for j in per_joint:
            per_joint[j].append(dist[j])
    groups, all_errors = {}, []
    for name, joints in JOINT_GROUPS.items():
        vals = np.concatenate([np.asarray(per_joint[j]) for j in joints])
        all_errors.append(vals)
        se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        groups[name] = GroupError(float(vals.mean()), se, len(vals))
    return ErrorReport(groups, float(np.concatenate(all_errors).mean()))


def wearer_local_sequence(n, seed, spread):
    """n jittered, yawed, shifted standing poses, frame by frame."""
    rng = np.random.default_rng(seed)
    return PoseSequence(
        [
            standing_pose(seed=int(s), jitter=spread, yaw=float(y), shift=tuple(t))
            for s, y, t in zip(rng.integers(1 << 30, size=n), rng.uniform(-3, 3, n), rng.normal(size=(n, 3)))
        ]
    )


@pytest.mark.parametrize("n, spread", [(1, 0.01), (2, 0.05), (3000, 0.05)])
def test_every_report_field_equals_the_per_pose_reference(n, spread):
    pred, gt = wearer_local_sequence(n, 1, spread), wearer_local_sequence(n, 2, spread)
    assert np.array_equal(_aligned(pred.joints), np.stack([_reference_align(p) for p in pred.poses]))
    assert joint_errors(pred, gt) == _reference_joint_errors(pred, gt)


def test_joint_errors_rejects_sensor_frame_poses():
    local = PoseSequence([standing_pose()] * 2)
    sensor = PoseSequence([Pose(STAND_TEMPLATE.copy(), Frame.SENSOR)] * 2)
    for pred, gt in ((sensor, local), (local, sensor)):
        with pytest.raises(FrameMismatch):
            joint_errors(pred, gt)


def test_joint_errors_names_a_degenerate_pose_in_mid_batch():
    poses = [standing_pose(seed=i, jitter=0.01) for i in range(5)]
    joints = poses[3].joints.copy()
    joints[Joint.ShoulderRight] = joints[Joint.ShoulderLeft] + [0.0, 0.0, 0.2]
    poses[3] = Pose(joints, Frame.WEARER_LOCAL)
    with np.errstate(all="raise"), pytest.raises(DegeneratePose, match="^pose 3: "):
        joint_errors(PoseSequence(poses), PoseSequence(poses))


# ---------------------------------------------------------------------------
# baselines


def bank_with_labels():
    rng = np.random.default_rng(9)
    stand = STAND_TEMPLATE.reshape(-1) + rng.normal(0, 0.01, size=(6, 75))
    sit = STAND_TEMPLATE.reshape(-1) + rng.normal(0, 0.01, size=(4, 75))
    poses = np.vstack([stand, sit])
    cluster_of = np.array([0] * 6 + [1] * 4)
    bank = ExemplarBank.build(poses, cluster_of, [], 2)
    labels = [SitStand.STANDING_LIKE, SitStand.SITTING_LIKE]
    return bank, labels, stand, sit


def test_baseline_constant_is_label_mean():
    bank, labels, stand, sit = bank_with_labels()
    p_stand = baseline_constant(bank, labels, SitStand.STANDING_LIKE)
    p_sit = baseline_constant(bank, labels, SitStand.SITTING_LIKE)
    assert np.allclose(p_stand.to_vector(), stand.mean(axis=0))
    assert np.allclose(p_sit.to_vector(), sit.mean(axis=0))
    assert p_stand.frame == Frame.WEARER_LOCAL


def test_baseline_constant_accepts_string_mode():
    bank, labels, stand, _ = bank_with_labels()
    p = baseline_constant(bank, labels, "standing")
    assert np.allclose(p.to_vector(), stand.mean(axis=0))


def test_baseline_constant_missing_label_raises():
    bank, _, _, _ = bank_with_labels()
    all_standing = [SitStand.STANDING_LIKE, SitStand.STANDING_LIKE]
    with pytest.raises(EmptyLabel):
        baseline_constant(bank, all_standing, SitStand.SITTING_LIKE)


def test_baseline_constant_equals_the_per_exemplar_mask():
    rng = np.random.default_rng(3)
    k = 7
    bank = ExemplarBank.build(rng.normal(size=(500, 75)), rng.integers(0, k, 500), [200], k)
    labels = [SitStand.SITTING_LIKE if c in (1, 4, 5) else SitStand.STANDING_LIKE for c in range(k)]
    for mode in SitStand:
        mask = np.array([labels[c] == mode for c in bank.cluster_of])
        want = bank.poses[mask].mean(axis=0)
        assert np.array_equal(baseline_constant(bank, labels, mode).to_vector(), want)


def test_kdtree_baseline_returns_exact_matches():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(12, 9))
    pose_vectors = rng.normal(size=(12, 75))
    seq = baseline_kdtree(feats, pose_vectors, feats)
    assert len(seq) == 12
    for n, p in enumerate(seq.poses):
        assert np.allclose(p.to_vector(), pose_vectors[n])


def test_kdtree_baseline_matches_linear_scan():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(50, 8))
    pose_vectors = rng.normal(size=(50, 75))
    queries = rng.normal(size=(20, 8))
    seq = baseline_kdtree(feats, pose_vectors, queries)
    for q, p in zip(queries, seq.poses):
        nn = int(np.argmin(np.linalg.norm(feats - q, axis=1)))
        assert np.allclose(p.to_vector(), pose_vectors[nn])


def test_kdtree_baseline_tie_takes_lower_index():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    pose_vectors = np.random.default_rng(0).normal(size=(3, 75))
    seq = baseline_kdtree(feats, pose_vectors, np.array([[1.0, 0.0]]))
    assert np.allclose(seq.poses[0].to_vector(), pose_vectors[0])


def test_conversion_constant_is_five_reference_shoulders():
    assert CM_PER_UNIT == pytest.approx(5 * 30.0)
