import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from egopose.errors import DegeneratePose, FrameMismatch
from egopose.synth import MotionScript, generate
from egopose.skeleton import (
    Frame,
    Joint,
    N_JOINTS,
    Pose,
    PoseSequence,
    load_pose_sequence,
    load_pose_sequence_with_times,
    normalize_pose,
    normalize_poses,
    save_pose_sequence,
)

UP = np.array([0.0, 0.0, 1.0])


def standing_figure():
    """Simple sensor-frame figure, z up, shoulders 0.3 m apart."""
    j = np.zeros((N_JOINTS, 3))
    j[:, 2] = 1.0
    j[Joint.SpineBase] = [0.0, 0.0, 0.9]
    j[Joint.SpineMid] = [0.0, 0.0, 1.15]
    j[Joint.SpineShoulder] = [0.0, 0.0, 1.38]
    j[Joint.Neck] = [0.0, 0.0, 1.43]
    j[Joint.Head] = [0.0, 0.0, 1.6]
    j[Joint.ShoulderLeft] = [0.0, 0.15, 1.4]
    j[Joint.ShoulderRight] = [0.0, -0.15, 1.4]
    j[Joint.HipLeft] = [0.0, 0.09, 0.9]
    j[Joint.HipRight] = [0.0, -0.09, 0.9]
    j[Joint.AnkleLeft] = [0.0, 0.1, 0.08]
    j[Joint.AnkleRight] = [0.0, -0.1, 0.08]
    return Pose(j, Frame.SENSOR)


def yaw_matrix(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def test_joint_enum_has_25_entries():
    assert N_JOINTS == 25
    assert Joint.SpineBase == 0
    assert Joint.ThumbRight == 24


def test_pose_rejects_bad_shapes():
    with pytest.raises(Exception):
        Pose(np.zeros((10, 3)), Frame.SENSOR)
    bad = np.zeros((N_JOINTS, 3))
    bad[3, 1] = np.nan
    with pytest.raises(Exception):
        Pose(bad, Frame.SENSOR)


def test_shoulder_length_after_normalization_is_point_two():
    rng = np.random.default_rng(2)
    moved = [standing_figure().joints @ yaw_matrix(a).T + rng.normal(size=3) for a in rng.uniform(-np.pi, np.pi, 4)]
    q = normalize_poses(np.stack(moved), UP)
    d = q[:, Joint.ShoulderRight] - q[:, Joint.ShoulderLeft]
    assert np.allclose(np.linalg.norm(d, axis=1), 0.2, atol=1e-12)
    assert normalize_pose(standing_figure(), UP).frame == Frame.WEARER_LOCAL


def test_shoulder_length_coincident_raises():
    j = standing_figure().joints.copy()
    j[Joint.ShoulderRight] = j[Joint.ShoulderLeft]
    with pytest.raises(DegeneratePose, match="shoulders coincide"):
        normalize_poses(j[None], UP)


def test_normalize_canonical_pose_is_pure_scale():
    # a pose is canonical when SpineBase sits at the origin and the
    # ShoulderLeft->ShoulderRight direction is +y (the fixed orientation)
    j = standing_figure().joints - standing_figure().joints[Joint.SpineBase]
    j[:, 1] *= -1.0  # mirror so left->right runs along +y
    p = Pose(j, Frame.SENSOR)
    q = normalize_pose(p, UP)
    assert np.allclose(q.joints, j / 1.5, atol=1e-12)


def test_normalize_invariant_to_yaw_and_translation():
    rng = np.random.default_rng(5)
    base = standing_figure()
    ref = normalize_pose(base, UP)
    for _ in range(20):
        rot = yaw_matrix(rng.uniform(-np.pi, np.pi))
        shift = rng.normal(size=3) * 5.0
        moved = Pose(base.joints @ rot.T + shift, Frame.SENSOR)
        q = normalize_pose(moved, UP)
        assert np.abs(q.joints - ref.joints).max() < 1e-9


def test_normalize_idempotent():
    q = normalize_pose(standing_figure(), UP)
    q2 = normalize_pose(Pose(q.joints, Frame.SENSOR), UP)
    assert np.abs(q2.joints - q.joints).max() < 1e-9


def test_normalize_shoulders_parallel_to_up_raises():
    p = standing_figure()
    j = p.joints.copy()
    j[Joint.ShoulderLeft] = [0.0, 0.0, 1.3]
    j[Joint.ShoulderRight] = [0.0, 0.0, 1.6]
    with pytest.raises(DegeneratePose):
        normalize_pose(Pose(j, Frame.SENSOR), UP)


def _reference_normalize_pose(p: Pose, up: np.ndarray) -> np.ndarray:
    """The per-pose body normalize_pose had before normalize_poses: each
    shoulder length and projection from a 1-D np.linalg.norm or np.dot."""
    up = np.asarray(up, dtype=float)
    a3 = up / np.linalg.norm(up)
    d = p.joints[Joint.ShoulderRight] - p.joints[Joint.ShoulderLeft]
    sl = float(np.linalg.norm(d))
    proj = d - np.dot(d, a3) * a3
    a2 = proj / np.linalg.norm(proj)
    a1 = np.cross(a2, a3)
    rot = np.stack([a1, a2, a3])
    local = (p.joints - p.joints[Joint.SpineBase]) @ rot.T
    return local / (5.0 * sl)


@pytest.fixture(scope="module")
def benchmark_joints():
    """(n, 25, 3) sensor-frame joints of every pose the benchmark's training
    and test scripts generate at seed 11 (knn-bank10k and forest-cli)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads as w
    finally:
        sys.path.pop(0)
    knn_seeds, cli_seeds = w.script_seeds(11, 8), w.script_seeds(11, 5)
    scripts = [(w.CRIT5_TRAIN, s) for s in knn_seeds[:6]]
    scripts += list(zip(w.TEST_SCRIPTS[:2], knn_seeds[6:]))
    scripts += [(w.scaled(sc, 1 / 3), s) for sc, s in zip(w.CRIT3_TRAIN, cli_seeds)]
    scripts += [(w.scaled(sc, 0.5), s) for sc, s in zip(w.TEST_SCRIPTS, cli_seeds[2:])]
    poses = [p for sc, s in scripts for p in generate(MotionScript(sc, seed=s)).poses.poses]
    return np.stack([p.joints for p in poses])


def random_joints(n, seed):
    """n random poses, each at its own scale between 1e-3 and 1e3."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1, 1))
    return rng.normal(size=(n, N_JOINTS, 3)) * scale + rng.normal(size=(n, 1, 3)) * scale


@pytest.mark.parametrize("up", [UP, np.array([0.1, -0.2, 1.3])])
def test_normalize_poses_equals_the_per_pose_reference_bit_for_bit(benchmark_joints, up):
    joints = np.concatenate([benchmark_joints, random_joints(20_000, seed=1)])
    assert len(benchmark_joints) > 14_000
    want = np.stack([_reference_normalize_pose(Pose(j), up) for j in joints])
    got = normalize_poses(joints, up)
    assert got.shape == joints.shape
    assert np.array_equal(got, want)
    assert np.array_equal(normalize_poses(joints.reshape(-1, 75), up), want)  # (n, 75) rows too
    assert np.array_equal(normalize_pose(Pose(joints[7]), up).joints, want[7])


def test_normalize_poses_of_no_poses():
    assert normalize_poses(np.zeros((0, N_JOINTS, 3)), UP).shape == (0, N_JOINTS, 3)


@pytest.mark.parametrize(
    "left, right, why",
    [([0.0, 0.1, 1.4], [0.0, 0.1, 1.4], "shoulders coincide"), ([0.0, 0.0, 1.3], [0.0, 0.0, 1.6], "parallel to up")],
)
def test_normalize_poses_names_a_degenerate_pose_in_mid_batch(left, right, why):
    joints = np.stack([standing_figure().joints] * 5)
    joints[2, Joint.ShoulderLeft], joints[2, Joint.ShoulderRight] = left, right
    joints[4, Joint.ShoulderRight] = joints[4, Joint.ShoulderLeft]  # a later bad pose is not the one named
    with np.errstate(all="raise"), pytest.raises(DegeneratePose, match=f"^pose 2: .*{why}"):
        normalize_poses(joints, UP)


def test_sequence_rejects_mixed_frames():
    p = standing_figure()
    q = normalize_pose(p, UP)
    with pytest.raises(FrameMismatch):
        PoseSequence([p, q])


def test_vector_round_trip():
    p = normalize_pose(standing_figure(), UP)
    v = p.to_vector()
    assert v.shape == (75,)
    assert np.array_equal(Pose.from_vector(v).joints, p.joints)


def test_as_matrix_copies_each_pose_once():
    rng = np.random.default_rng(4)
    seq = PoseSequence([Pose(rng.normal(size=(N_JOINTS, 3)), Frame.WEARER_LOCAL) for _ in range(5)])
    mat = seq.as_matrix()
    assert np.array_equal(mat, np.stack([p.to_vector() for p in seq.poses]))
    assert not any(np.shares_memory(mat, p.joints) for p in seq.poses)
    assert PoseSequence([]).as_matrix().shape == (0, 75)


def test_sequence_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    poses = [Pose(rng.normal(size=(N_JOINTS, 3)), Frame.WEARER_LOCAL) for _ in range(4)]
    seq = PoseSequence(poses)
    path = tmp_path / "poses.jsonl"
    cases = [([2, 5, 6, 9], [2, 5, 6, 9]), (None, [0, 1, 2, 3]), ([4, 7.0, 9, 10], [4, 7, 9, 10]), (np.arange(14, 18), [14, 15, 16, 17])]
    for times, want in cases:
        save_pose_sequence(path, seq, times=times)
        back, got = load_pose_sequence_with_times(path)
        assert got.tolist() == want
        assert np.array_equal(back.joints, seq.joints)  # JSON floats round-trip exactly
        assert back.frame == Frame.WEARER_LOCAL


def test_sequence_file_requires_increasing_t(tmp_path):
    path = tmp_path / "bad.jsonl"
    rec = {"t": 1, "frame": "sensor", "joints": np.zeros((N_JOINTS, 3)).tolist()}
    with open(path, "w") as f:
        f.write(json.dumps(rec) + "\n")
        f.write(json.dumps(rec) + "\n")
    with pytest.raises(ValueError):
        load_pose_sequence(path)


def test_sequence_of_holds_one_checked_array():
    joints = np.random.default_rng(6).normal(size=(4, N_JOINTS, 3))
    seq = PoseSequence.of(joints, Frame.WEARER_LOCAL)
    assert np.shares_memory(seq.joints, joints) and np.array_equal(seq.joints, joints)
    assert seq.frame == Frame.WEARER_LOCAL
    assert len(seq) == 4
    flat = PoseSequence.of(joints.reshape(4, 75), "wearer_local")
    assert np.array_equal(flat.joints, joints) and flat.frame == Frame.WEARER_LOCAL
    assert np.array_equal(seq.as_matrix(), joints.reshape(4, 75))
    for bad in (joints[0], joints[:, :24], joints.reshape(4, 25, 3, 1), joints.reshape(-1)):
        with pytest.raises(ValueError, match="expected"):
            PoseSequence.of(bad, Frame.SENSOR)
    for value in (np.nan, np.inf):
        bad = joints.copy()
        bad[2, 7, 1] = value
        with pytest.raises(ValueError, match="finite"):
            PoseSequence.of(bad, Frame.SENSOR)


def test_pose_list_is_stacked_once_and_read_back_as_views():
    poses = [Pose(np.random.default_rng(i).normal(size=(N_JOINTS, 3)), Frame.WEARER_LOCAL) for i in range(3)]
    seq = PoseSequence(poses)
    assert seq.joints.shape == (3, N_JOINTS, 3) and seq.frame == Frame.WEARER_LOCAL
    assert np.array_equal(seq.joints, np.stack([p.joints for p in poses]))
    assert not any(np.shares_memory(seq.joints, p.joints) for p in poses)
    views = seq.poses
    assert [p.frame for p in views] == [Frame.WEARER_LOCAL] * 3
    assert all(np.shares_memory(p.joints, seq.joints) for p in views + [seq[1]])
    assert np.array_equal(seq[1].joints, poses[1].joints) and np.array_equal(seq[-1].joints, poses[2].joints)
    empty = PoseSequence([])
    assert len(empty) == 0 and empty.joints.shape == (0, N_JOINTS, 3) and empty.poses == []


@pytest.mark.parametrize(
    "times, why",
    [
        ([0, 1], "one frame index per pose"),
        ([0, 1, 2, 3], "one frame index per pose"),
        ([[0, 1, 2]], "one frame index per pose"),
        ([5, 1, 0], "must increase"),
        ([0, 2, 2], "must increase"),
        ([0, 0.5, 1], "must hold integers"),
        ([0, True, 2], "must be a list of numbers"),
        (np.array([0.0, np.nan, 2.0]), "must hold integers"),
    ],
)
def test_writer_requires_one_increasing_integral_time_per_pose(tmp_path, times, why):
    seq = PoseSequence.of(np.zeros((3, N_JOINTS, 3)), Frame.SENSOR)
    path = tmp_path / "p.jsonl"
    with pytest.raises(ValueError, match=why):
        save_pose_sequence(path, seq, times=times)
    assert not path.exists()  # checked before the file is opened


@pytest.mark.parametrize(
    "field, value, why",
    [
        ("joints", [[0.0, 0.0, 0.0]] * 24, r"expected \(25, 3\) joints, got \(24, 3\)"),
        ("joints", [[0.0, 0.0, float("nan")]] * 25, "joint coordinates must be finite"),
        ("joints", [[0.0, float("inf"), 0.0]] * 25, "joint coordinates must be finite"),
        ("frame", "world", "'world' is not a valid Frame"),
    ],
)
def test_pose_file_record_errors_name_the_path_and_line(tmp_path, field, value, why):
    good = {"t": 0, "frame": "sensor", "joints": [[0.0, 0.0, 0.0]] * 25}
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, t=1, **{field: value})) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {why}$"):
        load_pose_sequence_with_times(path)


def test_pose_file_mixing_frame_tags_raises_frame_mismatch(tmp_path):
    good = {"t": 0, "frame": "sensor", "joints": [[0.0, 0.0, 0.0]] * 25}
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, t=1, frame="wearer_local")) + "\n")
    with pytest.raises(FrameMismatch):
        load_pose_sequence(path)


def test_pose_vector_and_up_vector_are_checked():
    with pytest.raises(ValueError, match="75-vector"):
        Pose.from_vector(np.zeros(74))
    joints = np.zeros((1, N_JOINTS, 3))
    with pytest.raises(ValueError, match="up vector must be nonzero"):
        normalize_poses(joints, np.zeros(3))
