"""Tests for the scripted motion generator.

The generator is the package's ground-truth source, so these tests pin its
observable contracts: exact homographies for exact correspondences, scripted
static probabilities, label plateaus at the hip-height midpoint, kinematic
displacement of the walk/turn primitives, and bitwise determinism.
"""

import json
import math

import numpy as np
import pytest

from egopose import (
    CameraIntrinsics,
    Joint,
    MotionScript,
    Primitive,
    ScriptError,
    estimate_homography,
    load_correspondences,
    load_homographies,
    load_pose_sequence,
    load_static,
    normalize_pose,
    rotations_from_homographies,
)
from egopose.synth import (
    POINTS_PER_FRAME,
    SIT_LEAN_DEG,
    STATIC_H_SIT,
    STATIC_H_STAND,
    WALK_SPEED,
    default_camera,
    generate,
    load_labels,
)


def quiet(segments, **kw):
    kw.setdefault("joint_jitter", 0.0)
    kw.setdefault("pixel_noise", 0.0)
    return MotionScript(segments, **kw)


# ---------------------------------------------------------------------------
# script validation


def test_script_rejects_empty_and_zero_duration():
    with pytest.raises(ScriptError):
        MotionScript([])
    with pytest.raises(ScriptError):
        MotionScript([("stand_idle", 0)])
    with pytest.raises((ScriptError, ValueError)):
        MotionScript([("moonwalk", 10)])


def test_script_tracks_sitting_state():
    # walking while seated is impossible
    with pytest.raises(ScriptError):
        MotionScript([("sit_idle", 10), ("walk", 10)])
    # standing up while already standing is impossible
    with pytest.raises(ScriptError):
        MotionScript([("stand_idle", 10), ("stand_up", 10)])
    # sitting down twice without standing up is impossible
    with pytest.raises(ScriptError):
        MotionScript([("sit_down", 10), ("sit_down", 10)])
    # the starting state follows the first primitive
    MotionScript([("sit_idle", 5), ("stand_up", 5), ("walk", 5)])
    MotionScript([("stand_up", 5), ("sit_down", 5)])
    MotionScript([("stand_idle", 5), ("sit_down", 5), ("sit_idle", 5)])


def test_script_accepts_enum_and_string_segments():
    s = MotionScript([(Primitive.WALK, 10), ("turn_left", 5)])
    assert s.segments[0] == (Primitive.WALK, 10)
    assert s.segments[1] == (Primitive.TURN_LEFT, 5)
    assert s.n_frames == 15


@pytest.mark.parametrize("duration", [40.7, "30", True, np.bool_(True), None])
def test_script_durations_are_checked_not_cast(duration):
    with pytest.raises(ValueError, match="^segment durations must "):
        MotionScript([("walk", 5), ("walk", duration)])


def test_script_durations_read_integral_numbers_as_ints():
    s = MotionScript([("walk", np.int64(5)), ("walk", 6.0), ("walk", 7)])
    assert s.segments == [(Primitive.WALK, 5), (Primitive.WALK, 6), (Primitive.WALK, 7)]
    assert all(type(d) is int for _, d in s.segments)


def test_script_from_json(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(
        json.dumps(
            {
                "segments": [["stand_idle", 30], ["walk", 60]],
                "seed": 7,
                "joint_jitter": 0.002,
                "pixel_noise": 0.25,
            }
        )
    )
    s = MotionScript.from_json(path)
    assert s.segments == [(Primitive.STAND_IDLE, 30), (Primitive.WALK, 60)]
    assert s.seed == 7
    assert s.joint_jitter == pytest.approx(0.002)
    assert s.pixel_noise == pytest.approx(0.25)
    assert s.translation_noise == 0.0


# ---------------------------------------------------------------------------
# idle: the degenerate-motion case


def test_stand_idle_noiseless_gives_identity_homographies():
    out = generate(quiet([("stand_idle", 30)]))
    assert len(out.homographies) == 29
    for h in out.homographies:
        assert np.allclose(h.h, np.eye(3), atol=1e-12)
    for src, dst in out.correspondences:
        assert src.shape == (POINTS_PER_FRAME, 2)
        assert np.allclose(src, dst, atol=1e-12)
    assert np.all(out.static_h == STATIC_H_STAND)
    assert not out.sit_labels.any()


def test_sit_idle_noiseless_is_static_and_sitting():
    out = generate(quiet([("sit_idle", 20)]))
    for h in out.homographies:
        assert np.allclose(h.h, np.eye(3), atol=1e-12)
    assert np.all(out.static_h == STATIC_H_SIT)
    assert out.sit_labels.all()


# ---------------------------------------------------------------------------
# sit_down: monotone pitch and hip descent


def test_sit_down_lowers_hips_monotonically():
    out = generate(quiet([("sit_down", 30)]))
    hips = np.array(
        [p.joints[[Joint.HipLeft, Joint.HipRight], 2].mean() for p in out.poses.poses]
    )
    assert np.all(np.diff(hips) < 0.0)
    assert hips[0] > 0.85
    assert hips[-1] == pytest.approx(0.44, abs=1e-9)


def test_sit_down_pitches_camera_monotonically():
    cam = default_camera()
    out = generate(quiet([("sit_down", 30)]))
    steps = []
    for h in out.homographies:
        r = rotations_from_homographies([h], cam)[0]
        # a forward lean is a rotation about the camera's right (x) axis
        angle = math.atan2(r[2, 1], r[2, 2])
        off_axis = abs(r[0, 1]) + abs(r[0, 2]) + abs(r[1, 0]) + abs(r[2, 0])
        assert off_axis < 1e-9
        steps.append(angle)
    steps = np.array(steps)
    assert np.all(steps > 0.0)  # every step tips further forward
    total = steps.sum()
    expected = math.radians(SIT_LEAN_DEG) * (29 / 30)
    assert total == pytest.approx(expected, rel=1e-6)


def test_static_h_ramps_through_transitions():
    out = generate(quiet([("stand_idle", 5), ("sit_down", 10), ("sit_idle", 5)]))
    h = out.static_h
    assert np.all(h[:5] == STATIC_H_STAND)
    ramp = h[5:15]
    assert np.all(np.diff(ramp) > 0)
    assert ramp[-1] == pytest.approx(STATIC_H_SIT)
    assert np.all(h[15:] == STATIC_H_SIT)
    back = generate(quiet([("sit_idle", 5), ("stand_up", 10), ("stand_idle", 5)]))
    ramp = back.static_h[5:15]
    assert np.all(np.diff(ramp) < 0)
    assert ramp[-1] == pytest.approx(STATIC_H_STAND)


def test_sit_labels_flip_at_hip_midpoint():
    out = generate(
        quiet(
            [
                ("stand_idle", 10),
                ("sit_down", 10),
                ("sit_idle", 10),
                ("stand_up", 10),
                ("stand_idle", 5),
            ]
        )
    )
    expected = np.zeros(45, dtype=bool)
    expected[15:34] = True  # mid-descent through mid-ascent
    assert out.sit_labels.tolist() == expected.tolist()


# ---------------------------------------------------------------------------
# locomotion kinematics


def test_walk_advances_position_at_scripted_speed():
    out = generate(quiet([("walk", 60)]))
    x = np.array([p.joints[Joint.SpineBase, 0] for p in out.poses.poses])
    assert np.all(np.diff(x) > 0.0)
    assert x[-1] == pytest.approx(WALK_SPEED * 2.0, abs=0.05)
    # walking is not static: interior homographies move
    mid = out.homographies[len(out.homographies) // 2]
    assert not np.allclose(mid.h, np.eye(3), atol=1e-6)


def test_turns_redirect_the_walk():
    right = generate(quiet([("walk", 30), ("turn_right", 30), ("walk", 30)]))
    base = right.poses.poses[59].joints[Joint.SpineBase]
    end = right.poses.poses[89].joints[Joint.SpineBase]
    leg = end - base
    assert leg[1] == pytest.approx(-WALK_SPEED, abs=0.1)  # second leg heads -y
    assert abs(leg[0]) < 0.1

    left = generate(quiet([("walk", 30), ("turn_left", 30), ("walk", 30)]))
    leg = (
        left.poses.poses[89].joints[Joint.SpineBase]
        - left.poses.poses[59].joints[Joint.SpineBase]
    )
    assert leg[1] == pytest.approx(WALK_SPEED, abs=0.1)


def test_turn_in_place_keeps_position():
    out = generate(quiet([("turn_left", 30)]))
    for p in out.poses.poses:
        assert abs(p.joints[Joint.SpineBase, 0]) < 1e-9
        assert abs(p.joints[Joint.SpineBase, 1]) < 1e-9
    # but the camera rotates, so homographies are far from identity
    for h in out.homographies:
        assert not np.allclose(h.h, np.eye(3), atol=1e-3)


# ---------------------------------------------------------------------------
# homography / correspondence consistency


def test_noiseless_correspondences_reproduce_homographies():
    out = generate(quiet([("walk", 20), ("turn_left", 10), ("sit_down", 10)], seed=5))
    worst = 0.0
    for h, (src, dst) in zip(out.homographies, out.correspondences):
        est = estimate_homography(src, dst)
        worst = max(worst, float(np.abs(est.h - h.h).max()))
    assert worst < 1e-6


def test_noisy_correspondences_stay_close():
    script = MotionScript(
        [("walk", 20), ("turn_right", 10)], seed=11, joint_jitter=0.0, pixel_noise=0.5
    )
    out = generate(script)
    worst = 0.0
    for h, (src, dst) in zip(out.homographies, out.correspondences):
        est = estimate_homography(src, dst)
        worst = max(worst, float(np.abs(est.h - h.h).max()))
    assert 0.0 < worst < 1e-2


def test_correspondences_stay_inside_the_image():
    out = generate(MotionScript([("walk", 40)], seed=3))
    for src, dst in out.correspondences:
        assert src[:, 0].min() >= 0.0 and src[:, 0].max() <= 1.0
        assert src[:, 1].min() >= 0.0 and src[:, 1].max() <= 0.75


# ---------------------------------------------------------------------------
# pose validity and determinism


def test_all_generated_poses_normalize():
    script = MotionScript(
        [("stand_idle", 10), ("walk", 20), ("sit_down", 15), ("sit_idle", 10)], seed=21
    )
    out = generate(script)
    up = np.array([0.0, 0.0, 1.0])
    for p in out.poses.poses:
        normalize_pose(p, up)  # must not raise


def test_generation_is_deterministic_per_seed():
    script = [("walk", 20), ("sit_down", 10)]
    a = generate(MotionScript(script, seed=42))
    b = generate(MotionScript(script, seed=42))
    c = generate(MotionScript(script, seed=43))
    for pa, pb in zip(a.poses.poses, b.poses.poses):
        assert np.array_equal(pa.joints, pb.joints)
    for ha, hb in zip(a.homographies, b.homographies):
        assert np.array_equal(ha.h, hb.h)
    for (sa, da), (sb, db) in zip(a.correspondences, b.correspondences):
        assert np.array_equal(sa, sb) and np.array_equal(da, db)
    assert np.array_equal(a.static_h, b.static_h)
    changed = any(
        not np.array_equal(pa.joints, pc.joints)
        for pa, pc in zip(a.poses.poses, c.poses.poses)
    )
    assert changed


def test_default_camera_values():
    cam = default_camera()
    assert isinstance(cam, CameraIntrinsics)
    assert (cam.fx, cam.fy, cam.cx, cam.cy) == (1.1, 1.1, 0.5, 0.375)


# ---------------------------------------------------------------------------
# artifact files


def test_write_and_reload_round_trip(tmp_path):
    script = MotionScript([("stand_idle", 5), ("sit_down", 10)], seed=13)
    out = generate(script)
    manifest = out.write(tmp_path)
    assert manifest["frames"] == 15
    assert manifest["seed"] == 13
    assert manifest["intrinsics"]["fx"] == pytest.approx(1.1)
    assert json.loads((tmp_path / "manifest.json").read_text()) == manifest

    seq = load_pose_sequence(tmp_path / "poses.jsonl")
    assert len(seq) == 15
    for loaded, orig in zip(seq.poses, out.poses.poses):
        assert np.array_equal(loaded.joints, orig.joints)

    hs = load_homographies(tmp_path / "homographies.jsonl")
    assert len(hs) == 14
    for loaded, orig in zip(hs, out.homographies):
        assert np.array_equal(loaded.h, orig.h)

    cs = load_correspondences(tmp_path / "correspondences.jsonl")
    for (ls, ld), (os_, od) in zip(cs, out.correspondences):
        assert np.array_equal(ls, os_) and np.array_equal(ld, od)

    assert np.array_equal(load_static(tmp_path / "static_h.jsonl"), out.static_h)
    assert np.array_equal(load_labels(tmp_path / "labels.jsonl"), out.sit_labels)


def test_translation_noise_shifts_dst_deterministically_and_keeps_the_homographies():
    """translation_noise moves each frame's dst by one random shift, scaled
    per point, so every point moves along one direction; the homographies
    stay the exact rotation-only maps of the noise-free script."""
    segments = [("walk", 12), ("turn_left", 8)]
    plain = generate(MotionScript(segments, seed=4, joint_jitter=0.0, pixel_noise=0.0))
    runs = [generate(MotionScript(segments, seed=4, joint_jitter=0.0, pixel_noise=0.0, translation_noise=3.0)) for _ in range(2)]
    for (sa, da), (sb, db) in zip(runs[0].correspondences, runs[1].correspondences):
        assert np.array_equal(sa, sb) and np.array_equal(da, db)
    for h, h0, (src, dst) in zip(runs[0].homographies, plain.homographies, runs[0].correspondences):
        assert np.array_equal(h.h, h0.h)
        moved = dst - h.apply(src)
        assert np.linalg.norm(moved, axis=1).min() > 0.0
        first = moved[0] / np.linalg.norm(moved[0])
        assert np.abs(moved[:, 0] * first[1] - moved[:, 1] * first[0]).max() < 1e-12  # all along one direction
