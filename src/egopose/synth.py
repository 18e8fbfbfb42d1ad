"""Scripted synthetic wearer: poses, camera homographies, and static h.

A motion script concatenates primitive segments (idle, walk, turns, sit
transitions). Each frame produces a 25-joint pose in a world frame with +z
up, and a chest camera rigidly attached at the SpineShoulder whose yaw
follows the facing direction and whose pitch follows the torso lean.
Consecutive frames emit the homography K R K^-1 of the camera's relative
rotation, plus noisy point correspondences sampled in the image.

The image plane uses unit-width coordinates (the image spans [0, 1] x
[0, 0.75]); one pixel is 1/640 image widths, and pixel-noise sigmas are
converted at that pitch.  All randomness comes from the script seed, so a
script generates bit-identical data on every run.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import ScriptError
from .geometry import CameraIntrinsics, Homography, save_correspondences, save_homographies
from .records import integral, integral_array, load_json_object, model_fields, number, read_records, write_json_object, write_records
from .skeleton import Frame, Joint, Pose, PoseSequence, save_pose_sequence
from .classify import save_static


class Primitive(str, Enum):
    STAND_IDLE = "stand_idle"
    SIT_IDLE = "sit_idle"
    SIT_DOWN = "sit_down"
    STAND_UP = "stand_up"
    WALK = "walk"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


_STANDING_ONLY = {Primitive.STAND_IDLE, Primitive.WALK, Primitive.TURN_LEFT, Primitive.TURN_RIGHT}

# kinematic constants (meters, seconds, degrees)
WALK_CYCLE_HZ = 1.0  # one full gait cycle per second
WALK_SPEED = 1.2
WALK_ARM_SWING = 0.16  # wrist amplitude along the facing direction
WALK_LEG_SWING = 0.20  # ankle amplitude
WALK_FOOT_LIFT = 0.05
WALK_BOB = 0.015  # vertical body oscillation, two per cycle
WALK_PITCH_BOB_DEG = 1.5
WALK_ROLL_SWAY_DEG = 1.2
WALK_YAW_SWAY_DEG = 1.0
TURN_RATE_DEG_S = 90.0
SIT_LEAN_DEG = 12.0  # seated forward torso lean, ramped during transitions
STATIC_H_SIT = 0.99
STATIC_H_STAND = 0.01
POINTS_PER_FRAME = 50
PIXEL_PITCH = 1.0 / 640.0  # image widths per pixel
IMAGE_W = 1.0
IMAGE_H = 0.75

# standing template: x forward, y left, z up; 1.7 m figure, 0.30 m shoulders
STAND_TEMPLATE = np.array([
    [0.00, 0.00, 0.93],   # SpineBase
    [0.00, 0.00, 1.16],   # SpineMid
    [0.00, 0.00, 1.43],   # Neck
    [0.02, 0.00, 1.58],   # Head
    [0.00, 0.15, 1.39],   # ShoulderLeft
    [0.00, 0.21, 1.13],   # ElbowLeft
    [0.02, 0.22, 0.89],   # WristLeft
    [0.03, 0.22, 0.82],   # HandLeft
    [0.00, -0.15, 1.39],  # ShoulderRight
    [0.00, -0.21, 1.13],  # ElbowRight
    [0.02, -0.22, 0.89],  # WristRight
    [0.03, -0.22, 0.82],  # HandRight
    [0.00, 0.09, 0.90],   # HipLeft
    [0.01, 0.10, 0.50],   # KneeLeft
    [0.00, 0.11, 0.08],   # AnkleLeft
    [0.12, 0.11, 0.03],   # FootLeft
    [0.00, -0.09, 0.90],  # HipRight
    [0.01, -0.10, 0.50],  # KneeRight
    [0.00, -0.11, 0.08],  # AnkleRight
    [0.12, -0.11, 0.03],  # FootRight
    [0.00, 0.00, 1.38],   # SpineShoulder
    [0.04, 0.22, 0.74],   # HandTipLeft
    [0.06, 0.19, 0.84],   # ThumbLeft
    [0.04, -0.22, 0.74],  # HandTipRight
    [0.06, -0.19, 0.84],  # ThumbRight
])

# seated: hips dropped, thighs forward, shins vertical, hands on thighs
SIT_TEMPLATE = np.array([
    [0.00, 0.00, 0.47],
    [0.00, 0.00, 0.70],
    [0.00, 0.00, 0.97],
    [0.02, 0.00, 1.12],
    [0.00, 0.15, 0.93],
    [0.05, 0.21, 0.67],
    [0.22, 0.20, 0.55],
    [0.28, 0.20, 0.53],
    [0.00, -0.15, 0.93],
    [0.05, -0.21, 0.67],
    [0.22, -0.20, 0.55],
    [0.28, -0.20, 0.53],
    [0.00, 0.09, 0.44],
    [0.40, 0.10, 0.48],
    [0.42, 0.11, 0.08],
    [0.54, 0.11, 0.03],
    [0.00, -0.09, 0.44],
    [0.40, -0.10, 0.48],
    [0.42, -0.11, 0.08],
    [0.54, -0.11, 0.03],
    [0.00, 0.00, 0.92],
    [0.33, 0.20, 0.52],
    [0.28, 0.17, 0.55],
    [0.33, -0.20, 0.52],
    [0.28, -0.17, 0.55],
])

_UPPER_BODY = np.array([
    Joint.SpineMid, Joint.Neck, Joint.Head,
    Joint.ShoulderLeft, Joint.ElbowLeft, Joint.WristLeft, Joint.HandLeft,
    Joint.ShoulderRight, Joint.ElbowRight, Joint.WristRight, Joint.HandRight,
    Joint.SpineShoulder, Joint.HandTipLeft, Joint.ThumbLeft,
    Joint.HandTipRight, Joint.ThumbRight,
], dtype=int)

_SIT_LABEL_Z = (0.90 + 0.44) / 2.0  # hip-midpoint height split


@dataclass
class MotionScript:
    """Ordered (primitive, frame-count) segments plus noise levels.

    Sitting is only reachable through sit_down and left through stand_up;
    the starting state is inferred from the first primitive.
    """

    segments: list
    seed: int = 0
    joint_jitter: float = 0.004  # meters, per joint coordinate
    pixel_noise: float = 0.5  # pixels, on correspondence endpoints
    translation_noise: float = 0.0  # pixels; fakes parallax from camera translation

    def __post_init__(self):
        if not self.segments:
            raise ScriptError("script needs at least one segment")
        parsed = []
        for prim, dur in self.segments:
            prim = Primitive(prim)
            dur = int(dur)
            if dur < 1:
                raise ScriptError(f"{prim.value}: duration must be at least one frame")
            parsed.append((prim, dur))
        self.segments = parsed
        seated = self.segments[0][0] in (Primitive.SIT_IDLE, Primitive.STAND_UP)
        for prim, _ in self.segments:
            if prim in _STANDING_ONLY or prim == Primitive.SIT_DOWN:
                if seated:
                    raise ScriptError(f"{prim.value} requires standing")
            else:  # sit_idle, stand_up
                if not seated:
                    raise ScriptError(f"{prim.value} requires sitting")
            if prim == Primitive.SIT_DOWN:
                seated = True
            elif prim == Primitive.STAND_UP:
                seated = False

    @property
    def n_frames(self) -> int:
        return sum(d for _, d in self.segments)

    @classmethod
    def from_json(cls, path) -> "MotionScript":
        """The script a JSON file holds: segments as [primitive, frames]
        pairs, and optionally seed and the three noise levels. A duration or
        seed that is no integer, or a noise level that is no number, raises
        ValueError naming the file."""
        rec = load_json_object(path)
        with model_fields(path):
            prims = [s for s, _ in rec["segments"]]
            durations = integral_array([d for _, d in rec["segments"]], "segment durations")
            kw = {key: number(rec, key) for key in ("joint_jitter", "pixel_noise", "translation_noise") if key in rec}
            if "seed" in rec:
                kw["seed"] = integral(rec, "seed")
            return cls(list(zip(prims, durations.tolist())), **kw)


def default_camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=1.1, fy=1.1, cx=0.5, cy=0.375)


@dataclass
class SynthResult:
    poses: PoseSequence  # sensor frame, world +z up
    homographies: list  # N - 1 Homography, frame i -> i + 1
    correspondences: list  # N - 1 (src, dst) point arrays
    static_h: np.ndarray  # (N,) scripted sitting probability
    sit_labels: np.ndarray  # (N,) bool, ground-truth sitting
    intrinsics: CameraIntrinsics
    script: MotionScript

    def write(self, out_dir) -> dict:
        """Write all artifacts plus a manifest; returns the manifest dict."""
        os.makedirs(out_dir, exist_ok=True)
        files = {
            "poses": "poses.jsonl",
            "homographies": "homographies.jsonl",
            "correspondences": "correspondences.jsonl",
            "static_h": "static_h.jsonl",
            "labels": "labels.jsonl",
        }
        save_pose_sequence(os.path.join(out_dir, files["poses"]), self.poses)
        save_homographies(os.path.join(out_dir, files["homographies"]), self.homographies)
        save_correspondences(os.path.join(out_dir, files["correspondences"]), self.correspondences)
        save_static(os.path.join(out_dir, files["static_h"]), self.static_h)
        labels = ({"t": n, "sitting": bool(sit)} for n, sit in enumerate(self.sit_labels))
        write_records(os.path.join(out_dir, files["labels"]), labels)
        manifest = {
            "files": files,
            "frames": len(self.poses),
            "frame_rate_hz": self.poses.frame_rate_hz,
            "seed": self.script.seed,
            "segments": [[p.value, d] for p, d in self.script.segments],
            "joint_jitter": self.script.joint_jitter,
            "pixel_noise": self.script.pixel_noise,
            "translation_noise": self.script.translation_noise,
            "intrinsics": asdict(self.intrinsics),
        }
        write_json_object(os.path.join(out_dir, "manifest.json"), manifest, indent=2)
        return manifest


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


# camera axes in body coordinates: right = -y, down = -z, forward = +x
_CAM_IN_BODY = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def generate(script: MotionScript, camera: CameraIntrinsics | None = None, frame_rate_hz: float = 30.0) -> SynthResult:
    """Run the script through the keyframe model.

    Deterministic for a fixed script (seed included). Returns ground-truth
    poses in the sensor frame, exact relative-rotation homographies, noisy
    correspondences, the scripted static h, and per-frame sit labels.
    """
    if camera is None:
        camera = default_camera()
    rng = np.random.default_rng(script.seed)
    fps = frame_rate_hz
    n_frames = script.n_frames

    # per-frame kinematic state
    sit_mix = np.zeros(n_frames)  # 0 standing template, 1 seated template
    yaw = np.zeros(n_frames)
    pitch = np.zeros(n_frames)
    roll = np.zeros(n_frames)
    gait = np.full(n_frames, np.nan)  # phase while walking
    pos_x = np.zeros(n_frames)
    pos_y = np.zeros(n_frames)
    bob = np.zeros(n_frames)

    cur_yaw = 0.0
    cur_x = cur_y = 0.0
    phase = 0.0
    seated = script.segments[0][0] in (Primitive.SIT_IDLE, Primitive.STAND_UP)
    mix = 1.0 if seated else 0.0
    frame = 0
    static_h = np.zeros(n_frames)

    for prim, dur in script.segments:
        for f in range(dur):
            n = frame + f
            prog = (f + 1) / dur
            if prim == Primitive.SIT_DOWN:
                mix = prog
                static_h[n] = STATIC_H_STAND + (STATIC_H_SIT - STATIC_H_STAND) * prog
            elif prim == Primitive.STAND_UP:
                mix = 1.0 - prog
                static_h[n] = STATIC_H_SIT + (STATIC_H_STAND - STATIC_H_SIT) * prog
            else:
                static_h[n] = STATIC_H_SIT if seated else STATIC_H_STAND
            if prim == Primitive.WALK:
                phase += 2.0 * np.pi * WALK_CYCLE_HZ / fps
                gait[n] = phase
                cur_x += WALK_SPEED / fps * np.cos(cur_yaw)
                cur_y += WALK_SPEED / fps * np.sin(cur_yaw)
                bob[n] = WALK_BOB * 0.5 * (1.0 - np.cos(2.0 * phase))
            elif prim == Primitive.TURN_LEFT:
                cur_yaw += np.deg2rad(TURN_RATE_DEG_S) / fps
            elif prim == Primitive.TURN_RIGHT:
                cur_yaw -= np.deg2rad(TURN_RATE_DEG_S) / fps
            sit_mix[n] = mix
            lean = np.deg2rad(SIT_LEAN_DEG) * mix
            sway = 0.0
            if prim == Primitive.WALK:
                lean = lean + np.deg2rad(WALK_PITCH_BOB_DEG) * np.sin(2.0 * phase)
                roll[n] = np.deg2rad(WALK_ROLL_SWAY_DEG) * np.sin(phase)
                sway = np.deg2rad(WALK_YAW_SWAY_DEG) * np.sin(phase)
            pitch[n] = lean
            yaw[n] = cur_yaw + sway
            pos_x[n], pos_y[n] = cur_x, cur_y
        if prim == Primitive.SIT_DOWN:
            seated = True
        elif prim == Primitive.STAND_UP:
            seated = False
        frame += dur

    # assemble joints
    poses = []
    sit_labels = np.zeros(n_frames, dtype=bool)
    for n in range(n_frames):
        joints = (1.0 - sit_mix[n]) * STAND_TEMPLATE + sit_mix[n] * SIT_TEMPLATE
        if not np.isnan(gait[n]):
            sw = np.sin(gait[n])
            joints[[Joint.WristLeft, Joint.HandLeft, Joint.HandTipLeft, Joint.ThumbLeft], 0] += WALK_ARM_SWING * sw
            joints[[Joint.WristRight, Joint.HandRight, Joint.HandTipRight, Joint.ThumbRight], 0] -= WALK_ARM_SWING * sw
            joints[[Joint.ElbowLeft], 0] += 0.5 * WALK_ARM_SWING * sw
            joints[[Joint.ElbowRight], 0] -= 0.5 * WALK_ARM_SWING * sw
            joints[[Joint.AnkleLeft, Joint.FootLeft], 0] -= WALK_LEG_SWING * sw
            joints[[Joint.AnkleRight, Joint.FootRight], 0] += WALK_LEG_SWING * sw
            joints[[Joint.KneeLeft], 0] -= 0.5 * WALK_LEG_SWING * sw
            joints[[Joint.KneeRight], 0] += 0.5 * WALK_LEG_SWING * sw
            joints[[Joint.AnkleLeft, Joint.FootLeft], 2] += WALK_FOOT_LIFT * max(0.0, -sw)
            joints[[Joint.AnkleRight, Joint.FootRight], 2] += WALK_FOOT_LIFT * max(0.0, sw)

        base = joints[Joint.SpineBase].copy()
        joints[_UPPER_BODY] = base + (joints[_UPPER_BODY] - base) @ _rot_y(pitch[n]).T
        if roll[n] != 0.0:
            joints = base + (joints - base) @ _rot_x(roll[n]).T
        joints = base + (joints - base) @ _rot_z(yaw[n]).T
        joints[:, 0] += pos_x[n]
        joints[:, 1] += pos_y[n]
        joints[:, 2] += bob[n]
        sit_labels[n] = joints[[Joint.HipLeft, Joint.HipRight], 2].mean() - bob[n] < _SIT_LABEL_Z

        joints = joints + rng.normal(0.0, script.joint_jitter, size=joints.shape)
        poses.append(Pose(joints, Frame.SENSOR))

    # camera orientations and relative-rotation homographies
    km = camera.k
    km_inv = np.linalg.inv(km)
    cams = []
    for n in range(n_frames):
        r_cw = _rot_z(yaw[n]) @ _rot_y(pitch[n]) @ _rot_x(roll[n]) @ _CAM_IN_BODY
        cams.append(r_cw.T)  # world -> camera

    sigma = script.pixel_noise * PIXEL_PITCH
    homographies = []
    correspondences = []
    margin = 0.04
    for n in range(n_frames - 1):
        r_rel = cams[n + 1] @ cams[n].T
        h = Homography.from_matrix(km @ r_rel @ km_inv)
        homographies.append(h)
        src = np.column_stack([
            rng.uniform(margin, IMAGE_W - margin, POINTS_PER_FRAME),
            rng.uniform(margin, IMAGE_H - margin, POINTS_PER_FRAME),
        ])
        dst = h.apply(src)
        if sigma > 0:
            dst = dst + rng.normal(0.0, sigma, size=dst.shape)
        if script.translation_noise > 0:
            # coherent per-frame shift scaled per point, like depth parallax
            shift = rng.normal(0.0, script.translation_noise * PIXEL_PITCH, size=2)
            dst = dst + shift[None, :] * rng.uniform(0.5, 1.5, size=(POINTS_PER_FRAME, 1))
        correspondences.append((src, dst))

    return SynthResult(
        PoseSequence(poses, fps),
        homographies,
        correspondences,
        static_h,
        sit_labels,
        camera,
        script,
    )


def _sitting(rec) -> bool:
    sit = rec["sitting"]
    if not isinstance(sit, bool):
        raise ValueError(f"sitting must be true or false, found {sit!r}")
    return sit


def load_labels(path) -> np.ndarray:
    return np.array(list(read_records(path, _sitting)), dtype=bool)
