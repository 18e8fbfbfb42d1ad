"""25-joint skeleton representation and wearer-centric normalization.

A pose is a (25, 3) array of joint positions in the standard Kinect V2 joint
order. Poses are either in the raw sensor frame (meters, arbitrary origin) or
in the wearer-local frame produced by :func:`normalize_poses`: origin at
SpineBase, third axis along `up`, second axis along the ground-projected
shoulder direction, scaled by five times the shoulder length so the shoulder
distance is exactly 0.2.

A PoseSequence holds N poses as one (N, 25, 3) array with one frame tag;
Pose is the one-pose view that seq[i], seq.poses and normalize_pose return.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

import numpy as np

from .errors import DegeneratePose, FrameMismatch
from .records import integral, integral_array, number_array, read_records, write_records

N_JOINTS = 25


class Joint(IntEnum):
    SpineBase = 0
    SpineMid = 1
    Neck = 2
    Head = 3
    ShoulderLeft = 4
    ElbowLeft = 5
    WristLeft = 6
    HandLeft = 7
    ShoulderRight = 8
    ElbowRight = 9
    WristRight = 10
    HandRight = 11
    HipLeft = 12
    KneeLeft = 13
    AnkleLeft = 14
    FootLeft = 15
    HipRight = 16
    KneeRight = 17
    AnkleRight = 18
    FootRight = 19
    SpineShoulder = 20
    HandTipLeft = 21
    ThumbLeft = 22
    HandTipRight = 23
    ThumbRight = 24


class Frame(str, Enum):
    SENSOR = "sensor"
    WEARER_LOCAL = "wearer_local"


def _joints(values) -> np.ndarray:
    """values as a (25, 3) float array, every coordinate finite; else ValueError."""
    joints = np.asarray(values, dtype=float)
    if joints.shape != (N_JOINTS, 3):
        raise ValueError(f"expected (25, 3) joints, got {joints.shape}")
    if not np.isfinite(joints).all():
        raise ValueError("joint coordinates must be finite")
    return joints


@dataclass
class Pose:
    """Joint positions plus the frame they live in.

    joints: (25, 3) float array. Finite, fixed joint order.
    """

    joints: np.ndarray
    frame: Frame = Frame.SENSOR

    def __post_init__(self):
        self.joints = _joints(self.joints)
        self.frame = Frame(self.frame)

    def to_vector(self) -> np.ndarray:
        """Flatten to a 75-vector (row-major joint order)."""
        return self.joints.reshape(-1).copy()

    @classmethod
    def from_vector(cls, v: np.ndarray, frame: Frame = Frame.WEARER_LOCAL) -> "Pose":
        v = np.asarray(v, dtype=float)
        if v.shape != (3 * N_JOINTS,):
            raise ValueError(f"expected a 75-vector, got {v.shape}")
        return cls(v.reshape(N_JOINTS, 3), frame)


class PoseSequence:
    """N poses sharing one frame tag: joints (N, 25, 3), all finite, checked
    once. of() takes the array; PoseSequence(poses) stacks Pose objects
    (FrameMismatch when their tags differ; none is sensor-frame); seq[i],
    .poses read it back."""

    def __init__(self, poses=()):
        frames = {p.frame for p in poses}
        if len(frames) > 1:
            raise FrameMismatch("sequence mixes frame tags")
        joints = np.array([p.joints for p in poses]).reshape(-1, N_JOINTS, 3)
        self._set(joints, frames.pop() if frames else Frame.SENSOR)

    @classmethod
    def of(cls, joints, frame: Frame) -> "PoseSequence":
        """The sequence of an (N, 25, 3) or (N, 75) float array, not copied."""
        seq = cls.__new__(cls)
        seq._set(joints, frame)
        return seq

    def _set(self, joints, frame: Frame) -> None:
        joints = np.asarray(joints, dtype=float)
        if joints.shape[1:] not in ((N_JOINTS, 3), (3 * N_JOINTS,)):
            raise ValueError(f"expected (N, 25, 3) or (N, 75) joints, got {joints.shape}")
        if not np.isfinite(joints).all():
            raise ValueError("joint coordinates must be finite")
        self.joints = joints.reshape(-1, N_JOINTS, 3)
        self.frame = Frame(frame)

    def __len__(self):
        return len(self.joints)

    def __getitem__(self, i) -> Pose:
        return Pose(self.joints[i], self.frame)

    @property
    def poses(self) -> list:
        """One Pose per frame, each a view of its row of joints."""
        return [Pose(j, self.frame) for j in self.joints]

    def as_matrix(self) -> np.ndarray:
        """(N, 75) copy of the joints, one flattened pose a row."""
        return self.joints.reshape(-1, 3 * N_JOINTS).copy()


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of two (n, 3) arrays, each formed by the same
    kernel np.dot uses for one pair of 3-vectors, so a row's value does not
    depend on the batch it came in."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def normalize_poses(joints: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Map n poses, (n, 25, 3) or (n, 75), into the wearer-local frame.

    Axes: axis3 = up; axis2 = ground-projected ShoulderLeft->ShoulderRight
    direction; axis1 = axis2 x axis3. Origin at SpineBase, coordinates divided
    by five times the shoulder length, so the output shoulder distance is 0.2.
    Translation- and yaw-invariant by construction; idempotent on its own
    output when called with up = +z. Returns (n, 25, 3).

    Raises DegeneratePose, naming the first bad pose, when its shoulders
    (near-)coincide or its shoulder line is parallel to up.
    """
    up = np.asarray(up, dtype=float)
    nu = np.linalg.norm(up)
    if nu < 1e-12:
        raise ValueError("up vector must be nonzero")
    a3 = up / nu

    j = np.asarray(joints, dtype=float).reshape(-1, N_JOINTS, 3)
    d = j[:, Joint.ShoulderRight] - j[:, Joint.ShoulderLeft]
    sl = np.sqrt(_rowdot(d, d))
    proj = d - _rowdot(d, np.broadcast_to(a3, d.shape))[:, None] * a3
    np_len = np.sqrt(_rowdot(proj, proj))
    bad = (sl < 1e-9) | (np_len < 1e-12)
    if bad.any():
        i = int(bad.argmax())
        why = "shoulders coincide" if sl[i] < 1e-9 else "shoulder line parallel to up"
        raise DegeneratePose(f"pose {i}: {why}")
    a2 = proj / np_len[:, None]
    a1 = np.cross(a2, a3)

    rot = np.stack([a1, a2, np.broadcast_to(a3, a2.shape)], axis=1)  # rows: local axes in input coordinates
    local = (j - j[:, Joint.SpineBase, None]) @ rot.transpose(0, 2, 1)
    return local / (5.0 * sl)[:, None, None]


def normalize_pose(p: Pose, up: np.ndarray) -> Pose:
    """Map one pose into the wearer-local frame: normalize_poses of one row."""
    return Pose(normalize_poses(p.joints[None], up)[0], Frame.WEARER_LOCAL)


def save_pose_sequence(path, seq: PoseSequence, times=None) -> None:
    """Write one JSON object per line: {"t", "frame", "joints"}. times, one
    integral frame index per pose, strictly increasing, default to 0, 1, ...;
    any other times raise ValueError before the file is opened."""
    times = np.arange(len(seq)) if times is None else integral_array(times, "times")
    if times.shape != (len(seq),):
        raise ValueError(f"times must hold one frame index per pose, found {times.size} for {len(seq)}")
    if (np.diff(times) <= 0).any():
        raise ValueError("times must increase")
    tag = seq.frame.value
    write_records(path, ({"t": t, "frame": tag, "joints": j.tolist()} for t, j in zip(times.tolist(), seq.joints)))


def load_pose_sequence(path) -> PoseSequence:
    """Read a pose JSONL file; frame indices must be strictly increasing."""
    seq, _ = load_pose_sequence_with_times(path)
    return seq


def load_pose_sequence_with_times(path):
    """Like load_pose_sequence but also returns the stored frame indices. A
    bad record raises ValueError naming path:line; mixed tags FrameMismatch."""
    times, frames = [], set()

    def joints(rec) -> np.ndarray:
        t = integral(rec, "t")
        if times and t <= times[-1]:
            raise ValueError("frame indices must increase")
        j, frame = number_array(rec["joints"], "joints"), Frame(rec["frame"])
        frames.add(frame)
        times.append(t)
        return _joints(j)

    rows = np.array(list(read_records(path, joints))).reshape(-1, N_JOINTS, 3)
    if len(frames) > 1:
        raise FrameMismatch("sequence mixes frame tags")
    frame = frames.pop() if frames else Frame.SENSOR
    return PoseSequence.of(rows, frame), np.array(times, dtype=int)
