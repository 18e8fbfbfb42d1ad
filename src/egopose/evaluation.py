"""Joint-error evaluation and the constant / nearest-neighbor baselines.

Predicted and ground-truth poses are compared in the wearer-local frame
after a final alignment (SpineBase to the origin, yaw removed). Errors are
reported in centimeters using the 0.2-normalized shoulder as a 30 cm
reference, i.e. one normalized unit = 150 cm. Reported joints follow the
head / elbows / wrists / knees / ankles grouping with left and right pooled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import KnnIndex
from .clustering import ExemplarBank, SitStand
from .errors import DegeneratePose, EmptyLabel, FrameMismatch
from .records import write_json_object
from .skeleton import Frame, Joint, Pose, PoseSequence

CM_PER_UNIT = 150.0  # five times the 30 cm reference shoulder

JOINT_GROUPS = {
    "Head": [Joint.Head],
    "Elbows": [Joint.ElbowLeft, Joint.ElbowRight],
    "Wrists": [Joint.WristLeft, Joint.WristRight],
    "Knees": [Joint.KneeLeft, Joint.KneeRight],
    "Ankles": [Joint.AnkleLeft, Joint.AnkleRight],
}


@dataclass
class GroupError:
    mean_cm: float
    se_cm: float
    count: int


@dataclass
class ErrorReport:
    groups: dict
    overall_mean_cm: float

    def to_dict(self) -> dict:
        return {
            "groups": {
                name: {"mean_cm": g.mean_cm, "se_cm": g.se_cm, "count": g.count}
                for name, g in self.groups.items()
            },
            "overall_mean_cm": self.overall_mean_cm,
        }

    def save(self, path) -> None:
        write_json_object(path, self.to_dict(), indent=2)

    def format_table(self) -> str:
        width = max(len(n) for n in self.groups)
        lines = [f"{'group':<{width}}  {'mean_cm':>8}  {'se_cm':>7}  {'count':>6}"]
        for name, g in self.groups.items():
            lines.append(f"{name:<{width}}  {g.mean_cm:>8.2f}  {g.se_cm:>7.2f}  {g.count:>6d}")
        lines.append(f"{'overall':<{width}}  {self.overall_mean_cm:>8.2f}")
        return "\n".join(lines)


def _aligned(joints: np.ndarray) -> np.ndarray:
    """Align n wearer-local poses (n, 25, 3) for scoring: SpineBase to the
    origin, then each pose rotated about the up axis until its ShoulderLeft ->
    ShoulderRight vector has no first-axis component (and points along +y).
    Raises DegeneratePose, naming the first bad pose, when a shoulder
    direction has no ground-plane component."""
    joints = joints - joints[:, Joint.SpineBase, None]
    d = joints[:, Joint.ShoulderRight] - joints[:, Joint.ShoulderLeft]
    bad = np.hypot(d[:, 0], d[:, 1]) < 1e-12
    if bad.any():
        raise DegeneratePose(f"pose {int(bad.argmax())}: shoulder direction vertical; yaw undefined")
    phi = np.arctan2(d[:, 0], d[:, 1])
    c, s = np.cos(phi), np.sin(phi)
    rot = np.zeros((len(joints), 3, 3))
    rot[:, 0, 0], rot[:, 0, 1], rot[:, 1, 0], rot[:, 1, 1], rot[:, 2, 2] = c, -s, s, c, 1.0
    return joints @ rot.transpose(0, 2, 1)


def joint_errors(pred: PoseSequence, gt: PoseSequence) -> ErrorReport:
    """Per-group mean / standard-error joint distances in centimeters;
    ValueError unless pred and gt hold the same number of frames, at least
    one."""
    if len(pred) != len(gt):
        raise ValueError(f"{len(pred)} predictions for {len(gt)} ground-truth poses")
    if not len(gt):
        raise ValueError("no frames to compare: both sequences are empty")
    if {pred.frame, gt.frame} != {Frame.WEARER_LOCAL}:
        raise FrameMismatch("alignment expects wearer-local poses")
    pa, pb = _aligned(pred.joints), _aligned(gt.joints)
    dist = np.linalg.norm(pa - pb, axis=2) * CM_PER_UNIT  # (n, 25)

    groups = {}
    all_errors = []
    for name, joints in JOINT_GROUPS.items():
        vals = dist[:, joints].T.ravel()  # joint by joint, frames in order
        all_errors.append(vals)
        se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
        groups[name] = GroupError(float(vals.mean()), se, len(vals))
    overall = float(np.concatenate(all_errors).mean())
    return ErrorReport(groups, overall)


def baseline_constant(bank: ExemplarBank, labels, mode: SitStand) -> Pose:
    """Mean of the bank poses whose cluster carries the requested label."""
    mode = SitStand(mode)
    mask = np.array([l == mode for l in labels], dtype=bool)[bank.cluster_of]
    if not mask.any():
        raise EmptyLabel(f"no training pose labeled {mode.value}")
    return Pose.from_vector(bank.poses[mask].mean(axis=0), Frame.WEARER_LOCAL)


def baseline_kdtree(
    train_features: np.ndarray,
    train_pose_vectors: np.ndarray,
    test_features: np.ndarray,
    index: KnnIndex | None = None,
) -> PoseSequence:
    """1-NN lookup: each test feature takes its nearest training pose. index,
    when given, is a KnnIndex over train_features, such as a kNN
    classifier's own, and saves building one."""
    if index is None:
        index = KnnIndex(train_features)
    nn = index.query_batch(test_features, 1)[:, 0]
    return PoseSequence.of(train_pose_vectors[nn], Frame.WEARER_LOCAL)
