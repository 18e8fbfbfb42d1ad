"""Per-frame unary costs over exemplar poses, plus candidate pruning.

The cost of exemplar pose i at frame n is e = 1 - probs_n[c(p_i)] + d_{i,n}.
The mismatch term d adds delta when a confident static sitting probability
h_n contradicts the pose: a pose is penalized when its own cluster label
disagrees with a confident h (h >= tau says sitting but the pose is
standing-like, or h <= 1 - tau says standing but the pose is sitting-like).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import check_static
from .clustering import ExemplarBank, SitStand
from .errors import LengthMismatch


@dataclass
class CostParams:
    delta: float = 0.1
    tau: float = 0.99
    prune_threshold: float = 0.01

    def __post_init__(self):
        if not (self.delta >= 0):  # NaN fails too
            raise ValueError("delta must be non-negative")
        if not (0.5 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0.5, 1]")
        if not (0.0 <= self.prune_threshold < 1.0):
            raise ValueError("prune threshold must lie in [0, 1)")


@dataclass
class UnaryCosts:
    """Sparse per-frame costs: parallel arrays of exemplar indices and e."""

    indices: list = field(default_factory=list)  # per frame: (m,) int array
    costs: list = field(default_factory=list)  # per frame: (m,) float array

    @property
    def n_frames(self) -> int:
        return len(self.indices)


def unary_costs(
    dists: np.ndarray,
    static_h: np.ndarray,
    bank: ExemplarBank,
    labels,
    params: CostParams = CostParams(),
) -> UnaryCosts:
    """Costs for every bank pose at every frame.

    Every frame's index array is the same read-only arange over the bank.

    Parameters
    ----------
    dists : (N, K) per-frame cluster probability rows.
    static_h : (N,) static sitting probabilities, each in [0, 1]; anything
        else raises InvalidProbability.
    labels : per-cluster SitStand labels.
    """
    dists = np.asarray(dists, dtype=float)
    static_h = check_static(static_h)
    if len(static_h) != len(dists):
        raise LengthMismatch(f"{len(static_h)} static values for {len(dists)} frames")
    if dists.shape[1] != bank.k or len(labels) != bank.k:
        raise LengthMismatch("distribution width and labels must match bank clusters")

    sitting_pose = np.array([l == SitStand.SITTING_LIKE for l in labels], dtype=bool)[bank.cluster_of]
    standing_pose = ~sitting_pose
    out = UnaryCosts()
    all_idx = np.arange(len(bank.poses))
    all_idx.flags.writeable = False
    for n in range(len(dists)):
        base = 1.0 - dists[n][bank.cluster_of]
        h = static_h[n]
        d = np.zeros(len(bank.poses))
        if h >= params.tau:
            d[standing_pose] = params.delta
        elif h <= 1.0 - params.tau:
            d[sitting_pose] = params.delta
        out.indices.append(all_idx)
        out.costs.append(base + d)
    return out


def prune(costs: UnaryCosts, dists: np.ndarray, bank: ExemplarBank, params: CostParams = CostParams()) -> UnaryCosts:
    """Drop pose i at frame n iff probs_n[c(p_i)] <= threshold.

    A threshold of exactly 0 disables pruning and returns the frames' arrays
    as they are, without copies. A frame that would lose all its candidates
    keeps its single highest-probability pose (ties -> the smallest exemplar
    index).
    """
    thr = params.prune_threshold
    if thr == 0.0:
        return UnaryCosts(list(costs.indices), list(costs.costs))
    dists = np.asarray(dists, dtype=float)
    out = UnaryCosts()
    for n in range(costs.n_frames):
        idx = costs.indices[n]
        p = dists[n][bank.cluster_of[idx]]
        keep = p > thr
        if not keep.any():
            keep = np.zeros(len(idx), dtype=bool)
            keep[int(p.argmax())] = True  # argmax takes the first maximum
        out.indices.append(idx[keep])
        out.costs.append(costs.costs[n][keep])
    return out
