"""Per-frame unary costs over exemplar poses, plus candidate pruning.

The cost of exemplar pose i of cluster c at frame n is e = 1 - probs_n[c] +
d_{n,c}, where d adds delta when a confident static sitting probability h_n
contradicts c's label (h >= tau says sitting but c is standing-like, or
h <= 1 - tau says standing but c is sitting-like). delta and tau are fields
of the one pathopt.PathParams, so U's delta is T's. As e depends on a pose
only through its cluster, unary_costs returns a pathopt.Trellis over one
(N, K) table of it, whose columns are the clusters, with every column kept.
prune keeps that table and replaces only the (N, K) keep mask: one
comparison of the cluster probabilities against a threshold it is given.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .classify import check_static
from .clustering import ExemplarBank, SitStand
from .errors import InvalidProbability, LengthMismatch
from .pathopt import PathParams, Trellis


def unary_costs(
    dists: np.ndarray,
    static_h: np.ndarray,
    bank: ExemplarBank,
    labels,
    params: PathParams = PathParams(),
) -> Trellis:
    """Costs for every bank pose at every frame: a trellis over the (N, K)
    table with column_of = bank.cluster_of, whose keep mask is one read-only
    broadcast True, so every frame lists the whole bank.

    Parameters
    ----------
    dists : (N, K) per-frame cluster probability rows, each entry in
        [0, 1]; anything else raises InvalidProbability.
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
    valid = (dists >= 0.0) & (dists <= 1.0)  # NaN fails too
    if not valid.all():
        n, c = np.argwhere(~valid)[0]
        raise InvalidProbability(f"cluster probability {float(dists[n, c])} at frame {n}, cluster {c} is not in [0, 1]")

    sitting = np.array([l == SitStand.SITTING_LIKE for l in labels], dtype=bool)
    sure_sit, sure_stand = (static_h >= params.tau)[:, None], (static_h <= 1.0 - params.tau)[:, None]
    table = (1.0 - dists) + np.where((sure_sit & ~sitting) | (sure_stand & sitting), params.delta, 0.0)
    return Trellis(table, bank.cluster_of, np.broadcast_to(True, table.shape), bank)


def prune(costs: Trellis, dists: np.ndarray, threshold: float) -> Trellis:
    """Drop pose i at frame n iff probs_n[c(p_i)] <= threshold, which must
    lie in [0, 1) (ValueError otherwise, NaN included).

    costs must be unary_costs' trellis, which keeps every pose of its bank at
    every frame. A threshold of exactly 0 disables pruning and returns costs
    itself. Otherwise the result shares costs' table and keeps, per frame,
    the clusters above the threshold. A frame where none of those has a
    member pose keeps the whole most probable cluster that has one (ties ->
    the smaller cluster id).
    """
    if not (0.0 <= threshold < 1.0):
        raise ValueError("prune threshold must lie in [0, 1)")
    if threshold == 0.0:
        return costs
    if costs.column_of is not costs.bank.cluster_of or not costs.keep.all():
        raise ValueError("prune needs unary_costs' trellis, which keeps every bank pose at every frame")
    dists = np.asarray(dists, dtype=float)
    held = costs.cluster_of_column >= 0  # the clusters with member poses
    keep = (dists > threshold) & held
    lost = np.flatnonzero(~keep.any(axis=1))
    keep[lost, np.where(held, dists[lost], -np.inf).argmax(axis=1)] = True
    return replace(costs, keep=keep)
