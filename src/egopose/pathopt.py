"""Global pose-path optimization over the exemplar bank.

A path assigns one exemplar pose index to every frame. Its energy is

    U + T + V + S

where U sums the unary costs, T charges each step by its kind (0 for a
forward step of at most 2 within temporally adjacent exemplars, delta for
any other step between neighboring clusters, infeasible otherwise), V is a
truncated-linear penalty q on the change in step size between consecutive
steps, and S a truncated-linear penalty t on the length of a stationary run.

solve_paper_dp runs the first-order recursion

    H(i, n) = e_{i,n} + min_j [ H(j, n-1) + w_{j,i}
                                + q(|s(j, n-1) - (i - j)|) + r(u(j, n-1), i) ]

carrying each node's running step s and stationary count u from its best
predecessor. The second-order terms make this a heuristic: the energy of the
returned path can exceed the true optimum.

Writing a_j = j + s(j, n-1) for the index predecessor j predicts, the speed
term is q = mu * min(|a_j - i|, gamma): truncated-linear in i, as in the
distance transforms of sampled functions (Felzenszwalb & Huttenlocher, ToC
2012). So every predecessor that is not within gamma of its prediction and
is not i, i-1 or i-2 scores the same saturated sat_j = (h_j + delta) +
mu * gamma. solve_paper_dp therefore scores each node against a bounded
candidate set and still returns exactly the dense recursion's first minimum:

* one representative of the saturated rest, scored by looking up its sat_j;
* the special predecessors i - d for d = 0, 1, 2, with the step fixed per d;
* the near predecessors, dropped before any pair is made when h_j + delta,
  a floor under each of their scores, exceeds the best score so far.

The special positions and the live cluster edges of a frame pair are kept
while both frames' candidates repeat. The docstring of solve_paper_dp gives
each rule's exactness argument. Per frame this costs
O(width * gamma + edges of the neighbor graph) instead of O(width^2).

Every solver reads a Trellis: one (N, C) table of unary costs, a map from
bank poses to its columns, and an (N, C) bool mask of the columns whose poses
are a frame's candidates. Pruning and restricting replace only the mask, so
every trellis of a decode shares the one table, and no frame stores an array.

solve_exact_dp augments the node state with the exact previous step and a
saturation-clamped stationary count, which makes it a true minimizer, and
brute_force enumerates everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .clustering import ExemplarBank
from .errors import Infeasible, InfeasiblePath, StateExplosion, TooLarge
from .records import write_records


@dataclass
class PathParams:
    """The weights of the path energy and of its decode.

    delta is both the static-prior correction in U (costs.unary_costs) and
    the penalty of a backward, long or cluster-jumping step in T; tau is the
    static probability that U counts as confident, and prune_threshold the
    first cluster probability that costs.prune keeps above.
    """

    delta: float = 0.1
    speed_gamma: float = 10.0
    speed_mu: float = 0.01
    stat_gamma: float = 5.0
    stat_mu: float = 0.02
    tau: float = 0.99
    prune_threshold: float = 0.01

    def __post_init__(self):
        # written as not (x >= 0) so that NaN fails too; an infinite slope
        # times a zero difference would be NaN
        if not (self.delta >= 0 and 0 <= self.speed_mu < math.inf and 0 <= self.stat_mu < math.inf):
            raise ValueError("penalties must be non-negative, and the slopes finite")
        if not (self.speed_gamma >= 0 and self.stat_gamma >= 0):
            raise ValueError("saturation points must be non-negative")
        if not (0.5 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0.5, 1]")
        if not (0.0 <= self.prune_threshold < 1.0):
            raise ValueError("prune threshold must lie in [0, 1)")


@dataclass
class NodeState:
    """Per-node record of the first-order recursion."""

    h: float  # best energy of any path ending here
    u: int  # stationary count along that path
    s: int  # last step taken along that path
    p: int  # predecessor position in the previous frame (-1 at frame 0)


@dataclass
class Trellis:
    """Per-frame candidate exemplars as one mask over a table of unary costs.

    Pose i is a candidate at frame n iff keep[n, column_of[i]], and it then
    costs table[n, column_of[i]]. unary_costs gives the table one column per
    cluster (column_of = bank.cluster_of), so no frame copies its costs or its
    candidates. candidates(n) derives them in ascending order, so first-minimum
    argmin implements the smaller-index tie rule. No table column may hold
    poses of two clusters, and every frame must keep a column that holds a
    pose; anything else raises ValueError.
    """

    table: np.ndarray  # (N, C) costs, one row per frame
    column_of: np.ndarray  # (n_poses,) table column of each bank pose
    keep: np.ndarray  # (N, C) bool, the columns whose poses are candidates
    bank: ExemplarBank

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=float)
        if self.table.ndim != 2 or not len(self.table):
            raise ValueError("trellis needs a 2-D cost table with at least one frame")
        col = self.column_of
        if not (isinstance(col, np.ndarray) and col.shape == (len(self.bank.poses),) and col.dtype.kind in "iu"):
            raise ValueError("column_of must be an integer array with one table column per bank pose")
        if not (col.min() >= 0 and col.max() < self.table.shape[1]):
            raise ValueError("column_of names a column outside the cost table")
        clusters = self.cluster_of_column
        if not np.array_equal(clusters[col], self.bank.cluster_of):
            raise ValueError("a table column holds poses of two clusters")
        keep = self.keep
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool and keep.shape == self.table.shape):
            raise ValueError(f"keep must be a bool array shaped like the cost table, {self.table.shape}")
        empty = ~keep[:, clusters >= 0].any(axis=1)
        if empty.any():
            raise ValueError(f"frame {int(empty.argmax())} keeps no column that holds a pose")

    @property
    def n_frames(self) -> int:
        return len(self.table)

    @property
    def cluster_of_column(self) -> np.ndarray:
        """(C,) the cluster of each table column's poses, -1 for a column of
        no pose."""
        out = np.full(self.table.shape[1], -1)
        out[self.column_of] = self.bank.cluster_of
        return out

    def candidates(self, n: int) -> np.ndarray:
        """Frame n's candidate exemplars, ascending."""
        return np.flatnonzero(self.keep[n][self.column_of])

    def frame(self, n: int):
        """Frame n's candidates and their costs: (indices, costs) arrays."""
        idx = self.candidates(n)
        return idx, self.table[n][self.column_of[idx]]

    @property
    def indices(self) -> list:
        """Every frame's candidates, built on access."""
        return [self.candidates(n) for n in range(self.n_frames)]

    @property
    def frames(self) -> list:
        """Every frame's (indices, costs) pair, built on access."""
        return [self.frame(n) for n in range(self.n_frames)]

    @property
    def costs(self) -> list:
        """Every frame's candidate costs, built on access."""
        return [e for _, e in self.frames]

    @classmethod
    def from_costs(cls, costs: "Trellis", bank: ExemplarBank) -> "Trellis":
        """costs itself: unary_costs already returns a trellis."""
        return costs

    def cost_of(self, n: int, exemplar: int) -> float:
        if not 0 <= exemplar < len(self.column_of):
            raise ValueError(f"exemplar {exemplar} is not in the bank")
        column = self.column_of[exemplar]
        if not self.keep[n, column]:
            raise ValueError(f"exemplar {exemplar} not a candidate at frame {n}")
        return float(self.table[n, column])

    def present(self) -> np.ndarray:
        """(N, k) bool: whether frame n has a candidate in cluster c."""
        clusters = self.cluster_of_column
        held = np.flatnonzero(clusters >= 0)
        held = held[clusters[held].argsort(kind="stable")]  # the columns of each cluster together
        starts, _ = _runs(clusters[held])
        out = np.zeros((self.n_frames, self.bank.k), dtype=bool)
        out[:, clusters[held[starts]]] = np.logical_or.reduceat(self.keep[:, held], starts, axis=1)
        return out

    def admits_path(self) -> bool:
        """Whether one candidate per frame can be chosen so that every step
        joins neighbor clusters of the bank, that is, whether a path of
        finite energy exists; reach is a forward pass."""
        adjacent = self.bank.adjacent
        reach = None
        for live in self.present():
            reach = live if reach is None else live & adjacent[reach].any(axis=0)
            if not reach.any():
                return False
        return True


@dataclass
class PosePath:
    """A decoded path with its energy split into U/T/V/S."""

    indices: list
    unary: float
    transition: float
    speed: float
    stationary: float
    total: float

    def __post_init__(self):
        parts = self.unary + self.transition + self.speed + self.stationary
        if abs(parts - self.total) > 1e-9:
            raise ValueError("energy components must sum to the total")

    def energy_dict(self) -> dict:
        return {
            "U": self.unary,
            "T": self.transition,
            "V": self.speed,
            "S": self.stationary,
            "total": self.total,
        }

    def save(self, path, bank: ExemplarBank) -> None:
        recs = ({"t": n, "exemplar": int(i), "cluster": int(bank.cluster_of[i])} for n, i in enumerate(self.indices))
        write_records(path, recs)


def step_weight(j: int, i: int, bank: ExemplarBank, params: PathParams) -> float:
    """w_{j,i}: 0 for a small forward step inside one source sequence, delta
    for any other step between neighboring clusters, +inf otherwise."""
    if not bank.adjacent[bank.cluster_of[j], bank.cluster_of[i]]:
        return float("inf")
    if 0 <= i - j <= 2 and not bank.crosses_break(j, i):
        return 0.0
    return params.delta


def speed_term(prev_speed: int, step: int, params: PathParams) -> float:
    """q(|s_prev - step|), linear with slope mu, saturated at gamma."""
    x = abs(prev_speed - step)
    return params.speed_mu * min(x, params.speed_gamma)


def stationary_term(u_prev: int, j: int, i: int, params: PathParams) -> float:
    """t(u_prev + 1) when the step j -> i stays on the same exemplar."""
    if i != j:
        return 0.0
    return params.stat_mu * min(u_prev + 1, params.stat_gamma)


def energy_of_path(trellis: Trellis, indices, params: PathParams = PathParams()) -> PosePath:
    """Recompute the exact energy of a given index-per-frame path.

    The first frame starts with s = 0 and u = 0; u resets whenever the path
    moves. Raises InfeasiblePath on a non-neighbor cluster step.
    """
    indices = [int(i) for i in indices]
    if len(indices) != trellis.n_frames:
        raise ValueError("one exemplar index per frame required")
    bank = trellis.bank
    unary = sum(trellis.cost_of(n, i) for n, i in enumerate(indices))
    transition = speed = stationary = 0.0
    s_prev = 0
    u = 0
    for n in range(1, len(indices)):
        j, i = indices[n - 1], indices[n]
        w = step_weight(j, i, bank, params)
        if not np.isfinite(w):
            raise InfeasiblePath(f"step {j} -> {i} crosses non-neighbor clusters")
        transition += w
        step = i - j
        speed += speed_term(s_prev, step, params)
        stationary += stationary_term(u, j, i, params)
        u = u + 1 if step == 0 else 0
        s_prev = step
    total = unary + transition + speed + stationary
    return PosePath(indices, unary, transition, speed, stationary, total)


_SPECIAL = np.arange(3)[:, None]  # steps i - j that can have w = 0 or r > 0, one row each
_NEAR_CHUNK = 1 << 16  # near pairs scored at a time; bounds memory per frame


def _near_reach(speed_gamma: float, n_poses: int) -> int:
    """Largest integer x with x < speed_gamma, capped at 2 * n_poses, which
    exceeds every |a_j - i| (a predicted index lies in [-(n-1), 2(n-1)])."""
    if speed_gamma > 2 * n_poses:
        return 2 * n_poses
    return math.ceil(speed_gamma) - 1


def _far(step):
    """step < 0 or step > 2, in one comparison: a negative step casts to a
    huge unsigned one."""
    return step.astype(np.uint64) > 2


def _runs(keys):
    """Where each run of equal values in keys starts, and each element's run."""
    head = np.empty(len(keys), dtype=bool)
    head[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return head.nonzero()[0], head.cumsum() - 1


class _Frame:
    """What the recursion reads of one frame's candidate indices alone."""

    def __init__(self, idx, bank: ExemplarBank):
        self.idx = idx
        self.clusters = bank.cluster_of[idx]
        self.seg = bank.segment_of[idx]
        self.flat = self.clusters * bank.k  # row offsets into the flat adjacency table
        # positions by cluster: group g is by_cluster[starts[g]:starts[g + 1]]
        self.by_cluster = self.clusters.argsort(kind="stable")
        ordered = self.clusters[self.by_cluster]
        self.starts, self.group_of_sorted = _runs(ordered)
        self.present = ordered[self.starts]  # the cluster of each group, ascending
        self.group = np.full(bank.k, -1)  # group of each cluster, -1 when absent
        self.group[self.present] = np.arange(len(self.present))
        # below[x]: how many candidates have an index under x, for x in 0..n_poses
        bounds = np.empty(len(idx) + 2, dtype=int)
        bounds[0], bounds[1:-1], bounds[-1] = -1, idx, len(bank.poses)
        self.below = np.arange(len(idx) + 1).repeat(np.diff(bounds))

    def count_below(self, x):
        return self.below.take(x, mode="clip")


class _Pair:
    """What the recursion reads of two consecutive frames' candidates: each
    node's special predecessors with their w, and the live edges of the
    neighbor graph grouped by target cluster."""

    def __init__(self, prev: _Frame, cur: _Frame, bank: ExemplarBank, delta: float):
        self.prev, self.cur = prev, cur
        n = len(prev.idx)
        back = cur.idx - _SPECIAL  # (3, width): the predecessor index of each special step
        pos = prev.count_below(back)
        j = np.minimum(pos, n - 1)
        match = (prev.idx[j] == back) & bank.adjacent.ravel()[prev.flat[j] + cur.clusters]
        # rows 0-2: the special predecessors (n where there is none); row 3
        # receives each frame's representatives
        self.positions = np.empty((4, len(cur.idx)), dtype=int)
        self.special = self.positions[:3]
        np.copyto(self.special, np.where(match, pos, n))
        self.w = np.where(cur.seg > prev.seg[j], delta, 0.0)
        target, self.edge_pred = bank.adjacent[np.ix_(cur.present, prev.present)].nonzero()
        self.edge_starts, self.edge_run = _runs(target)
        run_of_group = np.full(len(cur.present), len(self.edge_starts))
        run_of_group[target[self.edge_starts]] = np.arange(len(self.edge_starts))
        self.node_run = run_of_group[cur.group[cur.clusters]]  # past the end: no live edge


def _representatives(sat, pair: _Pair):
    """Per node i, the position of the predecessor that stands in for every
    predecessor that scores sat_j, or len(sat) when none has to.

    Walk the predecessors in the neighbor clusters of i's cluster by
    ascending (sat_j, j): the first that is not special is the
    representative. A first one with step 1 or 2 scores at most its own
    sat_j with r = 0, so it beats every later one and none is needed. Only
    the step-0 predecessor can score more (r > 0), and it is at most one,
    so the walk ends by the second predecessor."""
    n = len(sat)
    p_idx, idx = pair.prev.idx, pair.cur.idx
    reps = np.full(len(idx), n)
    if not len(pair.edge_pred):
        return reps
    order = sat.argsort(kind="stable")  # ties keep the smaller j
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    grouped = rank[pair.prev.by_cluster]
    first = np.minimum.reduceat(grouped, pair.prev.starts)  # per cluster of the previous frame
    per_edge = first[pair.edge_pred]
    best = np.minimum.reduceat(per_edge, pair.edge_starts)  # per cluster of this frame
    order = np.append(order, n)
    p_idx = np.append(p_idx, -3)  # the missing predecessor n is never special
    rep = order[np.append(best, n)[pair.node_run]]
    step = idx - p_idx[rep]
    reps = np.where(_far(step), rep, n)
    stay = (step == 0).nonzero()[0]
    if len(stay):
        second = np.minimum.reduceat(np.where(grouped == first[pair.prev.group_of_sorted], n, grouped), pair.prev.starts)
        per_edge = np.where(per_edge == best[pair.edge_run], second[pair.edge_pred], per_edge)
        rep = order[np.append(np.minimum.reduceat(per_edge, pair.edge_starts), n)[pair.node_run[stay]]]
        reps[stay] = np.where(_far(idx[stay] - p_idx[rep]), rep, n)
    return reps


def _near_pairs(preds, lo, hi):
    """(target, predecessor) position pairs that join preds[m] to the
    targets lo[m]..hi[m] - 1, predecessor by predecessor, in chunks of about
    _NEAR_CHUNK pairs."""
    cnt = hi - lo
    ends = cnt.cumsum()
    m0 = 0
    while m0 < len(preds):
        m1 = max(m0 + 1, int(ends.searchsorted(ends[m0] - cnt[m0] + _NEAR_CHUNK, side="right")))
        c = cnt[m0:m1]
        jp = preds[m0:m1].repeat(c)
        yield np.arange(len(jp)) + (lo[m0:m1] - (c.cumsum() - c)).repeat(c), jp
        m0 = m1


def solve_paper_dp(trellis: Trellis, params: PathParams = PathParams(), keep_tables: bool = False):
    """First-order recursion with carried (s, u); ties take the smaller index.

    Node i of a frame is scored against a candidate set of predecessors j
    from the previous frame, all in neighbor clusters of i's cluster, and the
    first minimum over (score, j) wins. The dense score is
    ((h_j + w) + q) + r; write sat_j = (h_j + delta) + mu * gamma and
    a_j = j + s_j. Each candidate rule is exact:

    * Special: j = i - d for d = 0, 1, 2, the only steps that can have w = 0
      or r > 0. The step is fixed per d, so w = delta iff seg_i > seg_j (the
      step crosses a sequence break), q = mu * min(|s_j - d|, gamma), and r
      is added only for d = 0: the dense expression with the step put in.
    * Near: |a_j - i| < gamma and j is not special, so w = delta, r = 0 and
      q = mu * |a_j - i| is below saturation. The score is
      (h_j + delta) + mu * |a_j - i|, never below h_j + delta. So a near j
      whose h_j + delta exceeds the largest best score so far is dropped
      before any pair is made, and a pair whose h_j + delta exceeds its
      node's best score so far is dropped before it is scored. Both tests
      keep equality, so a tie still reaches the index rule.
    * Representative: any other j has w = delta, r = 0 and q saturated, so
      it scores exactly sat_j. The representative is the first non-special j
      in ascending (sat_j, j), and it is scored as sat_j by lookup. If it is
      not near, that is its exact score; if it is near, the near stage scores
      it exactly at no more than sat_j, or drops it as unable to reach the
      best score. When a special j with step 1 or 2 comes first in that order,
      it scores at most its own sat_j (w <= delta, q <= mu * gamma, r = 0),
      so it beats every later j and no representative is taken.

    Float rounding is monotone, so each bound holds in floating point too,
    and the first minimizer over every predecessor is always a candidate with
    its exact score: paths, energies and node records equal those of a dense
    scan.

    The special positions with their w and the live edges between the two
    frames' clusters depend only on the two candidate arrays. They are held
    for the current frame pair only, and reused while both frames' rows of
    trellis.keep stay the same, as when every frame holds the whole bank.
    Per frame the cost is O(width * gamma + edges of the neighbor graph) plus
    sorting the previous frame by sat_j, instead of O(width^2).

    Returns a PosePath, or (PosePath, tables) with keep_tables where tables
    is a per-frame list of NodeState records.
    """
    bank = trellis.bank
    adjacent = bank.adjacent.ravel()  # a flat index is cheaper than a (row, column) pair
    reach = _near_reach(params.speed_gamma, len(bank.poses))
    any_far = reach < 2 * len(bank.poses)  # else every predecessor is near or special
    sat_q = params.speed_mu * params.speed_gamma
    # a frame's candidates are derived again only where its keep row changes
    changed = (trellis.keep[1:] != trellis.keep[:-1]).any(axis=1)
    idx0, e0 = trellis.frame(0)
    cur = _Frame(idx0, bank)
    candidates = [idx0]  # per frame, for the backtrack; repeats share one array
    pair = None
    h = np.append(e0, np.inf)  # the last entry scores the missing predecessor
    u = np.zeros(len(idx0), dtype=int)
    s = np.zeros(len(idx0), dtype=int)
    parents = [np.full(len(idx0), -1, dtype=int)]
    tables = [None] * trellis.n_frames

    for n in range(1, trellis.n_frames):
        if not np.isfinite(h).any():  # no later node can become finite
            raise Infeasible("no finite-energy path through the trellis")
        prev = cur
        if changed[n - 1]:
            cur = _Frame(trellis.candidates(n), bank)
        candidates.append(cur.idx)
        e = trellis.table[n][trellis.column_of[cur.idx]]
        if pair is None or pair.prev is not prev or pair.cur is not cur:
            pair = _Pair(prev, cur, bank, params.delta)
        p_idx, idx = prev.idx, cur.idx
        n_prev = len(p_idx)  # also the "no candidate" marker
        hd = h + params.delta

        # special predecessors and the representative: a (4, width) block
        tot = np.empty((4, len(idx)))
        special = pair.special
        np.add(h[special], pair.w, out=tot[:3])
        tot[:3] += params.speed_mu * np.minimum(np.abs(s.take(special, mode="clip") - _SPECIAL), params.speed_gamma)
        tot[0] += params.stat_mu * np.minimum(u.take(special[0], mode="clip") + 1, params.stat_gamma)
        if any_far:
            sat = hd + sat_q
            pair.positions[3] = _representatives(sat[:n_prev], pair)
            tot[3] = sat[pair.positions[3]]  # the last entry of sat is inf
        else:
            pair.positions[3] = n_prev
            tot[3] = np.inf
        best_tot = tot.min(axis=0)
        best = np.where(tot == best_tot, pair.positions, n_prev).min(axis=0)

        # near predecessors: one is dropped while h_j + delta exceeds the best
        # score so far of every node, and a pair while it exceeds the node's
        keep = (hd[:n_prev] <= best_tot.max()).nonzero()[0] if reach >= 0 else np.empty(0, dtype=int)
        a = p_idx + s
        lo, hi = cur.count_below(a[keep] - reach), cur.count_below(a[keep] + (reach + 1))
        for tgt, jp in _near_pairs(keep, lo, hi):
            hj = hd[jp]
            step = idx[tgt] - p_idx[jp]
            ok = (hj <= best_tot[tgt]) & _far(step) & adjacent[prev.flat[jp] + cur.clusters[tgt]]
            if not ok.any():
                continue
            tgt, jp = tgt[ok], jp[ok]
            near = hj[ok] + params.speed_mu * np.abs(a[jp] - idx[tgt])
            before = best_tot.copy()
            np.minimum.at(best_tot, tgt, near)
            best[best_tot < before] = n_prev  # a strictly better near pair displaces the old best
            win = near == best_tot[tgt]
            np.minimum.at(best, tgt[win], jp[win])

        found = best < n_prev
        chosen = np.minimum(best, n_prev - 1)
        h_new = np.empty(len(idx) + 1)
        h_new[-1] = np.inf
        np.add(e, best_tot, out=h_new[:-1])
        s_new = np.where(found, idx - p_idx[chosen], 0)
        u_new = np.where(found & (s_new == 0), u[chosen] + 1, 0)
        par = np.where(found, best, -1)

        if keep_tables:
            tables[n] = [
                NodeState(float(h_new[p]), int(u_new[p]), int(s_new[p]), int(par[p]))
                for p in range(len(idx))
            ]
        h, u, s = h_new, u_new, s_new
        parents.append(par)

    if keep_tables:
        tables[0] = [
            NodeState(float(e0[p]), 0, 0, -1) for p in range(len(idx0))
        ]

    h = h[:-1]
    end = int(h.argmin())
    if not np.isfinite(h[end]):
        raise Infeasible("no finite-energy path through the trellis")
    positions = [end]
    for n in range(trellis.n_frames - 1, 0, -1):
        positions.append(int(parents[n][positions[-1]]))
    positions.reverse()
    indices = [int(candidates[n][p]) for n, p in enumerate(positions)]
    result = energy_of_path(trellis, indices, params)
    return (result, tables) if keep_tables else result


def solve_exact_dp(trellis: Trellis, params: PathParams = PathParams()) -> PosePath:
    """True minimizer of the path energy.

    The state is (candidate, exact previous step, stationary count clamped at
    gamma_s). The stationary clamp is lossless because t saturates there; the
    step is kept exact because q compares the previous step against the next
    one below saturation. Raises StateExplosion when a frame's projected
    state count exceeds 1e7.
    """
    bank = trellis.bank
    stat_cap = int(params.stat_gamma)

    idx, e = trellis.frame(0)
    candidates = [idx]
    # state key: (position, previous step, clamped stationary count)
    layers = [{(p, 0, 0): (float(e[p]), None) for p in range(len(idx))}]

    for n in range(1, trellis.n_frames):
        p_idx = idx
        idx, e = trellis.frame(n)
        candidates.append(idx)
        if len(idx) * (len(p_idx) + stat_cap + 1) > 10_000_000:
            raise StateExplosion(f"frame {n}: state budget exceeded")
        seg, p_seg = bank.segment_of[idx], bank.segment_of[p_idx]
        # allowed[j, i]: the clusters of candidates j and i are neighbors
        allowed = bank.adjacent[bank.cluster_of[p_idx][:, None], bank.cluster_of[idx]]

        prev = layers[-1]
        new_states: dict = {}
        for key in sorted(prev):  # ascending keys; first writer wins ties
            j_pos, s_prev, u_prev = key
            h_prev = prev[key][0]
            pj = int(p_idx[j_pos])
            for i_pos in allowed[j_pos].nonzero()[0].tolist():
                step = int(idx[i_pos]) - pj
                if 0 <= step <= 2 and not seg[i_pos] > p_seg[j_pos]:
                    w = 0.0
                else:
                    w = params.delta
                q = params.speed_mu * min(abs(s_prev - step), params.speed_gamma)
                r = params.stat_mu * min(u_prev + 1, params.stat_gamma) if step == 0 else 0.0
                energy = h_prev + w + q + r + float(e[i_pos])
                new_key = (i_pos, step, min(u_prev + 1, stat_cap) if step == 0 else 0)
                cur = new_states.get(new_key)
                if cur is None or energy < cur[0]:
                    new_states[new_key] = (energy, key)
        if not new_states:
            raise Infeasible("no finite-energy path through the trellis")
        layers.append(new_states)

    last = layers[-1]
    best_key = min(sorted(last), key=lambda k: last[k][0])
    positions = []
    key = best_key
    for n in range(trellis.n_frames - 1, -1, -1):
        positions.append(key[0])
        key = layers[n][key][1]
    positions.reverse()
    indices = [int(candidates[n][p]) for n, p in enumerate(positions)]
    return energy_of_path(trellis, indices, params)


def brute_force(trellis: Trellis, params: PathParams = PathParams()) -> PosePath:
    """Enumerate every cluster-feasible path; ties keep the lexicographically
    smallest index sequence. Guarded by a 1e6 path budget."""
    n_frames = trellis.n_frames
    frames, total = [], 1
    for n in range(n_frames):
        frames.append(trellis.frame(n))
        total *= len(frames[-1][0])
        if total > 1_000_000:
            raise TooLarge("more than 1e6 candidate paths")
    sizes = [len(idx) for idx, _ in frames]

    bank = trellis.bank
    best_energy = np.inf
    best_path = None

    choice = [-1] * n_frames
    # arrival state per depth: (s, u, energy)
    state = [(0, 0, 0.0)] * n_frames
    d = 0
    while d >= 0:
        choice[d] += 1
        if choice[d] >= sizes[d]:
            choice[d] = -1
            d -= 1
            continue
        idx, e = frames[d]
        i = int(idx[choice[d]])
        if d == 0:
            arrived = (0, 0, float(e[choice[d]]))
        else:
            s_prev, u_prev, en_prev = state[d - 1]
            j = int(frames[d - 1][0][choice[d - 1]])
            w = step_weight(j, i, bank, params)
            if not np.isfinite(w):
                continue
            step = i - j
            en = (
                en_prev
                + w
                + speed_term(s_prev, step, params)
                + stationary_term(u_prev, j, i, params)
                + float(e[choice[d]])
            )
            arrived = (step, u_prev + 1 if step == 0 else 0, en)
        if arrived[2] > best_energy:  # extensions only add cost
            continue
        state[d] = arrived
        if d == n_frames - 1:
            if arrived[2] < best_energy:
                best_energy = arrived[2]
                best_path = [int(frames[k][0][choice[k]]) for k in range(n_frames)]
        else:
            d += 1
    if best_path is None:
        raise Infeasible("no cluster-feasible path exists")
    return energy_of_path(trellis, best_path, params)


def solve_path_cluster(trellis: Trellis, dists: np.ndarray, params: PathParams = PathParams()) -> PosePath:
    """Two-stage baseline: per-frame argmax cluster, then the first-order DP
    restricted to that cluster's candidates.

    The argmax runs over clusters actually present among the frame's
    candidates (ties -> smaller cluster id). If that sequence steps between
    clusters that are not neighbors, the restriction has no finite-energy
    path, and a neighbor-feasible cluster-level Viterbi replaces stage 1.
    """
    dists = np.asarray(dists, dtype=float)
    if len(dists) != trellis.n_frames:
        raise ValueError("one distribution per frame required")
    chosen = np.where(trellis.present(), dists, -np.inf).argmax(axis=1)
    if not trellis.bank.adjacent[chosen[:-1], chosen[1:]].all():
        chosen = _cluster_viterbi(trellis, dists)
    return solve_paper_dp(_restrict(trellis, chosen), params)


def _restrict(trellis: Trellis, chosen_clusters) -> Trellis:
    """The trellis keeping, per frame, the candidates of its chosen cluster."""
    chosen = np.asarray(chosen_clusters)[:, None]
    return replace(trellis, keep=trellis.keep & (trellis.cluster_of_column == chosen))


def _cluster_viterbi(trellis: Trellis, dists: np.ndarray) -> list:
    """Cheapest neighbor-feasible cluster sequence under unary 1 - probs.

    h[c] is the cheapest cost of a sequence ending in cluster c, +inf where
    no feasible sequence ends; each cluster takes the first (smallest-id)
    cheapest neighbor as its predecessor, and the end is the first minimum.
    """
    adjacent = trellis.bank.adjacent
    present = trellis.present()
    h = np.where(present[0], 1.0 - dists[0], np.inf)
    back = np.zeros(present.shape, dtype=int)  # back[n, c]: the predecessor of cluster c at frame n
    for n in range(1, trellis.n_frames):
        c = present[n].nonzero()[0]
        scores = np.where(adjacent[:, c], h[:, None], np.inf)
        prev, best = scores.argmin(axis=0), scores.min(axis=0)
        ok = best < np.inf
        if not ok.any():
            raise Infeasible("no neighbor-feasible cluster sequence")
        h = np.full(len(adjacent), np.inf)
        h[c[ok]] = best[ok] + 1.0 - dists[n][c[ok]]
        back[n, c] = prev
    seq = [int(h.argmin())]
    for n in range(trellis.n_frames - 1, 0, -1):
        seq.append(int(back[n, seq[-1]]))
    seq.reverse()
    return seq
