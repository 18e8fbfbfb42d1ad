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
is not i, i-1 or i-2 scores the same saturated (h_j + delta) + mu * gamma.
solve_paper_dp therefore scores each node against a bounded candidate set
(the near predecessors, the special ones and one representative of the
saturated rest) and still returns exactly the dense recursion's first
minimum; its docstring gives the rule and the argument. Per frame this costs
O(width * gamma + edges of the neighbor graph) instead of O(width^2).

solve_exact_dp augments the node state with the exact previous step and a
saturation-clamped stationary count, which makes it a true minimizer, and
brute_force enumerates everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ExemplarBank
from .costs import UnaryCosts
from .errors import Infeasible, InfeasiblePath, StateExplosion, TooLarge
from .records import write_records


@dataclass
class PathParams:
    delta: float = 0.1  # backward / long-step / cluster-jump penalty
    speed_gamma: float = 10.0
    speed_mu: float = 0.01
    stat_gamma: float = 5.0
    stat_mu: float = 0.02

    def __post_init__(self):
        # written as not (x >= 0) so that NaN fails too
        if not (self.delta >= 0 and self.speed_mu >= 0 and self.stat_mu >= 0):
            raise ValueError("penalties must be non-negative")
        if not (self.speed_gamma >= 0 and self.stat_gamma >= 0):
            raise ValueError("saturation points must be non-negative")


@dataclass
class NodeState:
    """Per-node record of the first-order recursion."""

    h: float  # best energy of any path ending here
    u: int  # stationary count along that path
    s: int  # last step taken along that path
    p: int  # predecessor position in the previous frame (-1 at frame 0)


@dataclass
class Trellis:
    """Per-frame candidate exemplar indices with unary costs.

    Candidates are stored sorted by exemplar index (so first-minimum argmin
    implements the smaller-index tie rule) and must be unique per frame. A
    frame given already sorted keeps its arrays as given, without a copy.
    """

    frames: list  # per frame: (indices int array, costs float array)
    bank: ExemplarBank

    def __post_init__(self):
        if not self.frames:
            raise ValueError("trellis needs at least one frame")
        clean = []
        for n, (idx, e) in enumerate(self.frames):
            idx = np.asarray(idx, dtype=int)
            e = np.asarray(e, dtype=float)
            if len(idx) == 0:
                raise ValueError(f"frame {n} has no candidates")
            if len(idx) != len(e):
                raise ValueError(f"frame {n}: index/cost length mismatch")
            if not (idx[1:] > idx[:-1]).all():
                order = np.argsort(idx, kind="stable")
                idx, e = idx[order], e[order]
                if not (idx[1:] > idx[:-1]).all():
                    raise ValueError(f"frame {n} repeats an exemplar index")
            if idx[0] < 0 or idx[-1] >= len(self.bank.poses):
                raise ValueError(f"frame {n}: exemplar index out of bank range")
            clean.append((idx, e))
        self.frames = clean

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @classmethod
    def from_costs(cls, costs: UnaryCosts, bank: ExemplarBank) -> "Trellis":
        return cls([(i, c) for i, c in zip(costs.indices, costs.costs)], bank)

    def cost_of(self, n: int, exemplar: int) -> float:
        idx, e = self.frames[n]
        pos = int(np.searchsorted(idx, exemplar))
        if pos >= len(idx) or idx[pos] != exemplar:
            raise ValueError(f"exemplar {exemplar} not a candidate at frame {n}")
        return float(e[pos])


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


_REPS = 4  # at most 3 special predecessors, so one of 4 is not special
_SPECIAL = np.arange(3)  # steps i - j that can have w = 0 or r > 0
_NEAR_CHUNK = 1 << 16  # near pairs scored at a time; bounds memory per frame


def _near_reach(speed_gamma: float, n_poses: int) -> int:
    """Largest integer x with x < speed_gamma, capped at 2 * n_poses, which
    exceeds every |a_j - i| (a predicted index lies in [-(n-1), 2(n-1)])."""
    if speed_gamma > 2 * n_poses:
        return 2 * n_poses
    return math.ceil(speed_gamma) - 1


def _smallest_ranks(groups, ranks, n_groups: int, n: int):
    """(n_groups, _REPS) table of each group's smallest ranks (unique, < n),
    ascending and padded with n."""
    keys = groups * (n + 1) + ranks
    keys.sort()
    g = keys // (n + 1)
    nth = np.arange(len(keys)) - g.searchsorted(g)
    keep = nth < _REPS
    table = np.full((n_groups, _REPS), n)
    table[g[keep], nth[keep]] = keys[keep] % (n + 1)
    return table


def _representatives(sat, p_idx, p_clusters, idx, clusters, src, dst, k: int):
    """Per node i, the position of the predecessor with the smallest
    (sat_j, j) among those in neighbor clusters of i's cluster that are not
    i, i-1 or i-2; len(p_idx) when there is none. src, dst list each edge of
    the k-cluster neighbor graph once."""
    n = len(p_idx)
    order = sat.argsort(kind="stable")  # ties keep the smaller j
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    by_source = _smallest_ranks(p_clusters, rank, k, n)
    live = np.zeros((2, k), dtype=bool)
    live[0, clusters] = True
    live[1, p_clusters] = True
    edges = live[0, src] & live[1, dst]
    ranks = by_source[dst[edges]]
    present = ranks < n
    groups = src[edges].repeat(_REPS)[present.ravel()]
    by_target = _smallest_ranks(groups, ranks[present], k, n)
    reps = np.append(order, n)[by_target[clusters]]
    step = idx[:, None] - p_idx.take(reps, mode="clip")
    usable = (reps < n) & ((step < 0) | (step > 2))
    first = usable.argmax(axis=1)
    rep = reps[np.arange(len(idx)), first]
    rep[~usable[np.arange(len(idx)), first]] = n
    return rep


def _near_pairs(a, idx, reach: int):
    """(target, predecessor) position pairs with |a_j - i| <= reach, target
    by target, in chunks of about _NEAR_CHUNK pairs."""
    order = a.argsort()
    a_sorted = a[order]
    lo = a_sorted.searchsorted(idx - reach, side="left")
    cnt = a_sorted.searchsorted(idx + reach, side="right") - lo
    ends = cnt.cumsum()
    t0 = 0
    while t0 < len(idx):
        t1 = max(t0 + 1, int(ends.searchsorted(ends[t0] - cnt[t0] + _NEAR_CHUNK, side="right")))
        c = cnt[t0:t1]
        tgt = np.arange(t0, t1).repeat(c)
        yield tgt, order[np.arange(len(tgt)) + (lo[t0:t1] - (c.cumsum() - c)).repeat(c)]
        t0 = t1


def solve_paper_dp(trellis: Trellis, params: PathParams = PathParams(), keep_tables: bool = False):
    """First-order recursion with carried (s, u); ties take the smaller index.

    Node i of a frame is scored against a candidate set of predecessors j
    from the previous frame, each filtered by cluster adjacency and scored
    with the full h_j + w + q + r; the first minimum over (score, j) wins:

    * near: the predicted index a_j = j + s_j has |a_j - i| < gamma;
    * special: j is i, i-1 or i-2, the only steps that can have w = 0 or r > 0;
    * representative: among the 4 smallest (sat_j, j) over the predecessors
      in the neighbor clusters of i's cluster, where
      sat_j = (h_j + delta) + mu * gamma, the first that is not special.

    This is exact. A predecessor that is neither near nor special has
    w = delta, r = 0 and q saturated at mu * gamma, so it scores exactly
    sat_j. The representative is the smallest (sat_j, j) among non-special
    predecessors, and since float rounding is monotone it scores at most its
    own sat_j. So the first minimizer over every predecessor is always a
    candidate, and paths, energies and node records equal those of a dense
    scan. Per frame the cost is O(width * gamma + edges of the neighbor graph)
    plus sorting the previous frame, instead of O(width^2).

    Returns a PosePath, or (PosePath, tables) with keep_tables where tables
    is a per-frame list of NodeState records.
    """
    bank = trellis.bank
    k = bank.k
    src, dst = bank.adjacent.nonzero()
    adjacent = bank.adjacent.ravel()  # a flat index is cheaper than a (row, column) pair
    reach = _near_reach(params.speed_gamma, len(bank.poses))
    sat_q = params.speed_mu * params.speed_gamma
    idx0, e0 = trellis.frames[0]
    clusters, seg = bank.cluster_of[idx0], bank.segment_of[idx0]
    h = e0.copy()
    u = np.zeros(len(idx0), dtype=int)
    s = np.zeros(len(idx0), dtype=int)
    parents = [np.full(len(idx0), -1, dtype=int)]
    tables = [None] * trellis.n_frames

    for n in range(1, trellis.n_frames):
        if not np.isfinite(h).any():  # no later node can become finite
            raise Infeasible("no finite-energy path through the trellis")
        idx, e = trellis.frames[n]
        p_idx, _ = trellis.frames[n - 1]
        p_clusters, p_seg = clusters, seg
        clusters, seg = bank.cluster_of[idx], bank.segment_of[idx]
        n_prev = len(p_idx)  # also the "no candidate" marker

        def score(jp, i, seg_i):
            step = i - p_idx[jp]
            w = np.where((step >= 0) & (step <= 2) & ~(seg_i > p_seg[jp]), 0.0, params.delta)
            q = params.speed_mu * np.minimum(np.abs(s[jp] - step), params.speed_gamma)
            r = np.where(step == 0, params.stat_mu * np.minimum(u[jp] + 1, params.stat_gamma), 0.0)
            return h[jp] + w + q + r

        # special predecessors and the representative: a (width, 4) block
        back = idx[:, None] - _SPECIAL
        pos = p_idx.searchsorted(back)
        fixed = np.empty((len(idx), _REPS), dtype=int)
        fixed[:, :3] = np.where(p_idx.take(pos, mode="clip") == back, pos, n_prev)
        sat = (h + params.delta) + sat_q
        fixed[:, 3] = _representatives(sat, p_idx, p_clusters, idx, clusters, src, dst, k)
        jf = np.minimum(fixed, n_prev - 1)
        valid = (fixed < n_prev) & adjacent[p_clusters[jf] * k + clusters[:, None]]
        tot = np.where(valid, score(jf, idx[:, None], seg[:, None]), np.inf)
        best_tot = tot.min(axis=1)
        best = np.where(valid & (tot == best_tot[:, None]), fixed, n_prev).min(axis=1)

        # near predecessors; pairs come target by target
        for tgt, jp in _near_pairs(p_idx + s, idx, reach) if reach >= 0 else ():
            ok = adjacent[p_clusters[jp] * k + clusters[tgt]]
            tgt, jp = tgt[ok], jp[ok]
            if not len(tgt):
                continue
            tot = score(jp, idx[tgt], seg[tgt])
            head = np.empty(len(tgt), dtype=bool)
            head[0] = True
            np.not_equal(tgt[1:], tgt[:-1], out=head[1:])
            starts = head.nonzero()[0]
            mn = np.minimum.reduceat(tot, starts)
            jn = np.minimum.reduceat(np.where(tot == mn[head.cumsum() - 1], jp, n_prev), starts)
            t = tgt[starts]
            take = (mn < best_tot[t]) | ((mn == best_tot[t]) & (jn < best[t]))
            best_tot[t[take]] = mn[take]
            best[t[take]] = jn[take]

        found = best < n_prev
        chosen = np.minimum(best, n_prev - 1)
        h_new = e + best_tot
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

    end = int(h.argmin())
    if not np.isfinite(h[end]):
        raise Infeasible("no finite-energy path through the trellis")
    positions = [end]
    for n in range(trellis.n_frames - 1, 0, -1):
        positions.append(int(parents[n][positions[-1]]))
    positions.reverse()
    indices = [int(trellis.frames[n][0][p]) for n, p in enumerate(positions)]
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

    idx0, e0 = trellis.frames[0]
    # state key: (position, previous step, clamped stationary count)
    layers = [{(p, 0, 0): (float(e0[p]), None) for p in range(len(idx0))}]

    for n in range(1, trellis.n_frames):
        idx, e = trellis.frames[n]
        p_idx, _ = trellis.frames[n - 1]
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
    indices = [int(trellis.frames[n][0][p]) for n, p in enumerate(positions)]
    return energy_of_path(trellis, indices, params)


def brute_force(trellis: Trellis, params: PathParams = PathParams()) -> PosePath:
    """Enumerate every cluster-feasible path; ties keep the lexicographically
    smallest index sequence. Guarded by a 1e6 path budget."""
    sizes = [len(idx) for idx, _ in trellis.frames]
    total = 1
    for m in sizes:
        total *= m
        if total > 1_000_000:
            raise TooLarge("more than 1e6 candidate paths")

    bank = trellis.bank
    n_frames = trellis.n_frames
    frames = trellis.frames
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
    present = _present_clusters(trellis)
    chosen = np.array([p[dists[n][p].argmax()] for n, p in enumerate(present)])
    if not trellis.bank.adjacent[chosen[:-1], chosen[1:]].all():
        chosen = _cluster_viterbi(trellis, dists)
    return solve_paper_dp(_restrict(trellis, chosen), params)


def _present_clusters(trellis: Trellis) -> list:
    """Per frame, the sorted cluster ids among its candidates."""
    return [np.unique(trellis.bank.cluster_of[idx]) for idx, _ in trellis.frames]


def _restrict(trellis: Trellis, chosen_clusters) -> Trellis:
    cluster_of = trellis.bank.cluster_of
    frames = []
    for (idx, e), c in zip(trellis.frames, chosen_clusters):
        keep = cluster_of[idx] == c
        frames.append((idx[keep], e[keep]))
    return Trellis(frames, trellis.bank)


def _cluster_viterbi(trellis: Trellis, dists: np.ndarray) -> list:
    """Cheapest neighbor-feasible cluster sequence under unary 1 - probs.

    h[c] is the cheapest cost of a sequence ending in cluster c, +inf where
    no feasible sequence ends; each cluster takes the first (smallest-id)
    cheapest neighbor as its predecessor, and the end is the first minimum.
    """
    adjacent = trellis.bank.adjacent
    present = _present_clusters(trellis)
    h = np.full(len(adjacent), np.inf)
    h[present[0]] = 1.0 - dists[0][present[0]]
    back = []
    for n in range(1, trellis.n_frames):
        c = present[n]
        scores = np.where(adjacent[:, c], h[:, None], np.inf)
        prev, best = scores.argmin(axis=0), scores.min(axis=0)
        ok = best < np.inf
        if not ok.any():
            raise Infeasible("no neighbor-feasible cluster sequence")
        h = np.full(len(adjacent), np.inf)
        h[c[ok]] = best[ok] + 1.0 - dists[n][c[ok]]
        back.append(dict(zip(c.tolist(), prev.tolist())))
    seq = [int(h.argmin())]
    for bk in reversed(back):
        seq.append(bk[seq[-1]])
    seq.reverse()
    return seq
