"""Tests for the pose-path energy and its three solvers.

Oracles used here and written independently of the module under test:

* ``ref_energy`` — a scalar accumulator for the U/T/V/S decomposition that
  re-derives step weights, speed and stationary penalties from the printed
  definitions rather than calling the module's term functions.
* ``ref_viterbi`` — a first-order Viterbi over unary + step-weight terms
  only, used to pin the DP when the second-order penalties are switched off.
* ``brute_force`` enumeration doubles as the optimality oracle for the small
  random instances.
* ``_reference_paper_dp`` — the first-order recursion scored densely, one
  block of every node of a cluster against every predecessor in its neighbor
  clusters. ``solve_paper_dp`` scores a bounded candidate set per node and
  must reproduce it exactly: paths, energies and, read from its forward pass
  ``_paper_dp_frames``, node records.
* ``_reference_cluster_viterbi`` — the cluster-level Viterbi of the
  path-cluster baseline written with dicts and per-cluster neighbor sets;
  the module's masked-argmin version must return the same sequence.
"""

import dataclasses
import math
from collections import namedtuple

import numpy as np
import pytest

import egopose.pathopt as pathopt
from egopose import (
    ExemplarBank,
    Infeasible,
    InfeasiblePath,
    PathParams,
    PosePath,
    SitStand,
    StateExplosion,
    TooLarge,
    Trellis,
    brute_force,
    energy_of_path,
    prune,
    solve_exact_dp,
    solve_paper_dp,
    solve_path_cluster,
    speed_term,
    stationary_term,
    step_weight,
    unary_costs,
)
from egopose.cli import DEFAULT_CONFIG, _path_params
from memory_util import traced_peak
from trellis_util import trellis_of

# per-node record of the first-order recursion: best energy of any path ending
# here, stationary count and last step along it, predecessor position in the
# previous frame (-1 at frame 0)
NodeState = namedtuple("NodeState", "h u s p")


def make_bank(cluster_seq, breaks=(), seed=0):
    cluster_seq = np.asarray(cluster_seq, dtype=int)
    rng = np.random.default_rng(seed)
    poses = rng.normal(size=(len(cluster_seq), 75))
    return ExemplarBank.build(poses, cluster_seq, list(breaks), int(cluster_seq.max()) + 1)


def full_trellis(bank, cost_rows):
    """One frame per row; each row holds a cost for every bank pose."""
    n = len(bank.poses)
    frames = [(np.arange(n), np.asarray(row, dtype=float)) for row in cost_rows]
    return trellis_of(frames, bank)


def sparse_trellis(bank, frame_dicts):
    frames = []
    for d in frame_dicts:
        idx = np.array(sorted(d), dtype=int)
        frames.append((idx, np.array([d[i] for i in idx], dtype=float)))
    return trellis_of(frames, bank)


# ---------------------------------------------------------------------------
# independent oracles


def ref_energy(trellis, path, params):
    """Scalar re-derivation of the path energy; None when infeasible."""
    bank = trellis.bank
    breaks = np.asarray(bank.sequence_breaks)
    unary = 0.0
    for n, i in enumerate(path):
        idx, e = trellis.frames[n]
        pos = list(idx).index(i)
        unary += float(e[pos])
    transition = speed = stationary = 0.0
    s_prev = 0
    run = 0
    for n in range(1, len(path)):
        j, i = path[n - 1], path[n]
        cj, ci = int(bank.cluster_of[j]), int(bank.cluster_of[i])
        if not bank.adjacent[cj, ci]:
            return None
        step = i - j
        lo, hi = min(i, j), max(i, j)
        crossing = bool(
            np.searchsorted(breaks, hi, side="right")
            > np.searchsorted(breaks, lo, side="right")
        )
        if 0 <= step <= 2 and not crossing:
            transition += 0.0
        else:
            transition += params.delta
        speed += params.speed_mu * min(abs(s_prev - step), params.speed_gamma)
        if step == 0:
            run += 1
            stationary += params.stat_mu * min(run, params.stat_gamma)
        else:
            run = 0
        s_prev = step
    return unary, transition, speed, stationary, unary + transition + speed + stationary


def ref_viterbi(trellis, delta):
    """First-order Viterbi over unary + w only (mu = mu_s = 0 regime).

    Ties broken exactly like the recursion under test: candidates are scanned
    in ascending exemplar order with strict improvement, and the final frame
    keeps the first minimum.
    """
    bank = trellis.bank
    breaks = np.asarray(bank.sequence_breaks)
    nbrs = [set(np.flatnonzero(row).tolist()) for row in bank.adjacent]

    idx0, e0 = trellis.frames[0]
    h = [float(v) for v in e0]
    back = []
    for n in range(1, trellis.n_frames):
        idx, e = trellis.frames[n]
        p_idx, _ = trellis.frames[n - 1]
        h_new = [math.inf] * len(idx)
        par = [-1] * len(idx)
        for a, i in enumerate(int(x) for x in idx):
            for b, j in enumerate(int(x) for x in p_idx):
                if int(bank.cluster_of[i]) not in nbrs[int(bank.cluster_of[j])]:
                    continue
                lo, hi = min(i, j), max(i, j)
                crossing = bool(
                    np.searchsorted(breaks, hi, side="right")
                    > np.searchsorted(breaks, lo, side="right")
                )
                w = 0.0 if (0 <= i - j <= 2 and not crossing) else delta
                cand = h[b] + w + float(e[a])
                if cand < h_new[a]:
                    h_new[a] = cand
                    par[a] = b
        h = h_new
        back.append(par)
    end = min(range(len(h)), key=lambda p: (h[p], p))
    if not math.isfinite(h[end]):
        return None
    positions = [end]
    for par in reversed(back):
        positions.append(par[positions[-1]])
    positions.reverse()
    path = [int(trellis.frames[n][0][p]) for n, p in enumerate(positions)]
    return path, h[end]


def _reference_paper_dp(trellis, params):
    """Dense first-order recursion: for each cluster of a frame, score all of
    its nodes against every predecessor in a neighbor cluster, with the same
    float expression, and keep the first minimum (smaller exemplar index).
    Returns the path and every frame's node records."""
    bank = trellis.bank
    meta = [
        (bank.cluster_of[idx], np.searchsorted(bank.sequence_breaks, idx, side="right"))
        for idx, _ in trellis.frames
    ]
    idx0, e0 = trellis.frames[0]
    h = e0.copy()
    u = np.zeros(len(idx0), dtype=int)
    s = np.zeros(len(idx0), dtype=int)
    parents = [np.full(len(idx0), -1, dtype=int)]
    tables = [[NodeState(float(e0[p]), 0, 0, -1) for p in range(len(idx0))]]

    for n in range(1, trellis.n_frames):
        idx, e = trellis.frames[n]
        clusters, br = meta[n]
        p_idx, _ = trellis.frames[n - 1]
        p_clusters, p_br = meta[n - 1]

        by_cluster: dict = {}
        for pos, c in enumerate(p_clusters):
            by_cluster.setdefault(int(c), []).append(pos)

        h_new = np.full(len(idx), np.inf)
        u_new = np.zeros(len(idx), dtype=int)
        s_new = np.zeros(len(idx), dtype=int)
        par = np.full(len(idx), -1, dtype=int)

        for c in np.unique(clusters):
            rows = np.flatnonzero(clusters == c)
            j_pos = [p for nb in np.flatnonzero(bank.adjacent[int(c)]) for p in by_cluster.get(int(nb), [])]
            if not j_pos:
                continue
            j_pos = np.array(sorted(j_pos), dtype=int)  # ascending exemplar index
            pj = p_idx[j_pos]
            step = idx[rows][:, None] - pj[None, :]
            small_fwd = (step >= 0) & (step <= 2) & ~(br[rows][:, None] > p_br[j_pos][None, :])
            w = np.where(small_fwd, 0.0, params.delta)
            q = params.speed_mu * np.minimum(np.abs(s[j_pos][None, :] - step), params.speed_gamma)
            r = np.where(
                step == 0,
                params.stat_mu * np.minimum(u[j_pos][None, :] + 1, params.stat_gamma),
                0.0,
            )
            tot = h[j_pos][None, :] + w + q + r
            best = tot.argmin(axis=1)  # first minimum -> smallest exemplar index
            span = np.arange(len(rows))
            h_new[rows] = e[rows] + tot[span, best]
            chosen_step = step[span, best]
            s_new[rows] = chosen_step
            u_new[rows] = np.where(chosen_step == 0, u[j_pos[best]] + 1, 0)
            par[rows] = j_pos[best]

        tables.append([NodeState(float(h_new[p]), int(u_new[p]), int(s_new[p]), int(par[p])) for p in range(len(idx))])
        h, u, s = h_new, u_new, s_new
        parents.append(par)

    end = int(h.argmin())
    if not np.isfinite(h[end]):
        raise Infeasible("no finite-energy path through the trellis")
    positions = [end]
    for n in range(trellis.n_frames - 1, 0, -1):
        positions.append(int(parents[n][positions[-1]]))
    positions.reverse()
    indices = [int(trellis.frames[n][0][p]) for n, p in enumerate(positions)]
    return energy_of_path(trellis, indices, params), tables


def paper_dp_tables(trellis, params=PathParams()):
    """Every frame's node records, read from the forward pass of
    solve_paper_dp."""
    return [
        [NodeState(float(hp), int(up), int(sp), int(pp)) for hp, up, sp, pp in zip(h, u, s, p)]
        for _, h, u, s, p in pathopt._paper_dp_frames(trellis, params)
    ]


def _reference_cluster_viterbi(trellis, dists):
    """Cheapest neighbor-feasible cluster sequence under unary 1 - probs,
    scanning previous clusters in ascending id with strict improvement."""
    bank = trellis.bank
    nbr_sets = [set(np.flatnonzero(row).tolist()) for row in bank.adjacent]
    present = [np.unique(bank.cluster_of[idx]) for idx, _ in trellis.frames]
    h = {int(c): 1.0 - float(dists[0][c]) for c in present[0]}
    back = []
    for n in range(1, trellis.n_frames):
        new_h = {}
        bk = {}
        for c in present[n]:
            c = int(c)
            best = None
            for cp, hp in sorted(h.items()):
                if c not in nbr_sets[cp]:
                    continue
                if best is None or hp < best[0]:
                    best = (hp, cp)
            if best is not None:
                new_h[c] = best[0] + 1.0 - float(dists[n][c])
                bk[c] = best[1]
        if not new_h:
            raise Infeasible("no neighbor-feasible cluster sequence")
        h = new_h
        back.append(bk)
    end = min(sorted(h), key=lambda c: h[c])
    seq = [end]
    for bk in reversed(back):
        seq.append(bk[seq[-1]])
    seq.reverse()
    return seq


def random_instance(rng, max_frames=5, max_nodes=5, dyadic=False):
    n_poses = int(rng.integers(4, 9))
    k = int(rng.integers(1, 4))
    cluster_seq = np.sort(rng.integers(0, k, size=n_poses))
    # relabel so ids are contiguous from zero
    _, cluster_seq = np.unique(cluster_seq, return_inverse=True)
    breaks = [int(rng.integers(1, n_poses))] if rng.random() < 0.3 else []
    bank = make_bank(cluster_seq, breaks, seed=int(rng.integers(1 << 16)))
    n_frames = int(rng.integers(1, max_frames + 1))
    frames = []
    for _ in range(n_frames):
        m = int(rng.integers(1, min(max_nodes, n_poses) + 1))
        idx = rng.choice(n_poses, size=m, replace=False)
        if dyadic:
            e = rng.integers(0, 65, size=m) / 64.0
        else:
            e = rng.uniform(0.0, 1.0, size=m)
        frames.append((idx, e))
    return trellis_of(frames, bank)


DYADIC = PathParams(delta=0.125, speed_gamma=10.0, speed_mu=1.0 / 128, stat_gamma=5.0, stat_mu=1.0 / 64)
CLI_PARAMS = _path_params(DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# parameters and term functions


def test_params_reject_negative_values():
    with pytest.raises(ValueError):
        PathParams(delta=-0.1)
    with pytest.raises(ValueError):
        PathParams(speed_mu=-1e-9)
    with pytest.raises(ValueError):
        PathParams(stat_mu=-0.5)
    with pytest.raises(ValueError):
        PathParams(speed_gamma=-1.0)
    with pytest.raises(ValueError):
        PathParams(stat_gamma=-2.0)
    for key in ("delta", "speed_gamma", "speed_mu", "stat_gamma", "stat_mu"):
        with pytest.raises(ValueError):
            PathParams(**{key: math.nan})
    for key in ("speed_mu", "stat_mu"):  # inf * 0 is NaN
        with pytest.raises(ValueError, match="finite"):
            PathParams(**{key: math.inf})
    with pytest.raises(ValueError, match="finite"):
        PathParams(stat_mu=math.inf, stat_gamma=0.0)
    PathParams(delta=math.inf, speed_gamma=math.inf, stat_gamma=math.inf)  # saturation and delta may be infinite


def test_step_weight_examples():
    params = PathParams()
    bank = make_bank([0] * 6 + [1] * 6 + [2] * 6)
    # unit forward step inside one cluster: free
    assert step_weight(10, 11, bank, params) == 0.0
    # forward by two: still free
    assert step_weight(9, 11, bank, params) == 0.0
    # backward step: delta
    assert step_weight(10, 9, bank, params) == pytest.approx(0.1)
    # long jump within neighboring clusters: delta
    assert step_weight(10, 1, bank, params) == pytest.approx(0.1)
    assert step_weight(6, 9, bank, params) == pytest.approx(0.1)  # forward by 3
    # clusters 0 and 2 never temporally adjacent: infeasible
    assert step_weight(1, 13, bank, params) == math.inf
    assert step_weight(13, 1, bank, params) == math.inf


def test_step_weight_sequence_breaks():
    params = PathParams(delta=0.25)
    bank = make_bank([0] * 20, breaks=[10])
    # small forward step across the boundary is not a real continuation
    assert step_weight(9, 10, bank, params) == pytest.approx(0.25)
    assert step_weight(9, 11, bank, params) == pytest.approx(0.25)
    # inside either block it is free
    assert step_weight(8, 9, bank, params) == 0.0
    assert step_weight(10, 12, bank, params) == 0.0
    # staying put never crosses anything
    assert step_weight(10, 10, bank, params) == 0.0


def test_speed_term_examples():
    params = PathParams()
    assert speed_term(1, 1, params) == 0.0
    assert speed_term(0, 5, params) == pytest.approx(0.05)
    assert speed_term(5, 0, params) == pytest.approx(0.05)  # symmetric
    assert speed_term(0, 50, params) == pytest.approx(0.1)  # saturates at gamma
    assert speed_term(-25, 25, params) == pytest.approx(0.1)


def test_stationary_term_examples():
    params = PathParams()
    assert stationary_term(7, 3, 4, params) == 0.0  # moving step never charged
    assert stationary_term(0, 5, 5, params) == pytest.approx(0.02)
    assert stationary_term(1, 5, 5, params) == pytest.approx(0.04)
    assert stationary_term(10, 5, 5, params) == pytest.approx(0.1)  # clamped at gamma_s


# ---------------------------------------------------------------------------
# trellis and path containers


def test_trellis_validation():
    bank = make_bank([0, 0, 1, 1, 2])
    keep = np.array([[True, False, True], [False, True, False]])

    def build(keep=keep, table=np.zeros((2, 3)), column_of=bank.cluster_of):
        return Trellis(table, column_of, keep, bank)

    build()
    for table, keep_ in ((np.zeros((0, 3)), np.zeros((0, 3), dtype=bool)), (np.zeros(3), np.ones(3, dtype=bool))):
        with pytest.raises(ValueError, match="at least one frame"):
            build(keep_, table)
    for bad in (keep.astype(int), keep.tolist(), keep[:1], keep[:, :2], keep.T, np.ones((3, 3), dtype=bool)):
        with pytest.raises(ValueError, match="keep must be a bool array"):
            build(bad)
    # column 3 holds no pose: it may be kept, but a frame needs one that holds a pose
    wide = build(np.array([[False, False, True, True], [True, True, True, True]]), np.zeros((2, 4)))
    assert wide.cluster_of_column.tolist() == [0, 1, 2, -1]
    for rows, frame in (([[False, False, False, True], [True] * 4], 0), ([[True] * 4, [False] * 4], 1)):
        with pytest.raises(ValueError, match=f"frame {frame} keeps no column that holds a pose"):
            build(np.array(rows), np.zeros((2, 4)))
    with pytest.raises(ValueError, match="two clusters"):
        build(column_of=np.array([0, 0, 0, 1, 2]))  # pose 2 of cluster 1 in cluster 0's column
    bad_columns = (np.arange(4), np.arange(6), np.zeros((5, 1), dtype=int), np.arange(5.0), [0, 0, 1, 1, 2], bank.cluster_of + 1, bank.cluster_of - 1)
    for column_of in bad_columns:
        with pytest.raises(ValueError, match="column"):
            build(column_of=column_of)
    build(np.ones((2, 5), dtype=bool), np.zeros((2, 5)), np.arange(5))  # one column per pose
    one = make_bank([0] * 5)
    Trellis(np.zeros((1, 1)), np.zeros(5, dtype=int), np.ones((1, 1), dtype=bool), one)  # one column for every pose


def test_trellis_frame_reads_costs_through_column_of():
    bank = make_bank([0, 1, 0, 1, 1])  # interleaved, so a frame's candidates mix its clusters
    table = np.array([[0.5, 0.25], [0.75, 0.125]])
    keep = np.array([[True, True], [False, True]])
    tr = Trellis(table, bank.cluster_of, keep, bank)
    assert set(vars(tr)) == {"table", "column_of", "keep", "bank"}  # no array per frame
    for n in range(tr.n_frames):
        idx, e = tr.frame(n)
        assert np.array_equal(idx, tr.candidates(n)) and np.array_equal(idx, tr.indices[n])
        assert (np.diff(idx) > 0).all()
        assert idx.tolist() == [i for i in range(5) if keep[n, bank.cluster_of[i]]]
        assert np.array_equal(e, table[n][bank.cluster_of[idx]])
    assert [(i.tolist(), e.tolist()) for i, e in tr.frames] == [
        ([0, 1, 2, 3, 4], [0.5, 0.25, 0.5, 0.25, 0.25]),
        ([1, 3, 4], [0.125, 0.125, 0.125]),
    ]
    assert [e.tolist() for e in tr.costs] == [[0.5, 0.25, 0.5, 0.25, 0.25], [0.125, 0.125, 0.125]]
    assert tr.present().tolist() == [[True, True], [False, True]]
    assert tr.cost_of(1, 4) == 0.125
    with pytest.raises(ValueError, match="not a candidate"):
        tr.cost_of(1, 0)
    # -1 and -2 would wrap round to poses 4 and 3, which frame 1 keeps
    for exemplar in (-1, -2, 5):
        with pytest.raises(ValueError, match="not in the bank"):
            tr.cost_of(1, exemplar)
    # candidates given in any order come out ascending, each with its own cost
    sparse = trellis_of([([4, 0, 2], [0.25, 0.5, 0.75]), ([3], [1.0])], bank)
    assert [(i.tolist(), e.tolist()) for i, e in sparse.frames] == [([0, 2, 4], [0.5, 0.75, 0.25]), ([3], [1.0])]
    assert sparse.present().tolist() == [[True, True], [False, True]]
    with pytest.raises(ValueError, match="repeats"):
        trellis_of([([1, 3, 1], [0.0, 0.0, 0.0])], bank)


def test_from_costs_prune_and_restrict_share_the_table():
    bank = make_bank([0] * 4 + [1] * 4 + [2] * 4)
    labels = [SitStand.STANDING_LIKE] * bank.k
    dists = np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.0, 0.5, 0.5]])
    full = unary_costs(dists, np.full(3, 0.5), bank, labels)
    # a threshold-0 trellis holds the table and one broadcast True, no array per frame
    assert set(vars(full)) == {"table", "column_of", "keep", "bank"}
    assert full.table.shape == (3, bank.k) and full.column_of is bank.cluster_of
    assert full.keep.shape == full.table.shape and full.keep.all()
    assert full.keep.strides == (0, 0) and not full.keep.flags.writeable
    assert Trellis.from_costs(full, bank) is full
    kept = prune(full, dists, 0.2)
    assert kept.table is full.table and kept.column_of is full.column_of
    assert kept.keep.tolist() == [[True, True, False], [False, False, True], [False, True, True]]
    assert [idx.tolist() for idx in kept.indices] == [list(range(8)), list(range(8, 12)), list(range(4, 12))]
    restricted = pathopt._restrict(kept, [0, 2, 1])
    assert restricted.table is full.table and restricted.column_of is full.column_of
    assert restricted.keep.tolist() == [[True, False, False], [False, False, True], [False, True, False]]
    assert [idx.tolist() for idx in restricted.indices] == [[0, 1, 2, 3], [8, 9, 10, 11], [4, 5, 6, 7]]
    for n in range(3):
        idx, e = restricted.frame(n)
        assert np.array_equal(e, 1.0 - dists[n][bank.cluster_of[idx]])
    with pytest.raises(ValueError, match="every bank pose"):
        prune(kept, dists, 0.2)


def test_pose_path_component_sum_enforced():
    PosePath([0, 1], 0.5, 0.1, 0.0, 0.0, 0.6)
    with pytest.raises(ValueError):
        PosePath([0, 1], 0.5, 0.1, 0.0, 0.0, 0.7)


def test_pose_path_energy_dict_and_save(tmp_path):
    bank = make_bank([0, 0, 1, 1])
    p = PosePath([1, 2], 0.25, 0.1, 0.0, 0.0, 0.35)
    assert p.energy_dict() == {
        "U": 0.25,
        "T": 0.1,
        "V": 0.0,
        "S": 0.0,
        "total": 0.35,
    }
    out = tmp_path / "path.jsonl"
    p.save(out, bank)
    lines = [line for line in out.read_text().splitlines() if line]
    assert len(lines) == 2
    import json

    rec = json.loads(lines[1])
    assert rec == {"t": 1, "exemplar": 2, "cluster": 1}


# ---------------------------------------------------------------------------
# energy accounting


def test_energy_constant_pose_accumulates_stationary():
    bank = make_bank([0] * 5)
    tr = full_trellis(bank, [np.zeros(5)] * 3)
    path = energy_of_path(tr, [2, 2, 2])
    assert path.unary == 0.0
    assert path.transition == 0.0
    assert path.speed == 0.0
    assert path.stationary == pytest.approx(0.02 + 0.04)
    assert path.total == pytest.approx(0.06)


def test_energy_unit_forward_charges_first_step_only():
    bank = make_bank([0] * 6)
    tr = full_trellis(bank, [np.zeros(6)] * 4)
    path = energy_of_path(tr, [1, 2, 3, 4])
    assert path.transition == 0.0
    assert path.stationary == 0.0
    # the speed penalty fires once, when the step changes from 0 to 1
    assert path.speed == pytest.approx(0.01)
    assert path.total == pytest.approx(0.01)


def test_energy_stationary_run_resets_on_movement():
    bank = make_bank([0] * 6)
    tr = full_trellis(bank, [np.zeros(6)] * 5)
    path = energy_of_path(tr, [2, 2, 3, 3, 3])
    # runs: t(1) then movement then t(1) + t(2)
    assert path.stationary == pytest.approx(0.02 + 0.02 + 0.04)


def test_energy_matches_reference_accumulator_on_random_paths():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 40:
        tr = random_instance(rng)
        path = [int(rng.choice(idx)) for idx, _ in tr.frames]
        expected = ref_energy(tr, path, PathParams())
        if expected is None:
            with pytest.raises(InfeasiblePath):
                energy_of_path(tr, path)
            continue
        got = energy_of_path(tr, path)
        u, t, v, s, total = expected
        assert got.unary == pytest.approx(u, abs=1e-12)
        assert got.transition == pytest.approx(t, abs=1e-12)
        assert got.speed == pytest.approx(v, abs=1e-12)
        assert got.stationary == pytest.approx(s, abs=1e-12)
        assert got.total == pytest.approx(total, abs=1e-12)
        checked += 1
    assert checked == 40


def test_energy_wrong_length_and_non_candidate_rejected():
    bank = make_bank([0] * 4)
    tr = full_trellis(bank, [np.zeros(4)] * 2)
    with pytest.raises(ValueError):
        energy_of_path(tr, [1])
    tr2 = sparse_trellis(bank, [{0: 0.0}, {1: 0.0}])
    with pytest.raises(ValueError):
        energy_of_path(tr2, [0, 2])


def test_energy_infeasible_step_raises():
    bank = make_bank([0, 0, 1, 1, 2, 2])
    tr = full_trellis(bank, [np.zeros(6)] * 2)
    with pytest.raises(InfeasiblePath):
        energy_of_path(tr, [0, 5])


# ---------------------------------------------------------------------------
# solvers: pinned instances


def test_single_candidate_trellis_forces_the_path():
    bank = make_bank([0] * 3)
    tr = sparse_trellis(bank, [{1: 0.3}, {1: 0.1}, {1: 0.2}, {1: 0.05}])
    expected_total = 0.3 + 0.1 + 0.2 + 0.05 + (0.02 + 0.04 + 0.06)
    for solver in (solve_paper_dp, solve_exact_dp, brute_force):
        path = solver(tr)
        assert path.indices == [1, 1, 1, 1]
        assert path.unary == pytest.approx(0.65)
        assert path.stationary == pytest.approx(0.12)
        assert path.total == pytest.approx(expected_total)


def test_brute_force_single_frame_argmin():
    bank = make_bank([0] * 5)
    tr = sparse_trellis(bank, [{0: 0.4, 2: 0.1, 4: 0.1}])
    path = brute_force(tr)
    assert path.indices == [2]  # tie with 4 resolved to smaller index
    assert path.total == pytest.approx(0.1)


def test_brute_force_two_by_two_hand_enumeration():
    bank = make_bank([0] * 4)
    tr = sparse_trellis(bank, [{0: 0.2, 1: 0.0}, {2: 0.05, 3: 0.3}])
    params = PathParams()
    totals = {}
    for a in (0, 1):
        for b in (2, 3):
            totals[(a, b)] = ref_energy(tr, [a, b], params)[-1]
    best = min(totals.values())
    path = brute_force(tr, params)
    assert path.total == pytest.approx(best)
    assert path.indices == [1, 2]  # 0.0 + 0.05 + q(|0-1|)


def test_paper_dp_can_exceed_the_optimum():
    """Committing to the cheapest prefix discards the speed-compatible one."""
    bank = make_bank([0] * 7)
    tr = sparse_trellis(bank, [{2: 0.0, 3: 0.005}, {4: 0.0}, {6: 0.0}])
    paper = solve_paper_dp(tr)
    exact = solve_exact_dp(tr)
    brute = brute_force(tr)
    assert exact.total == pytest.approx(brute.total)
    assert exact.indices == [2, 4, 6]  # steps 2, 2: only the first is charged
    assert exact.total == pytest.approx(0.02)
    assert paper.indices == [3, 4, 6]
    assert paper.total == pytest.approx(0.025)
    assert paper.total > exact.total


def test_infeasible_trellis_raises_in_every_solver():
    bank = make_bank([0, 0, 1, 1, 2, 2])
    tr = sparse_trellis(bank, [{0: 0.0}, {5: 0.0}])
    for solver in (solve_paper_dp, solve_exact_dp, brute_force):
        with pytest.raises(Infeasible):
            solver(tr)


def test_paper_dp_stops_at_the_first_dead_frame(monkeypatch):
    # no neighbor-cluster predecessor reaches frame 1, so no later node is finite
    bank = make_bank([0, 0, 1, 1, 2, 2])
    tr = sparse_trellis(bank, [{0: 0.0}, {5: 0.0}] + [{4: 0.0, 5: 0.0}] * 30)
    frames_scored = []
    real = pathopt._representatives
    monkeypatch.setattr(pathopt, "_representatives", lambda *a: frames_scored.append(1) or real(*a))
    with pytest.raises(Infeasible):
        solve_paper_dp(tr)
    assert len(frames_scored) == 1


def test_state_explosion_guard():
    n = 3200
    rng = np.random.default_rng(0)
    bank = ExemplarBank.build(rng.normal(size=(n, 75)), np.zeros(n, dtype=int), [], 1)
    tr = full_trellis(bank, [np.zeros(n), np.zeros(n)])
    with pytest.raises(StateExplosion):
        solve_exact_dp(tr)


def test_brute_force_path_budget_guard():
    bank = make_bank([0] * 8)
    tr = full_trellis(bank, [np.zeros(8)] * 7)  # 8^7 > 1e6 paths
    with pytest.raises(TooLarge):
        brute_force(tr)


def test_paper_dp_node_tables():
    bank = make_bank([0] * 6)
    tr = sparse_trellis(bank, [{0: 0.1, 1: 0.2}, {1: 0.0, 2: 0.3}, {3: 0.05}])
    result = solve_paper_dp(tr)
    frames = list(pathopt._paper_dp_frames(tr, PathParams()))
    assert len(frames) == 3
    for n, (idx, *nodes) in enumerate(frames):
        assert idx.tolist() == tr.candidates(n).tolist()
        assert all(len(a) == len(idx) for a in nodes)
    tables = paper_dp_tables(tr)
    for state in tables[0]:
        assert state.p == -1 and state.u == 0 and state.s == 0
    for n in (1, 2):
        for state in tables[n]:
            if math.isfinite(state.h):
                assert state.p >= 0
                assert state.u >= 0
    best = min(s.h for s in tables[-1])
    assert best == pytest.approx(result.total)


# ---------------------------------------------------------------------------
# solvers: randomized cross-checks


def test_paper_dp_matches_first_order_viterbi_when_second_order_off():
    params = PathParams(delta=0.1, speed_mu=0.0, stat_mu=0.0)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 25:
        tr = random_instance(rng)
        oracle = ref_viterbi(tr, params.delta)
        if oracle is None:
            with pytest.raises(Infeasible):
                solve_paper_dp(tr, params)
            continue
        path, energy = oracle
        got = solve_paper_dp(tr, params)
        assert got.indices == path
        assert got.total == pytest.approx(energy, abs=1e-12)
        assert got.speed == 0.0 and got.stationary == 0.0
        # with only first-order terms the recursion is a true minimizer
        brute = brute_force(tr, params)
        assert got.total == pytest.approx(brute.total, abs=1e-12)
        checked += 1
    assert checked == 25


def test_exact_dp_equals_brute_force_on_dyadic_instances():
    """Costs on a 1/64 grid with dyadic penalties make sums exact, so the
    minimum energies must match to the last bit."""
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 30:
        tr = random_instance(rng, dyadic=True)
        try:
            brute = brute_force(tr, DYADIC)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve_exact_dp(tr, DYADIC)
            with pytest.raises(Infeasible):
                solve_paper_dp(tr, DYADIC)
            continue
        exact = solve_exact_dp(tr, DYADIC)
        paper = solve_paper_dp(tr, DYADIC)
        assert exact.total == brute.total  # exact float equality
        assert paper.total >= brute.total
        checked += 1
    assert checked == 30


def test_paper_dp_never_beats_the_optimum_generic_params():
    rng = np.random.default_rng(91)
    params = PathParams()
    checked = 0
    gaps = []
    while checked < 25:
        tr = random_instance(rng)
        try:
            brute = brute_force(tr, params)
        except Infeasible:
            continue
        paper = solve_paper_dp(tr, params)
        exact = solve_exact_dp(tr, params)
        assert paper.total >= brute.total - 1e-9
        assert abs(exact.total - brute.total) < 1e-9
        gaps.append(paper.total - brute.total)
        checked += 1
    assert checked == 25
    assert all(g >= -1e-9 for g in gaps)


def test_solved_paths_are_cluster_feasible_and_within_candidates():
    rng = np.random.default_rng(7)
    params = PathParams()
    checked = 0
    while checked < 15:
        tr = random_instance(rng)
        try:
            path = solve_paper_dp(tr, params)
        except Infeasible:
            continue
        assert len(path.indices) == tr.n_frames
        for n, i in enumerate(path.indices):
            assert i in tr.frames[n][0]
        # recomputing the energy of the returned indices reproduces the split
        again = energy_of_path(tr, path.indices, params)
        assert again.total == path.total
        checked += 1
    assert checked == 15


# ---------------------------------------------------------------------------
# candidate-set recursion against the dense reference

ORACLE_PARAMS = [
    CLI_PARAMS,
    PathParams(delta=0.125, speed_gamma=2.5, speed_mu=1.0 / 8, stat_gamma=2.0, stat_mu=1.0 / 16),
    PathParams(delta=0.25, speed_gamma=0.0, speed_mu=1.0 / 4, stat_gamma=3.0, stat_mu=1.0 / 8),
    PathParams(delta=0.125, speed_gamma=1e6, speed_mu=1.0 / 64, stat_gamma=5.0, stat_mu=1.0 / 32),
    PathParams(delta=0.0, speed_gamma=3.0, speed_mu=1.0 / 4, stat_gamma=2.0, stat_mu=1.0 / 4),
    PathParams(delta=0.25, speed_gamma=math.inf, speed_mu=0.0, stat_gamma=1.0, stat_mu=0.0),
]


def oracle_instance(rng, dyadic):
    """Up to 40 poses in up to 6 clusters, laid out in runs (a chain-like,
    sparse neighbor graph) or at random (a dense one), with sequence breaks;
    up to 8 frames of up to 24 candidates. Dyadic costs on a 1/4 grid make
    many energies tie exactly."""
    n_poses = int(rng.integers(3, 41))
    k = int(rng.integers(1, min(6, n_poses) + 1))
    cluster_seq = rng.integers(0, k, size=n_poses)
    if rng.random() < 0.5:
        cluster_seq = np.sort(cluster_seq)
    _, cluster_seq = np.unique(cluster_seq, return_inverse=True)
    breaks = sorted(set(int(b) for b in rng.integers(1, n_poses, size=int(rng.integers(0, 3))))) if n_poses > 1 else []
    bank = make_bank(cluster_seq, breaks, seed=int(rng.integers(1 << 16)))
    frames = []
    for _ in range(int(rng.integers(1, 9))):
        m = int(rng.integers(1, min(24, n_poses) + 1))
        idx = rng.choice(n_poses, size=m, replace=False)
        e = rng.integers(0, 5, size=m) / 4.0 if dyadic else rng.uniform(0.0, 1.0, size=m)
        frames.append((idx, e))
    return trellis_of(frames, bank)


def assert_same_as_reference(tr, params):
    try:
        want, want_tables = _reference_paper_dp(tr, params)
    except Infeasible:
        with pytest.raises(Infeasible):
            solve_paper_dp(tr, params)
        return False
    got, got_tables = solve_paper_dp(tr, params), paper_dp_tables(tr, params)
    assert got.indices == want.indices
    assert got.energy_dict() == want.energy_dict()
    assert len(got_tables) == len(want_tables)
    for got_frame, want_frame in zip(got_tables, want_tables):
        assert len(got_frame) == len(want_frame)
        for g, w in zip(got_frame, want_frame):
            assert math.isfinite(g.h) == math.isfinite(w.h)
            if math.isfinite(w.h):
                assert (g.h, g.u, g.s, g.p) == (w.h, w.u, w.s, w.p)
    return True


def test_paper_dp_equals_dense_reference_on_random_trellises():
    rng = np.random.default_rng(2024)
    solved = 0
    for trial in range(2400):
        params = ORACLE_PARAMS[trial % len(ORACLE_PARAMS)]
        solved += assert_same_as_reference(oracle_instance(rng, dyadic=trial % 2 == 0), params)
    assert solved > 1500  # most instances are feasible; the rest check Infeasible parity


def test_paper_dp_equals_dense_reference_in_small_near_chunks(monkeypatch):
    """Near pairs are scored in chunks so that memory per frame stays bounded
    when speed_gamma exceeds the bank; chunk boundaries must not matter."""
    monkeypatch.setattr(pathopt, "_NEAR_CHUNK", 5)
    rng = np.random.default_rng(77)
    for trial in range(150):
        params = ORACLE_PARAMS[trial % len(ORACLE_PARAMS)]
        assert_same_as_reference(oracle_instance(rng, dyadic=True), params)


def _repeating_trellis(rng, case):
    """An oracle bank with frames whose candidate arrays repeat: one shared
    read-only array (as unary_costs returns at threshold 0), equal but
    distinct arrays, or two sets in alternation."""
    tr = oracle_instance(rng, dyadic=True)
    n_poses = len(tr.bank.poses)
    first = np.sort(rng.choice(n_poses, size=int(rng.integers(1, n_poses + 1)), replace=False))
    sets = [first, np.setxor1d(first, [first[0] if len(first) > 1 else (first[0] + 1) % n_poses])]
    shared = np.arange(n_poses)
    shared.flags.writeable = False
    frames = []
    for n in range(int(rng.integers(3, 9))):
        idx = {"shared": shared, "equal": sets[0].copy(), "alternating": sets[n % 2]}[case]
        frames.append((idx, rng.integers(0, 5, size=len(idx)) / 4.0))
    return trellis_of(frames, tr.bank)


@pytest.mark.parametrize("chunk", [pathopt._NEAR_CHUNK, 5])
@pytest.mark.parametrize("case", ["shared", "equal", "alternating"])
def test_paper_dp_reuses_frame_pair_structure_only_while_the_candidates_repeat(monkeypatch, case, chunk):
    """The special positions and live edges of a frame pair are kept while
    both candidate arrays stay the same; a stale copy would show as a node
    record that differs from the dense reference."""
    monkeypatch.setattr(pathopt, "_NEAR_CHUNK", chunk)
    built = []
    real = pathopt._Pair

    class CountingPair(real):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(pathopt, "_Pair", CountingPair)
    rng = np.random.default_rng(["shared", "equal", "alternating"].index(case))
    for params in ORACLE_PARAMS:
        for _ in range(6):
            tr = _repeating_trellis(rng, case)
            if assert_same_as_reference(tr, params):
                built.clear()
                solve_paper_dp(tr, params)
                assert len(built) == (tr.n_frames - 1 if case == "alternating" else 1)


def test_paper_dp_scores_a_near_predecessor_that_ties_the_best_score():
    """Node 2 of the last frame has two best predecessors at energy 1:
    exemplar 9, the representative (its speed term saturated), and exemplar
    5, a near predecessor whose h + delta is exactly that best score. The
    smaller index must win, so the near-predecessor cut must keep 5. In the
    second trellis node 13 has no predecessor in a neighbor cluster, so its
    best score stays inf and no predecessor may be cut for it."""
    params = PathParams(delta=0.25, speed_gamma=2.0, speed_mu=0.25, stat_gamma=2.0, stat_mu=0.25)
    bank = make_bank([0] * 12 + [1] * 2, breaks=[12])
    assert not bank.adjacent[0, 1]
    start, middle = {8: 0.0, 9: 0.0}, {5: 0.0, 9: 0.0}  # 5 arrives from 8 (s = -3), 9 from 8 (s = 1)
    for last in ({2: 0.0}, {2: 0.0, 13: 0.0}):
        tr = sparse_trellis(bank, [start, middle, last])
        assert assert_same_as_reference(tr, params)
        path, tables = solve_paper_dp(tr, params), paper_dp_tables(tr, params)
        assert [tables[1][p].s for p in range(2)] == [-3, 1]
        node = tables[2][0]
        assert (node.h, node.p) == (1.0, 0)  # position 0 of frame 1: exemplar 5
        assert path.indices == [8, 5, 2]
    assert math.isinf(tables[2][1].h)


def test_paper_dp_ties_resolve_to_smaller_index_among_saturated_predecessors():
    """Every predecessor far from its prediction scores the same saturated
    amount; the smallest exemplar index must win, as in the dense scan."""
    bank = make_bank([0] * 30)
    params = PathParams(delta=0.25, speed_gamma=2.0, speed_mu=0.25, stat_gamma=2.0, stat_mu=0.25)
    tr = sparse_trellis(bank, [{j: 0.0 for j in (3, 9, 15, 21)}, {27: 0.0, 28: 0.0}, {1: 0.0, 12: 0.0}])
    assert assert_same_as_reference(tr, params)


def test_paper_dp_skips_a_near_predecessor_in_a_cluster_that_is_not_a_neighbor():
    """Node 7 (cluster C) has one predecessor within reach of its prediction,
    exemplar 3 of cluster A, which is no neighbor of C; its one neighbor
    predecessor, 15, is saturated. So 7 must come from 15, though 3 costs
    less. The full-bank trellis repeats its frames, so its near pairs are
    read from the live cluster edges."""
    params = PathParams(delta=0.25, speed_gamma=5.0, speed_mu=0.25, stat_gamma=2.0, stat_mu=0.25)
    bank = make_bank([0] * 5 + [1] + [2] * 4 + [1] * 6, breaks=[6])  # A-B and C-B are the only edges
    assert not bank.adjacent[0, 2]
    tr = sparse_trellis(bank, [{3: 0.0, 15: 0.5}, {7: 0.0}])
    assert assert_same_as_reference(tr, params)
    assert solve_paper_dp(tr, params).indices == [15, 7]
    assert paper_dp_tables(tr, params)[1][0].p == 1  # position 1 of frame 0: exemplar 15
    costs = np.full(16, 2.0)
    costs[[3, 15]] = 0.0, 0.5
    assert assert_same_as_reference(full_trellis(bank, [costs] * 6), params)


def _interleaved_bank(rng, n_poses, k):
    """Every cluster held, in random order, so that consecutive poses mostly
    lie in different clusters, as k-means gives on a short bank; two breaks."""
    cluster_of = rng.permutation(np.arange(n_poses) % k)
    breaks = np.sort(rng.choice(np.arange(1, n_poses), size=2, replace=False))
    return ExemplarBank(rng.normal(size=(n_poses, 75)), cluster_of, breaks, k)


def _reference_live_table(pair, bank):
    """_LiveTargets' targets and flat count table by a running sum over the
    (groups, width) block of live cluster edges."""
    live = bank.adjacent[pair.prev.present][:, pair.cur.clusters]
    counts = np.zeros((len(live), live.shape[1] + 1), dtype=int)
    np.cumsum(live, axis=1, out=counts[:, 1:])
    return np.flatnonzero(live) % live.shape[1], counts.ravel()


def test_live_targets_equal_the_running_sum_over_the_adjacency_block():
    """Pairs of random masks over small banks, whose groups often have no
    live target, and of interleaved full banks up to the CLI's 1 220 poses
    in 300 clusters: the same targets, count table and group starts."""
    rng = np.random.default_rng(34)
    shapes = [(int(rng.integers(3, 80)), int(rng.integers(1, 12)), 0.3) for _ in range(40)]
    shapes += [(int(rng.integers(20, 200)), int(rng.integers(4, 40)), 1.0) for _ in range(10)]
    shapes += [(1220, 300, 1.0)]
    for n_poses, k, kept in shapes:
        bank = _interleaved_bank(rng, n_poses, min(k, n_poses))
        keep = rng.random((2, bank.k)) < kept
        keep[:, rng.integers(bank.k)] = True
        tr = Trellis(rng.uniform(size=keep.shape), bank.cluster_of, keep, bank)
        pair = pathopt._Pair(pathopt._Frame(tr.candidates(0), tr), pathopt._Frame(tr.candidates(1), tr), bank, 0.25)
        live = pathopt._LiveTargets(pair, bank)
        targets, counts = _reference_live_table(pair, bank)
        assert np.array_equal(live.targets, targets)
        assert live.counts.dtype == np.int16 and np.array_equal(live.counts, counts)
        sizes = counts.reshape(len(pair.prev.present), -1)[:, -1]
        assert np.array_equal(live.start, (sizes.cumsum() - sizes)[pair.prev.group[pair.prev.clusters]])


@pytest.mark.parametrize("live_cells", [pathopt._LIVE_CELLS, 0])
def test_paper_dp_equals_dense_reference_on_interleaved_full_bank_trellises(monkeypatch, live_cells):
    """Every frame holds the whole bank and the clusters interleave, so most
    poses within reach of a prediction lie in clusters that are not
    neighbors. Near pairs are made along live cluster edges from each pair's
    second frame on, or, with no room for the live-edge table, tested pair
    by pair; both must give the dense recursion's node records."""
    monkeypatch.setattr(pathopt, "_LIVE_CELLS", live_cells)
    rng = np.random.default_rng(33)
    for trial in range(24):
        bank = _interleaved_bank(rng, int(rng.integers(20, 61)), int(rng.integers(4, 16)))
        cost_rows = rng.integers(0, 5, size=(int(rng.integers(3, 8)), len(bank.poses))) / 4.0
        assert assert_same_as_reference(full_trellis(bank, cost_rows), ORACLE_PARAMS[trial % len(ORACLE_PARAMS)])


def test_paper_dp_builds_the_live_edges_once_a_pair_repeats_and_again_after_a_change(monkeypatch):
    """Frames 0-3 keep one set of clusters and frames 4-7 another: the live
    edges of the first pair are built at frame 2, then the pair changes
    twice, and the edges of the second set's pair are built at frame 6."""
    built = []
    real = pathopt._LiveTargets

    class CountingLive(real):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    monkeypatch.setattr(pathopt, "_LiveTargets", CountingLive)
    rng = np.random.default_rng(8)
    checked = 0
    for trial in range(12):
        bank = _interleaved_bank(rng, 40, 8)
        first = rng.random(bank.k) < 0.6
        keep = np.array([first] * 4 + [~first | (rng.random(bank.k) < 0.3)] * 4)
        keep[:, 0] = True  # one cluster all frames share
        tr = Trellis(rng.integers(0, 5, size=keep.shape) / 4.0, bank.cluster_of, keep, bank)
        params = ORACLE_PARAMS[trial % len(ORACLE_PARAMS)]
        if assert_same_as_reference(tr, params):
            built.clear()
            solve_paper_dp(tr, params)
            assert len(built) == (2 if params.speed_gamma > 0 else 0)  # with gamma 0 no predecessor is near
            checked += 1
    assert checked >= 8


def test_paper_dp_memory_on_a_full_bank_stays_within_its_bound():
    """One decode of a trellis shaped like the CLI's full-bank fallback: 301
    frames that each keep all of a 1 220-pose bank in 300 interleaved
    clusters. Its traced peak is the int32 back-pointers (1.47 MB) plus the
    live-edge table (under 1 MB) plus one frame's work; int64 back-pointers
    or an int32 table would exceed the bound."""
    rng = np.random.default_rng(11)
    bank = _interleaved_bank(rng, 1220, 300)
    table = rng.uniform(size=(301, bank.k))
    tr = Trellis(table, bank.cluster_of, np.broadcast_to(True, table.shape), bank)
    peak = traced_peak(solve_paper_dp, tr, CLI_PARAMS)
    back_pointers = 301 * 1220 * 4
    assert peak < back_pointers + 2_000_000, peak


def test_trellis_rejects_a_nan_cost_naming_its_frame_and_column():
    """A NaN cost compares false with everything, so no solver could rank
    it: at table[2, 1] the paper DP raised Infeasible, and the exact DP and
    brute force returned different paths of the same total."""
    rng = np.random.default_rng(0)
    bank = make_bank([0] * 4 + [1] * 4 + [2] * 4)
    table = rng.uniform(size=(5, 3))
    table[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^the cost at frame 2, column 1 is NaN$"):
        Trellis(table, bank.cluster_of, np.ones(table.shape, dtype=bool), bank)
    keep = np.ones(table.shape, dtype=bool)
    keep[2, 1] = False  # a NaN in a column no frame keeps is never read
    Trellis(table, bank.cluster_of, keep, bank)


def test_trellis_rejects_a_minus_inf_cost_naming_its_frame_and_column():
    """-inf + inf is NaN, so a -inf cost leaves the solvers as unranked as a
    NaN: with -inf at table[1, 0] and +inf at table[3, 0], the paper DP
    raised Infeasible, and the exact DP and brute force returned different
    paths, both of total -inf. +inf stays allowed, and a -inf is never read
    in a column no frame keeps, nor in one that holds no pose."""
    rng = np.random.default_rng(0)
    bank = make_bank([0] * 4 + [1] * 4 + [2] * 4)
    table = rng.uniform(size=(5, 3))
    table[1, 0], table[3, 0] = -np.inf, np.inf
    everything = np.ones(table.shape, dtype=bool)
    with pytest.raises(ValueError, match=r"^the cost at frame 1, column 0 is -inf$"):
        Trellis(table, bank.cluster_of, everything, bank)
    keep = everything.copy()
    keep[1, 0] = False
    tr = Trellis(table, bank.cluster_of, keep, bank)
    assert assert_same_as_reference(tr, PathParams())
    assert solve_paper_dp(tr).total == solve_exact_dp(tr).total == brute_force(tr).total
    # a fourth column that holds no pose, -inf at every frame, kept or not
    wide = np.column_stack([table, np.full(5, -np.inf)])
    for kept in (False, True):
        keep = np.column_stack([everything, np.full(5, kept)])
        keep[1, 0] = False
        Trellis(wide, bank.cluster_of, keep, bank)


# ---------------------------------------------------------------------------
# two-stage cluster-restricted baseline


def test_path_cluster_single_cluster_is_identity():
    bank = make_bank([0] * 6)
    tr = sparse_trellis(bank, [{0: 0.3, 1: 0.1}, {2: 0.2, 3: 0.0}, {4: 0.1}])
    dists = np.ones((3, 1))
    restricted = solve_path_cluster(tr, dists)
    free = solve_paper_dp(tr)
    assert restricted.indices == free.indices
    assert restricted.total == pytest.approx(free.total)


def test_path_cluster_restriction_can_bind():
    bank = make_bank([0, 0, 0, 1, 1, 1])
    tr = sparse_trellis(bank, [{0: 0.0}, {1: 0.9, 4: 0.0}, {2: 0.0}])
    dists = np.array([[0.9, 0.1], [0.6, 0.4], [0.9, 0.1]])
    restricted = solve_path_cluster(tr, dists)
    exact = solve_exact_dp(tr)
    # stage one trusts the classifier and locks frame 1 into cluster 0
    assert restricted.indices == [0, 1, 2]
    assert restricted.total > exact.total
    assert exact.indices == [0, 4, 2]


def test_path_cluster_falls_back_to_feasible_cluster_sequence():
    bank = make_bank([0, 0, 1, 1, 2, 2])
    tr = sparse_trellis(bank, [{0: 0.0}, {2: 0.2, 4: 0.0}])
    # argmax picks cluster 2 at frame 1, which cluster 0 cannot reach
    dists = np.array([[1.0, 0.0, 0.0], [0.1, 0.2, 0.7]])
    path = solve_path_cluster(tr, dists)
    assert path.indices == [0, 2]


def viterbi_instance(rng):
    """Up to 30 poses in up to 8 clusters, mostly laid out in runs, so the
    neighbor graph is a chain that sequence breaks can cut; up to 6 frames of
    up to 4 candidates, and cluster probabilities on a 1/4 grid."""
    n_poses = int(rng.integers(2, 31))
    k = int(rng.integers(1, min(8, n_poses) + 1))
    cluster_seq = rng.integers(0, k, size=n_poses)
    if rng.random() < 0.7:
        cluster_seq = np.sort(cluster_seq)
    _, cluster_seq = np.unique(cluster_seq, return_inverse=True)
    breaks = sorted(set(rng.integers(1, n_poses, size=int(rng.integers(0, 4))).tolist()))
    bank = make_bank(cluster_seq, breaks, seed=int(rng.integers(1 << 16)))
    frames = []
    for _ in range(int(rng.integers(1, 7))):
        m = int(rng.integers(1, min(4, n_poses) + 1))
        frames.append((rng.choice(n_poses, size=m, replace=False), np.zeros(m)))
    tr = trellis_of(frames, bank)
    return tr, rng.integers(0, 5, size=(tr.n_frames, bank.k)) / 4.0


def test_cluster_viterbi_equals_dict_reference():
    rng = np.random.default_rng(5)
    outcomes = {"solved": 0, "infeasible": 0}
    for _ in range(1000):
        tr, dists = viterbi_instance(rng)
        try:
            want = _reference_cluster_viterbi(tr, dists)
        except Infeasible:
            with pytest.raises(Infeasible):
                pathopt._cluster_viterbi(tr, dists)
            outcomes["infeasible"] += 1
            continue
        assert pathopt._cluster_viterbi(tr, dists) == want
        outcomes["solved"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_path_cluster_requires_one_distribution_per_frame():
    bank = make_bank([0] * 4)
    tr = full_trellis(bank, [np.zeros(4)] * 2)
    with pytest.raises(ValueError):
        solve_path_cluster(tr, np.ones((3, 1)))


# ---------------------------------------------------------------------------
# integration with the unary-cost stage


def test_trellis_built_from_pruned_costs_solves_end_to_end():
    rng = np.random.default_rng(3)
    bank = make_bank([0] * 10 + [1] * 10, seed=3)
    n_frames = 6
    dists = rng.dirichlet(np.ones(2), size=n_frames)
    static_h = np.full(n_frames, 0.5)
    labels = np.array([False, True])
    params = PathParams()
    costs = unary_costs(dists, static_h, bank, labels, params)
    tr = prune(costs, dists, params.prune_threshold)
    path = solve_paper_dp(tr)
    assert len(path.indices) == n_frames
    assert np.isfinite(path.total)


def _sparse_random_bank(rng):
    """A bank over a sparse random neighbor graph: one two-pose sequence per
    edge and a few one-cluster sequences, in random order, with a break
    before each sequence; its last cluster has no member poses."""
    k = int(rng.integers(3, 7))
    edges = np.argwhere(np.triu(rng.random((k - 1, k - 1)) < 0.3, 1))
    lone = rng.integers(0, k - 1, size=int(rng.integers(1, 4)))
    segments = [e[rng.permutation(2)] for e in edges] + [[c] * int(rng.integers(1, 3)) for c in lone]
    segments = [segments[i] for i in rng.permutation(len(segments))]
    cluster_of = np.concatenate(segments)
    breaks = np.cumsum([len(seg) for seg in segments])[:-1]
    return ExemplarBank(rng.normal(size=(len(cluster_of), 75)), cluster_of, breaks, k)


def _relaxed_thresholds(t):
    """The thresholds infer walks: t, t/10, ..., then 0 once below 1e-6."""
    while t > 0.0:
        yield t
        t = 0.0 if t < 1e-6 else t / 10.0
    yield 0.0


def test_admits_path_agrees_with_the_solvers_at_every_relaxed_threshold():
    rng = np.random.default_rng(13)
    seen = {"feasible": 0, "infeasible": 0, "fallback frames": 0}
    for _ in range(150):
        bank = _sparse_random_bank(rng)
        labels = [SitStand.SITTING_LIKE if c % 2 else SitStand.STANDING_LIKE for c in range(bank.k)]
        n_frames = int(rng.integers(2, 7))
        dists = rng.dirichlet(np.full(bank.k, 0.3), size=n_frames)
        costs = unary_costs(dists, rng.uniform(size=n_frames), bank, labels)
        for thr in _relaxed_thresholds(float(rng.choice([0.9, 0.5, 0.2]))):
            kept = prune(costs, dists, thr)
            admits = kept.admits_path()
            for solve in (solve_paper_dp, solve_exact_dp, lambda tr: solve_path_cluster(tr, dists)):
                try:
                    solve(kept)
                    solved = True
                except Infeasible:
                    solved = False
                assert solved == admits, (thr, [idx.tolist() for idx in kept.indices])
            assert admits or thr > 0.0  # every pose kept: staying put is always allowed
            seen["feasible" if admits else "infeasible"] += 1
            seen["fallback frames"] += int((dists.max(axis=1) <= thr).sum())
    assert min(seen.values()) > 50, seen


def test_path_params_cannot_change_after_their_checks():
    """PathParams are checked when built, and a PathParams() is the shared
    default of several solvers, so no field may be set afterwards."""
    params = PathParams()
    for name, value in (("tau", 2.0), ("delta", -1.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(params, name, value)
    assert params == PathParams()
