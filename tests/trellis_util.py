"""Trellises with arbitrary costs per candidate, for the solver tests.

Production trellises read a candidate's cost from its cluster's column of the
unary cost table. The oracle tests need any cost on any candidate, so
trellis_of gives the table one column per bank pose (column_of = arange).
"""

import numpy as np

from egopose import Trellis


def trellis_of(frames, bank) -> Trellis:
    """A Trellis over (indices, costs) pairs, one per frame. A frame whose
    indices are not ascending is sorted with its costs; an ascending one keeps
    its index array as given."""
    n_poses = len(bank.poses)
    table = np.full((len(frames), n_poses), np.nan)
    indices = []
    for n, (idx, e) in enumerate(frames):
        idx, e = np.asarray(idx, dtype=int), np.asarray(e, dtype=float)
        if not (idx[1:] > idx[:-1]).all():
            order = np.argsort(idx, kind="stable")
            idx, e = idx[order], e[order]
        table[n, idx] = e
        indices.append(idx)
    return Trellis(table, np.arange(n_poses), indices, bank)
