"""Trellises with arbitrary costs per candidate, for the solver tests.

Production trellises read a candidate's cost from its cluster's column of the
unary cost table. The oracle tests need any cost on any candidate, so
trellis_of gives the table one column per bank pose (column_of = arange).
"""

import numpy as np

from egopose import Trellis


def trellis_of(frames, bank) -> Trellis:
    """A Trellis over (indices, costs) pairs, one per frame, in any order:
    frame n keeps the columns of its indices. Repeated indices raise
    ValueError."""
    n_poses = len(bank.poses)
    table = np.full((len(frames), n_poses), np.nan)
    keep = np.zeros(table.shape, dtype=bool)
    for n, (idx, e) in enumerate(frames):
        idx = np.asarray(idx, dtype=int)
        if len(np.unique(idx)) != len(idx):
            raise ValueError(f"frame {n} repeats a candidate")
        table[n, idx] = e
        keep[n, idx] = True
    return Trellis(table, np.arange(n_poses), keep, bank)
