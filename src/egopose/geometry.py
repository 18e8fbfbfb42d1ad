"""Homography estimation and dynamic motion features.

Consecutive frames of a chest camera are related (up to parallax, which the
downstream model ignores) by a 3x3 homography. Homographies are estimated
with the normalized DLT: Hartley-normalize both point sets, solve the 2n x 9
system by SVD, denormalize, and rescale so the top-left entry is 1. A motion
feature for frame n stacks the window - 1 maps covering a window of frames
centered on n; feature_windows copies the centers' windows, a block of rows
at a time, out of one strided view of the stream's flattened maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NormalizationFailure,
    OutOfRange,
    SingularMatrix,
)
from .records import number, number_array, read_frames, write_records


@dataclass
class Homography:
    """3x3 projective map with h[0][0] == 1 and |det| > 1e-12."""

    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.h.shape != (3, 3):
            raise ValueError(f"expected 3x3 matrix, got {self.h.shape}")
        if not np.all(np.isfinite(self.h)):
            raise ValueError("homography entries must be finite")
        if abs(self.h[0, 0] - 1.0) > 1e-9:
            raise NormalizationFailure("top-left entry must be 1")
        if abs(np.linalg.det(self.h)) <= 1e-12:
            raise SingularMatrix("homography is singular")

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "Homography":
        """Rescale an arbitrary matrix so its top-left entry is 1."""
        m = np.asarray(m, dtype=float)
        if abs(m[0, 0]) < 1e-12:
            raise NormalizationFailure("top-left entry too small to normalize")
        return cls(m / m[0, 0])

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Map (n, 2) points through the homography."""
        pts = np.asarray(pts, dtype=float)
        hom = np.hstack([pts, np.ones((len(pts), 1))]) @ self.h.T
        return hom[:, :2] / hom[:, 2:3]


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy, self.skew)):
            raise ValueError("camera intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @classmethod
    def from_record(cls, rec: dict) -> "CameraIntrinsics":
        """Intrinsics from a JSON object of fx, fy, cx, cy and optionally
        skew; ValueError for any other key or a value that is no number."""
        unknown = set(rec) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown camera keys: {sorted(unknown)}")
        return cls(**{key: number(rec, key) for key in rec})

    @property
    def k(self) -> np.ndarray:
        return np.array(
            [[self.fx, self.skew, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


def _hartley_normalization(pts: np.ndarray) -> np.ndarray:
    """Similarity T moving the centroid to 0 with mean distance sqrt(2)."""
    centroid = pts.mean(axis=0)
    dist = np.linalg.norm(pts - centroid, axis=1).mean()
    scale = np.sqrt(2.0) / dist if dist > 1e-15 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def _point_pairs(src, dst):
    """src and dst as float arrays; ValueError unless they are matching
    (n, 2) arrays of finite numbers (a NaN or infinite coordinate would
    reach the SVD)."""
    src = number_array(src, "src")
    dst = number_array(dst, "dst")
    if src.ndim != 2 or src.shape[1] != 2 or src.shape != dst.shape:
        raise ValueError("src and dst must be matching (n, 2) arrays")
    if not (np.isfinite(src).all() and np.isfinite(dst).all()):
        raise ValueError("src and dst coordinates must be finite")
    return src, dst


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> Homography:
    """Least-squares homography from (n, 2) point correspondences.

    Parameters
    ----------
    src, dst : (n, 2) arrays, n >= 4, src[i] maps to dst[i].

    Returns
    -------
    Homography with top-left entry 1.

    Raises
    ------
    ValueError for points that are no matching (n, 2) arrays of finite
    numbers; InsufficientPoints, DegenerateConfiguration, NormalizationFailure.
    """
    src, dst = _point_pairs(src, dst)
    n = len(src)
    if n < 4:
        raise InsufficientPoints(f"need at least 4 correspondences, got {n}")

    t_src = _hartley_normalization(src)
    t_dst = _hartley_normalization(dst)
    s = np.hstack([src, np.ones((n, 1))]) @ t_src.T
    d = np.hstack([dst, np.ones((n, 1))]) @ t_dst.T

    a = np.zeros((2 * n, 9))
    x, y = s[:, 0], s[:, 1]
    u, v = d[:, 0], d[:, 1]
    a[0::2, 0] = x
    a[0::2, 1] = y
    a[0::2, 2] = 1.0
    a[0::2, 6] = -u * x
    a[0::2, 7] = -u * y
    a[0::2, 8] = -u
    a[1::2, 3] = x
    a[1::2, 4] = y
    a[1::2, 5] = 1.0
    a[1::2, 6] = -v * x
    a[1::2, 7] = -v * y
    a[1::2, 8] = -v

    # the thin SVD skips the 2n x 2n U (a multithreaded LAPACK product) and
    # gives the same singular values and V^T; 4 points (8 rows) need the full
    # V^T, whose 9th row is the nullspace
    _, sing, vt = np.linalg.svd(a, full_matrices=n < 5)
    # rank < 8 means the nullspace holds more than one solution
    if sing[7] / sing[0] < 1e-10:
        raise DegenerateConfiguration("correspondences do not pin down a homography")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    return Homography.from_matrix(h)


def _stacked(maps) -> np.ndarray:
    """(n, 3, 3) float array of an (n, 3, 3) array or of Homography objects or 3x3 arrays."""
    maps = maps if isinstance(maps, np.ndarray) else [m.h if isinstance(m, Homography) else m for m in maps]
    return np.asarray(maps, dtype=float).reshape(-1, 3, 3)


def rotations_from_homographies(hs, k: CameraIntrinsics) -> np.ndarray:
    """(n, 3, 3) camera rotations K^-1 H K, each rescaled to determinant 1;
    SingularMatrix when K or any conjugated matrix is singular."""
    km = k.k
    if abs(np.linalg.det(km)) < 1e-12:
        raise SingularMatrix("intrinsics matrix is singular")
    m = np.linalg.inv(km) @ _stacked(hs) @ km
    det = np.linalg.det(m)
    if np.any(np.abs(det) < 1e-12):
        raise SingularMatrix("conjugated matrix is singular")
    return m / np.cbrt(det)[:, None, None]


# Rows per copy of feature_windows, so that the gathered block (535 KB at
# window 30) is all it allocates beside its output.
_COPY_ROWS = 256


def feature_windows(maps, centers, window: int, out: np.ndarray | None = None) -> np.ndarray:
    """(len(centers), 9 * (window - 1)) rows, each the maps of one center's
    window flattened row-major in time order; maps[i], a Homography or 3x3
    array, maps frame i to frame i + 1, and the window of center c spans frames
    [c - floor((window-1)/2), c + ceil((window-1)/2)]. With out, a float64
    array of that shape, the rows are written into it _COPY_ROWS at a time and
    out is returned, so no array of all the rows is allocated. Raises
    OutOfRange when window < 2 or a window does not fit, and ValueError,
    before any row is written, for an out of another shape or dtype."""
    if window < 2:
        raise OutOfRange(f"window must be at least 2, got {window}")
    centers = np.asarray(centers, dtype=int)
    stack = _stacked(maps)
    lo = centers - (window - 1) // 2
    hi = centers + window // 2  # inclusive last frame
    bad = (lo < 0) | (hi > len(stack))
    if bad.any():  # name the first misfit, as a per-center loop would
        b = np.argmax(bad)
        raise OutOfRange(f"window [{lo[b]}, {hi[b]}] outside available frames 0..{len(stack)}")
    shape = (len(centers), 9 * (window - 1))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, got {out.dtype} {out.shape}")
    if not len(centers):  # the view needs at least one whole window
        return out
    rows = sliding_window_view(stack.reshape(-1), 9 * (window - 1))[::9]  # (n - window + 2, 9 * (window - 1)), no copy
    for r0 in range(0, len(lo), _COPY_ROWS):
        out[r0 : r0 + _COPY_ROWS] = rows[lo[r0 : r0 + _COPY_ROWS]]
    return out


def save_homographies(path, hs) -> None:
    """One JSON object per line: {"t": i, "h": 9 row-major reals}."""
    mats = (h.h if isinstance(h, Homography) else np.asarray(h) for h in hs)
    write_records(path, ({"t": i, "h": m.reshape(-1).tolist()} for i, m in enumerate(mats)))


def load_homographies(path) -> list:
    return list(read_frames(path, lambda rec: Homography(number_array(rec["h"], "h").reshape(3, 3))))


def save_correspondences(path, pairs) -> None:
    """One JSON object per line: {"t": i, "src": [[x, y]...], "dst": [[x, y]...]}."""
    arrays = ((np.asarray(src, dtype=float), np.asarray(dst, dtype=float)) for src, dst in pairs)
    write_records(path, ({"t": i, "src": src.tolist(), "dst": dst.tolist()} for i, (src, dst) in enumerate(arrays)))


def load_correspondences(path) -> list:
    return list(read_frames(path, lambda rec: _point_pairs(rec["src"], rec["dst"])))
