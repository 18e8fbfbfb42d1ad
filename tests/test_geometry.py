import re

import numpy as np
import pytest

from egopose.errors import (
    DegenerateConfiguration,
    InsufficientPoints,
    NormalizationFailure,
    OutOfRange,
    SingularMatrix,
)
from egopose.geometry import (
    CameraIntrinsics,
    Homography,
    estimate_homography,
    feature_windows,
    load_correspondences,
    load_homographies,
    rotations_from_homographies,
    save_correspondences,
    save_homographies,
)


def random_homography(rng):
    """Random invertible H with |h00| > 0.1, top-left normalized."""
    while True:
        m = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        if abs(m[0, 0]) > 0.1 and abs(np.linalg.det(m)) > 1e-3:
            return Homography.from_matrix(m)


def rot_xyz(a, b, c):
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cc, sc = np.cos(c), np.sin(c)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
    rz = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
    return rz @ ry @ rx


def test_homography_requires_normalized_top_left():
    with pytest.raises(NormalizationFailure):
        Homography(np.diag([2.0, 1.0, 1.0]))


def test_homography_rejects_singular():
    m = np.eye(3)
    m[2] = m[0]  # rank 2
    with pytest.raises(SingularMatrix):
        Homography(m)


def test_from_matrix_rescales():
    m = 3.0 * np.eye(3)
    h = Homography.from_matrix(m)
    assert h.h[0, 0] == 1.0
    assert np.allclose(h.h, np.eye(3))


def test_apply_identity():
    h = Homography(np.eye(3))
    pts = np.array([[0.1, 0.2], [0.5, 0.7]])
    assert np.allclose(h.apply(pts), pts)


def test_estimate_identity_from_fixed_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    h = estimate_homography(pts, pts)
    assert np.abs(h.h - np.eye(3)).max() < 1e-9


def test_estimate_recovers_known_homography():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h = random_homography(rng)
        src = rng.uniform(0.0, 1.0, size=(20, 2))
        dst = h.apply(src)
        est = estimate_homography(src, dst)
        assert np.abs(est.h - h.h).max() < 1e-6


def test_estimate_order_invariant():
    rng = np.random.default_rng(1)
    h = random_homography(rng)
    src = rng.uniform(0.0, 1.0, size=(12, 2))
    dst = h.apply(src)
    a = estimate_homography(src, dst)
    perm = rng.permutation(12)
    b = estimate_homography(src[perm], dst[perm])
    assert np.abs(a.h - b.h).max() < 1e-9


def test_estimate_thin_svd_matches_full_svd(monkeypatch):
    rng = np.random.default_rng(2)
    cases = []
    for n in [4, 4, 5, 6, 8, 9, 12, 50, 120]:
        h = random_homography(rng)
        src = rng.uniform(0.0, 640.0, size=(n, 2))
        cases.append((src, h.apply(src) + rng.normal(scale=0.5, size=(n, 2))))
    thin = [estimate_homography(s, d).h for s, d in cases]
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices=True: svd(a))
    for (s, d), got in zip(cases, thin):
        assert np.array_equal(got, estimate_homography(s, d).h)


def test_estimate_needs_four_points():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(InsufficientPoints):
        estimate_homography(pts, pts)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_estimate_rejects_non_finite_points_before_the_svd(monkeypatch, side, bad):
    src = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.3]])
    pts = {"src": src, "dst": src.copy()}
    pts[side][2, 1] = bad
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("the SVD ran"))
    with pytest.raises(ValueError, match="coordinates must be finite"):
        estimate_homography(pts["src"], pts["dst"])


def test_correspondence_file_with_a_non_finite_coordinate_names_its_line(tmp_path):
    square = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    path = tmp_path / "c.jsonl"
    for token in ("NaN", "Infinity", "-Infinity"):
        bad = f'{{"t": 1, "src": {square}, "dst": [[0.0, {token}], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}}'
        path.write_text(f'{{"t": 0, "src": {square}, "dst": {square}}}\n{bad}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: src and dst coordinates must be finite$"):
            load_correspondences(path)


def test_estimate_collinear_degenerate():
    src = np.array([[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(src, src)


def test_rotation_with_identity_intrinsics():
    rng = np.random.default_rng(2)
    r0 = rot_xyz(0.1, -0.2, 0.3)
    h = Homography.from_matrix(r0)
    k = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0)
    assert np.abs(rotations_from_homographies([h], k)[0] - r0).max() < 1e-9


def test_rotation_round_trip_generic_intrinsics():
    rng = np.random.default_rng(3)
    k = CameraIntrinsics(fx=1.1, fy=0.9, cx=0.5, cy=0.4, skew=0.01)
    for _ in range(20):
        r0 = rot_xyz(*rng.uniform(-0.5, 0.5, size=3))
        h = Homography.from_matrix(k.k @ r0 @ np.linalg.inv(k.k))
        assert np.abs(rotations_from_homographies([h], k)[0] - r0).max() < 1e-6


def test_rotation_identity_homography():
    k = CameraIntrinsics(fx=1.1, fy=0.9, cx=0.5, cy=0.4)
    got = rotations_from_homographies([Homography(np.eye(3))], k)[0]
    assert np.abs(got - np.eye(3)).max() < 1e-12


def test_rotation_singular_intrinsics():
    with pytest.raises(Exception):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0)


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy", "skew"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_intrinsics_must_be_finite(field, bad):
    good = {"fx": 1.1, "fy": 0.9, "cx": 0.5, "cy": 0.4, "skew": 0.01}
    CameraIntrinsics(**good)
    with pytest.raises(ValueError, match="finite"):
        CameraIntrinsics(**{**good, field: bad})


def test_feature_window_static_camera():
    hs = [Homography(np.eye(3)) for _ in range(40)]
    v = feature_windows(hs, [20], window=30)[0]
    assert v.shape == (261,)
    block = np.array([1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])
    assert np.array_equal(v, np.tile(block, 29))
    # homography-mode blocks always start with the normalized 1
    assert np.all(v[::9] == 1.0)


def test_feature_window_matches_manual_concatenation():
    rng = np.random.default_rng(4)
    hs = [random_homography(rng) for _ in range(40)]
    center, window = 17, 30
    v = feature_windows(hs, [center], window)[0]
    lo = center - (window - 1) // 2
    manual = np.concatenate([hs[i].h.reshape(-1) for i in range(lo, lo + window - 1)])
    assert np.array_equal(v, manual)


def test_feature_window_translation_covariant():
    rng = np.random.default_rng(5)
    hs = [random_homography(rng) for _ in range(50)]
    a = feature_windows(hs, [20], 30)[0]
    b = feature_windows(hs[3:], [17], 30)[0]
    assert np.array_equal(a, b)


def test_feature_window_bounds():
    hs = [Homography(np.eye(3)) for _ in range(29)]
    v = feature_windows(hs, [14], 30)[0]  # exactly fits 30 frames
    assert v.shape == (261,)
    with pytest.raises(OutOfRange):
        feature_windows(hs, [13], 30)
    with pytest.raises(OutOfRange):
        feature_windows(hs, [15], 30)
    with pytest.raises(OutOfRange):
        feature_windows(hs, [14], 1)


def test_homography_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    hs = [random_homography(rng) for _ in range(5)]
    path = tmp_path / "h.jsonl"
    save_homographies(path, hs)
    back = load_homographies(path)
    assert len(back) == 5
    for a, b in zip(back, hs):
        assert np.allclose(a.h, b.h)


def test_correspondence_file_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 2))) for _ in range(3)]
    path = tmp_path / "c.jsonl"
    save_correspondences(path, pairs)
    back = load_correspondences(path)
    assert len(back) == 3
    for (s1, d1), (s2, d2) in zip(back, pairs):
        assert np.allclose(s1, s2)
        assert np.allclose(d1, d2)
