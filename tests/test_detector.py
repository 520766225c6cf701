"""Detector pipeline: binarization, quad extraction, homography, pose."""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

import vttag.detector
from vttag.codes import TagCode, decode_code, generate_family
from vttag.detector import (
    Detection,
    Quad,
    _fit_quad_corners,
    _outer_boundary,
    _sample_grids,
    _window_areas,
    binarize,
    detect,
    estimate_homography,
    extract_quads,
    pose_from_homography,
)
from vttag.errors import VttagError
from vttag.imaging import (
    BORDER_UNIT_CORNERS,
    CameraModel,
    Image,
    PlacedTag,
    project,
    render_scene,
    tag_border_corners,
)
from vttag.transforms import RigidTransform


@pytest.fixture(scope="module")
def family():
    return generate_family(5, 9, 30, seed=42)


@pytest.fixture(scope="module")
def camera():
    return CameraModel(fx=600.0, fy=600.0, cx=160.0, cy=120.0, width=320, height=240)


def fronto_tag(index, depth=2.0, tag_size=0.7):
    return PlacedTag(
        index=index,
        tag_size=tag_size,
        pose=RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, depth])),
    )


_MOORE_OFFS = (
    (0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1),
)  # clockwise ring starting West


def _moore_walk(comp: np.ndarray) -> np.ndarray:
    """Reference outer boundary: Moore-neighbor tracing, (row, col) per step.

    8-connectivity, starting from the topmost-leftmost pixel and scanning
    clockwise from the backtrack; stops when a (pixel, backtrack) state
    repeats. A pixel the walk passes twice appears twice.
    """
    m = np.pad(comp, 1)
    rs, cs = np.nonzero(m)
    start = (int(rs[0]), int(cs[0]))
    boundary = [start]
    cur = start
    b_idx = 0  # backtrack direction (West of start is background by construction)
    seen_states = {(cur, b_idx)}
    while True:
        found = None
        for k in range(1, 9):
            idx = (b_idx + k) % 8
            nr, nc = cur[0] + _MOORE_OFFS[idx][0], cur[1] + _MOORE_OFFS[idx][1]
            if m[nr, nc]:
                found = (idx, k, (nr, nc))
                break
        if found is None:
            break  # isolated pixel
        idx, k, nxt = found
        # backtrack for the next step: last background cell examined this sweep
        prev_idx = (b_idx + k - 1) % 8
        bg = (cur[0] + _MOORE_OFFS[prev_idx][0], cur[1] + _MOORE_OFFS[prev_idx][1])
        db = (bg[0] - nxt[0], bg[1] - nxt[1])
        b_idx = _MOORE_OFFS.index(db)
        cur = nxt
        state = (cur, b_idx)
        if state in seen_states:
            break
        seen_states.add(state)
        boundary.append(cur)
    # strip the trailing revisit of the start pixel, if any
    if len(boundary) > 1 and boundary[-1] == start:
        boundary.pop()
    return np.array(boundary) - 1  # undo padding


def _components(mask: np.ndarray):
    """(bounding-box slices, mask) of each 8-connected component."""
    labels, _ = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    for i, sl in enumerate(ndimage.find_objects(labels), start=1):
        yield sl, labels[sl] == i


def _centers(rows, cols, sl) -> np.ndarray:
    """Component (row, col) -> image pixel-center coords (x, y)."""
    return np.column_stack(
        [np.asarray(cols) + sl[1].start + 0.5, np.asarray(rows) + sl[0].start + 0.5]
    ).astype(float)


def _brute_force_binarize(px: np.ndarray, window: int) -> np.ndarray:
    """255 where a pixel is below its clipped window's mean minus 10."""
    want = np.zeros(px.shape, dtype=np.uint8)
    for r in range(px.shape[0]):
        for c in range(px.shape[1]):
            win = px[max(r - window, 0) : r + window + 1,
                     max(c - window, 0) : c + window + 1]
            if px[r, c] < win.mean() - 10:
                want[r, c] = 255
    return want


class TestBinarize:
    @pytest.mark.parametrize("shape, levels", [((7, 11), 256), ((16, 13), 256), ((23, 9), 24)])
    @pytest.mark.parametrize("window", [1, 4, 40])
    def test_matches_brute_force_mean(self, shape, levels, window):
        rng = np.random.default_rng(window)
        px = rng.integers(0, levels, shape).astype(np.uint8)
        want = _brute_force_binarize(px, window)
        got = binarize(Image(px), window=window).pixels
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_pixels_at_the_threshold(self):
        # window 4 covers the whole 4x4 frame, whose mean is 110: the pixels
        # at 100 sit exactly on mean - 10 and stay background, those at 99,
        # one level below it, are foreground
        px = np.array([100] * 4 + [99] * 4 + [120] * 4 + [121] * 4, dtype=np.uint8)
        px = np.random.default_rng(5).permutation(px).reshape(4, 4)
        got = binarize(Image(px), window=4).pixels
        assert np.array_equal(got, _brute_force_binarize(px, 4))
        assert np.array_equal(got > 0, px == 99)

    def test_area_table_cached_per_shape_and_window(self):
        # shapes A, B, A under each window: a table reused across shapes or
        # across windows would misjudge pixels near the image edges
        rng = np.random.default_rng(3)
        a = rng.integers(0, 40, (30, 40)).astype(np.uint8)
        b = rng.integers(0, 40, (25, 17)).astype(np.uint8)
        for window in (2, 5):
            for px in (a, b, a):
                got = binarize(Image(px), window=window).pixels
                assert np.array_equal(got, _brute_force_binarize(px, window))
        area = _window_areas(30, 40, 5)
        assert area is _window_areas(30, 40, 5)
        assert not area.flags.writeable
        with pytest.raises(ValueError):
            area[0, 0] = 1.0

    def test_dark_square_found(self):
        px = np.full((60, 60), 200, dtype=np.uint8)
        px[20:40, 20:40] = 20
        out = binarize(Image(px), window=10)
        assert out.pixels[30, 30] == 255  # dark foreground marked
        assert out.pixels[5, 5] == 0

    def test_uniform_image_all_background(self):
        out = binarize(Image(np.full((40, 40), 96, dtype=np.uint8)))
        assert (out.pixels == 0).all()

    def test_window_validation(self):
        for window in (0, 15.5):
            with pytest.raises(ValueError):
                binarize(Image(np.zeros((10, 10), dtype=np.uint8)), window=window)

    @pytest.mark.parametrize("grey_range", [9, 10, 11])
    @pytest.mark.parametrize("window", [1, 4])
    def test_two_level_frames_at_the_range_bound(self, grey_range, window):
        # a range at most the offset of 10 takes the early exit, one above it
        # the window sums; both must give the brute-force mask. Sparse dark
        # pixels keep their windows' means close to the bright level.
        rng = np.random.default_rng(grey_range)
        px = np.where(rng.random((12, 17)) < 0.1, 100, 100 + grey_range).astype(np.uint8)
        got = binarize(Image(px), window=window).pixels
        assert np.array_equal(got, _brute_force_binarize(px, window))
        if grey_range <= 10:
            assert not got.any()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_zero_size_frame_empty_mask(self, shape):
        px = np.zeros(shape, dtype=np.uint8)
        got = binarize(Image(px)).pixels
        assert got.dtype == np.uint8
        assert np.array_equal(got, _brute_force_binarize(px, 15))

    @pytest.mark.parametrize("shape", [(10, 10), (0, 5)])
    def test_window_validated_before_the_range_bound(self, shape):
        with pytest.raises(ValueError):
            binarize(Image(np.full(shape, 96, dtype=np.uint8)), window=0)


class TestExtractQuads:
    def test_clean_square(self):
        px = np.full((100, 100), 220, dtype=np.uint8)
        px[30:70, 25:65] = 10
        quads = extract_quads(binarize(Image(px), window=15))
        assert len(quads) == 1
        got = quads[0].corners
        want = np.array([[25.0, 30.0], [25.0, 70.0], [65.0, 70.0], [65.0, 30.0]])
        # CCW in y-down screen coords, first corner nearest the origin
        assert np.abs(got - want).max() < 1.0

    def test_small_blobs_rejected(self):
        px = np.full((60, 60), 220, dtype=np.uint8)
        px[10:13, 10:13] = 0
        assert extract_quads(binarize(Image(px), window=8)) == []

    def test_empty_mask_no_quads(self):
        assert extract_quads(Image(np.zeros((48, 64), dtype=np.uint8))) == []

    def test_non_quad_rejected_by_fill_ratio(self):
        # a thin square ring has a quad's outline but fills about 15% of it,
        # under the fill floor of 0.2; the filled square passes
        ring = np.full((120, 120), 220, dtype=np.uint8)
        ring[30:80, 30:80] = 0
        ring[32:78, 32:78] = 220
        assert extract_quads(binarize(Image(ring), window=20)) == []
        sq = np.full((120, 120), 220, dtype=np.uint8)
        sq[30:80, 30:80] = 0
        assert len(extract_quads(binarize(Image(sq), window=20))) == 1


class TestOuterBoundary:
    def test_same_pixels_as_moore_walk(self):
        ring = np.zeros((9, 9), dtype=bool)
        ring[1:8, 1:8] = True
        ring[3:6, 3:6] = False
        ring[4, 4] = True  # an island inside the hole is another component
        blobs = [
            ring,
            np.eye(6, dtype=bool),  # one-pixel diagonal lines
            np.fliplr(np.eye(5, dtype=bool)),
            np.ones((1, 1), dtype=bool),
        ]
        rng = np.random.default_rng(11)
        for _ in range(300):
            shape = tuple(rng.integers(6, 30, 2))
            blobs.append(rng.random(shape) < rng.uniform(0.3, 0.7))
        n = 0
        for blob in blobs:
            for _, comp in _components(blob):
                rs, cs = _outer_boundary(comp)
                got = list(zip(rs.tolist(), cs.tolist()))
                want = set(map(tuple, _moore_walk(comp).tolist()))
                assert len(got) == len(set(got)) == len(want)
                assert set(got) == want
                n += 1
        assert n > 2000

    @pytest.mark.parametrize(
        "tilt, spin", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.4, 1.1), (-0.6, 2.0)]
    )
    def test_fit_same_corners_as_moore_order(self, camera, family, tilt, spin):
        cx, sx = np.cos(tilt), np.sin(tilt)
        cz, sz = np.cos(spin), np.sin(spin)
        rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1.0]])
        tag = PlacedTag(
            index=4,
            tag_size=0.7,
            pose=RigidTransform(
                rx @ np.diag([1.0, -1.0, -1.0]) @ rz, np.array([0.05, -0.03, 2.2])
            ),
        )
        img = render_scene(camera, [tag], family)
        # a pixel just inside one corner of the black border
        corner = project(camera, tag_border_corners(tag)[0])
        centre = project(camera, tag.pose.translation)
        x, y = np.floor(corner + 0.1 * (centre - corner)).astype(int)
        mask = binarize(Image(img.pixels)).pixels > 0
        [(sl, comp)] = [
            (sl, comp) for sl, comp in _components(mask)
            if sl[0].start <= y < sl[0].stop and sl[1].start <= x < sl[1].stop
            and comp[y - sl[0].start, x - sl[1].start]
        ]
        walk = _moore_walk(comp)
        by_walk = _fit_quad_corners(_centers(walk[:, 0], walk[:, 1], sl))
        by_angle = _fit_quad_corners(_centers(*_outer_boundary(comp), sl))
        assert by_walk is not None
        assert np.array_equal(by_walk, by_angle)


class TestHomography:
    def test_recovers_known_projective_map(self):
        rng = np.random.default_rng(0)
        H = np.array([[1.2, 0.1, 30.0], [-0.2, 0.9, 50.0], [1e-3, -2e-4, 1.0]])
        src = rng.uniform(-1, 1, (6, 2))
        hom = np.column_stack([src, np.ones(6)]) @ H.T
        dst = hom[:, :2] / hom[:, 2:]
        [est] = estimate_homography(src, dst[None])
        assert np.allclose(est / est[2, 2], H, atol=1e-9)

    def test_collinear_points_degenerate(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3.0]])
        dst = src * 2.0
        assert np.isnan(estimate_homography(src, dst[None])).all()

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_homography(np.zeros((3, 2)), np.zeros((1, 3, 2)))

    def test_only_one_plane_set_and_a_stack_of_image_sets(self, camera):
        plane = BORDER_UNIT_CORNERS
        img = plane * 20.0 + 100.0
        assert estimate_homography(plane, img[None]).shape == (1, 3, 3)
        with pytest.raises(ValueError):
            estimate_homography(plane, img)  # one image set, not a stack
        with pytest.raises(ValueError):
            estimate_homography(plane[None], img[None])  # a stack of plane sets
        with pytest.raises(ValueError):
            pose_from_homography(np.eye(3), camera, 0.7)  # one H, not a stack
        # a plane set that is not finite spoils every member
        bad = plane.copy()
        bad[1, 0] = np.nan
        assert np.isnan(estimate_homography(bad, np.stack([img, img]))).all()


class TestSamplePayload:
    """_sample_grids, the payload and border-ring sampler."""

    def test_fronto_parallel_exact(self, camera, family):
        tag = fronto_tag(7)
        img = render_scene(camera, [tag], family)
        corners = np.array(
            [project(camera, p) for p in tag_border_corners(tag)]
        )
        H = estimate_homography(BORDER_UNIT_CORNERS, corners[None])
        bits, _, _, sampled = _sample_grids(img, H, family.n)
        assert sampled.tolist() == [True]
        assert TagCode(family.n, tuple(bits[0].tolist())) == family.codes[7]

    def test_outside_image_not_sampled(self, camera, family):
        img = Image(np.full((240, 320), 96, dtype=np.uint8))
        # homography sending the tag square far outside the frame
        H = np.array([[10.0, 0, 5000.0], [0, 10.0, 5000.0], [0, 0, 1.0]])
        assert _sample_grids(img, H[None], family.n)[3].tolist() == [False]


class TestPoseFromHomography:
    def test_round_trip_pose(self, camera, family):
        rng = np.random.default_rng(3)
        for _ in range(10):
            # random mild tilt, guaranteed front-facing
            ax = rng.uniform(-0.6, 0.6)
            ay = rng.uniform(-0.6, 0.6)
            cx, sx = np.cos(ax), np.sin(ax)
            cy, sy = np.cos(ay), np.sin(ay)
            rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
            ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
            R = rx @ ry @ np.diag([1.0, -1.0, -1.0])
            t = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2), 2.5])
            pose = RigidTransform(R, t)
            tag = PlacedTag(index=0, tag_size=0.7, pose=pose)
            corners = np.array(
                [project(camera, p) for p in tag_border_corners(tag)]
            )
            H = estimate_homography(BORDER_UNIT_CORNERS, corners[None])
            [est_R], [est_t] = pose_from_homography(H, camera, 0.7)
            assert np.abs(est_t - t).max() < 1e-6
            assert np.abs(est_R - R).max() < 1e-6


class TestDetect:
    def test_fronto_round_trip(self, camera, family):
        img = render_scene(camera, [fronto_tag(11)], family)
        dets = detect(img, camera, family, 0.7)
        assert len(dets) == 1
        d = dets[0]
        assert d.code_index == 11
        assert d.rotation == 0
        assert d.hamming_error == 0
        assert d.reproj_err < 1.0
        assert abs(d.pose.translation[2] - 2.0) < 0.02

    @pytest.mark.parametrize("quarter_turns", [0, 1, 2, 3])
    def test_rotated_tag_reports_rotation(self, camera, family, quarter_turns):
        a = -quarter_turns * np.pi / 2.0
        c, s = np.cos(a), np.sin(a)
        spin = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
        pose = RigidTransform(
            np.diag([1.0, -1.0, -1.0]) @ spin, np.array([0.0, 0.0, 2.0])
        )
        img = render_scene(
            camera, [PlacedTag(index=5, tag_size=0.7, pose=pose)], family
        )
        dets = detect(img, camera, family, 0.7)
        assert len(dets) == 1
        assert dets[0].code_index == 5
        assert dets[0].rotation == quarter_turns
        assert dets[0].rotation_deg == quarter_turns * 90

    @pytest.mark.parametrize("tag_size", [0.0, float("nan"), -0.7])
    def test_rejects_bad_tag_size(self, camera, family, tag_size):
        img = render_scene(camera, [fronto_tag(11)], family)
        with pytest.raises(ValueError, match="tag_size must be positive"):
            detect(img, camera, family, tag_size)

    def test_empty_image_no_detections(self, camera, family):
        img = Image(np.full((240, 320), 96, dtype=np.uint8))
        assert detect(img, camera, family, 0.7) == []

    def test_noisy_frame_without_tag_no_detections(self, family):
        # sigma 1 never reaches the 10-level offset, so no pixel is foreground
        cam = CameraModel(fx=700.0, fy=700.0, cx=320.0, cy=240.0, width=640, height=480)
        img = render_scene(cam, [], family, noise_sigma=1.0, seed=0)
        assert not binarize(img).pixels.any()
        assert detect(img, cam, family, 0.7) == []

    def test_two_tags_both_found(self, camera, family):
        left = PlacedTag(
            index=1,
            tag_size=0.35,
            pose=RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([-0.2, 0, 2.0])),
        )
        right = PlacedTag(
            index=9,
            tag_size=0.35,
            pose=RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.2, 0, 2.0])),
        )
        img = render_scene(camera, [left, right], family)
        dets = detect(img, camera, family, 0.35)
        assert sorted(d.code_index for d in dets) == [1, 9]

    def test_detection_json_fields(self, camera, family):
        img = render_scene(camera, [fronto_tag(3)], family)
        d = detect(img, camera, family, 0.7)[0].to_json_dict()
        assert set(d) == {
            "code_index",
            "rotation_deg",
            "hamming_error",
            "corners",
            "pose",
            "reproj_err",
        }
        assert len(d["corners"]) == 4
        assert len(d["pose"]["R"]) == 9 and len(d["pose"]["t"]) == 3

    def test_noise_robust_identity(self, camera, family):
        img = render_scene(camera, [fronto_tag(13)], family, noise_sigma=4.0, seed=2)
        dets = detect(img, camera, family, 0.7)
        assert len(dets) == 1 and dets[0].code_index == 13


# detect's stages as one loop over the quads, each stage on one quad, as
# detect ran before its stages were stacked: detect must return the same
# detections to the bit
class _Rejected(Exception):
    """A reference stage cannot handle its one quad."""


def _ref_normalize_points(pts):
    centroid = pts.mean(axis=0)
    rms = np.sqrt(((pts - centroid) ** 2).sum(axis=1).mean())
    if rms < 1e-12:
        raise _Rejected("point set collapses to a single point")
    s = np.sqrt(2.0) / rms
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return (pts - centroid) * s, T


def _ref_estimate_homography(plane_pts, img_pts):
    plane_pts = np.asarray(plane_pts, dtype=float).reshape(-1, 2)
    img_pts = np.asarray(img_pts, dtype=float).reshape(-1, 2)
    if len(plane_pts) != len(img_pts) or len(plane_pts) < 4:
        raise ValueError("need >= 4 point correspondences")
    pn, Tp = _ref_normalize_points(plane_pts)
    qn, Tq = _ref_normalize_points(img_pts)

    k = len(pn)
    A = np.zeros((2 * k, 9))
    x, y = pn[:, 0], pn[:, 1]
    u, v = qn[:, 0], qn[:, 1]
    A[0::2, 0] = x
    A[0::2, 1] = y
    A[0::2, 2] = 1.0
    A[0::2, 6] = -u * x
    A[0::2, 7] = -u * y
    A[0::2, 8] = -u
    A[1::2, 3] = x
    A[1::2, 4] = y
    A[1::2, 5] = 1.0
    A[1::2, 6] = -v * x
    A[1::2, 7] = -v * y
    A[1::2, 8] = -v

    _, s, Vt = np.linalg.svd(A)
    if s[0] < 1e-12 or s[7] / s[0] < 1e-10:
        raise _Rejected("correspondences are rank deficient")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Tq) @ Hn @ Tp
    if abs(H[2, 2]) > 1e-12:
        H = H / H[2, 2]
    return H


def _ref_apply_h(H, pts):
    hom = np.column_stack([pts, np.ones(len(pts))]) @ H.T
    return hom[:, :2] / hom[:, 2:3]


def _ref_grid_centers(n):
    cell = 2.0 / (n + 2)

    def center(i, j):
        return (-1.0 + (j + 0.5) * cell, 1.0 - (i + 0.5) * cell)

    payload = np.array([center(i + 1, j + 1) for i in range(n) for j in range(n)])
    black = np.array([
        center(i, j) for i in range(n + 2) for j in range(n + 2)
        if i in (0, n + 1) or j in (0, n + 1)
    ])
    white = np.array([
        center(i, j) for i in range(-1, n + 3) for j in range(-1, n + 3)
        if i in (-1, n + 2) or j in (-1, n + 2)
    ])
    return payload, black, white


def _ref_bilinear_sample(px, uv):
    h, w = px.shape
    x = uv[:, 0] - 0.5
    y = uv[:, 1] - 0.5
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.floor(xc).astype(int)
    y0 = np.floor(yc).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    p = px.astype(float)
    vals = (
        p[y0, x0] * (1 - fx) * (1 - fy)
        + p[y0, x1] * fx * (1 - fy)
        + p[y1, x0] * (1 - fx) * fy
        + p[y1, x1] * fx * fy
    )
    return vals, inside


def _ref_sample_payload_stats(image, H, n):
    payload, black, white = _ref_grid_centers(n)
    all_pts = np.vstack([payload, black, white])
    uv = _ref_apply_h(H, all_pts)
    vals, inside = _ref_bilinear_sample(image.pixels, uv)
    if not inside.any():
        raise _Rejected("payload sampling grid lies outside the image")
    np_, nb = len(payload), len(black)
    pv = vals[:np_]
    black_mean = float(vals[np_ : np_ + nb].mean())
    white_mean = float(vals[np_ + nb :].mean())
    threshold = (black_mean + white_mean) / 2.0
    code = TagCode(n, tuple(bool(v > threshold) for v in pv))
    return code, black_mean, white_mean


def _ref_pose_from_homography(H, camera, tag_size):
    Hm = H @ np.diag([2.0 / tag_size, 2.0 / tag_size, 1.0])
    M = np.linalg.inv(camera.intrinsic_matrix) @ Hm
    n1 = np.linalg.norm(M[:, 0])
    n2 = np.linalg.norm(M[:, 1])
    if n1 < 1e-12 or n2 < 1e-12:
        raise _Rejected("homography columns vanish")
    s = 2.0 / (n1 + n2)
    if (s * M[:, 2])[2] < 0:
        s = -s
    r1 = s * M[:, 0]
    r2 = s * M[:, 1]
    r3 = np.cross(r1, r2)
    R0 = np.column_stack([r1, r2, r3])
    U, _, Vt = np.linalg.svd(R0)
    d = np.sign(np.linalg.det(U @ Vt))
    R = U @ np.diag([1.0, 1.0, d]) @ Vt
    return RigidTransform(R, s * M[:, 2])


def _ref_reprojection_rms(pose, camera, tag_size, corners):
    half = tag_size / 2.0
    local = np.column_stack([BORDER_UNIT_CORNERS * half, np.zeros(4)])
    cam_pts = pose.apply(local)
    uv = np.column_stack(
        [
            camera.fx * cam_pts[:, 0] / cam_pts[:, 2] + camera.cx,
            camera.fy * cam_pts[:, 1] / cam_pts[:, 2] + camera.cy,
        ]
    )
    return float(np.sqrt(((uv - corners) ** 2).sum(axis=1).mean()))


def _reference_detect(image, camera, family, tag_size, quads=None):
    if quads is None:
        quads = extract_quads(binarize(image))
    detections = []
    for quad in quads:
        try:
            H = _ref_estimate_homography(BORDER_UNIT_CORNERS, quad.corners)
            observed, black_mean, white_mean = _ref_sample_payload_stats(image, H, family.n)
        except _Rejected:
            continue
        if white_mean - black_mean < 30.0:  # the detector's minimum contrast
            continue
        res = decode_code(observed, family)
        if res is None:
            continue
        rolled = np.roll(quad.corners, res.rotation, axis=0)
        try:
            H2 = _ref_estimate_homography(BORDER_UNIT_CORNERS, rolled)
            pose = _ref_pose_from_homography(H2, camera, tag_size)
        except _Rejected:
            continue
        if pose.translation[2] <= 0:
            continue
        err = _ref_reprojection_rms(pose, camera, tag_size, rolled)
        detections.append(Detection(
            quad=quad, code_index=res.index, rotation=res.rotation,
            hamming_error=res.distance, pose=pose, reproj_err=err,
        ))
    detections.sort(key=lambda d: (d.code_index, d.reproj_err))
    return detections


def _detection_bytes(d):
    return (
        d.code_index, d.rotation, d.hamming_error, d.quad.area,
        d.quad.corners.tobytes(), d.pose.rotation.tobytes(),
        d.pose.translation.tobytes(), np.float64(d.reproj_err).tobytes(),
    )


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def _random_tag(rng, index, tag_size=0.5):
    """A front-facing tag at a random tilt, spin and offset, 1.6-4 m away."""
    tilt, azim, spin = rng.uniform(0, 1.0), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
    ct, st_ = np.cos(tilt), np.sin(tilt)
    rx = np.array([[1, 0, 0], [0, ct, -st_], [0, st_, ct]])
    R = _rot_z(azim) @ rx @ _rot_z(-azim) @ np.diag([1.0, -1.0, -1.0]) @ _rot_z(spin)
    depth = rng.uniform(1.6, 4.0)
    t = np.array([rng.uniform(-0.15, 0.15) * depth, rng.uniform(-0.1, 0.1) * depth, depth])
    return PlacedTag(index=index, tag_size=tag_size, pose=RigidTransform(R, t))


class TestStackedStages:
    """detect's stacked stages against the per-quad reference loop above."""

    @pytest.mark.parametrize("seed", range(3))
    def test_detect_matches_per_quad_loop(self, camera, family, seed):
        rng = np.random.default_rng(seed)
        n_quads = n_dets = 0
        for frame in range(50):
            tags = [_random_tag(rng, int(i)) for i in
                    rng.choice(len(family), int(rng.integers(1, 4)), replace=False)]
            sigma = float(rng.uniform(0, 6))
            img = render_scene(camera, tags, family, noise_sigma=sigma, seed=frame)
            want = _reference_detect(img, camera, family, 0.5)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = detect(img, camera, family, 0.5)
            assert [_detection_bytes(d) for d in got] == [_detection_bytes(d) for d in want]
            n_dets += len(got)
            # the stages on a stack of one quad keep the reference's results to the bit
            for quad in extract_quads(binarize(img)):
                n_quads += 1
                H = _ref_estimate_homography(BORDER_UNIT_CORNERS, quad.corners)
                [got_H] = estimate_homography(BORDER_UNIT_CORNERS, quad.corners[None])
                assert got_H.tobytes() == H.tobytes()
                bits, black_mean, white_mean, sampled = _sample_grids(img, H[None], family.n)
                try:
                    code, black, white = _ref_sample_payload_stats(img, H, family.n)
                except _Rejected:
                    assert sampled.tolist() == [False]
                else:
                    assert sampled.tolist() == [True]
                    assert TagCode(family.n, tuple(bits[0].tolist())) == code
                    assert (black_mean[0], white_mean[0]) == (black, white)
                pose = _ref_pose_from_homography(H, camera, 0.5)
                [R], [t] = pose_from_homography(H[None], camera, 0.5)
                assert R.tobytes() == pose.rotation.tobytes()
                assert t.tobytes() == pose.translation.tobytes()
        # most frames keep every tag, and some quads are not tags
        assert n_dets > 50 and n_quads > n_dets

    def test_degenerate_members_masked_between_valid_ones(self, monkeypatch, camera, family):
        left = PlacedTag(index=1, tag_size=0.35, pose=RigidTransform(
            np.diag([1.0, -1.0, -1.0]), np.array([-0.25, 0, 2.0])))
        right = PlacedTag(index=9, tag_size=0.35, pose=RigidTransform(
            np.diag([1.0, -1.0, -1.0]) @ np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1.0]]),
            np.array([0.25, 0, 2.0])))
        img = render_scene(camera, [left, right], family, noise_sigma=2.0, seed=3)
        real = extract_quads(binarize(img))
        assert len(real) >= 2
        collinear = Quad(corners=np.array([[10.0, 10], [20, 20], [30, 30], [40, 40]]), area=0.0)
        collapsed = Quad(corners=np.full((4, 2), 50.0), area=0.0)
        quads = [real[0], collinear, collapsed] + real[1:]
        monkeypatch.setattr(vttag.detector, "extract_quads", lambda *a, **k: quads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = detect(img, camera, family, 0.35)
            stack = estimate_homography(BORDER_UNIT_CORNERS, np.stack([q.corners for q in quads]))
            R, t = pose_from_homography(stack, camera, 0.35)
        want = _reference_detect(img, camera, family, 0.35, quads=quads)
        assert sorted(d.code_index for d in want) == [1, 9]
        assert [_detection_bytes(d) for d in got] == [_detection_bytes(d) for d in want]
        # the degenerate members come back NaN, the others as if alone
        assert np.isnan(stack[1:3]).all()
        assert np.isnan(R[1:3]).all() and np.isnan(t[1:3]).all()
        for q, H, Rq, tq in zip(quads, stack, R, t):
            if q is collinear or q is collapsed:
                with pytest.raises(_Rejected):
                    _ref_estimate_homography(BORDER_UNIT_CORNERS, q.corners)
                continue
            alone = _ref_estimate_homography(BORDER_UNIT_CORNERS, q.corners)
            assert H.tobytes() == alone.tobytes()
            want_pose = _ref_pose_from_homography(alone, camera, 0.35)
            assert Rq.tobytes() == want_pose.rotation.tobytes()
            assert tq.tobytes() == want_pose.translation.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_members_masked(self, camera, family, bad):
        img = render_scene(camera, [fronto_tag(7)], family)
        quad = detect(img, camera, family, 0.7)[0].quad
        [H] = estimate_homography(BORDER_UNIT_CORNERS, quad.corners[None])
        poisoned = H.copy()
        poisoned[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R, t = pose_from_homography(np.stack([poisoned, H]), camera, 0.7)
            pts = np.stack([quad.corners, quad.corners])
            pts[0, 2, 0] = bad
            stack = estimate_homography(BORDER_UNIT_CORNERS, pts)
            alone_R, alone_t = pose_from_homography(H[None], camera, 0.7)
        assert np.isnan(R[0]).all() and np.isnan(t[0]).all()
        assert R[1].tobytes() == alone_R[0].tobytes() and t[1].tobytes() == alone_t[0].tobytes()
        assert np.isnan(stack[0]).all() and stack[1].tobytes() == H.tobytes()


@lru_cache(maxsize=1)
def _hostile_family():
    return generate_family(5, 9, 30, seed=42)


def _blocky(cells, scale, noise, seed):
    """A frame of flat blocks: quad-shaped components with any contrast."""
    rng = np.random.default_rng(seed)
    px = np.kron(cells, np.ones((scale, scale), dtype=np.int16))
    px = px + rng.integers(-noise, noise + 1, px.shape)
    return np.clip(px, 0, 255).astype(np.uint8)


def _tagged(seed):
    """A 160x120 frame of 1-3 tags at random poses, sigma 0-6."""
    rng = np.random.default_rng(seed)
    fam = _hostile_family()
    cam = CameraModel(fx=300.0, fy=300.0, cx=80.0, cy=60.0, width=160, height=120)
    tags = [_random_tag(rng, int(rng.integers(len(fam)))) for _ in range(int(rng.integers(1, 4)))]
    return render_scene(cam, tags, fam, noise_sigma=float(rng.uniform(0, 6)), seed=seed).pixels


_FRAMES = st.one_of(
    hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=48)),
    st.builds(
        _blocky,
        hnp.arrays(np.int16, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
                   elements=st.integers(0, 255)),
        st.integers(1, 12), st.integers(0, 40), st.integers(0, 2**32 - 1),
    ),
    st.builds(_tagged, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(frame=_FRAMES, window=st.one_of(st.just(15), st.integers(1, 60)))
def test_hostile_frames_raise_only_vttag_errors(frame, window):
    # the detector's promise on any frame and any window: a list of
    # detections or a VttagError, and no RuntimeWarning on the way
    h, w = frame.shape
    cam = CameraModel(fx=300.0, fy=300.0, cx=w / 2, cy=h / 2, width=max(w, 1), height=max(h, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dets = detect(Image(frame), cam, _hostile_family(), 0.5, window)
        except VttagError:
            return
    assert all(d.pose.translation[2] > 0 for d in dets)
