"""Detector pipeline: binarization, quad extraction, homography, pose."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from vttag.codes import generate_family, rotate90
from vttag.detector import (
    Detection,
    DetectorParams,
    _fit_quad_corners,
    _outer_boundary,
    binarize,
    detect,
    estimate_homography,
    extract_quads,
    pose_from_homography,
    sample_payload,
)
from vttag.errors import DegenerateGeometry, SamplingFailed
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


class TestBinarize:
    @pytest.mark.parametrize(
        "shape, levels, offset", [((7, 11), 256, 10.0), ((23, 9), 3, 0.0)]
    )
    @pytest.mark.parametrize("window", [1, 4, 40])
    def test_matches_brute_force_mean(self, shape, levels, offset, window):
        # levels=3 with offset 0 puts many pixels exactly on their local mean
        rng = np.random.default_rng(window)
        px = rng.integers(0, levels, shape).astype(np.uint8)
        want = np.zeros(shape, dtype=np.uint8)
        for r in range(shape[0]):
            for c in range(shape[1]):
                win = px[max(r - window, 0) : r + window + 1,
                         max(c - window, 0) : c + window + 1]
                if px[r, c] < win.mean() - offset:
                    want[r, c] = 255
        got = binarize(Image(px), window=window, offset=offset).pixels
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_dark_square_found(self):
        px = np.full((60, 60), 200, dtype=np.uint8)
        px[20:40, 20:40] = 20
        out = binarize(Image(px), window=10, offset=10)
        assert out.pixels[30, 30] == 255  # dark foreground marked
        assert out.pixels[5, 5] == 0

    def test_uniform_image_all_background(self):
        out = binarize(Image(np.full((40, 40), 96, dtype=np.uint8)))
        assert (out.pixels == 0).all()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            binarize(Image(np.zeros((10, 10), dtype=np.uint8)), window=0)


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

    def test_non_quad_rejected_by_fill_ratio(self):
        # a plus shape fills only ~80% of its enclosing diamond; a strict
        # fill floor rejects it while a true square still passes
        px = np.full((120, 120), 220, dtype=np.uint8)
        px[50:70, 20:100] = 0
        px[20:100, 50:70] = 0
        assert extract_quads(binarize(Image(px), window=20), fill_min=0.9) == []
        sq = np.full((120, 120), 220, dtype=np.uint8)
        sq[30:80, 30:80] = 0
        assert len(extract_quads(binarize(Image(sq), window=20), fill_min=0.9)) == 1


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
        est = estimate_homography(src, dst)
        assert np.allclose(est / est[2, 2], H, atol=1e-9)

    def test_collinear_points_degenerate(self):
        src = np.array([[0, 0], [1, 1], [2, 2], [3, 3.0]])
        dst = src * 2.0
        with pytest.raises(DegenerateGeometry):
            estimate_homography(src, dst)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            estimate_homography(np.zeros((3, 2)), np.zeros((3, 2)))


class TestSamplePayload:
    def test_fronto_parallel_exact(self, camera, family):
        tag = fronto_tag(7)
        img = render_scene(camera, [tag], family)
        corners = np.array(
            [project(camera, p) for p in tag_border_corners(tag)]
        )
        H = estimate_homography(BORDER_UNIT_CORNERS, corners)
        assert sample_payload(img, H, family.n) == family.codes[7]

    def test_outside_image_raises(self, camera, family):
        img = Image(np.full((240, 320), 96, dtype=np.uint8))
        # homography sending the tag square far outside the frame
        H = np.array([[10.0, 0, 5000.0], [0, 10.0, 5000.0], [0, 0, 1.0]])
        with pytest.raises(SamplingFailed):
            sample_payload(img, H, family.n)


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
            H = estimate_homography(BORDER_UNIT_CORNERS, corners)
            est = pose_from_homography(H, camera, 0.7)
            assert np.abs(est.translation - t).max() < 1e-6
            assert np.abs(est.rotation - R).max() < 1e-6


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

    def test_empty_image_no_detections(self, camera, family):
        img = Image(np.full((240, 320), 96, dtype=np.uint8))
        assert detect(img, camera, family, 0.7) == []

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
