"""Camera model, tag rasterization, and PGM I/O."""

from __future__ import annotations

import numpy as np
import pytest

from vttag.codes import generate_family
from vttag.imaging import (
    BORDER_UNIT_CORNERS,
    CameraModel,
    Image,
    PlacedTag,
    _tag_pixel_bbox,
    frame_noise,
    project,
    render_scene,
    render_tag_bitmap,
    tag_border_corners,
)
from vttag.transforms import RigidTransform


@pytest.fixture(scope="module")
def family():
    return generate_family(5, 9, 30, seed=42)


@pytest.fixture()
def camera():
    return CameraModel(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)


class TestCameraModel:
    def test_intrinsics_matrix(self, camera):
        K = camera.intrinsic_matrix
        assert K[0, 0] == 500 and K[1, 1] == 500
        assert K[0, 2] == 160 and K[1, 2] == 120

    def test_validation(self):
        with pytest.raises(ValueError):
            CameraModel(fx=-1, fy=500, cx=160, cy=120, width=320, height=240)
        with pytest.raises(ValueError):
            CameraModel(fx=500, fy=500, cx=999, cy=120, width=320, height=240)

    @pytest.mark.parametrize("key", ["fx", "fy"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_focal_length(self, key, value):
        kwargs = dict(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240)
        kwargs[key] = value
        with pytest.raises(ValueError, match="focal lengths"):
            CameraModel(**kwargs)

    @pytest.mark.parametrize(
        "rotation, translation",
        [(np.full((3, 3), np.nan), np.zeros(3)),
         (np.where(np.eye(3) == 1, np.nan, 0.0), np.zeros(3)),
         (np.eye(3), np.array([0.0, np.nan, 0.0])),
         (np.eye(3), np.array([0.0, 0.0, np.inf]))],
    )
    def test_rejects_non_finite_pose(self, rotation, translation):
        with pytest.raises(ValueError, match="finite"):
            CameraModel(fx=500.0, fy=500.0, cx=160.0, cy=120.0, width=320, height=240,
                        pose=RigidTransform(rotation, translation))

    def test_json_round_trip(self, camera):
        back = CameraModel.from_json_dict(camera.to_json_dict())
        assert back.fx == camera.fx and back.width == camera.width
        assert np.allclose(back.pose.rotation, camera.pose.rotation)


# the rasterizer as one pass per tag over its whole bounding box, with the
# cell grid rebuilt per tag and a colour looked up for every box pixel, as
# render_scene drew before: render_scene must draw the same frames
def _ref_tag_cell_grid(family, index):
    if not 0 <= index < len(family):
        raise ValueError(f"code index {index} out of range for family of {len(family)}")
    n = family.n
    grid = np.zeros((n + 4, n + 4), dtype=np.uint8)
    grid[:, :] = 255
    grid[1:-1, 1:-1] = 0
    payload = family.codes[index].to_array()
    grid[2:-2, 2:-2] = np.where(payload, 255, 0)
    return grid


def _reference_render(camera, tags, family, noise_sigma=0.0, seed=0):
    h, w = camera.height, camera.width
    img = np.full((h, w), np.uint8(96), dtype=np.uint8)
    depth = None
    cam_origin = camera.pose.translation
    rot = camera.pose.rotation
    for tag in tags:
        grid = _ref_tag_cell_grid(family, tag.index)
        n = family.n
        cell = tag.tag_size / (n + 2)
        full_half = tag.tag_size * (n + 4) / (n + 2) / 2.0
        bbox = _tag_pixel_bbox(camera, tag, full_half)
        if bbox is None:
            continue
        r0, r1, c0, c1 = bbox
        if depth is None:
            depth = np.full((h, w), np.inf)
        us = (np.arange(c0, c1) + 0.5 - camera.cx) / camera.fx
        vs = (np.arange(r0, r1) + 0.5 - camera.cy) / camera.fy
        du, dv = np.meshgrid(us, vs)
        dirs = np.stack([du, dv, np.ones_like(du)], axis=-1) @ rot.T
        normal = tag.pose.rotation[:, 2]
        denom = dirs @ normal
        facing = denom < -1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((tag.pose.translation - cam_origin) @ normal) / denom
            pts = cam_origin + dirs * s[..., None]
            local = (pts - tag.pose.translation) @ tag.pose.rotation
            xl, yl = local[..., 0], local[..., 1]
            col = np.clip(((xl + full_half) / cell).astype(int), 0, n + 3)
            row = np.clip(((full_half - yl) / cell).astype(int), 0, n + 3)
        hit = facing & (s > 1e-6)
        inside = hit & (np.abs(xl) < full_half) & (np.abs(yl) < full_half)
        color = grid[row, col]
        sub_depth = depth[r0:r1, c0:c1]
        win = inside & (s < sub_depth)
        sub = img[r0:r1, c0:c1]
        sub[win] = color[win]
        sub_depth[win] = s[win]
    if noise_sigma > 0:
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
        noisy = img + noise_sigma * gen.standard_normal((h, w))
        img = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return img


def _posed_tag(index, tag_size, rotation, translation):
    return PlacedTag(index=index, tag_size=tag_size,
                     pose=RigidTransform(rotation, np.asarray(translation, dtype=float)))


def _random_rotation(rng):
    q = rng.normal(size=4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


FACING = np.diag([1.0, -1.0, -1.0])  # +z face towards a camera at the origin


class TestRenderMatchesReference:
    def test_random_poses(self, camera, family):
        # any orientation, front or back face, some tags crossing the camera
        # plane or out of view, 1-3 tags per frame
        rng = np.random.default_rng(17)
        for frame in range(60):
            tags = [
                _posed_tag(int(rng.integers(len(family))), float(rng.uniform(0.2, 1.2)),
                           _random_rotation(rng) if rng.random() < 0.5 else FACING,
                           rng.uniform([-1.5, -1.0, -0.5], [1.5, 1.0, 4.0]))
                for _ in range(int(rng.integers(1, 4)))
            ]
            sigma = float(rng.choice([0.0, 2.0]))
            want = _reference_render(camera, tags, family, noise_sigma=sigma, seed=frame)
            got = render_scene(camera, tags, family, noise_sigma=sigma, seed=frame).pixels
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tilt", [0.0, 0.3, 0.9])
    def test_overlapping_tags_either_order(self, camera, family, tilt):
        c, s = np.cos(tilt), np.sin(tilt)
        tilted = np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) @ FACING
        a = _posed_tag(3, 0.8, tilted, [0.1, 0.05, 2.0])
        b = _posed_tag(8, 0.8, FACING, [-0.05, 0.0, 2.05])  # crosses a when tilted
        for tags in ([a, b], [b, a]):
            want = _reference_render(camera, tags, family)
            assert np.array_equal(render_scene(camera, tags, family).pixels, want)

    def test_tag_partly_behind_camera(self, camera, family):
        # corners on both sides of the camera plane: the whole frame is its box
        c, s = np.cos(-1.3), np.sin(-1.3)
        tag = _posed_tag(5, 2.0, np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) @ FACING,
                         [0.0, 0.3, 0.3])
        full_half = 2.0 * 9 / 7 / 2.0
        assert _tag_pixel_bbox(camera, tag, full_half) == (0, camera.height, 0, camera.width)
        got = render_scene(camera, [tag], family).pixels
        assert np.array_equal(got, _reference_render(camera, [tag], family))
        assert (got != 96).any()

    def test_tag_out_of_view(self, camera, family):
        tag = _posed_tag(5, 0.5, FACING, [30.0, 0.0, 2.0])
        near = _posed_tag(6, 0.5, FACING, [0.0, 0.0, 2.0])
        assert _tag_pixel_bbox(camera, tag, 0.5 * 9 / 7 / 2.0) is None
        assert (render_scene(camera, [tag], family).pixels == 96).all()
        for tags in ([tag, near], [near, tag]):
            want = _reference_render(camera, tags, family)
            assert np.array_equal(render_scene(camera, tags, family).pixels, want)

    @pytest.mark.parametrize("index", [0, 7, 29])
    def test_tag_bitmap_unchanged(self, family, index):
        want = np.kron(_ref_tag_cell_grid(family, index), np.ones((3, 3), dtype=np.uint8))
        assert np.array_equal(render_tag_bitmap(family, index, 3).pixels, want)

    def test_cell_grids_built_once_and_read_only(self, family):
        grids = family._cell_grids
        assert grids is family._cell_grids
        assert not grids.flags.writeable
        for i in range(len(family)):
            assert np.array_equal(grids[i], _ref_tag_cell_grid(family, i))

    @pytest.mark.parametrize("index", [-1, 30])
    def test_render_rejects_out_of_family_index(self, camera, family, index):
        with pytest.raises(ValueError, match="out of range"):
            render_scene(camera, [_posed_tag(index, 0.5, FACING, [0, 0, 2.0])], family)


class TestTagBitmap:
    def test_size_and_rings(self, family):
        px = 4
        img = render_tag_bitmap(family, 0, px)
        n = family.n
        side = (n + 4) * px
        assert img.pixels.shape == (side, side)
        assert (img.pixels[0, :] == 255).all()  # outer white boundary
        assert (img.pixels[px, px:-px] == 0).all()  # black boundary
        # payload cell (0,0) maps to grid cell (2,2)
        expected = 255 if family.codes[0].bits[0] else 0
        assert img.pixels[2 * px, 2 * px] == expected

    def test_bad_index(self, family):
        with pytest.raises(ValueError):
            render_tag_bitmap(family, len(family), 4)

    def test_bad_px(self, family):
        with pytest.raises(ValueError):
            render_tag_bitmap(family, 0, 0)


class TestPgm:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        img = Image(rng.integers(0, 256, (37, 61)).astype(np.uint8))
        assert (Image.from_pgm(img.to_pgm()).pixels == img.pixels).all()

    def test_comment_handling(self):
        img = Image.from_pgm(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_rejects_ascii_pgm(self):
        with pytest.raises(ValueError):
            Image.from_pgm(b"P2\n2 2\n255\n0 1 2 3\n")

    def test_image_must_be_2d(self):
        with pytest.raises(ValueError):
            Image(np.zeros((2, 2, 3), dtype=np.uint8))


class TestProject:
    def test_center_projection(self, camera):
        uv = project(camera, [0.0, 0.0, 2.0])
        assert np.allclose(uv, [160.0, 120.0])

    def test_offset_point(self, camera):
        uv = project(camera, [0.1, -0.2, 1.0])
        assert np.allclose(uv, [160.0 + 50.0, 120.0 - 100.0])

    def test_behind_camera(self, camera):
        assert project(camera, [0.0, 0.0, -1.0]) is None
        assert project(camera, [0.0, 0.0, 0.0]) is None


class TestRenderScene:
    def test_fronto_parallel_cells_exact(self, camera, family):
        # tag facing the camera straight on: cell colors must match the grid
        tag = PlacedTag(
            index=2,
            tag_size=0.7,
            pose=RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 2.0])),
        )
        img = render_scene(camera, [tag], family)
        code = family.codes[2]
        n = family.n
        cell = 0.7 / (n + 2)
        for r in range(n):
            for c in range(n):
                # center of payload cell (r, c) in tag coords (x right, y up)
                x = (c - (n - 1) / 2.0) * cell
                y = ((n - 1) / 2.0 - r) * cell
                uv = project(camera, [x, -y, 2.0])  # pose flips y
                val = img.pixels[int(round(uv[1])), int(round(uv[0]))]
                assert val == (255 if code.bits[r * n + c] else 0)

    def test_background_value(self, camera, family):
        img = render_scene(camera, [], family)
        assert (img.pixels == 96).all()

    def test_noise_deterministic(self, camera, family):
        a = render_scene(camera, [], family, noise_sigma=3.0, seed=4)
        b = render_scene(camera, [], family, noise_sigma=3.0, seed=4)
        c = render_scene(camera, [], family, noise_sigma=3.0, seed=5)
        assert (a.pixels == b.pixels).all()
        assert (a.pixels != c.pixels).any()

    @pytest.mark.parametrize("size", [(240, 320), (180, 240)])
    @pytest.mark.parametrize("sigma", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
    def test_noise_matches_reference_formula(self, family, size, sigma, seed):
        # the frame must equal the noise formula to the bit, from the same
        # Philox stream: a float32 or reordered draw changes it
        h, w = size
        cam = CameraModel(fx=500.0, fy=500.0, cx=w / 2, cy=h / 2, width=w, height=h)
        tag = PlacedTag(index=4, tag_size=0.7, pose=RigidTransform(
            np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 2.0])))
        clean = render_scene(cam, [tag], family).pixels
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
        noisy = clean.astype(float) + sigma * gen.standard_normal((h, w))
        want = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
        # the tag's black and white cells push the sum past both clip bounds
        assert noisy.min() < -0.5 and noisy.max() > 255.5
        got = render_scene(cam, [tag], family, noise_sigma=sigma, seed=seed).pixels
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_drawn_noise_renders_as_its_seed(self, camera, family, seed):
        tag = PlacedTag(index=4, tag_size=0.7, pose=RigidTransform(
            np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 2.0])))
        want = render_scene(camera, [tag], family, noise_sigma=2.0, seed=seed).pixels
        noise = frame_noise(seed, camera.height, camera.width)
        got = render_scene(camera, [tag], family, noise_sigma=2.0, noise=noise).pixels
        assert np.array_equal(got, want)

    def test_frame_noise_into_a_used_buffer(self):
        buf = np.full((180, 240), np.nan)
        for seed in (5, 6):  # the second draw overwrites the first
            assert frame_noise(seed, 180, 240, out=buf) is buf
            assert np.array_equal(buf, frame_noise(seed, 180, 240))

    def test_depth_buffer_near_tag_wins(self, camera, family):
        base = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 3.0]))
        near = PlacedTag(index=0, tag_size=0.4, pose=RigidTransform(
            np.diag([1.0, -1.0, -1.0]), np.array([0, 0, 1.5])))
        far = PlacedTag(index=1, tag_size=0.8, pose=base)
        img_nf = render_scene(camera, [near, far], family)
        img_fn = render_scene(camera, [far, near], family)
        assert (img_nf.pixels == img_fn.pixels).all()
        # the near tag's payload occupies the center regardless of order
        center = img_nf.pixels[120, 160]
        solo = render_scene(camera, [near], family).pixels[120, 160]
        assert center == solo

    def test_back_face_invisible(self, camera, family):
        # tag z axis pointing away from the camera: nothing rendered
        tag = PlacedTag(index=0, tag_size=0.7,
                        pose=RigidTransform(np.eye(3), np.array([0, 0, 2.0])))
        img = render_scene(camera, [tag], family)
        assert (img.pixels == 96).all()


def test_border_corners_shape(family):
    tag = PlacedTag(index=0, tag_size=2.0,
                    pose=RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0])))
    corners = tag_border_corners(tag)
    assert corners.shape == (4, 3)
    assert np.allclose(corners[:, 2], 3.0)
    assert np.allclose(corners[0, :2], [1.0 - 1.0, 2.0 + 1.0])  # top-left, y up


def test_border_unit_corner_order():
    # top-left, bottom-left, bottom-right, top-right
    assert BORDER_UNIT_CORNERS.tolist() == [
        [-1.0, 1.0],
        [-1.0, -1.0],
        [1.0, -1.0],
        [1.0, 1.0],
    ]
