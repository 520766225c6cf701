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

    def test_json_round_trip(self, camera):
        back = CameraModel.from_json_dict(camera.to_json_dict())
        assert back.fx == camera.fx and back.width == camera.width
        assert np.allclose(back.pose.rotation, camera.pose.rotation)


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
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = Image(rng.integers(0, 256, (37, 61)).astype(np.uint8))
        p = tmp_path / "x.pgm"
        img.save_pgm(p)
        assert (Image.load_pgm(p).pixels == img.pixels).all()

    def test_comment_handling(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x40\x80\xff")
        img = Image.load_pgm(p)
        assert img.pixels.tolist() == [[0, 64], [128, 255]]

    def test_rejects_ascii_pgm(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError):
            Image.load_pgm(p)

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
        img = render_scene(camera, [], family, background=77)
        assert (img.pixels == 77).all()

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
        img = render_scene(camera, [tag], family, background=96)
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
