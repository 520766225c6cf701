"""Pinhole camera model and a perspective rasterizer for planar tags.

Produces the synthetic grayscale frames the detector consumes. Rendering
is inverse-mapped (per-pixel ray / tag-plane intersection), point sampled
with no anti-aliasing; seeded Gaussian noise stands in for sensor realism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .codes import TagFamily
from .transforms import RigidTransform

__all__ = [
    "CameraModel",
    "PlacedTag",
    "Image",
    "render_tag_bitmap",
    "project",
    "frame_noise",
    "render_scene",
    "tag_border_corners",
    "BORDER_UNIT_CORNERS",
]

_EPS_DEPTH = 1e-6
_BACKGROUND = 96  # gray level of every pixel no tag covers

# Black-border square corners in normalized tag-plane coordinates ([-1, 1]^2,
# x right, y up), listed top-left, bottom-left, bottom-right, top-right.
# Through a front-facing camera this order appears counter-clockwise on screen.
BORDER_UNIT_CORNERS = np.array(
    [[-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]]
)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        self.pose.validate()

    def to_pixels(self, p_cam: np.ndarray) -> np.ndarray:
        """Pinhole projection of camera-frame points (..., 3) to pixel coordinates (..., 2)."""
        x, y, z = p_cam[..., 0], p_cam[..., 1], p_cam[..., 2]
        return np.stack([self.fx * x / z + self.cx, self.fy * y / z + self.cy], axis=-1)

    @property
    def intrinsic_matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def to_json_dict(self) -> dict:
        return {
            "fx": self.fx,
            "fy": self.fy,
            "cx": self.cx,
            "cy": self.cy,
            "width": self.width,
            "height": self.height,
            "pose": self.pose.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CameraModel":
        pose = (
            RigidTransform.from_json_dict(d["pose"])
            if "pose" in d
            else RigidTransform.identity()
        )
        return cls(
            fx=float(d["fx"]),
            fy=float(d["fy"]),
            cx=float(d["cx"]),
            cy=float(d["cy"]),
            width=int(d["width"]),
            height=int(d["height"]),
            pose=pose,
        )


@dataclass(frozen=True)
class PlacedTag:
    """A family code placed on a plane in the world.

    tag_size is the side length of the *black-border* square in meters.
    Tag frame: origin at the tag center, x right, y up within the tag
    plane, z out of the printed face.
    """

    index: int
    tag_size: float
    pose: RigidTransform

    def __post_init__(self):
        if self.tag_size <= 0:
            raise ValueError("tag_size must be positive")


@dataclass(frozen=True)
class Image:
    """8-bit grayscale raster; pixels indexed [row, col]."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.uint8)
        if p.ndim != 2:
            raise ValueError("pixels must be a 2-D array")
        p.flags.writeable = False
        object.__setattr__(self, "pixels", p)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_pgm(self) -> bytes:
        """The raster as a binary PGM (P5) file."""
        header = f"P5\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.pixels.tobytes()

    @classmethod
    def from_pgm(cls, data: bytes) -> "Image":
        """Parse a binary PGM (P5) file of maxval 255; ValueError otherwise."""
        fields: list[bytes] = []
        pos = 0
        while len(fields) < 4:
            while pos < len(data) and data[pos : pos + 1].isspace():
                pos += 1
            if data[pos : pos + 1] == b"#":  # comment line
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
                continue
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            fields.append(data[start:pos])
        if fields[0] != b"P5":
            raise ValueError("not a binary PGM (P5) file")
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
        if maxval != 255:
            raise ValueError("only maxval 255 PGM supported")
        pos += 1  # single whitespace after maxval
        raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
        return cls(raster.reshape(h, w).copy())


def _tag_cell_grid(family: TagFamily, index: int) -> np.ndarray:
    """(n+4)x(n+4) grid of gray values: white outer ring, black ring, payload."""
    if not 0 <= index < len(family):
        raise ValueError(f"code index {index} out of range for family of {len(family)}")
    return family._cell_grids[index]


def render_tag_bitmap(family: TagFamily, index: int, pixels_per_cell: int) -> Image:
    """Rasterize a single tag face-on at pixels_per_cell resolution."""
    if pixels_per_cell < 1:
        raise ValueError("pixels_per_cell must be >= 1")
    grid = _tag_cell_grid(family, index)
    return Image(np.kron(grid, np.ones((pixels_per_cell, pixels_per_cell), dtype=np.uint8)))


def project(camera: CameraModel, point) -> Optional[np.ndarray]:
    """World point -> pixel coordinates, or None when at/behind the camera plane."""
    p_cam = camera.pose.inverse().apply(np.asarray(point, dtype=float))
    if p_cam[2] <= _EPS_DEPTH:
        return None
    return camera.to_pixels(p_cam)


def tag_border_corners(tag: PlacedTag) -> np.ndarray:
    """World coordinates of the four black-border corners, shape (4, 3).

    Order matches BORDER_UNIT_CORNERS.
    """
    half = tag.tag_size / 2.0
    local = np.column_stack([BORDER_UNIT_CORNERS * half, np.zeros(4)])
    return tag.pose.apply(local)


def _tag_pixel_bbox(camera: CameraModel, tag: PlacedTag, full_half: float):
    """Conservative pixel bounding box of the full tag square, or None if out of view."""
    local = np.column_stack([BORDER_UNIT_CORNERS * full_half, np.zeros(4)])
    corners = tag.pose.apply(local)
    cam_pts = camera.pose.inverse().apply(corners)
    if (cam_pts[:, 2] <= _EPS_DEPTH).any():
        # partially behind the camera plane: fall back to the whole frame
        if (cam_pts[:, 2] <= _EPS_DEPTH).all():
            return None
        return (0, camera.height, 0, camera.width)
    us, vs = camera.to_pixels(cam_pts).T
    c0 = max(0, int(np.floor(us.min())) - 2)
    c1 = min(camera.width, int(np.ceil(us.max())) + 2)
    r0 = max(0, int(np.floor(vs.min())) - 2)
    r1 = min(camera.height, int(np.ceil(vs.max())) + 2)
    if c0 >= c1 or r0 >= r1:
        return None
    return (r0, r1, c0, c1)


def frame_noise(seed: int, h: int, w: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Standard-normal sensor noise of one h x w frame, keyed by `seed`.

    A counter-based (Philox) stream, so the field depends on the seed and
    shape alone and may be drawn ahead of its frame, on any thread. Fills
    `out`, a float64 (h, w) array, in place when given, and returns it.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed)])))
    return gen.standard_normal((h, w), out=out)


def render_scene(
    camera: CameraModel,
    tags: Sequence[PlacedTag],
    family: TagFamily,
    noise_sigma: float = 0.0,
    seed: int = 0,
    noise: Optional[np.ndarray] = None,
) -> Image:
    """Inverse-mapped rasterization of planar tags plus seeded Gaussian noise.

    For every pixel the camera ray is intersected with each tag plane; the
    nearest front-facing hit inside the tag's full (white-bordered) square
    wins. Noise is frame_noise(seed, height, width), drawn over the whole
    frame, so output is bit-identical regardless of any internal evaluation
    order. A caller that drew that field already passes it as `noise`, and
    `seed` is then unused; the field is scaled and summed in place, so its
    contents are spent.
    """
    h, w = camera.height, camera.width
    img = np.full((h, w), np.uint8(_BACKGROUND), dtype=np.uint8)
    depth = None  # allocated once a tag is in view
    cam_origin = camera.pose.translation
    rot = camera.pose.rotation

    for tag in tags:
        grid = _tag_cell_grid(family, tag.index)
        n = family.n
        cell = tag.tag_size / (n + 2)
        full_half = tag.tag_size * (n + 4) / (n + 2) / 2.0
        bbox = _tag_pixel_bbox(camera, tag, full_half)
        if bbox is None:
            continue
        r0, r1, c0, c1 = bbox
        if depth is None:
            depth = np.full((h, w), np.inf)

        rays = np.empty((r1 - r0, c1 - c0, 3))
        rays[..., 0] = (np.arange(c0, c1) + 0.5 - camera.cx) / camera.fx
        rays[..., 1] = ((np.arange(r0, r1) + 0.5 - camera.cy) / camera.fy)[:, None]
        rays[..., 2] = 1.0
        dirs = rays @ rot.T

        normal = tag.pose.rotation[:, 2]
        denom = dirs @ normal
        facing = denom < -1e-12  # camera must see the +z face
        with np.errstate(divide="ignore", invalid="ignore"):
            s = ((tag.pose.translation - cam_origin) @ normal) / denom
            # hit points relative to the tag origin, in place on dirs; one
            # component at a time, since a broadcast over the last axis runs
            # an inner loop of length 3
            for k in range(3):
                comp = dirs[..., k]
                comp *= s
                comp += cam_origin[k]
                comp -= tag.pose.translation[k]
        hit = facing & (s > _EPS_DEPTH)
        local = dirs @ tag.pose.rotation
        xl, yl = local[..., 0], local[..., 1]
        inside = hit & (np.abs(xl) < full_half) & (np.abs(yl) < full_half)

        sub_depth = depth[r0:r1, c0:c1]
        win = inside & (s < sub_depth)
        # the cell lookup only for the pixels this tag wins
        col = np.clip(((xl[win] + full_half) / cell).astype(int), 0, n + 3)
        row = np.clip(((full_half - yl[win]) / cell).astype(int), 0, n + 3)
        img[r0:r1, c0:c1][win] = grid[row, col]
        sub_depth[win] = s[win]

    if noise_sigma > 0:
        if noise is None:
            noise = frame_noise(seed, h, w)
        # clip(rint(img + sigma * noise)) in place on the noise array; the sum
        # commutes, so the frame is the same to the bit
        noise *= noise_sigma
        noise += img
        np.rint(noise, out=noise)
        np.clip(noise, 0, 255, out=noise)
        img = noise.astype(np.uint8)
    return Image(img)
