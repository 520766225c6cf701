"""Tag detector: binarize, trace quads, sample payload, decode, recover pose.

The pipeline is deliberately plain: adaptive mean thresholding from
separable running sums, the outer boundary of each dark component ordered
by angle around its centroid (as in AprilTag 2), farthest-point quad
fitting, a Hartley-normalized DLT homography, border-referenced cell
thresholding, and pose recovery from the homography columns. Every stage
is deterministic; corner accuracy comes from averaging near-tied boundary
pixels rather than gradient-based refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.spatial import ConvexHull, QhullError

from .codes import TagCode, TagFamily, decode_code
from .errors import DegenerateGeometry, SamplingFailed
from .imaging import BORDER_UNIT_CORNERS, CameraModel, Image
from .transforms import RigidTransform

__all__ = [
    "DetectorParams",
    "Quad",
    "Detection",
    "binarize",
    "extract_quads",
    "estimate_homography",
    "sample_payload",
    "pose_from_homography",
    "detect",
]


@dataclass(frozen=True)
class DetectorParams:
    """Detection thresholds; defaults sized for 640x480 frames."""

    window: int = 15  # half-width of the adaptive-mean neighborhood, px
    offset: float = 10.0  # gray levels below local mean to count as dark
    min_area: float = 100.0  # minimum quad area, px^2
    fill_min: float = 0.2  # dark-component pixels / quad area, lower bound
    fill_max: float = 1.15  # and upper bound
    min_contrast: float = 30.0  # white-border minus black-border sample mean, gray levels
    t_max: Optional[int] = None  # bit-correction budget; None = family radius

    def __post_init__(self):
        if not isinstance(self.window, Integral) or self.window < 1:
            raise ValueError("window must be an integer >= 1")
        for name in ("offset", "min_area", "fill_min", "fill_max", "min_contrast"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_max is not None and (
            not isinstance(self.t_max, Integral) or self.t_max < 0
        ):
            raise ValueError("t_max must be None or an integer >= 0")


@dataclass(frozen=True)
class Quad:
    """Four border corners in counter-clockwise screen order, first nearest the origin."""

    corners: np.ndarray  # (4, 2) pixel coordinates
    area: float

    def __post_init__(self):
        c = np.array(self.corners, dtype=float).reshape(4, 2)
        c.flags.writeable = False
        object.__setattr__(self, "corners", c)


@dataclass(frozen=True)
class Detection:
    quad: Quad
    code_index: int
    rotation: int  # quarter turns
    hamming_error: int
    pose: RigidTransform  # tag -> camera
    reproj_err: float  # RMS corner residual, px

    @property
    def rotation_deg(self) -> int:
        return self.rotation * 90

    def to_json_dict(self) -> dict:
        return {
            "code_index": self.code_index,
            "rotation_deg": self.rotation_deg,
            "hamming_error": self.hamming_error,
            "corners": [[float(x), float(y)] for x, y in self.quad.corners],
            "pose": self.pose.to_json_dict(),
            "reproj_err": float(self.reproj_err),
        }


def _window_sums(a: np.ndarray, window: int, dtype) -> np.ndarray:
    """Sum of each row's clipped (2*window+1)-row neighborhood, per column.

    One running sum down axis 0, padded with `window` zero rows before and
    `window` copies of the total after, so every clipped window is the
    difference of two equal-length slices.
    """
    h = a.shape[0]
    window = min(window, h)  # a wider window covers the same rows
    run = np.zeros((h + 2 * window + 1,) + a.shape[1:], dtype=dtype)
    np.cumsum(a, axis=0, dtype=dtype, out=run[window + 1 : window + 1 + h])
    run[window + 1 + h :] = run[window + h]
    return run[2 * window + 1 :] - run[:h]


def _sum_type(h: int, w: int) -> np.dtype:
    """Integer type of binarize's sums, areas and integer threshold.

    No running sum of an h x w image exceeds 255*h*w, and no window area
    exceeds h*w, so this signed type holds every sum and every
    (px + offset) * area with |offset| <= 255, negative ones included.
    """
    return np.min_scalar_type(-511 * h * w)


@lru_cache(maxsize=8)
def _window_areas(h: int, w: int, window: int) -> np.ndarray:
    """Pixel count of each clipped (2*window+1)^2 window of an h x w image.

    Built once per (h, w, window), in _sum_type(h, w); the array is shared,
    so it is read-only.
    """
    r = np.arange(h)
    c = np.arange(w)
    rows = np.minimum(r + window + 1, h) - np.maximum(r - window, 0)
    cols = np.minimum(c + window + 1, w) - np.maximum(c - window, 0)
    area = (rows[:, None] * cols[None, :]).astype(_sum_type(h, w))
    area.flags.writeable = False
    return area


def binarize(image: Image, window: int = 15, offset: float = 10.0) -> Image:
    """Mark pixels strictly darker than their clipped local mean minus offset.

    Foreground (dark) pixels are 255 in the result. The local mean is taken
    over the (2*window+1)^2 neighborhood clipped to the image, from two
    separable running sums (down the columns, then along the rows), and a
    window-area table cached per (height, width, window). An integral offset
    is tested as (px + offset) * area < sum, in integers; any other offset
    against sum / area - offset, in float64.

    A frame whose grey range max - min is at most offset (an empty frame
    too) has no foreground, so it gets an all-zero mask without any window
    sums: every clipped window mean is at most max <= min + offset <=
    px + offset. The float64 test agrees, since rounding is monotone and
    max and min are representable: sum / area rounds to at most max, and
    max - offset to at most min. A NaN offset fails the comparison.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    px = image.pixels
    h, w = px.shape
    if px.size == 0 or int(px.max()) - int(px.min()) <= offset:
        return Image(np.zeros((h, w), dtype=np.uint8))
    acc = _sum_type(h, w)
    sums = _window_sums(_window_sums(px, window, acc).T, window, acc).T
    area = _window_areas(h, w, window)
    if float(offset).is_integer() and abs(offset) <= 255:
        # the same mask as the division below: a mean that is not an integer
        # lies at least 1/area from one, far beyond float64's rounding, so
        # px + offset < sum / area in float64 exactly when it holds in integers
        lhs = px.astype(acc)
        lhs += int(offset)
        lhs *= area
        fg = lhs < sums
    else:
        thr = sums / area
        thr -= offset
        fg = px < thr
    return Image(fg.view(np.uint8) * np.uint8(255))


_FOUR_CONNECTED = ndimage.generate_binary_structure(2, 1)
_EIGHT_CONNECTED = ndimage.generate_binary_structure(2, 2)


def _outer_boundary(comp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outer boundary pixels of an 8-connected component, ordered by angle.

    The background of the padded bounding box is labeled with
    4-connectivity; the region holding the padding corner is the outside.
    Component pixels 4-adjacent to it form the outer boundary (hole edges
    drop out), ordered by angle around their centroid with a stable sort.
    Returns (rows, cols) in the component's own coordinates.
    """
    h, w = comp.shape
    wp = w + 2
    bg = np.ones((h + 2, wp), dtype=bool)
    np.logical_not(comp, out=bg[1:-1, 1:-1])
    regions, _ = ndimage.label(bg, structure=_FOUR_CONNECTED)
    out = (regions == regions[0, 0]).ravel()
    # flat index f of the padded box, from its second row to its second
    # last; the 4-neighbors of f are f -/+ 1 and f -/+ wp
    edge = out[wp - 1 : -wp - 1] | out[wp + 1 : -wp + 1]
    edge |= out[: -2 * wp]
    edge |= out[2 * wp :]
    edge &= ~bg.ravel()[wp:-wp]
    rs, cs = np.divmod(np.flatnonzero(edge), wp)
    cs -= 1
    order = np.argsort(
        np.arctan2(rs - rs.sum() / rs.size, cs - cs.sum() / cs.size), kind="stable"
    )
    # start the cycle where a boundary walk starts, at the topmost-leftmost
    # pixel (index 0 in raster order): _fit_quad_corners breaks ties by
    # position in the cycle
    k = int(np.argmin(order))
    order = np.concatenate([order[k:], order[:k]])
    return rs[order], cs[order]


def _diameter_pair(pts: np.ndarray) -> tuple[int, int]:
    """Indices of the two mutually farthest points."""
    if len(pts) > 64:
        try:
            hull = ConvexHull(pts)
            cand = hull.vertices
        except QhullError:
            cand = np.arange(len(pts))
    else:
        cand = np.arange(len(pts))
    sub = pts[cand]
    d2 = ((sub[:, None, :] - sub[None, :, :]) ** 2).sum(-1)
    i, j = divmod(int(np.argmax(d2)), len(cand))
    return int(cand[i]), int(cand[j])


# Boundary pixels whose chord distance ties the farthest one within this
# many pixels are averaged; tames the tangential jitter of a single argmax.
_CORNER_TIE_TOL = 0.3


_PREV = np.array([3, 0, 1, 2])  # index of corner k-1
_NEXT = np.array([1, 2, 3, 0])  # index of corner k+1


def _chord_distances(
    pts: np.ndarray, p: np.ndarray, q: np.ndarray
) -> Optional[np.ndarray]:
    """Distance of every point from each line p[k] q[k], shape (k, len(pts)).

    None when some p[k] and q[k] coincide. All points are pixel centers, so
    every product below is a multiple of 0.5 and every sum is exact: the
    result equals |(pt - p) x (q - p)| / |q - p| to the last bit.
    """
    ch = q - p
    norm = np.sqrt((ch * ch).sum(axis=1))
    if norm.min() < 1e-9:
        return None
    perp = ch[:, ::-1] * (1.0, -1.0)  # (ch_y, -ch_x)
    return np.abs(perp @ pts.T - (p * perp).sum(axis=1)[:, None]) / norm[:, None]


def _fit_quad_corners(pts: np.ndarray) -> Optional[np.ndarray]:
    """Reduce an ordered boundary cycle to 4 corners by farthest-point fitting.

    The diameter pair seeds two corners, the farthest point from the chord
    on each arc the other two. Each corner is then re-estimated as the
    centroid of the boundary points that are within _CORNER_TIE_TOL of the
    maximal distance from the chord joining its neighbor corners.
    """
    m = len(pts)
    if m < 8:
        return None
    ia, ib = sorted(_diameter_pair(pts))
    d = _chord_distances(pts, pts[[ia]], pts[[ib]])
    if d is None:
        return None
    # farthest point on each arc; the arc past ib wraps round to ia, and
    # argmax keeps the first of tied points in that order
    arc1, arc2 = d[0, ia + 1 : ib], np.concatenate([d[0, ib + 1 :], d[0, :ia]])
    if arc1.size == 0 or arc2.size == 0:
        return None
    j1 = ia + 1 + int(np.argmax(arc1))
    j2 = (ib + 1 + int(np.argmax(arc2))) % m
    order = np.array(sorted([ia, j1, ib, j2]))

    # row k refits corner k on the arc from corner k-1 to corner k+1, both
    # ends included, against the chord joining those two corners
    i_prev, i_next = order[_PREV], order[_NEXT]
    d = _chord_distances(pts, pts[i_prev], pts[i_next])
    if d is None:
        return None
    on_arc = (np.arange(m) - i_prev[:, None]) % m <= ((i_next - i_prev) % m)[:, None]
    d_max = np.where(on_arc, d, -np.inf).max(axis=1)
    near = on_arc & (d >= (d_max - _CORNER_TIE_TOL)[:, None])
    # sums of pixel centers are exact, so this equals each near set's mean
    return (near @ pts) / near.sum(axis=1)[:, None]


def _shoelace(corners: np.ndarray) -> float:
    x, y = corners[:, 0], corners[:, 1]
    return 0.5 * float(np.sum(x * y[_NEXT] - x[_NEXT] * y))


def _is_convex(corners: np.ndarray) -> bool:
    e = corners[_NEXT] - corners
    signs = np.sign(e[:, 0] * e[_NEXT, 1] - e[:, 1] * e[_NEXT, 0])
    return bool((signs != 0).all() and (signs == signs[0]).all())


def _push_outward(corners: np.ndarray) -> np.ndarray:
    """Move each corner half a pixel out along the mean of its edge normals.

    Traced coords are dark-pixel centers; the true border edge lies half a
    pixel further out.
    """
    e = corners[_NEXT] - corners  # edge k runs from corner k to corner k+1
    n = np.column_stack([-e[:, 1], e[:, 0]])
    # each length is a 1x2 @ 2x1 product, the same BLAS dot (fused
    # multiply-add where the CPU has it) as np.linalg.norm(n[k]); an
    # elementwise x*x + y*y can differ from it in the last bit
    n = n / (np.sqrt(n[:, None, :] @ n[:, :, None])[:, 0] + 1e-12)
    return corners + 0.5 * (n[_PREV] + n)


def extract_quads(
    binary: Image,
    min_area: float = 100.0,
    fill_min: float = 0.2,
    fill_max: float = 1.15,
) -> list[Quad]:
    """Trace dark connected components and keep the quad-shaped ones.

    Corners are reported in counter-clockwise screen order starting at the
    corner nearest the image origin, pushed half a pixel outward so they
    describe the outer edge of the dark border rather than pixel centers.
    """
    mask = binary.pixels > 0
    if not mask.any():
        return []
    labels, _ = ndimage.label(mask, structure=_EIGHT_CONNECTED)
    quads = []
    for i, sl in enumerate(ndimage.find_objects(labels), start=1):
        if sl is None:
            continue
        comp = labels[sl] == i
        npix = np.count_nonzero(comp)
        if npix < max(8, min_area * 0.1):
            continue
        rs, cs = _outer_boundary(comp)
        # boundary (row, col) -> continuous pixel-center coords (x, y)
        pts = np.column_stack([cs + (sl[1].start + 0.5), rs + (sl[0].start + 0.5)])
        corners = _fit_quad_corners(pts)
        if corners is None or not _is_convex(corners):
            continue
        # normalize to CCW screen order (negative shoelace with y down)
        if _shoelace(corners) > 0:
            corners = corners[::-1]
        corners = _push_outward(corners)
        area = abs(_shoelace(corners))
        if area < min_area:
            continue
        ratio = npix / area
        if not (fill_min <= ratio <= fill_max):
            continue
        first = int(np.argmin((corners**2).sum(axis=1)))
        corners = np.concatenate([corners[first:], corners[:first]])
        quads.append(Quad(corners=corners, area=area))
    return quads


def _mask_non_finite(a: np.ndarray, fill=0.0) -> tuple[np.ndarray, np.ndarray]:
    """A stack (q, ...) with each non-finite member replaced by `fill`, and the finite mask.

    One NaN or infinite member would make LAPACK fail the whole stack, or
    warn, so the stacked stages compute on `fill` there and mask it out.
    """
    finite = np.isfinite(a).reshape(len(a), -1).all(axis=1)
    if not finite.all():
        a = np.where(finite.reshape((-1,) + (1,) * (a.ndim - 1)), a, fill)
    return a, finite


def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Similarity transforms taking each point set of a (q, k, 2) stack to centroid 0 and RMS radius sqrt(2).

    Returns (normalized points, transforms (q, 3, 3), ok); ok is False for a
    set that collapses to a single point or holds a non-finite point, whose
    points and transform are then meaningless.
    """
    pts, ok = _mask_non_finite(pts)
    centroid = pts.mean(axis=1)
    d = pts - centroid[:, None]
    rms = np.sqrt((d**2).sum(axis=2).mean(axis=1))
    ok &= rms >= 1e-12
    s = np.sqrt(2.0) / np.where(ok, rms, 1.0)
    T = np.zeros((len(pts), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return d * s[:, None, None], T, ok


def estimate_homography(plane_pts, img_pts) -> np.ndarray:
    """Hartley-normalized direct linear transform from >= 4 correspondences.

    img_pts is one point set (k, 2) or a stack of them (q, k, 2); plane_pts
    is one set, shared by the stack, or a stack of the same shape. Returns
    H, or a (q, 3, 3) stack, with H[2,2] scaled to 1 where that entry is
    nonzero. One point set raises DegenerateGeometry when a set collapses
    to a single point or holds a non-finite point, or when the system has
    rank < 8 (e.g. collinear plane points). In a stack such a member's H is
    all NaN instead, and every other member is as if fitted alone.
    """
    img = np.asarray(img_pts, dtype=float)
    single = img.ndim < 3
    if single:
        img = img.reshape(1, -1, 2)
    plane = np.asarray(plane_pts, dtype=float)
    if plane.ndim < 3:
        plane = plane.reshape(1, -1, 2)  # one set, normalized once for the stack
    if plane.shape[1] != img.shape[1] or img.shape[1] < 4:
        raise ValueError("need >= 4 point correspondences")
    q, k = img.shape[:2]
    pn, Tp, plane_ok = _normalize_points(plane)
    qn, Tq, ok = _normalize_points(img)
    ok &= plane_ok
    Tp = np.broadcast_to(Tp, (q, 3, 3))

    A = np.zeros((q, 2 * k, 9))
    x, y = pn[..., 0], pn[..., 1]
    u, v = qn[..., 0], qn[..., 1]
    A[:, 0::2, 0] = x
    A[:, 0::2, 1] = y
    A[:, 0::2, 2] = 1.0
    A[:, 0::2, 6] = -u * x
    A[:, 0::2, 7] = -u * y
    A[:, 0::2, 8] = -u
    A[:, 1::2, 3] = x
    A[:, 1::2, 4] = y
    A[:, 1::2, 5] = 1.0
    A[:, 1::2, 6] = -v * x
    A[:, 1::2, 7] = -v * y
    A[:, 1::2, 8] = -v

    H = np.full((q, 3, 3), np.nan)
    idx = np.flatnonzero(ok)
    if idx.size:
        _, s, Vt = np.linalg.svd(A[idx])
        # rank < 8 when s[0] < 1e-12 or s[7] / s[0] < 1e-10
        small = s[:, 0] < 1e-12
        full = ~small & ~(s[:, 7] / np.where(small, 1.0, s[:, 0]) < 1e-10)
        idx = idx[full]
        Hn = Vt[full, -1].reshape(-1, 3, 3)
        Hs = np.linalg.inv(Tq[idx]) @ Hn @ Tp[idx]
        z = Hs[:, 2, 2]
        scaled = np.abs(z) > 1e-12
        Hs[scaled] /= z[scaled, None, None]
        H[idx] = Hs
    if single:
        if not ok[0]:
            raise DegenerateGeometry("point set collapses to a single point or is not finite")
        if np.isnan(H[0, 2, 2]):
            raise DegenerateGeometry("correspondences are rank deficient")
        return H[0]
    return H


@lru_cache(maxsize=None)
def _grid_centers(n: int) -> tuple[np.ndarray, int, int]:
    """Sample points in homogeneous border-square coords (x, y, 1), with two counts.

    The points are the payload cells, then the black ring, then the white
    ring; the counts are those of the payload and of the black ring. Built
    once per n; the array is shared, so it is read-only.
    """
    cell = 2.0 / (n + 2)

    def center(i: float, j: float) -> tuple[float, float, float]:
        # (i, j) indexes the (n+2) black-border grid; payload is the inner n x n
        return (-1.0 + (j + 0.5) * cell, 1.0 - (i + 0.5) * cell, 1.0)

    payload = [center(i + 1, j + 1) for i in range(n) for j in range(n)]
    black = [
        center(i, j)
        for i in range(n + 2)
        for j in range(n + 2)
        if i in (0, n + 1) or j in (0, n + 1)
    ]
    white = [
        center(i, j)
        for i in range(-1, n + 3)
        for j in range(-1, n + 3)
        if i in (-1, n + 2) or j in (-1, n + 2)
    ]
    points = np.array(payload + black + white)
    points.flags.writeable = False
    return points, len(payload), len(black)


def _bilinear_sample(px: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear sample at continuous pixel coords (..., 2); nearest-pixel fallback outside.

    Returns (values, inside_mask). The corner pixels are gathered from the
    uint8 frame; each converts to float64 exactly in the products.
    """
    h, w = px.shape
    x = uv[..., 0] - 0.5
    y = uv[..., 1] - 0.5
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.floor(xc).astype(int)
    y0 = np.floor(yc).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    vals = (
        px[y0, x0] * (1 - fx) * (1 - fy)
        + px[y0, x1] * fx * (1 - fy)
        + px[y1, x0] * (1 - fx) * fy
        + px[y1, x1] * fx * fy
    )
    return vals, inside


def _sample_grids(
    image: Image, H: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Payload bits and border reference means through a (q, 3, 3) stack of homographies.

    Returns (bits (q, n*n), black-ring means, white-ring means, sampled);
    sampled is False for a member that is not finite or whose whole
    sampling grid misses the image.
    """
    points, n_payload, n_black = _grid_centers(n)
    H, finite = _mask_non_finite(H, fill=np.eye(3))
    hom = points @ H.transpose(0, 2, 1)
    vals, inside = _bilinear_sample(image.pixels, hom[..., :2] / hom[..., 2:3])
    black_mean = vals[:, n_payload : n_payload + n_black].mean(axis=1)
    white_mean = vals[:, n_payload + n_black :].mean(axis=1)
    threshold = (black_mean + white_mean) / 2.0
    bits = vals[:, :n_payload] > threshold[:, None]
    return bits, black_mean, white_mean, finite & inside.any(axis=1)


def sample_payload(image: Image, H: np.ndarray, n: int) -> TagCode:
    """Read the n x n payload through a border-square-to-pixels homography.

    The bit threshold is the midpoint between the means of samples taken at
    black-border and white-border cell centers, so it adapts per tag.
    Raises SamplingFailed when H is not finite or the whole sampling grid
    misses the image.
    """
    bits, _, _, sampled = _sample_grids(image, np.asarray(H, dtype=float)[None], n)
    if not sampled[0]:
        raise SamplingFailed("payload sampling grid lies outside the image")
    return TagCode(n, tuple(bits[0].tolist()))


def pose_from_homography(
    H: np.ndarray, camera: CameraModel, tag_size: float
) -> RigidTransform | list[Optional[RigidTransform]]:
    """Tag-to-camera pose from a border-square ([-1,1]^2) to pixels homography.

    tag_size rescales the normalized square to meters. The rotation block is
    re-orthonormalized via SVD with determinant forced to +1; the scale sign
    is chosen so the tag sits in front of the camera (z > 0). One H gives a
    RigidTransform, and raises DegenerateGeometry when it is not finite or
    its first two columns vanish. A (q, 3, 3) stack gives a list of q
    poses, with None for such a member.
    """
    H = np.asarray(H, dtype=float)
    single = H.ndim == 2
    Hs, ok = _mask_non_finite(H.reshape(-1, 3, 3))
    # normalized [-1,1]^2 coords -> metric tag-plane coords
    Hm = Hs @ np.diag([2.0 / tag_size, 2.0 / tag_size, 1.0])
    M = np.linalg.inv(camera.intrinsic_matrix) @ Hm
    # each column's length is a 1x3 @ 3x1 product, the same BLAS dot as
    # np.linalg.norm of that column
    cols = M[:, :, :2].transpose(0, 2, 1).copy()
    norms = np.sqrt(cols[..., None, :] @ cols[..., :, None])[..., 0, 0]
    ok &= (norms >= 1e-12).all(axis=1)

    poses = [None] * len(M)
    idx = np.flatnonzero(ok)
    if idx.size:
        M = M[idx]
        s = 2.0 / norms[idx].sum(axis=1)
        s = np.where(s * M[:, 2, 2] < 0, -s, s)
        R0 = np.empty_like(M)
        R0[:, :, :2] = s[:, None, None] * M[:, :, :2]
        r1, r2 = R0[:, :, 0], R0[:, :, 1]
        # r1 x r2, each term in np.cross's order
        R0[:, 0, 2] = r1[:, 1] * r2[:, 2] - r1[:, 2] * r2[:, 1]
        R0[:, 1, 2] = r1[:, 2] * r2[:, 0] - r1[:, 0] * r2[:, 2]
        R0[:, 2, 2] = r1[:, 0] * r2[:, 1] - r1[:, 1] * r2[:, 0]
        U, _, Vt = np.linalg.svd(R0)
        D = np.zeros_like(U)
        D[:, 0, 0] = D[:, 1, 1] = 1.0
        D[:, 2, 2] = np.sign(np.linalg.det(U @ Vt))
        R = U @ D @ Vt
        t = s[:, None] * M[:, :, 2]
        for j, i in enumerate(idx):
            poses[i] = RigidTransform(R[j], t[j])
    if single:
        if poses[0] is None:
            raise DegenerateGeometry("homography columns vanish or are not finite")
        return poses[0]
    return poses


def _reprojection_rms(
    poses: list, camera: CameraModel, tag_size: float, corners: np.ndarray
) -> np.ndarray:
    """RMS corner residual, px, of each pose against its (4, 2) corners."""
    half = tag_size / 2.0
    local = np.column_stack([BORDER_UNIT_CORNERS * half, np.zeros(4)])
    R = np.stack([p.rotation for p in poses])
    t = np.stack([p.translation for p in poses])
    cam_pts = local @ R.transpose(0, 2, 1) + t[:, None, :]
    uv = np.stack(
        [
            camera.fx * cam_pts[..., 0] / cam_pts[..., 2] + camera.cx,
            camera.fy * cam_pts[..., 1] / cam_pts[..., 2] + camera.cy,
        ],
        axis=-1,
    )
    return np.sqrt(((uv - corners) ** 2).sum(axis=2).mean(axis=1))


def detect(
    image: Image,
    camera: CameraModel,
    family: TagFamily,
    tag_size: float,
    params: DetectorParams = DetectorParams(),
) -> list[Detection]:
    """Full pipeline: binarize, quads, decode, orientation-corrected pose.

    Quads that fail to decode within the correction budget are dropped
    silently. Detections come back sorted by (code_index, reproj_err).
    Each stage after extract_quads runs once over the stack of the quads
    still standing, except decode_code, which runs per quad.
    Raises ValueError unless tag_size is positive and finite.
    """
    if not 0 < tag_size < math.inf:
        raise ValueError("tag_size must be positive")
    binary = binarize(image, window=params.window, offset=params.offset)
    quads = extract_quads(
        binary,
        min_area=params.min_area,
        fill_min=params.fill_min,
        fill_max=params.fill_max,
    )
    if not quads:
        return []
    corners = np.stack([quad.corners for quad in quads])
    H = estimate_homography(BORDER_UNIT_CORNERS, corners)
    fitted = np.flatnonzero(~np.isnan(H[:, 2, 2]))
    bits, black_mean, white_mean, sampled = _sample_grids(image, H[fitted], family.n)
    # a real tag shows its white border clearly brighter than its black one
    kept = sampled & ~(white_mean - black_mean < params.min_contrast)
    decoded = []  # (quad index, DecodeResult)
    for i, b in zip(fitted[kept], bits[kept]):
        res = decode_code(TagCode(family.n, tuple(b.tolist())), family, params.t_max)
        if res is not None:
            decoded.append((i, res))
    if not decoded:
        return []
    # re-fit so each homography maps the *decoded* tag frame to pixels;
    # np.roll(c, r, axis=0)[k] is c[(k - r) % 4]
    quad_idx = np.array([i for i, _ in decoded])
    turns = np.array([res.rotation for _, res in decoded])
    rolled = corners[quad_idx[:, None], (np.arange(4) - turns[:, None]) % 4]
    poses = pose_from_homography(
        estimate_homography(BORDER_UNIT_CORNERS, rolled), camera, tag_size
    )
    front = [j for j, pose in enumerate(poses) if pose is not None and pose.translation[2] > 0]
    if not front:
        return []
    errs = _reprojection_rms([poses[j] for j in front], camera, tag_size, rolled[front])
    detections = []
    for j, err in zip(front, errs):
        i, res = decoded[j]
        detections.append(
            Detection(
                quad=quads[i],
                code_index=res.index,
                rotation=res.rotation,
                hamming_error=res.distance,
                pose=poses[j],
                reproj_err=float(err),
            )
        )
    detections.sort(key=lambda d: (d.code_index, d.reproj_err))
    return detections
