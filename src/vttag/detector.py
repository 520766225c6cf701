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

from dataclasses import dataclass
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


def binarize(image: Image, window: int = 15, offset: float = 10.0) -> Image:
    """Mark pixels strictly darker than their clipped local mean minus offset.

    Foreground (dark) pixels are 255 in the result. The local mean is taken
    over the (2*window+1)^2 neighborhood clipped to the image, from two
    separable running sums (down the columns, then along the rows).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    px = image.pixels
    h, w = px.shape
    # no running sum exceeds the image total, so this integer type is exact
    acc = np.min_scalar_type(255 * h * w)
    sums = _window_sums(_window_sums(px, window, acc).T, window, acc).T

    r = np.arange(h)
    c = np.arange(w)
    rows = np.minimum(r + window + 1, h) - np.maximum(r - window, 0)
    cols = np.minimum(c + window + 1, w) - np.maximum(c - window, 0)
    fg = px < sums / (rows[:, None] * cols[None, :]) - offset
    return Image(fg.astype(np.uint8) * np.uint8(255))


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


def _normalize_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Similarity transform taking pts to centroid 0 and RMS radius sqrt(2)."""
    centroid = pts.mean(axis=0)
    rms = np.sqrt(((pts - centroid) ** 2).sum(axis=1).mean())
    if rms < 1e-12:
        raise DegenerateGeometry("point set collapses to a single point")
    s = np.sqrt(2.0) / rms
    T = np.array(
        [[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]]
    )
    return (pts - centroid) * s, T


def estimate_homography(plane_pts, img_pts) -> np.ndarray:
    """Hartley-normalized direct linear transform from >= 4 correspondences.

    Returns H with H[2,2] scaled to 1 where that entry is nonzero.
    Raises DegenerateGeometry when the system has rank < 8 (e.g. collinear
    plane points).
    """
    plane_pts = np.asarray(plane_pts, dtype=float).reshape(-1, 2)
    img_pts = np.asarray(img_pts, dtype=float).reshape(-1, 2)
    if len(plane_pts) != len(img_pts) or len(plane_pts) < 4:
        raise ValueError("need >= 4 point correspondences")
    pn, Tp = _normalize_points(plane_pts)
    qn, Tq = _normalize_points(img_pts)

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
        raise DegenerateGeometry("correspondences are rank deficient")
    Hn = Vt[-1].reshape(3, 3)
    H = np.linalg.inv(Tq) @ Hn @ Tp
    if abs(H[2, 2]) > 1e-12:
        H = H / H[2, 2]
    return H


def _apply_h(H: np.ndarray, pts: np.ndarray) -> np.ndarray:
    hom = np.column_stack([pts, np.ones(len(pts))]) @ H.T
    return hom[:, :2] / hom[:, 2:3]


def _grid_centers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample points in border-square coords: payload cells, black ring, white ring."""
    cell = 2.0 / (n + 2)

    def center(i: float, j: float) -> tuple[float, float]:
        # (i, j) indexes the (n+2) black-border grid; payload is the inner n x n
        return (-1.0 + (j + 0.5) * cell, 1.0 - (i + 0.5) * cell)

    payload = np.array(
        [center(i + 1, j + 1) for i in range(n) for j in range(n)]
    )
    black = np.array(
        [
            center(i, j)
            for i in range(n + 2)
            for j in range(n + 2)
            if i in (0, n + 1) or j in (0, n + 1)
        ]
    )
    white = np.array(
        [
            center(i, j)
            for i in range(-1, n + 3)
            for j in range(-1, n + 3)
            if i in (-1, n + 2) or j in (-1, n + 2)
        ]
    )
    return payload, black, white


def _bilinear_sample(px: np.ndarray, uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear sample at continuous pixel coords; nearest-pixel fallback outside.

    Returns (values, inside_mask).
    """
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


def _sample_payload_stats(
    image: Image, H: np.ndarray, n: int
) -> tuple[TagCode, float, float]:
    """sample_payload plus the black/white border reference means."""
    payload, black, white = _grid_centers(n)
    all_pts = np.vstack([payload, black, white])
    uv = _apply_h(H, all_pts)
    vals, inside = _bilinear_sample(image.pixels, uv)
    if not inside.any():
        raise SamplingFailed("payload sampling grid lies outside the image")
    np_, nb = len(payload), len(black)
    pv = vals[:np_]
    black_mean = float(vals[np_ : np_ + nb].mean())
    white_mean = float(vals[np_ + nb :].mean())
    threshold = (black_mean + white_mean) / 2.0
    code = TagCode(n, tuple(bool(v > threshold) for v in pv))
    return code, black_mean, white_mean


def sample_payload(image: Image, H: np.ndarray, n: int) -> TagCode:
    """Read the n x n payload through a border-square-to-pixels homography.

    The bit threshold is the midpoint between the means of samples taken at
    black-border and white-border cell centers, so it adapts per tag.
    Raises SamplingFailed when the whole sampling grid misses the image.
    """
    return _sample_payload_stats(image, H, n)[0]


def pose_from_homography(
    H: np.ndarray, camera: CameraModel, tag_size: float
) -> RigidTransform:
    """Tag-to-camera pose from a border-square ([-1,1]^2) to pixels homography.

    tag_size rescales the normalized square to meters. The rotation block is
    re-orthonormalized via SVD with determinant forced to +1; the scale sign
    is chosen so the tag sits in front of the camera (z > 0).
    """
    # normalized [-1,1]^2 coords -> metric tag-plane coords
    Hm = H @ np.diag([2.0 / tag_size, 2.0 / tag_size, 1.0])
    M = np.linalg.inv(camera.intrinsic_matrix) @ Hm
    n1 = np.linalg.norm(M[:, 0])
    n2 = np.linalg.norm(M[:, 1])
    if n1 < 1e-12 or n2 < 1e-12:
        raise DegenerateGeometry("homography columns vanish")
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


def _reprojection_rms(
    pose: RigidTransform, camera: CameraModel, tag_size: float, corners: np.ndarray
) -> float:
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
    """
    binary = binarize(image, window=params.window, offset=params.offset)
    quads = extract_quads(
        binary,
        min_area=params.min_area,
        fill_min=params.fill_min,
        fill_max=params.fill_max,
    )
    detections = []
    for quad in quads:
        try:
            H = estimate_homography(BORDER_UNIT_CORNERS, quad.corners)
            observed, black_mean, white_mean = _sample_payload_stats(
                image, H, family.n
            )
        except (DegenerateGeometry, SamplingFailed):
            continue
        # a real tag shows its white border clearly brighter than its black one
        if white_mean - black_mean < params.min_contrast:
            continue
        res = decode_code(observed, family, params.t_max)
        if res is None:
            continue
        # re-fit so the homography maps the *decoded* tag frame to pixels
        rolled = np.roll(quad.corners, res.rotation, axis=0)
        try:
            H2 = estimate_homography(BORDER_UNIT_CORNERS, rolled)
            pose = pose_from_homography(H2, camera, tag_size)
        except DegenerateGeometry:
            continue
        if pose.translation[2] <= 0:
            continue
        err = _reprojection_rms(pose, camera, tag_size, rolled)
        detections.append(
            Detection(
                quad=quad,
                code_index=res.index,
                rotation=res.rotation,
                hamming_error=res.distance,
                pose=pose,
                reproj_err=err,
            )
        )
    detections.sort(key=lambda d: (d.code_index, d.reproj_err))
    return detections
