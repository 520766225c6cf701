"""Planar vehicle localization from tag detections.

A roadside camera that detects a vehicle-top tag knows the tag's pose in
its own frame; combined with the camera's world pose and the tag's mount
pose on the vehicle this pins down the vehicle's planar pose (x, y, yaw).
Multiple single-view estimates are fused by reprojection-weighted
averaging, with the yaw handled circularly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import Detection
from .errors import DegenerateProjection
from .imaging import CameraModel
from .transforms import RigidTransform, wrap_angle

__all__ = [
    "PlanarPose",
    "PoseEstimate",
    "FusedPose",
    "WEIGHT_EPS",
    "detection_weight",
    "vehicle_pose_from_detection",
    "fuse_poses",
]

# Reject planar projection when the vehicle forward axis is within this
# angle of vertical: its ground-plane shadow no longer defines a heading.
_MIN_FORWARD_TILT_DEG = 5.0

# Weight regularizer: weight = 1 / (WEIGHT_EPS + reproj_err) keeps
# near-perfect detections from dominating the fusion.
WEIGHT_EPS = 0.1


@dataclass(frozen=True)
class PlanarPose:
    """Ground-plane pose: position in meters, yaw in radians, wrapped to (-pi, pi]."""

    x: float
    y: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "yaw": self.yaw}


@dataclass(frozen=True)
class PoseEstimate:
    """One RSU's world-framed planar estimate, tagged with origin and time."""

    pose: PlanarPose
    weight: float
    source: str  # RSU identifier
    timestamp: int  # simulation tick the frame was captured

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "pose": self.pose.to_json_dict(),
            "weight": float(self.weight),
            "source": self.source,
            "timestamp": int(self.timestamp),
        }


@dataclass(frozen=True)
class FusedPose:
    """Weighted combination of single-view estimates plus dispersion diagnostics."""

    pose: PlanarPose
    n_views: int
    x_std: float  # weighted std of input x, m
    y_std: float  # weighted std of input y, m
    yaw_std: float  # circular standard deviation, rad


def detection_weight(reproj_err: float) -> float:
    """Fusion weight of a detection: 1 / (WEIGHT_EPS + reproj_err)."""
    return 1.0 / (WEIGHT_EPS + float(reproj_err))


def vehicle_pose_from_detection(
    det: Detection,
    camera: CameraModel,
    mount: RigidTransform,
) -> PlanarPose:
    """Planar vehicle pose implied by a single detection.

    `mount` is the tag-to-vehicle transform of the roof tag. Yaw is the
    world-xy image of the vehicle x axis, from the chain tag->camera (the
    detection), camera->world and the inverted mount; raises
    DegenerateProjection when that axis is within 5 degrees of vertical.
    (x, y) is the tag centre's world position less the mount's planar
    offset turned by the yaw: a small tag's tilt is poorly conditioned,
    and the mount's lever arm would carry its error into the position,
    while the tag's translation is well conditioned.
    """
    vehicle_to_world = camera.pose @ det.pose @ mount.inverse()
    fwd = vehicle_to_world.rotation[:, 0]
    planar_norm = float(np.hypot(fwd[0], fwd[1]))
    if planar_norm < np.sin(np.radians(_MIN_FORWARD_TILT_DEG)):
        raise DegenerateProjection(
            "vehicle forward axis within "
            f"{_MIN_FORWARD_TILT_DEG} degrees of vertical"
        )
    yaw = float(np.arctan2(fwd[1], fwd[0]))
    tag = camera.pose.apply(det.pose.translation)
    c, s = np.cos(yaw), np.sin(yaw)
    mx, my = mount.translation[:2]
    return PlanarPose(float(tag[0] - c * mx + s * my), float(tag[1] - s * mx - c * my), yaw)


def fuse_poses(estimates: Sequence[PoseEstimate]) -> FusedPose:
    """Weighted mean of planar estimates; yaw fused circularly.

    Position is a weighted arithmetic mean; yaw is the argument of the
    weighted mean unit phasor, with dispersion reported as the circular
    standard deviation sqrt(-2 ln R). A zero total weight falls back to
    the unweighted mean. The result is invariant to input order.

    Raises ValueError on an empty list.
    """
    if not estimates:
        raise ValueError("fuse_poses needs at least one estimate")
    # canonical order makes the floating-point sums bitwise identical for
    # any input permutation
    estimates = sorted(
        estimates,
        key=lambda e: (e.source, e.timestamp, e.pose.x, e.pose.y, e.pose.yaw, e.weight),
    )
    w = np.array([e.weight for e in estimates], dtype=float)
    if (w < 0).any():
        raise ValueError("weights must be non-negative")
    if w.sum() <= 0.0:
        w = np.ones(len(estimates))
    xs = np.array([e.pose.x for e in estimates])
    ys = np.array([e.pose.y for e in estimates])
    yaws = np.array([e.pose.yaw for e in estimates])
    wsum = float(w.sum())
    x = float((w * xs).sum() / wsum)
    y = float((w * ys).sum() / wsum)

    c = float((w * np.cos(yaws)).sum() / wsum)
    s = float((w * np.sin(yaws)).sum() / wsum)
    r = float(np.hypot(c, s))
    if r < 1e-12:
        # perfectly balanced opposing headings: fall back to the heaviest view
        yaw = float(yaws[int(np.argmax(w))])
        yaw_std = float(np.pi)
    else:
        yaw = float(np.arctan2(s, c))
        yaw_std = float(np.sqrt(max(0.0, -2.0 * np.log(min(r, 1.0)))))

    x_std = float(np.sqrt((w * (xs - x) ** 2).sum() / wsum))
    y_std = float(np.sqrt((w * (ys - y) ** 2).sum() / wsum))
    return FusedPose(
        pose=PlanarPose(x, y, yaw),
        n_views=len(estimates),
        x_std=x_std,
        y_std=y_std,
        yaw_std=yaw_std,
    )
