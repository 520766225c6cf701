"""Planar pose recovery and multi-view fusion."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vttag.detector import Detection, Quad
from vttag.errors import DegenerateProjection
from vttag.imaging import CameraModel
from vttag.localization import (
    PlanarPose,
    PoseEstimate,
    detection_weight,
    fuse_poses,
    vehicle_pose_from_detection,
)
from vttag.transforms import RigidTransform, planar_to_world, wrap_angle


def fake_detection(pose: RigidTransform, reproj=0.3) -> Detection:
    quad = Quad(corners=np.array([[0, 0], [0, 9], [9, 9], [9, 0.0]]))
    return Detection(
        quad=quad, code_index=0, rotation=0, hamming_error=0, pose=pose,
        reproj_err=reproj,
    )


def overhead_camera() -> CameraModel:
    # camera at the world origin, 10 m up, looking straight down
    pose = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.array([0.0, 0.0, 10.0]))
    return CameraModel(fx=400, fy=400, cx=160, cy=120, width=320, height=240, pose=pose)


def est(x, y, yaw, w=1.0, source="rsu0", t=0) -> PoseEstimate:
    return PoseEstimate(pose=PlanarPose(x, y, yaw), weight=w, source=source, timestamp=t)


class TestPlanarPose:
    def test_yaw_wrapped(self):
        assert PlanarPose(0, 0, 3 * np.pi).yaw == pytest.approx(np.pi)


class TestVehiclePoseFromDetection:
    def test_identity_mount_overhead(self):
        # tag directly below the camera at known (X, Y), yawed 0.3
        cam = overhead_camera()
        veh = planar_to_world(2.0, 1.0, 0.3)
        mount = RigidTransform.identity()
        tag_world = veh @ mount
        det = fake_detection(cam.pose.inverse() @ tag_world)
        pp = vehicle_pose_from_detection(det, cam, mount)
        assert pp.x == pytest.approx(2.0, abs=1e-9)
        assert pp.y == pytest.approx(1.0, abs=1e-9)
        assert pp.yaw == pytest.approx(0.3, abs=1e-9)

    def test_z_offset_mount_invisible_in_plane(self):
        cam = overhead_camera()
        veh = planar_to_world(-1.0, 0.5, -0.7)
        mount = RigidTransform(np.eye(3), np.array([0.0, 0.0, 3.1]))
        det = fake_detection(cam.pose.inverse() @ (veh @ mount))
        pp = vehicle_pose_from_detection(det, cam, mount)
        assert (pp.x, pp.y) == (pytest.approx(-1.0), pytest.approx(0.5))
        assert pp.yaw == pytest.approx(-0.7)

    def test_vertical_forward_axis_degenerate(self):
        cam = overhead_camera()
        # vehicle pitched nose-straight-up: forward axis along world z
        r = np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]]).T
        veh = RigidTransform(r, np.array([0.0, 0.0, 0.0]))
        det = fake_detection(cam.pose.inverse() @ veh)
        with pytest.raises(DegenerateProjection):
            vehicle_pose_from_detection(det, cam, RigidTransform.identity())


class TestDetectionWeight:
    def test_formula(self):
        assert detection_weight(0.0) == pytest.approx(10.0)
        assert detection_weight(0.9) == pytest.approx(1.0)

    def test_estimate_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            est(0, 0, 0, w=-1.0)


class TestFusePoses:
    def test_single_estimate_is_identity(self):
        f = fuse_poses([est(1.0, 2.0, 0.5)])
        assert f.pose == PlanarPose(1.0, 2.0, 0.5)
        assert f.x_std == 0.0 and f.y_std == 0.0
        assert f.yaw_std == pytest.approx(0.0, abs=1e-7)

    def test_circular_wraparound(self):
        f = fuse_poses(
            [est(0, 0, np.radians(179)), est(0, 0, np.radians(-179))]
        )
        assert abs(wrap_angle(f.pose.yaw - np.pi)) < 1e-9

    def test_equal_weight_positions_average(self):
        f = fuse_poses([est(0, 0, 0), est(2, 0, 0)])
        assert f.pose.x == pytest.approx(1.0)

    def test_weights_bias_result(self):
        f = fuse_poses([est(0, 0, 0, w=3.0), est(4, 0, 0, w=1.0)])
        assert f.pose.x == pytest.approx(1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fuse_poses([])

    def test_zero_total_weight_unweighted(self):
        f = fuse_poses([est(0, 0, 0, w=0.0), est(2, 0, 0, w=0.0)])
        assert f.pose.x == pytest.approx(1.0)

    @given(st.permutations(range(5)))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariant(self, order):
        base = [
            est(0.0, 1.0, 0.1, w=1.0),
            est(2.0, -1.0, 0.3, w=2.0),
            est(-1.0, 0.5, -0.2, w=0.5),
            est(0.7, 0.7, 0.0, w=1.5),
            est(1.1, -0.4, 0.25, w=0.8),
        ]
        f1 = fuse_poses(base)
        f2 = fuse_poses([base[i] for i in order])
        assert f1 == f2

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10), st.floats(-10, 10), st.floats(-3, 3),
                st.floats(0.1, 5.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_position_in_convex_hull(self, rows):
        ests = [est(x, y, yaw, w=w) for x, y, yaw, w in rows]
        f = fuse_poses(ests)
        xs = [e.pose.x for e in ests]
        ys = [e.pose.y for e in ests]
        assert min(xs) - 1e-9 <= f.pose.x <= max(xs) + 1e-9
        assert min(ys) - 1e-9 <= f.pose.y <= max(ys) + 1e-9

    def test_rigid_consistency(self):
        # transforming every input by a common planar rigid motion moves
        # the fused output by exactly that motion
        ests = [
            est(0.0, 1.0, 0.1, w=1.0),
            est(2.0, -1.0, 0.3, w=2.0),
            est(-1.0, 0.5, -0.2, w=0.5),
        ]
        dth, dx, dy = 0.77, 3.0, -2.0
        c, s = np.cos(dth), np.sin(dth)

        def move(e):
            x = c * e.pose.x - s * e.pose.y + dx
            y = s * e.pose.x + c * e.pose.y + dy
            return est(x, y, e.pose.yaw + dth, w=e.weight)

        f0 = fuse_poses(ests)
        f1 = fuse_poses([move(e) for e in ests])
        assert f1.pose.x == pytest.approx(c * f0.pose.x - s * f0.pose.y + dx, abs=1e-9)
        assert f1.pose.y == pytest.approx(s * f0.pose.x + c * f0.pose.y + dy, abs=1e-9)
        assert abs(wrap_angle(f1.pose.yaw - f0.pose.yaw - dth)) < 1e-9
        assert f1.yaw_std == pytest.approx(f0.yaw_std, abs=1e-9)

    def test_opposing_headings_fall_back(self):
        f = fuse_poses([est(0, 0, 0.0, w=2.0), est(0, 0, np.pi, w=2.0)])
        assert f.yaw_std == pytest.approx(np.pi)

