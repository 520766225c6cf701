"""Rigid transform and planar helpers."""

from __future__ import annotations

import numpy as np
import pytest

from vttag.transforms import RigidTransform, look_at, planar_to_world, wrap_angle


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRigidTransform:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        assert np.allclose(RigidTransform.identity().apply(p), p)

    def test_compose_right_to_left(self):
        a = RigidTransform(rot_z(0.3), np.array([1.0, 0.0, 0.0]))
        b = RigidTransform(rot_z(-0.1), np.array([0.0, 2.0, 0.0]))
        p = np.array([0.5, -0.7, 1.1])
        assert np.allclose((a @ b).apply(p), a.apply(b.apply(p)))

    def test_inverse(self):
        t = RigidTransform(rot_z(1.2), np.array([3.0, -1.0, 0.5]))
        p = np.array([0.2, 0.4, -0.6])
        assert np.allclose(t.inverse().apply(t.apply(p)), p)
        assert np.allclose((t @ t.inverse()).rotation, np.eye(3))

    def test_apply_stack(self):
        t = RigidTransform(rot_z(0.5), np.array([1.0, 2.0, 3.0]))
        pts = np.arange(12, dtype=float).reshape(4, 3)
        out = t.apply(pts)
        assert out.shape == (4, 3)
        assert np.allclose(out[2], t.apply(pts[2]))

    def test_validate_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.5, np.zeros(3)).validate()

    def test_validate_rejects_reflection(self):
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["rotation", "translation"])
    def test_validate_rejects_non_finite(self, part, bad):
        # a NaN rotation entry once passed, since NaN > tol is False
        r, t = np.eye(3), np.zeros(3)
        (r if part == "rotation" else t)[0] = bad
        with pytest.raises(ValueError, match="finite"):
            RigidTransform(r, t).validate()

    def test_json_round_trip(self):
        t = RigidTransform(rot_z(0.9), np.array([0.1, 0.2, 0.3]))
        back = RigidTransform.from_json_dict(t.to_json_dict())
        assert np.allclose(back.rotation, t.rotation)
        assert np.allclose(back.translation, t.translation)

    def test_arrays_read_only(self):
        t = RigidTransform.identity()
        with pytest.raises(ValueError):
            t.rotation[0, 0] = 2.0


class TestLookAt:
    def test_optical_axis_hits_target(self):
        pose = look_at(eye=(1.0, 2.0, 8.0), target=(3.0, -1.0, 0.0))
        target_cam = pose.inverse().apply(np.array([3.0, -1.0, 0.0]))
        # target on the +z axis of the camera
        assert target_cam[2] > 0
        assert np.allclose(target_cam[:2], 0.0, atol=1e-12)

    def test_world_up_maps_to_negative_y(self):
        pose = look_at(eye=(0.0, -5.0, 2.0), target=(0.0, 0.0, 2.0))
        up_cam = pose.rotation.T @ np.array([0.0, 0.0, 1.0])
        assert up_cam[1] < 0  # y is down in the camera frame

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            look_at(eye=(0, 0, 0), target=(0, 0, 0))
        with pytest.raises(ValueError):
            look_at(eye=(0, 0, 0), target=(0, 0, 5), up=(0, 0, 1))


class TestPlanarToWorld:
    def test_forward_axis_is_yaw(self):
        t = planar_to_world(1.0, 2.0, 0.7, z=3.0)
        fwd = t.rotation[:, 0]
        assert np.allclose(fwd, [np.cos(0.7), np.sin(0.7), 0.0])
        assert np.allclose(t.translation, [1.0, 2.0, 3.0])

    def test_rotation_valid(self):
        planar_to_world(0, 0, 2.5).validate()


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (np.pi, np.pi),
            (-np.pi, np.pi),
            (3 * np.pi, np.pi),
            (2 * np.pi + 0.1, 0.1),
            (-0.2, -0.2),
        ],
    )
    def test_values(self, raw, expected):
        assert np.isclose(wrap_angle(raw), expected)
