"""Rigid 3-D transforms (rotation + translation) used across the geometry stack."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RigidTransform", "look_at", "planar_to_world", "wrap_angle"]

_ORTHO_TOL = 1e-9


def wrap_angle(a: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    a = float(a) % (2.0 * np.pi)
    if a > np.pi:
        a -= 2.0 * np.pi
    return a


@dataclass(frozen=True)
class RigidTransform:
    """Maps points as x -> R @ x + t. Composition reads right-to-left."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float).reshape(3, 3)
        t = np.array(self.translation, dtype=float).reshape(3)
        r.flags.writeable = False
        t.flags.writeable = False
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def validate(self, tol: float = _ORTHO_TOL) -> None:
        """Raise ValueError unless every entry is finite and the rotation is proper orthonormal."""
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise ValueError("rotation and translation must be finite")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > tol:
            raise ValueError(f"rotation not orthonormal (deviation {err:.3e} > {tol:.1e})")
        if np.linalg.det(self.rotation) < 0:
            raise ValueError("rotation must have determinant +1")

    def __matmul__(self, other: "RigidTransform") -> "RigidTransform":
        """self o other: apply `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack (..., 3)."""
        p = np.asarray(points, dtype=float)
        return p @ self.rotation.T + self.translation

    def to_json_dict(self) -> dict:
        return {
            "R": [float(v) for v in self.rotation.reshape(-1)],
            "t": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RigidTransform":
        return cls(np.array(d["R"], dtype=float).reshape(3, 3), np.array(d["t"], dtype=float))


def look_at(eye, target, up=(0.0, 0.0, 1.0)) -> RigidTransform:
    """Camera-to-world pose for a camera at `eye` whose optical axis points at `target`.

    Camera convention: z forward, x right, y down (so `up` in the world maps
    to -y in the image).
    """
    eye = np.asarray(eye, dtype=float)
    fwd = np.asarray(target, dtype=float) - eye
    nf = np.linalg.norm(fwd)
    if nf < 1e-12:
        raise ValueError("eye and target coincide")
    z = fwd / nf
    upv = np.asarray(up, dtype=float)
    x = np.cross(z, upv)
    nx = np.linalg.norm(x)
    if nx < 1e-12:
        raise ValueError("view direction parallel to up vector")
    x /= nx
    y = np.cross(z, x)
    return RigidTransform(np.column_stack([x, y, z]), eye)


def planar_to_world(x: float, y: float, yaw: float, z: float = 0.0) -> RigidTransform:
    """Vehicle-to-world transform for a ground pose (x, y, yaw) at height z."""
    c, s = np.cos(yaw), np.sin(yaw)
    r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return RigidTransform(r, np.array([x, y, z]))
