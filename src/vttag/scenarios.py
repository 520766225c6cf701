"""Canonical scenario builders: honest baseline and clone attack.

These return plain JSON-ready dicts (the ScenarioConfig wire format) so
they can be dumped to disk for the CLI or fed straight to run_scenario
via ScenarioConfig.from_json_dict.
"""

from __future__ import annotations

import numpy as np

__all__ = ["overhead_camera", "make_baseline_scenario", "make_clone_attack_scenario"]

_TAG_MOUNT_HEIGHT = 3.0  # roof height, m
_CAMERA_HEIGHT = 10.0


def overhead_camera(x: float, y: float, fx: float, width: int, height: int) -> dict:
    """A straight-down camera at (x, y, _CAMERA_HEIGHT), world x to the right.

    Camera axes: x = world x, y = -world y, z = down; the required
    camera-to-world rotation is diag(1, -1, -1).
    """
    return {
        "fx": fx,
        "fy": fx,
        "cx": width / 2.0,
        "cy": height / 2.0,
        "width": width,
        "height": height,
        "pose": {
            "R": [1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, -1.0],
            "t": [x, y, _CAMERA_HEIGHT],
        },
    }


def _roof_mount() -> dict:
    return {"R": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            "t": [0.0, 0.0, _TAG_MOUNT_HEIGHT]}


def make_baseline_scenario(seed: int = 0, ticks: int = 300, noise_sigma: float = 2.0) -> dict:
    """Honest run: one bus crossing an intersection watched by two RSUs.

    The bus drives along the x axis with a mild heading wiggle; the two
    overhead cameras cover overlapping halves of the path, so at least
    one sees the roof tag every tick of the session.
    """
    last = ticks - 1
    return {
        "ticks": ticks,
        "seed": seed,
        "family": {"n": 5, "d_min": 9, "count": 30, "seed": 42},
        "noise_sigma": noise_sigma,
        "network": {"latency": 1, "drop": 0.0},
        "rsus": [
            {"id": "rsu0", "camera": overhead_camera(-1.0, 0.0, 350.0, 320, 240)},
            {"id": "rsu1", "camera": overhead_camera(1.0, 0.0, 350.0, 320, 240)},
        ],
        "bus": {
            "id": "bus",
            "initial_code": 0,
            "tag_size": 1.6,
            "mount": _roof_mount(),
            "enter_tick": 2,
            "leave_tick": ticks - 2,
            "trajectory": [
                {"tick": 0, "x": -2.2, "y": 0.0, "yaw": -0.10},
                {"tick": ticks // 2, "x": 0.0, "y": 0.15, "yaw": 0.05},
                {"tick": last, "x": 2.2, "y": 0.0, "yaw": 0.15},
            ],
        },
        "attackers": [],
    }


def make_clone_attack_scenario(
    seed: int, reaction_latency: int, ticks: int = 40
) -> dict:
    """Clone attack: a FOLLOWER shows the bus's identity under one RSU.

    The attacker starts on the client code, so confusion is raised as
    soon as the RSU activates. Per-seed jitter moves both vehicles and
    reshuffles the challenge codes, giving 100 genuinely distinct runs.
    """
    gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, 0xA77AC4]))
    )
    jx = float(gen.uniform(-0.2, 0.2))
    jy = float(gen.uniform(-0.15, 0.15))
    initial_code = int(gen.integers(0, 30))
    last = ticks - 1
    return {
        "ticks": ticks,
        "seed": seed,
        "family": {"n": 5, "d_min": 9, "count": 30, "seed": 42},
        "noise_sigma": 1.0,
        "network": {"latency": 1, "drop": 0.0},
        "rsus": [
            {"id": "rsu0", "camera": overhead_camera(0.0, 0.0, 260.0, 240, 180)},
        ],
        "bus": {
            "id": "bus",
            "initial_code": initial_code,
            "tag_size": 1.6,
            "mount": _roof_mount(),
            "enter_tick": 2,
            "leave_tick": ticks - 2,
            "trajectory": [
                {"tick": 0, "x": -1.6 + jx, "y": 0.7 + jy, "yaw": 0.0},
                {"tick": last, "x": -0.4 + jx, "y": 0.7 + jy, "yaw": 0.1},
            ],
        },
        "attackers": [
            {
                "id": "atk0",
                "strategy": "FOLLOWER",
                "reaction_latency": reaction_latency,
                "initial_code": initial_code,
                "tag_size": 1.6,
                "mount": _roof_mount(),
                "trajectory": [
                    {"tick": 0, "x": 1.0 + jx, "y": -0.9 + jy, "yaw": 0.0},
                    {"tick": last, "x": 1.6 + jx, "y": -0.9 + jy, "yaw": 0.0},
                ],
            }
        ],
    }
