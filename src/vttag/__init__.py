"""Identity-secured fiducial tags for vehicle-road cooperative localization.

Synthetic end-to-end stack: Hamming-separated tag families, a pinhole
renderer, a quad/homography detector, planar pose fusion, the
challenge-response anti-spoofing protocol, and a deterministic scenario
simulator.
"""

from .codes import (
    DecodeResult,
    TagCode,
    TagFamily,
    decode_code,
    generate_family,
    hamming,
    identity_space_size,
    rotate90,
)
from .detector import Detection, Quad, detect
from .errors import (
    DegenerateProjection,
    GenerationExhausted,
    ScenarioError,
    VttagError,
)
from .imaging import CameraModel, Image, PlacedTag, render_scene, render_tag_bitmap
from .localization import (
    FusedPose,
    PlanarPose,
    PoseEstimate,
    fuse_poses,
    vehicle_pose_from_detection,
)
from .protocol import (
    AttackerState,
    AttackerStrategy,
    BusPhase,
    BusState,
    MsgKind,
    ProtocolConfig,
    ProtocolMessage,
    RsuState,
    SyncVerdict,
    attacker_step,
    bus_step,
    detect_confusion,
    resolve_sync,
    rsu_step,
)
from .simulate import ScenarioConfig, SimReport, compute_metrics, run_scenario
from .transforms import RigidTransform, look_at, planar_to_world, wrap_angle

__version__ = "0.1.0"

__all__ = [
    "TagCode",
    "TagFamily",
    "DecodeResult",
    "rotate90",
    "hamming",
    "generate_family",
    "decode_code",
    "identity_space_size",
    "CameraModel",
    "PlacedTag",
    "Image",
    "render_tag_bitmap",
    "render_scene",
    "Quad",
    "Detection",
    "detect",
    "PlanarPose",
    "PoseEstimate",
    "FusedPose",
    "vehicle_pose_from_detection",
    "fuse_poses",
    "MsgKind",
    "ProtocolMessage",
    "ProtocolConfig",
    "BusPhase",
    "BusState",
    "RsuState",
    "AttackerStrategy",
    "AttackerState",
    "SyncVerdict",
    "detect_confusion",
    "resolve_sync",
    "bus_step",
    "rsu_step",
    "attacker_step",
    "ScenarioConfig",
    "SimReport",
    "run_scenario",
    "compute_metrics",
    "RigidTransform",
    "look_at",
    "planar_to_world",
    "wrap_angle",
    "VttagError",
    "GenerationExhausted",
    "DegenerateProjection",
    "ScenarioError",
]
