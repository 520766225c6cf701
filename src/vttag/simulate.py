"""Deterministic tick-driven simulation of the cooperative-localization loop.

Moves the bus and any attackers along waypoint trajectories, renders each
roadside camera's frame, runs detection, shuttles protocol messages over
a latent and optionally lossy channel, and distills an event log plus
metrics. Everything is a pure function of the scenario config: all
randomness flows from config.seed through counter-based generators.

step_session owns the order of a tick; run_scenario supplies it rendered
frames, and the protocol tests supply abstract ones. A camera's sensor
noise depends on nothing in the scene, so with noise on, each camera's
field for tick t + 1 is drawn on one worker thread while tick t is
detected and stepped; frames are the same to the bit.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .codes import TagFamily, generate_family
from .detector import detect
from .errors import DegenerateProjection, ScenarioError
from .imaging import CameraModel, PlacedTag, frame_noise, render_scene
from .localization import PlanarPose, PoseEstimate, detection_weight, vehicle_pose_from_detection
from .protocol import (
    AttackerState,
    AttackerStrategy,
    BusState,
    ProtocolConfig,
    ProtocolMessage,
    RsuState,
    attacker_step,
    bus_screen,
    bus_step,
    make_bus_state,
    rsu_step,
)
from .transforms import RigidTransform, planar_to_world, wrap_angle

__all__ = [
    "Trajectory",
    "RsuSpec",
    "VehicleSpec",
    "AttackerSpec",
    "NetworkSpec",
    "ScenarioConfig",
    "Channel",
    "SimReport",
    "Session",
    "step_session",
    "run_scenario",
    "compute_metrics",
]


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear planar trajectory through (tick, x, y, yaw) waypoints."""

    waypoints: tuple  # of (tick, PlanarPose)

    def __post_init__(self):
        wps = tuple(sorted(self.waypoints, key=lambda w: w[0]))
        if not wps:
            raise ScenarioError("trajectory needs at least one waypoint")
        ticks = [w[0] for w in wps]
        if len(set(ticks)) != len(ticks):
            raise ScenarioError("duplicate trajectory waypoint ticks")
        if not all(math.isfinite(v) for _, p in wps for v in (p.x, p.y, p.yaw)):
            raise ScenarioError("trajectory waypoint x, y and yaw must be finite")
        object.__setattr__(self, "waypoints", wps)

    @classmethod
    def from_json_list(cls, items) -> "Trajectory":
        return cls(
            tuple(
                (int(w["tick"]), PlanarPose(w["x"], w["y"], w["yaw"])) for w in items
            )
        )

    def to_json_list(self) -> list:
        return [
            {"tick": t, "x": p.x, "y": p.y, "yaw": p.yaw} for t, p in self.waypoints
        ]

    @cached_property
    def _arrays(self) -> tuple:
        """(ticks, xs, ys, unwrapped yaws) of the waypoints, built once."""
        wps = self.waypoints
        return (
            np.array([w[0] for w in wps], dtype=float),
            np.array([w[1].x for w in wps]),
            np.array([w[1].y for w in wps]),
            np.unwrap(np.array([w[1].yaw for w in wps])),
        )

    def at(self, tick: float) -> PlanarPose:
        """Interpolated pose; clamps outside the waypoint range.

        Yaw interpolates along the unwrapped angle sequence so a path
        crossing the ±pi seam turns the short way.
        """
        ts, xs, ys, yaws = self._arrays
        t = float(np.clip(tick, ts[0], ts[-1]))
        return PlanarPose(
            float(np.interp(t, ts, xs)),
            float(np.interp(t, ts, ys)),
            float(np.interp(t, ts, yaws)),
        )


@dataclass(frozen=True)
class RsuSpec:
    id: str
    camera: CameraModel


def _validate_mount(agent_id: str, mount: RigidTransform) -> None:
    try:
        mount.validate()
    except ValueError as exc:
        raise ScenarioError(f"mount of {agent_id}: {exc}") from exc


@dataclass(frozen=True)
class VehicleSpec:
    """The bus: roof tag mount, geometry, session window, and motion."""

    id: str
    initial_code: int
    tag_size: float
    mount: RigidTransform  # tag -> vehicle
    trajectory: Trajectory
    enter_tick: int
    leave_tick: int

    def __post_init__(self):
        if not 0 < self.tag_size < math.inf:
            raise ScenarioError(f"tag_size of {self.id} must be positive")
        _validate_mount(self.id, self.mount)


@dataclass(frozen=True)
class AttackerSpec:
    id: str
    strategy: AttackerStrategy
    reaction_latency: int
    initial_code: int
    tag_size: float
    mount: RigidTransform
    trajectory: Trajectory

    def __post_init__(self):
        if self.reaction_latency < 0:
            raise ScenarioError(f"reaction_latency of {self.id} must be >= 0")
        if not 0 < self.tag_size < math.inf:
            raise ScenarioError(f"tag_size of {self.id} must be positive")
        _validate_mount(self.id, self.mount)


@dataclass(frozen=True)
class NetworkSpec:
    latency: int = 1  # ticks, per link
    drop: float = 0.0  # per-message drop probability

    def __post_init__(self):
        # a tick's messages are delivered before its agents step, so a
        # message due in the tick it was sent would never arrive
        if self.latency < 1:
            raise ScenarioError("network latency must be >= 1")
        if not 0.0 <= self.drop <= 1.0:
            raise ScenarioError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    ticks: int
    seed: int
    family_n: int
    family_d_min: int
    family_count: int
    family_seed: int
    rsus: tuple
    bus: VehicleSpec
    attackers: tuple = ()
    network: NetworkSpec = field(default_factory=NetworkSpec)
    noise_sigma: float = 0.0
    max_rounds: int = 3
    delta_sync: int = 5

    def __post_init__(self):
        object.__setattr__(self, "rsus", tuple(self.rsus))
        object.__setattr__(self, "attackers", tuple(self.attackers))
        if self.ticks < 1:
            raise ScenarioError("ticks must be >= 1")
        if not self.rsus:
            raise ScenarioError("at least one RSU required")
        if self.max_rounds < 1:
            raise ScenarioError("max_rounds must be >= 1")
        if self.delta_sync < 1:
            raise ScenarioError("delta_sync must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise ScenarioError("noise_sigma must be finite and >= 0")
        ids = [r.id for r in self.rsus] + [a.id for a in self.attackers] + [self.bus.id]
        if len(set(ids)) != len(ids):
            raise ScenarioError("agent ids must be unique")
        if not 0 <= self.bus.enter_tick < self.bus.leave_tick <= self.ticks:
            raise ScenarioError("need 0 <= enter < leave <= ticks")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        try:
            fam = d["family"]
            bus = d["bus"]
            rsus = tuple(
                RsuSpec(id=str(r["id"]), camera=CameraModel.from_json_dict(r["camera"]))
                for r in d["rsus"]
            )
            attackers = tuple(
                AttackerSpec(
                    id=str(a["id"]),
                    strategy=AttackerStrategy(a["strategy"]),
                    reaction_latency=int(a.get("reaction_latency", 1)),
                    initial_code=int(a["initial_code"]),
                    tag_size=float(a["tag_size"]),
                    mount=RigidTransform.from_json_dict(a["mount"]),
                    trajectory=Trajectory.from_json_list(a["trajectory"]),
                )
                for a in d.get("attackers", [])
            )
            net = d.get("network", {})
            return cls(
                ticks=int(d["ticks"]),
                seed=int(d["seed"]),
                family_n=int(fam["n"]),
                family_d_min=int(fam["d_min"]),
                family_count=int(fam["count"]),
                family_seed=int(fam["seed"]),
                rsus=rsus,
                bus=VehicleSpec(
                    id=str(bus.get("id", "bus")),
                    initial_code=int(bus["initial_code"]),
                    tag_size=float(bus["tag_size"]),
                    mount=RigidTransform.from_json_dict(bus["mount"]),
                    trajectory=Trajectory.from_json_list(bus["trajectory"]),
                    enter_tick=int(bus["enter_tick"]),
                    leave_tick=int(bus["leave_tick"]),
                ),
                attackers=attackers,
                network=NetworkSpec(
                    latency=int(net.get("latency", 1)),
                    drop=float(net.get("drop", 0.0)),
                ),
                noise_sigma=float(d.get("noise_sigma", 0.0)),
                max_rounds=int(d.get("max_rounds", 3)),
                delta_sync=int(d.get("delta_sync", 5)),
            )
        # AttributeError: a section that is not an object; OverflowError:
        # Infinity in an integer field
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ScenarioError(f"invalid scenario config: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


class Channel:
    """Latent, lossy, per-link-FIFO message transport.

    Drops are decided at send time from a dedicated counter-based stream,
    so delivery is independent of processing order. Counters satisfy
    sent == delivered + dropped at all times once the queue drains.
    """

    def __init__(self, latency: int, drop: float, seed: int):
        self.latency = latency
        self.drop = drop
        self._gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence([seed, 0x5E7D]))
        )
        self._queue: list = []  # (deliver_at, message), in send order
        self.sent = 0
        self.delivered = 0
        self.dropped = 0

    def send(self, msg: ProtocolMessage, now: int) -> Optional[int]:
        """Queue a message; returns its delivery tick, or None if dropped."""
        self.sent += 1
        if self.drop > 0 and float(self._gen.random()) < self.drop:
            self.dropped += 1
            return None
        deliver_at = now + self.latency
        self._queue.append((deliver_at, msg))
        return deliver_at

    def deliver(self, now: int) -> list:
        """Messages due exactly now, in send order."""
        due = [m for at, m in self._queue if at == now]
        self._queue = [(at, m) for at, m in self._queue if at != now]
        self.delivered += len(due)
        return due


@dataclass(frozen=True)
class SimReport:
    """Full record of one run: config echo, events, truth, metrics."""

    config_echo: dict
    events: tuple  # json-ready dicts, in emission order
    truth: tuple  # per-tick ground-truth records
    metrics: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "metrics": self.metrics,
            "truth": list(self.truth),
            "n_events": len(self.events),
        }

    def report_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def events_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.events)


def _estimate_from_detection(cameras, mount, rsu_id, tick, det):
    try:
        pose = vehicle_pose_from_detection(det, cameras[rsu_id], mount)
    except DegenerateProjection:
        return None
    return PoseEstimate(
        pose=pose,
        weight=detection_weight(det.reproj_err),
        source=rsu_id,
        timestamp=tick,
    )


def compute_metrics(events, truth, config: ScenarioConfig) -> dict:
    """Aggregate localization and security metrics from the event log.

    Position error compares each fused estimate with the ground-truth bus
    pose at the *capture* tick it was computed from. Coverage is the
    fraction of active-session ticks with a fused estimate.
    """
    truth_by_tick = {rec["tick"]: rec for rec in truth}
    pos_errors = []
    yaw_errors = []
    covered = set()
    for ev in events:
        if ev["event"] != "fused_pose":
            continue
        ts = ev["timestamp"]
        rec = truth_by_tick.get(ts)
        if rec is None:
            continue
        covered.add(ts)
        gt = rec["bus_pose"]
        est = ev["pose"]
        pos_errors.append(
            float(np.hypot(est["x"] - gt["x"], est["y"] - gt["y"]))
        )
        yaw_errors.append(abs(wrap_angle(est["yaw"] - gt["yaw"])))

    n_alerts = sum(1 for ev in events if ev["event"] == "confusion_alert")
    resolved = [ev for ev in events if ev["event"] == "sync_resolved"]
    failed = any(
        ev["event"] == "phase" and ev.get("phase") == "FAILED" for ev in events
    )
    accepted = any(ev["event"] == "attacker_accepted" for ev in events)
    rounds = resolved[0]["round"] if resolved else max(
        (ev["round"] for ev in events if ev["event"] == "challenge"), default=0
    )

    active = range(config.bus.enter_tick, config.bus.leave_tick)
    metrics: dict = {
        "coverage": len(covered) / max(1, len(active)),
        "n_fused": len(pos_errors),
        "confusion_alerts": n_alerts,
        "challenge_rounds": rounds,
        "resolved_tick": resolved[0]["tick"] if resolved else None,
        "failed": failed,
        "attacker_accepted": accepted,
    }
    if pos_errors:
        metrics["mean_position_error"] = float(np.mean(pos_errors))
        metrics["max_position_error"] = float(np.max(pos_errors))
        metrics["mean_yaw_error"] = float(np.mean(yaw_errors))
    return metrics


def _jsonable_event(tick: int, name: str, detail: dict) -> dict:
    out = {"tick": tick, "event": name}
    for k, v in detail.items():
        if hasattr(v, "to_json_dict"):
            out[k] = v.to_json_dict()
        else:
            out[k] = v
    return out


@lru_cache(maxsize=8)
def _family_for(n: int, d_min: int, count: int, seed: int) -> TagFamily:
    # generation is deterministic, so sharing across runs changes nothing
    return generate_family(n, d_min, count, seed=seed)


@dataclass
class Session:
    """Every agent of one protocol session, and the channel between them.

    rsus maps each RSU id to its state, in the order the RSUs step;
    attackers maps each attacker id to its state. channel is anything with
    Channel's send and deliver. step_session advances a session in place.
    """

    config: ProtocolConfig
    bus: BusState
    rsus: dict
    attackers: dict
    channel: Channel


def step_session(s: Session, t: int, see, log, estimate=None) -> tuple:
    """Advance every agent of s by tick t; returns (bus screen, frames).

    Tick order: attackers react first to what the bus shows this tick (so
    a zero-latency mimic really is on-screen simultaneously), then every
    camera captures and detects, then messages due this tick are delivered
    and the RSU state machines step in list order, then the bus's. Each
    screen is read from its agent's state. A message posted in tick t is
    never delivered before tick t + 1.

    see(t, bus_code, attacker_codes) returns the tick's detections per RSU
    id; attacker_codes maps each attacker id to the code it shows.
    log(t, name, detail) receives each agent's events right after it
    steps, stamped with who stepped: an RSU's with its "rsu" id, an
    attacker's with its "agent" id, the bus's with nothing. Then comes one
    "message" event per message the agent posted, with the tick it is due
    ("deliver_at", None when dropped). estimate(rsu_id, t, det), when
    given, turns a detection of the bus's code into that RSU's pose report.
    """

    def record(res, **who):
        for name, detail in res.events:
            log(t, name, {**detail, **who})
        for m in res.outbound:
            deliver_at = s.channel.send(m, t)
            log(t, "message", {"msg": m, "deliver_at": deliver_at, "dropped": deliver_at is None})
        return res.state

    bus_code = bus_screen(s.bus, t)
    for aid, atk in s.attackers.items():
        res = attacker_step(atk, bus_code, t)
        s.attackers[aid] = record(res, agent=aid)
    frames = see(t, bus_code, {aid: a.displayed_code for aid, a in s.attackers.items()})

    inboxes: dict = {}
    for msg in s.channel.deliver(t):
        inboxes.setdefault(msg.receiver, []).append(msg)

    for rid, rsu in s.rsus.items():
        est = None if estimate is None else partial(estimate, rid, t)
        res = rsu_step(rsu, inboxes.get(rid, ()), frames[rid], t, rid, s.config.bus_id, est)
        s.rsus[rid] = record(res, rsu=rid)
    s.bus = record(bus_step(s.bus, inboxes.get(s.config.bus_id, ()), t, s.config))
    return bus_code, frames


def run_scenario(config: ScenarioConfig) -> SimReport:
    """Run the full tick loop; deterministic given the config."""
    family = _family_for(
        config.family_n, config.family_d_min, config.family_count, config.family_seed
    )
    for spec in (config.bus,) + config.attackers:
        code = spec.initial_code
        if not 0 <= code < len(family):
            raise ScenarioError(
                f"initial code {code} of {spec.id} outside family of {len(family)}"
            )

    session = Session(
        config=ProtocolConfig(
            bus_id=config.bus.id, rsu_ids=tuple(r.id for r in config.rsus),
            enter_tick=config.bus.enter_tick, leave_tick=config.bus.leave_tick,
            max_rounds=config.max_rounds, delta_sync=config.delta_sync,
        ),
        bus=make_bus_state(config.bus.initial_code, len(family), config.seed),
        rsus={r.id: RsuState() for r in config.rsus},
        attackers={
            a.id: AttackerState(a.strategy, a.initial_code, a.reaction_latency)
            for a in config.attackers
        },
        channel=Channel(config.network.latency, config.network.drop, config.seed),
    )
    cameras = {r.id: r.camera for r in config.rsus}
    estimate = partial(_estimate_from_detection, cameras, config.bus.mount)

    events: list = []
    truth: list = []
    placed_at = {}  # entity id -> (its pose, its tag's world position) this tick

    def log(tick, name, detail):
        events.append(_jsonable_event(tick, name, detail))
        # ground-truth attribution of unique sync verdicts
        if name == "sync_evaluated" and detail["verdict"]["kind"] == "unique":
            rid = detail["rsu"]
            world_xyz = cameras[rid].pose.apply(np.array(detail["verdict"]["tag_xyz"]))
            best = min(
                placed_at, key=lambda e: float(np.linalg.norm(placed_at[e][1] - world_xyz))
            )
            events.append({"tick": tick, "event": "sync_attribution", "rsu": rid, "entity": best})
            if best != config.bus.id:
                events.append({**events[-1], "event": "attacker_accepted"})

    # a camera's noise depends only on the seed, the camera, the tick and
    # the frame shape, and numpy draws it without holding the GIL; so each
    # camera's field for the next tick is drawn on a worker thread, into
    # that camera's one buffer, while this thread detects and steps
    noise_pool = None
    if config.noise_sigma > 0:
        noise_buffers = [np.empty((r.camera.height, r.camera.width)) for r in config.rsus]
        noise_pool = ThreadPoolExecutor(max_workers=1)
    next_noise = {}  # RSU index -> future of its field for the coming tick

    def draw_noise(ri, t):
        if noise_pool is None or t == config.ticks:
            return
        render_seed = int(
            np.random.SeedSequence([config.seed, 0xCA13, ri, t]).generate_state(1)[0]
        )
        buf = noise_buffers[ri]
        next_noise[ri] = noise_pool.submit(frame_noise, render_seed, *buf.shape, out=buf)

    def see(t, bus_code, attacker_codes):
        codes = {config.bus.id: bus_code, **attacker_codes}
        placed = []
        for spec in (config.bus,) + config.attackers:
            planar = spec.trajectory.at(t)
            world = planar_to_world(planar.x, planar.y, planar.yaw) @ spec.mount
            placed.append(PlacedTag(index=codes[spec.id], tag_size=spec.tag_size, pose=world))
            placed_at[spec.id] = planar, world.translation
        frames = {}
        for ri, rsu in enumerate(config.rsus):
            img = render_scene(
                rsu.camera,
                placed,
                family,
                noise_sigma=config.noise_sigma,
                noise=next_noise[ri].result() if noise_pool is not None else None,
            )
            # the frame is a copy, so the buffer is free for the next draw
            draw_noise(ri, t + 1)
            frames[rsu.id] = detect(img, rsu.camera, family, config.bus.tag_size)
        return frames

    try:
        for ri in range(len(config.rsus)):
            draw_noise(ri, 0)
        for t in range(config.ticks):
            bus_code, frames = step_session(session, t, see, log, estimate)
            truth.append(
                {
                    "tick": t,
                    "bus_pose": placed_at[config.bus.id][0].to_json_dict(),
                    "bus_screen": bus_code,
                    "attacker_screens": {
                        aid: a.displayed_code for aid, a in session.attackers.items()
                    },
                    "detections": {
                        rid: [d.code_index for d in dets] for rid, dets in frames.items()
                    },
                    "bus_phase": session.bus.phase.value,
                }
            )
    finally:
        if noise_pool is not None:
            noise_pool.shutdown(cancel_futures=True)

    channel = session.channel
    metrics = compute_metrics(events, truth, config)
    metrics["messages_sent"] = channel.sent
    metrics["messages_delivered"] = channel.delivered
    metrics["messages_dropped"] = channel.dropped
    metrics["messages_in_flight"] = channel.sent - channel.delivered - channel.dropped
    metrics["final_bus_phase"] = session.bus.phase.value
    metrics["bus_resolved_tick"] = session.bus.resolved_tick

    cfg_echo = {
        "ticks": config.ticks,
        "seed": config.seed,
        "family": {
            "n": config.family_n,
            "d_min": config.family_d_min,
            "count": config.family_count,
            "seed": config.family_seed,
        },
        "noise_sigma": config.noise_sigma,
        "network": {"latency": config.network.latency, "drop": config.network.drop},
        "n_rsus": len(config.rsus),
        "n_attackers": len(config.attackers),
    }
    return SimReport(
        config_echo=cfg_echo,
        events=tuple(events),
        truth=tuple(truth),
        metrics=metrics,
    )
