"""Deterministic tick-driven simulation of the cooperative-localization loop.

Moves the bus and any attackers along waypoint trajectories, renders each
roadside camera's frame, runs detection, shuttles protocol messages over
a latent and optionally lossy channel, and distills an event log plus
metrics. Everything is a pure function of the scenario config: all
randomness flows from config.seed through counter-based generators.

Tick order: scheduled display switches apply first, then attackers react
(so a zero-latency mimic really is on-screen simultaneously), then every
camera captures and detects, then messages due this tick are delivered
and the RSU and bus state machines step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .codes import TagFamily, generate_family
from .detector import DetectorParams, detect
from .errors import ScenarioError
from .imaging import CameraModel, PlacedTag, render_scene
from .localization import PlanarPose, PoseEstimate, detection_weight, vehicle_pose_from_detection
from .protocol import (
    AttackerState,
    AttackerStrategy,
    ProtocolConfig,
    ProtocolMessage,
    RsuState,
    attacker_step,
    bus_step,
    make_bus_state,
    rsu_step,
)
from .transforms import RigidTransform, planar_to_world, wrap_angle
from .errors import DegenerateProjection

__all__ = [
    "Trajectory",
    "RsuSpec",
    "VehicleSpec",
    "AttackerSpec",
    "NetworkSpec",
    "ScenarioConfig",
    "Channel",
    "SimReport",
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

    def at(self, tick: float) -> PlanarPose:
        """Interpolated pose; clamps outside the waypoint range.

        Yaw interpolates along the unwrapped angle sequence so a path
        crossing the ±pi seam turns the short way.
        """
        ts = np.array([w[0] for w in self.waypoints], dtype=float)
        xs = np.array([w[1].x for w in self.waypoints])
        ys = np.array([w[1].y for w in self.waypoints])
        yaws = np.unwrap(np.array([w[1].yaw for w in self.waypoints]))
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


@dataclass(frozen=True)
class AttackerSpec:
    id: str
    strategy: AttackerStrategy
    reaction_latency: int
    initial_code: int
    tag_size: float
    mount: RigidTransform
    trajectory: Trajectory
    line_of_sight: bool = True


@dataclass(frozen=True)
class NetworkSpec:
    latency: int = 1  # ticks, per link
    drop: float = 0.0  # per-message drop probability

    def __post_init__(self):
        if self.latency < 0:
            raise ScenarioError("network latency must be >= 0")
        if not 0.0 <= self.drop <= 1.0:
            raise ScenarioError("drop probability must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    ticks: int
    dt: float
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
    detector: DetectorParams = field(default_factory=DetectorParams)

    def __post_init__(self):
        object.__setattr__(self, "rsus", tuple(self.rsus))
        object.__setattr__(self, "attackers", tuple(self.attackers))
        if self.ticks < 1:
            raise ScenarioError("ticks must be >= 1")
        if self.dt <= 0:
            raise ScenarioError("dt must be positive")
        if not self.rsus:
            raise ScenarioError("at least one RSU required")
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
                    line_of_sight=bool(a.get("line_of_sight", True)),
                )
                for a in d.get("attackers", [])
            )
            net = d.get("network", {})
            det = d.get("detector", {})
            return cls(
                ticks=int(d["ticks"]),
                dt=float(d.get("dt", 0.1)),
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
                detector=DetectorParams(**det),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
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
        self._queue: list = []  # (deliver_at, seqno, message)
        self._seq = 0
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
        self._queue.append((deliver_at, self._seq, msg))
        self._seq += 1
        return deliver_at

    def deliver(self, now: int) -> list:
        """Messages due exactly now, in per-link send order."""
        due = sorted(
            (item for item in self._queue if item[0] == now), key=lambda it: it[1]
        )
        self._queue = [item for item in self._queue if item[0] != now]
        self.delivered += len(due)
        return [m for _, _, m in due]


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


def _estimate_from_detection(det, camera, mount, rsu_id, tick):
    try:
        pose = vehicle_pose_from_detection(det, camera, mount)
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
        if isinstance(v, PoseEstimate):
            out[k] = v.to_json_dict()
        elif hasattr(v, "to_json_dict"):
            out[k] = v.to_json_dict()
        else:
            out[k] = v
    return out


@lru_cache(maxsize=8)
def _family_for(n: int, d_min: int, count: int, seed: int) -> TagFamily:
    # generation is deterministic, so sharing across runs changes nothing
    return generate_family(n, d_min, count, seed=seed)


def run_scenario(config: ScenarioConfig) -> SimReport:
    """Run the full tick loop; deterministic given the config."""
    family = _family_for(
        config.family_n,
        config.family_d_min,
        config.family_count,
        config.family_seed,
    )
    for spec in (config.bus,) + config.attackers:
        code = spec.initial_code
        if not 0 <= code < len(family):
            raise ScenarioError(
                f"initial code {code} of {spec.id} outside family of {len(family)}"
            )

    proto_cfg = ProtocolConfig(
        bus_id=config.bus.id,
        rsu_ids=tuple(r.id for r in config.rsus),
        enter_tick=config.bus.enter_tick,
        leave_tick=config.bus.leave_tick,
        max_rounds=config.max_rounds,
        delta_sync=config.delta_sync,
    )
    bus_state = make_bus_state(config.bus.initial_code, len(family), config.seed)
    rsu_states = {r.id: RsuState() for r in config.rsus}
    atk_states = {
        a.id: AttackerState(
            strategy=a.strategy,
            displayed_code=a.initial_code,
            reaction_latency=a.reaction_latency,
        )
        for a in config.attackers
    }
    channel = Channel(config.network.latency, config.network.drop, config.seed)
    screens = {config.bus.id: config.bus.initial_code}
    screens.update({a.id: a.initial_code for a in config.attackers})
    display_schedule: list = []

    events: list = []
    truth: list = []

    def log(tick, name, detail):
        events.append(_jsonable_event(tick, name, detail))

    for t in range(config.ticks):
        # 1. scheduled display switches take effect at the start of the tick
        for cmd in [c for c in display_schedule if c.apply_at == t]:
            screens[cmd.agent] = cmd.code_index
            log(t, "display_switch", {"agent": cmd.agent, "code": cmd.code_index})
        display_schedule = [c for c in display_schedule if c.apply_at > t]

        # 2. advance ground-truth poses
        bus_pose = config.bus.trajectory.at(t)
        atk_poses = {a.id: a.trajectory.at(t) for a in config.attackers}

        # 3. attackers react to what is on the bus screen right now, so a
        #    zero-latency mimic is already switched when the frames below
        #    are captured ("simultaneous" = same tick)
        for a in config.attackers:
            seen = screens[config.bus.id] if a.line_of_sight else None
            res = attacker_step(atk_states[a.id], seen, t)
            atk_states[a.id] = res.state
            screens[a.id] = res.state.displayed_code
            for name, detail in res.events:
                log(t, name, {**detail, "agent": a.id})

        # 4. render + detect per RSU
        placed = []
        entity_tag_world = {}
        owner = []
        specs = [(config.bus.id, config.bus, bus_pose)] + [
            (a.id, a, atk_poses[a.id]) for a in config.attackers
        ]
        for eid, spec, planar in specs:
            world = planar_to_world(planar.x, planar.y, planar.yaw) @ spec.mount
            placed.append(
                PlacedTag(index=screens[eid], tag_size=spec.tag_size, pose=world)
            )
            entity_tag_world[eid] = world.translation
            owner.append(eid)

        frames = {}
        for ri, rsu in enumerate(config.rsus):
            render_seed = int(
                np.random.SeedSequence([config.seed, 0xCA13, ri, t]).generate_state(1)[0]
            )
            img = render_scene(
                rsu.camera,
                placed,
                family,
                noise_sigma=config.noise_sigma,
                seed=render_seed,
            )
            frames[rsu.id] = detect(
                img, rsu.camera, family, config.bus.tag_size, config.detector
            )

        # 5. deliver messages due this tick
        inboxes: dict = {}
        for msg in channel.deliver(t):
            inboxes.setdefault(msg.receiver, []).append(msg)

        def post(msgs, now):
            for m in msgs:
                deliver_at = channel.send(m, now)
                log(
                    now,
                    "message",
                    {
                        "msg": m,
                        "deliver_at": deliver_at,
                        "dropped": deliver_at is None,
                    },
                )

        # 6. RSU state machines
        for rsu in config.rsus:
            cam = rsu.camera

            def est_fn(det, _cam=cam, _rid=rsu.id, _t=t):
                return _estimate_from_detection(
                    det, _cam, config.bus.mount, _rid, _t
                )

            res = rsu_step(
                rsu_states[rsu.id],
                inboxes.get(rsu.id, ()),
                frames[rsu.id],
                t,
                rsu.id,
                config.bus.id,
                estimate_fn=est_fn,
            )
            rsu_states[rsu.id] = res.state
            for name, detail in res.events:
                log(t, name, detail)
                # ground-truth attribution of unique sync verdicts
                if name == "sync_evaluated" and detail["verdict"]["kind"] == "unique":
                    cam_xyz = np.array(detail["verdict"]["tag_xyz"])
                    world_xyz = cam.pose.apply(cam_xyz)
                    best = min(
                        entity_tag_world,
                        key=lambda e: float(
                            np.linalg.norm(entity_tag_world[e] - world_xyz)
                        ),
                    )
                    log(
                        t,
                        "sync_attribution",
                        {"rsu": rsu.id, "entity": best},
                    )
                    if best != config.bus.id:
                        log(t, "attacker_accepted", {"rsu": rsu.id, "entity": best})
            post(res.outbound, t)

        # 7. bus state machine
        bres = bus_step(bus_state, inboxes.get(config.bus.id, ()), t, proto_cfg)
        bus_state = bres.state
        display_schedule.extend(bres.display)
        for name, detail in bres.events:
            log(t, name, detail)
        post(bres.outbound, t)

        truth.append(
            {
                "tick": t,
                "bus_pose": bus_pose.to_json_dict(),
                "bus_screen": screens[config.bus.id],
                "attacker_screens": {a.id: screens[a.id] for a in config.attackers},
                "detections": {
                    rid: [d.code_index for d in dets] for rid, dets in frames.items()
                },
                "bus_phase": bus_state.phase.value,
            }
        )

    metrics = compute_metrics(events, truth, config)
    metrics["messages_sent"] = channel.sent
    metrics["messages_delivered"] = channel.delivered
    metrics["messages_dropped"] = channel.dropped
    metrics["messages_in_flight"] = channel.sent - channel.delivered - channel.dropped
    metrics["final_bus_phase"] = bus_state.phase.value
    metrics["bus_resolved_tick"] = bus_state.resolved_tick

    cfg_echo = {
        "ticks": config.ticks,
        "dt": config.dt,
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
