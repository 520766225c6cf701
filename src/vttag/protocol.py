"""Cooperative-localization protocol: bus, RSU, and attacker state machines.

The bus asks roadside units (RSUs) to detect its roof tag and report
world-framed pose estimates. When an RSU sees the same identity twice in
one frame it raises a confusion alert; the bus then switches its
displayed code over a private side channel and appoints a tick at which
all RSUs check which tag actually changed. A mimic that needs at least
one tick to react is still showing the old code at that instant and is
exposed; only a zero-latency mimic survives, which the protocol reports
as ambiguous rather than guessing.

An RSU's state is the code it tracks (None while idle) and at most one
pending challenge round, (new_code, round, t_act): TAG_UPDATE and
SYNC_APPOINT each fill one half, in either order, and with both set the
RSU is armed to judge its frame of tick t_act.

All step functions are pure: state in, state out, plus outbound messages
and log events, returned as one StepResult. An event or a message says
only what happened; the driver that steps the agents stamps each event
with the tick and the agent, and logs each message with the tick it was
posted in. Agents never share mutable state, and each agent's state is
the only record of what its screen shows (bus_screen reads the bus's).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .detector import Detection
from .localization import fuse_poses

__all__ = [
    "MsgKind",
    "ProtocolMessage",
    "ProtocolConfig",
    "BusPhase",
    "BusState",
    "RsuState",
    "AttackerStrategy",
    "AttackerState",
    "SyncVerdict",
    "StepResult",
    "resolve_sync",
    "make_bus_state",
    "bus_screen",
    "bus_step",
    "rsu_step",
    "attacker_step",
]


class MsgKind(enum.Enum):
    INITIATE = "INITIATE"
    POSE_REPORT = "POSE_REPORT"
    CONFUSION_ALERT = "CONFUSION_ALERT"
    TAG_UPDATE = "TAG_UPDATE"
    SYNC_APPOINT = "SYNC_APPOINT"
    SYNC_RESULT = "SYNC_RESULT"
    CLOSE = "CLOSE"


# Required payload keys per message kind (tagged-union discipline).
_PAYLOAD_FIELDS = {
    MsgKind.INITIATE: {"client_code"},
    MsgKind.POSE_REPORT: {"estimate", "code_index"},
    MsgKind.CONFUSION_ALERT: {"code_index", "count"},
    MsgKind.TAG_UPDATE: {"new_code", "round"},
    MsgKind.SYNC_APPOINT: {"t_act", "round"},
    MsgKind.SYNC_RESULT: {"verdict", "round"},
    MsgKind.CLOSE: set(),
}


@dataclass(frozen=True)
class ProtocolMessage:
    kind: MsgKind
    sender: str
    receiver: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self):
        want = _PAYLOAD_FIELDS[self.kind]
        missing = want - set(self.payload)
        if missing:
            raise ValueError(
                f"{self.kind.value} payload missing fields: {sorted(missing)}"
            )

    def to_json_dict(self) -> dict:
        payload = {}
        for k, v in self.payload.items():
            payload[k] = v.to_json_dict() if hasattr(v, "to_json_dict") else v
        return {
            "kind": self.kind.value,
            "sender": self.sender,
            "receiver": self.receiver,
            "payload": payload,
        }


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters shared by all protocol agents."""

    bus_id: str
    rsu_ids: tuple
    enter_tick: int
    leave_tick: int
    max_rounds: int = 3
    delta_sync: int = 5  # ticks between appointment and the challenge instant

    def __post_init__(self):
        object.__setattr__(self, "rsu_ids", tuple(self.rsu_ids))
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.delta_sync < 1:
            raise ValueError("delta_sync must be >= 1")
        if not self.enter_tick < self.leave_tick:
            raise ValueError("enter_tick must be < leave_tick")


class BusPhase(enum.Enum):
    IDLE = "IDLE"
    LOCALIZING = "LOCALIZING"
    SYNC_WAIT = "SYNC_WAIT"
    FAILED = "FAILED"
    LEAVING = "LEAVING"


@dataclass(frozen=True)
class BusState:
    """Pure bus protocol state.

    code_pool is the seeded draw order of fresh, unused code indices for
    challenge rounds; popping from the front replaces mutable generator
    state and keeps the state machine a value type.
    """

    phase: BusPhase = BusPhase.IDLE
    displayed_code: int = 0  # what the screen shows *now*
    round: int = 0
    pending_display: Optional[tuple] = None  # (code, apply_at tick)
    code_pool: tuple = ()
    verdicts: tuple = ()  # the current round's (rsu, verdict kind) results
    deadline: Optional[int] = None  # the tick the current round is judged by
    resolved_tick: Optional[int] = None  # tick a challenge resolved


@dataclass(frozen=True)
class RsuState:
    """Pure RSU state.

    client_code is the code of the tag the RSU tracks for the bus; None
    means the RSU is idle. pending is the challenge round in progress, as
    (new_code, round, t_act); each half stays None until its message
    arrives, and the RSU is armed once both are set.
    """

    client_code: Optional[int] = None
    pending: Optional[tuple] = None  # (new_code or None, round, t_act tick or None)


class AttackerStrategy(enum.Enum):
    STATIC = "STATIC"
    FOLLOWER = "FOLLOWER"


@dataclass(frozen=True)
class AttackerState:
    strategy: AttackerStrategy
    displayed_code: int
    reaction_latency: int = 1  # ticks between seeing a switch and copying it
    pending_copy: Optional[tuple] = None  # (code, apply_at tick)

    def __post_init__(self):
        if self.reaction_latency < 0:
            raise ValueError("reaction_latency must be >= 0")


@dataclass(frozen=True)
class SyncVerdict:
    """Outcome of a synchronized challenge at t_act.

    kind: "unique" (exactly one detection shows the new code — that one is
    the client), "ambiguous" (several do), or "absent" (none do).
    tag_xyz is the unique detection's tag-center position in the reporting
    camera's frame, for downstream attribution; count is the number of
    matching detections; impostors the non-matching detections in frame.
    """

    kind: str
    count: int
    impostors: int = 0
    tag_xyz: Optional[tuple] = None
    reproj_err: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("unique", "ambiguous", "absent"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "count": self.count, "impostors": self.impostors}
        if self.tag_xyz is not None:
            d["tag_xyz"] = [float(v) for v in self.tag_xyz]
        if self.reproj_err is not None:
            d["reproj_err"] = float(self.reproj_err)
        return d


@dataclass(frozen=True)
class StepResult:
    """One agent's tick: its next state, what it sends, what it logs."""

    state: object  # BusState, RsuState or AttackerState
    outbound: tuple  # ProtocolMessage; attackers send none
    events: tuple  # (name, detail dict) pairs for the log


def resolve_sync(
    frame_at_t_act: Sequence[Detection], new_code: int
) -> SyncVerdict:
    """Judge a challenge frame: who actually switched to new_code?

    Exactly one matching detection -> unique, with that detection's tag
    position and reprojection error; several -> ambiguous; none -> absent.
    The caller supplies the frame captured exactly at the appointed tick.
    """
    matching = [d for d in frame_at_t_act if d.code_index == new_code]
    others = len(frame_at_t_act) - len(matching)
    if len(matching) == 1:
        det = matching[0]
        return SyncVerdict(
            kind="unique",
            count=1,
            impostors=others,
            tag_xyz=tuple(float(v) for v in det.pose.translation),
            reproj_err=float(det.reproj_err),
        )
    if len(matching) >= 2:
        return SyncVerdict(kind="ambiguous", count=len(matching), impostors=others)
    return SyncVerdict(kind="absent", count=0, impostors=others)


def make_bus_state(
    initial_code: int, family_size: int, seed: int
) -> BusState:
    """Bus state displaying initial_code, with a seeded fresh-code draw order.

    The pool is a seed-determined permutation of every other family index,
    consumed without replacement by challenge rounds.
    """
    if not 0 <= initial_code < family_size:
        raise ValueError("initial_code outside the family")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0xC0DE])))
    pool = [i for i in range(family_size) if i != initial_code]
    gen.shuffle(pool)
    return BusState(displayed_code=initial_code, code_pool=tuple(pool))


def bus_screen(state: BusState, now: int) -> int:
    """The code the bus shows during tick now, before bus_step(now) runs.

    A challenge code is on the screen from the start of its appointed
    tick, so the frames captured in that tick already show it.
    """
    if state.pending_display is not None and now >= state.pending_display[1]:
        return state.pending_display[0]
    return state.displayed_code


def _enter(state: BusState, phase: BusPhase, events: list) -> BusState:
    """state in phase; the only writer of "phase" events, one per change."""
    if state.phase is not phase:
        events.append(("phase", {"phase": phase.value}))
    return replace(state, phase=phase)


def _to_rsus(config: ProtocolConfig, *messages: tuple) -> list:
    """The bus's (kind, payload) messages, addressed RSU by RSU.

    Each RSU gets every message in the given order before the next RSU
    gets any: the lossy Channel draws drops in send order.
    """
    return [
        ProtocolMessage(kind, config.bus_id, rsu, payload)
        for rsu in config.rsu_ids
        for kind, payload in messages
    ]


def _challenge(
    state: BusState, now: int, config: ProtocolConfig, events: list
) -> tuple[BusState, list]:
    """Issue a TAG_UPDATE + SYNC_APPOINT pair for the next round."""
    if not state.code_pool:
        events.append(("code_pool_exhausted", {}))
        return _enter(state, BusPhase.FAILED, events), []
    new_code = state.code_pool[0]
    rnd = state.round + 1
    t_act = now + config.delta_sync
    out = _to_rsus(
        config,
        (MsgKind.TAG_UPDATE, {"new_code": new_code, "round": rnd}),
        (MsgKind.SYNC_APPOINT, {"t_act": t_act, "round": rnd}),
    )
    events.append(("challenge", {"round": rnd, "new_code": new_code, "t_act": t_act}))
    nxt = replace(
        state, round=rnd, pending_display=(new_code, t_act), code_pool=state.code_pool[1:],
        verdicts=(), deadline=t_act + config.delta_sync,
    )
    return _enter(nxt, BusPhase.SYNC_WAIT, events), out


def bus_step(
    state: BusState,
    inbox: Sequence[ProtocolMessage],
    now: int,
    config: ProtocolConfig,
) -> StepResult:
    """One tick of the bus state machine.

    Enter/leave triggers derive from config ticks. From enter_tick until a
    round resolves, INITIATE goes out every delta_sync ticks, so an RSU
    that missed it is activated later. A round's SYNC_RESULTs are judged
    together, once every RSU has reported or at the round's deadline:
    some unique and no ambiguous verdict resolves it; anything else starts
    the next round, or fails after max_rounds. The POSE_REPORTs of the
    newest capture tick in the inbox are fused into one "fused_pose" event.
    """
    events: list = []
    out: list = []
    st = state

    # the scheduled challenge code reaches the physical screen at t_act
    if st.pending_display is not None and now >= st.pending_display[1]:
        st = replace(st, displayed_code=st.pending_display[0], pending_display=None)
        events.append(("display_switched", {"code": st.displayed_code}))

    if st.phase is BusPhase.IDLE and now == config.enter_tick:
        st = _enter(st, BusPhase.LOCALIZING, events)
    if (
        st.phase in (BusPhase.LOCALIZING, BusPhase.SYNC_WAIT)
        and st.resolved_tick is None
        and now < config.leave_tick
        and (now - config.enter_tick) % config.delta_sync == 0
    ):
        out += _to_rsus(config, (MsgKind.INITIATE, {"client_code": st.displayed_code}))

    reports: list = []
    for msg in inbox:
        if msg.kind is MsgKind.POSE_REPORT:
            if st.phase in (BusPhase.LOCALIZING, BusPhase.SYNC_WAIT):
                reports.append(msg.payload["estimate"])
        elif msg.kind is MsgKind.CONFUSION_ALERT:
            if st.phase is BusPhase.LOCALIZING:
                events.append(
                    ("confusion_alert", {"source": msg.sender, "count": msg.payload["count"]})
                )
                if st.resolved_tick is None:
                    st, more_out = _challenge(st, now, config, events)
                    out.extend(more_out)
                # once a challenge has singled the bus out, later alerts
                # (the laggard mimic catching up again) change nothing:
                # the impostor is already identified and the round counter
                # stays put
            # alerts during SYNC_WAIT are expected (the mimic is still
            # visible until t_act) and carry no new information
        elif msg.kind is MsgKind.SYNC_RESULT:
            if msg.payload["round"] != st.round:
                events.append(
                    (
                        "stale_message",
                        {
                            "kind": msg.kind.value,
                            "round": msg.payload["round"],
                            "expected": st.round,
                        },
                    )
                )
            elif st.phase is BusPhase.SYNC_WAIT:
                verdict = (msg.sender, msg.payload["verdict"].kind)
                st = replace(st, verdicts=st.verdicts + (verdict,))

    if st.phase is BusPhase.SYNC_WAIT and (
        now >= st.deadline or {rsu for rsu, _ in st.verdicts} >= set(config.rsu_ids)
    ):
        # "absent" from an RSU that does not see the bus is no evidence
        kinds = {kind for _, kind in st.verdicts}
        if "unique" in kinds and "ambiguous" not in kinds:
            st = _enter(replace(st, resolved_tick=now), BusPhase.LOCALIZING, events)
            events.append(("sync_resolved", {"round": st.round}))
        else:  # an RSU that did not report by the deadline is not in verdicts
            events.append(
                ("sync_unresolved", {"round": st.round, "verdicts": dict(st.verdicts)})
            )
            if st.round < config.max_rounds:
                st, more_out = _challenge(st, now, config, events)
                out.extend(more_out)
            else:
                st = _enter(st, BusPhase.FAILED, events)

    if reports:
        # fuse the newest capture-tick's worth of reports into one pose
        latest = max(r.timestamp for r in reports)
        group = [r for r in reports if r.timestamp == latest]
        fused = fuse_poses(group)
        events.append(
            (
                "fused_pose",
                {
                    "timestamp": latest,
                    "pose": fused.pose.to_json_dict(),
                    "n_views": fused.n_views,
                    "x_std": fused.x_std,
                    "y_std": fused.y_std,
                    "yaw_std": fused.yaw_std,
                },
            )
        )

    if (
        now == config.leave_tick
        and st.phase not in (BusPhase.IDLE, BusPhase.LEAVING)
    ):
        out += _to_rsus(config, (MsgKind.CLOSE, {}))
        st = _enter(st, BusPhase.LEAVING, events)

    return StepResult(state=st, outbound=tuple(out), events=tuple(events))


def rsu_step(
    state: RsuState,
    inbox: Sequence[ProtocolMessage],
    frame: Sequence[Detection],
    now: int,
    rsu_id: str,
    bus_id: str,
    estimate,
) -> StepResult:
    """One tick of an RSU state machine.

    frame holds this tick's detections from the RSU's own camera.
    estimate(rsu_id, now, detection) turns a detection of the client's
    code into a world-framed PoseEstimate, or None for no report.
    """
    events: list = []
    out: list = []
    st = state

    def to_bus(kind, **payload):
        out.append(ProtocolMessage(kind, rsu_id, bus_id, payload))

    for msg in inbox:
        if msg.kind is MsgKind.INITIATE:
            if st.client_code is None:  # a tracking RSU ignores a repeat
                st = RsuState(client_code=int(msg.payload["client_code"]))
                events.append(("rsu_active", {}))
        elif msg.kind is MsgKind.CLOSE:
            st = RsuState()
            events.append(("rsu_idle", {}))
        elif msg.kind in (MsgKind.TAG_UPDATE, MsgKind.SYNC_APPOINT) and st.client_code is not None:
            rnd = int(msg.payload["round"])
            new_code, pending_rnd, t_act = st.pending or (None, rnd, None)
            if pending_rnd > rnd:
                continue  # a half of an older round
            if pending_rnd < rnd:  # a newer round starts with this half
                new_code = t_act = None
            if msg.kind is MsgKind.TAG_UPDATE:
                new_code = int(msg.payload["new_code"])
            else:
                t_act = int(msg.payload["t_act"])
            st = replace(st, pending=(new_code, rnd, t_act))

    new_code, rnd, t_act = st.pending or (None, None, None)
    armed = new_code is not None and t_act is not None
    if armed and now == t_act:
        verdict = resolve_sync(frame, new_code)
        to_bus(MsgKind.SYNC_RESULT, verdict=verdict, round=rnd)
        events.append(("sync_evaluated", {"verdict": verdict.to_json_dict()}))
        st = RsuState(
            client_code=new_code if verdict.kind == "unique" else st.client_code
        )
    elif armed and now > t_act:
        # the round's second half arrived after its instant (network
        # latency above delta_sync): no frame of t_act is left to judge
        events.append(("sync_missed", {"t_act": t_act, "round": rnd}))
        st = RsuState(client_code=st.client_code)

    if st.client_code is not None:
        matching = [d for d in frame if d.code_index == st.client_code]
        for det in matching:
            est = estimate(rsu_id, now, det)
            if est is not None:
                to_bus(MsgKind.POSE_REPORT, estimate=est, code_index=det.code_index)
        if len(matching) >= 2:
            to_bus(MsgKind.CONFUSION_ALERT, code_index=st.client_code, count=len(matching))

    return StepResult(state=st, outbound=tuple(out), events=tuple(events))


def attacker_step(
    state: AttackerState, observed_bus_code: int, now: int
) -> StepResult:
    """One tick of an attacker.

    STATIC never changes. FOLLOWER schedules a copy of any observed
    foreign code after its reaction latency; the copy applies the moment
    now reaches the scheduled tick (latency 0 applies immediately).
    """
    if state.strategy is AttackerStrategy.STATIC:
        return StepResult(state=state, outbound=(), events=())
    st = state
    events: list = []
    if observed_bus_code != st.displayed_code and st.pending_copy is None:
        st = replace(
            st, pending_copy=(int(observed_bus_code), now + st.reaction_latency)
        )
        events.append(
            (
                "attacker_scheduled_copy",
                {"code": int(observed_bus_code), "apply_at": now + st.reaction_latency},
            )
        )
    if st.pending_copy is not None and now >= st.pending_copy[1]:
        code = st.pending_copy[0]
        st = replace(st, displayed_code=code, pending_copy=None)
        events.append(("attacker_copied", {"code": code}))
    return StepResult(state=st, outbound=(), events=tuple(events))
