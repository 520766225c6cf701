"""Protocol state machines: scripted walks without any rendering."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vttag.detector import Detection, Quad
from vttag.protocol import (
    AttackerState,
    AttackerStrategy,
    BusPhase,
    MsgKind,
    ProtocolConfig,
    ProtocolMessage,
    RsuState,
    SyncVerdict,
    attacker_step,
    bus_screen,
    bus_step,
    make_bus_state,
    resolve_sync,
    rsu_step,
)
from vttag.simulate import Channel, Session, step_session
from vttag.transforms import RigidTransform


def fake_det(code, x=0.0) -> Detection:
    quad = Quad(corners=np.array([[0, 0], [0, 9], [9, 9], [9, 0.0]]))
    return Detection(
        quad=quad, code_index=code, rotation=0, hamming_error=0,
        pose=RigidTransform(np.eye(3), np.array([x, 0.0, 6.0])), reproj_err=0.3,
    )


def no_report(rsu_id, now, det):
    """The estimate callback of a test that checks no pose report: none is made."""
    return None


CFG = ProtocolConfig(
    bus_id="bus", rsu_ids=("r0",), enter_tick=0, leave_tick=100,
    max_rounds=3, delta_sync=5,
)


class TestMessages:
    def test_payload_validation(self):
        with pytest.raises(ValueError):
            ProtocolMessage(MsgKind.TAG_UPDATE, "bus", "r0", {"new_code": 3, "round": 1})
        ProtocolMessage(MsgKind.TAG_UPDATE, "bus", "r0", {"new_code": 3, "round": 1, "t_act": 8})

    def test_json_dict(self):
        m = ProtocolMessage(
            MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2}
        )
        d = m.to_json_dict()
        assert d["kind"] == "CONFUSION_ALERT" and d["payload"]["count"] == 2
        assert sorted(d) == ["kind", "payload", "receiver", "sender"]  # the driver logs the tick


class TestResolveSync:
    def test_unique_with_laggard(self):
        verdict = resolve_sync([fake_det(4), fake_det(9, x=2.0)], new_code=9)
        assert verdict.kind == "unique"
        assert verdict.impostors == 1
        assert verdict.tag_xyz == (2.0, 0.0, 6.0)  # the matching detection's

    def test_ambiguous(self):
        verdict = resolve_sync([fake_det(9), fake_det(9)], new_code=9)
        assert verdict.kind == "ambiguous" and verdict.count == 2
        assert verdict.tag_xyz is None

    def test_absent(self):
        verdict = resolve_sync([], new_code=9)
        assert verdict.kind == "absent" and verdict.tag_xyz is None


class TestAttacker:
    def test_static_never_changes(self):
        st = AttackerState(AttackerStrategy.STATIC, displayed_code=4)
        for t in range(5):
            st = attacker_step(st, observed_bus_code=t, now=t).state
        assert st.displayed_code == 4

    def test_follower_latency_two(self):
        # bus switches at tick 10; attacker shows the new code from tick 12
        st = AttackerState(AttackerStrategy.FOLLOWER, displayed_code=1,
                           reaction_latency=2)
        shown = {}
        for t in range(9, 14):
            bus_code = 1 if t < 10 else 8
            st = attacker_step(st, bus_code, t).state
            shown[t] = st.displayed_code
        assert shown[10] == 1 and shown[11] == 1 and shown[12] == 8

    def test_follower_latency_zero_same_tick(self):
        st = AttackerState(AttackerStrategy.FOLLOWER, displayed_code=1,
                           reaction_latency=0)
        st = attacker_step(st, observed_bus_code=6, now=20).state
        assert st.displayed_code == 6

    def test_step_deterministic(self):
        st = AttackerState(AttackerStrategy.FOLLOWER, displayed_code=1,
                           reaction_latency=1)
        assert attacker_step(st, 5, 7) == attacker_step(st, 5, 7)


class TestBusBasics:
    def test_enter_zone_initiates(self):
        bus = make_bus_state(0, 30, seed=1)
        res = bus_step(bus, [], now=0, config=CFG)
        kinds = [m.kind for m in res.outbound]
        assert kinds == [MsgKind.INITIATE]
        assert res.state.phase is BusPhase.LOCALIZING

    def test_confusion_triggers_challenge(self):
        bus = bus_step(make_bus_state(0, 30, seed=1), [], 0, CFG).state
        alert = ProtocolMessage(
            MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2}
        )
        res = bus_step(bus, [alert], 2, CFG)
        (upd,) = res.outbound
        assert upd.kind is MsgKind.TAG_UPDATE
        assert upd.payload["new_code"] != 0
        assert upd.payload["t_act"] == 2 + CFG.delta_sync
        assert res.state.phase is BusPhase.SYNC_WAIT
        assert res.state.round == 1
        # the screen still shows the old code until t_act
        t_act = upd.payload["t_act"]
        assert res.state.displayed_code == 0
        assert bus_screen(res.state, t_act - 1) == 0
        assert bus_screen(res.state, t_act) == upd.payload["new_code"]

    def test_stale_sync_result_ignored(self):
        bus = bus_step(make_bus_state(0, 30, seed=1), [], 0, CFG).state
        alert = ProtocolMessage(
            MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2}
        )
        bus = bus_step(bus, [alert], 2, CFG).state
        stale = ProtocolMessage(
            MsgKind.SYNC_RESULT, "r0", "bus",
            {"verdict": SyncVerdict(kind="unique", count=1), "round": 99},
        )
        res = bus_step(bus, [stale], 3, CFG)
        assert res.state.phase is BusPhase.SYNC_WAIT  # unchanged
        assert any(name == "stale_message" for name, _ in res.events)

    def test_leave_zone_closes(self):
        cfg = ProtocolConfig(bus_id="bus", rsu_ids=("r0",), enter_tick=0,
                             leave_tick=5, max_rounds=3, delta_sync=5)
        bus = bus_step(make_bus_state(0, 30, seed=1), [], 0, cfg).state
        res = bus_step(bus, [], 5, cfg)
        assert [m.kind for m in res.outbound] == [MsgKind.CLOSE]
        assert res.state.phase is BusPhase.LEAVING

    def test_initiate_repeats_until_a_round_resolves(self):
        # an RSU that missed INITIATE gets it again every delta_sync ticks
        bus, sent = make_bus_state(0, 30, seed=1), []
        alert = ProtocolMessage(
            MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2}
        )
        inboxes = {7: [alert], 13: [result("r0", "unique")]}
        for now in range(25):
            res = bus_step(bus, inboxes.get(now, []), now, CFG)
            sent += [now for m in res.outbound if m.kind is MsgKind.INITIATE]
            bus = res.state
        assert bus.resolved_tick == 13
        assert sent == [0, 5, 10]

    def test_challenge_is_one_message_per_rsu(self):
        # one TAG_UPDATE per RSU carries the whole round: code, round, t_act
        cfg = replace(CFG, rsu_ids=("r0", "r1", "r2"))
        bus = bus_step(make_bus_state(0, 30, seed=1), [], 0, cfg).state
        alert = ProtocolMessage(MsgKind.CONFUSION_ALERT, "r2", "bus", {"count": 2})
        res = bus_step(bus, [alert], 2, cfg)
        (challenge,) = [d for name, d in res.events if name == "challenge"]
        assert [(m.kind, m.receiver, m.payload) for m in res.outbound] == [
            (MsgKind.TAG_UPDATE, rsu, challenge) for rsu in cfg.rsu_ids
        ]

    def test_sends_rsu_by_rsu(self):
        # the lossy Channel draws drops in send order, so each tick's order
        # fixes which messages a drop stream takes: each message goes to
        # the RSUs in list order
        cfg = replace(CFG, rsu_ids=("r0", "r1"), leave_tick=3)
        sent = []
        res = bus_step(make_bus_state(0, 30, seed=1), [], 0, cfg)
        sent.append(res.outbound)
        alert = ProtocolMessage(
            MsgKind.CONFUSION_ALERT, "r1", "bus", {"count": 2}
        )
        res = bus_step(res.state, [alert], 2, cfg)
        sent.append(res.outbound)
        sent.append(bus_step(res.state, [], 3, cfg).outbound)
        assert [[(m.kind.value, m.sender, m.receiver) for m in out] for out in sent] == [
            [("INITIATE", "bus", "r0"), ("INITIATE", "bus", "r1")],
            [("TAG_UPDATE", "bus", "r0"), ("TAG_UPDATE", "bus", "r1")],
            [("CLOSE", "bus", "r0"), ("CLOSE", "bus", "r1")],
        ]

    def test_fresh_codes_unique_across_rounds(self):
        bus = make_bus_state(0, 30, seed=3)
        seen = {0}
        for code in bus.code_pool:
            assert code not in seen
            seen.add(code)
        assert len(bus.code_pool) == 29

    def test_step_deterministic(self):
        bus = make_bus_state(0, 30, seed=1)
        assert bus_step(bus, [], 0, CFG) == bus_step(bus, [], 0, CFG)


VERDICT_COUNTS = {"unique": 1, "ambiguous": 2, "absent": 0}
# (kind, sender, verdict kind, round offset); a result's round is the bus's
# current round plus the offset, so offsets other than 0 are stale
BUS_MESSAGE = st.tuples(
    st.sampled_from(["alert", "result"]),
    st.sampled_from(["r0", "r1"]),
    st.sampled_from(sorted(VERDICT_COUNTS)),
    st.integers(-1, 1),
)


def bus_inbox(drawn, bus):
    msgs = []
    for kind, sender, verdict, offset in drawn:
        if kind == "alert":
            msgs.append(ProtocolMessage(MsgKind.CONFUSION_ALERT, sender, "bus", {"count": 2}))
        else:
            payload = {
                "verdict": SyncVerdict(kind=verdict, count=VERDICT_COUNTS[verdict]),
                "round": bus.round + offset,
            }
            msgs.append(ProtocolMessage(MsgKind.SYNC_RESULT, sender, "bus", payload))
    return msgs


@given(
    family_size=st.integers(1, 5),
    max_rounds=st.integers(1, 4),
    leave_tick=st.integers(1, 12),
    steps=st.lists(st.lists(BUS_MESSAGE, max_size=4), max_size=12),
)
# a two-code family runs out of fresh codes after round 1
@example(
    family_size=2,
    max_rounds=3,
    leave_tick=12,
    steps=[
        [],
        [("alert", "r0", "unique", 0)],
        [("result", "r0", "ambiguous", 0), ("result", "r1", "absent", 0)],
    ],
)
@settings(max_examples=300, deadline=None)
def test_one_phase_event_per_phase_change(family_size, max_rounds, leave_tick, steps):
    cfg = ProtocolConfig(
        bus_id="bus", rsu_ids=("r0", "r1"), enter_tick=0, leave_tick=leave_tick,
        max_rounds=max_rounds, delta_sync=2,
    )
    bus = make_bus_state(0, family_size, seed=1)
    for now, drawn in enumerate(steps):
        res = bus_step(bus, bus_inbox(drawn, bus), now, cfg)
        logged = [BusPhase(d["phase"]) for name, d in res.events if name == "phase"]
        phases = [bus.phase] + logged
        assert all(a is not b for a, b in zip(phases, phases[1:]))
        assert phases[-1] is res.state.phase  # unchanged when none is logged
        bus = res.state


def result(sender, kind, rnd=1) -> ProtocolMessage:
    payload = {"verdict": SyncVerdict(kind=kind, count=VERDICT_COUNTS[kind]), "round": rnd}
    return ProtocolMessage(MsgKind.SYNC_RESULT, sender, "bus", payload)


# round 1 of a two-RSU bus is challenged at tick 2 (t_act 7, deadline 12);
# then (tick, SYNC_RESULTs) steps -> the bus's phase and round, and its
# (tick, event, detail) judgements
FOLD_CASES = {
    "absent_then_unique": (
        [(8, [result("r0", "absent"), result("r1", "unique")])],
        "LOCALIZING", 1, [(8, "sync_resolved", {"round": 1})],
    ),
    "unique_then_absent": (
        [(8, [result("r0", "unique")]), (9, [result("r1", "absent")])],
        "LOCALIZING", 1, [(9, "sync_resolved", {"round": 1})],
    ),
    "unique_and_ambiguous": (
        [(8, [result("r1", "unique"), result("r0", "ambiguous")])],
        "SYNC_WAIT", 2,
        [(8, "sync_unresolved", {"round": 1, "verdicts": {"r1": "unique", "r0": "ambiguous"}})],
    ),
    "unique_and_silence_by_deadline": (
        [(8, [result("r0", "unique")]), (11, []), (12, [])],
        "LOCALIZING", 1, [(12, "sync_resolved", {"round": 1})],
    ),
    "no_verdict_by_deadline": (
        [(11, []), (12, [])],
        "SYNC_WAIT", 2, [(12, "sync_unresolved", {"round": 1, "verdicts": {}})],
    ),
    "stale_round": (
        [(8, [result("r0", "unique", rnd=0)])],
        "SYNC_WAIT", 1,
        [(8, "stale_message", {"kind": "SYNC_RESULT", "round": 0, "expected": 1})],
    ),
}


@pytest.mark.parametrize(
    "steps, phase, rnd, judged", list(FOLD_CASES.values()), ids=list(FOLD_CASES)
)
def test_bus_judges_each_round_once(steps, phase, rnd, judged):
    cfg = replace(CFG, rsu_ids=("r0", "r1"))
    bus = bus_step(make_bus_state(0, 30, seed=1), [], 0, cfg).state
    alert = ProtocolMessage(MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2})
    bus = bus_step(bus, [alert], 2, cfg).state
    assert (bus.round, bus.deadline) == (1, 12)
    logged, names = [], ("sync_resolved", "sync_unresolved", "stale_message")
    for now, inbox in steps:
        res = bus_step(bus, inbox, now, cfg)
        logged += [(now, name, d) for name, d in res.events if name in names]
        bus = res.state
    assert (bus.phase.value, bus.round) == (phase, rnd)
    assert logged == judged


class TestRsu:
    def test_initiate_activates(self):
        init = ProtocolMessage(
            MsgKind.INITIATE, "bus", "r0", {"client_code": 4}
        )
        res = rsu_step(RsuState(), [init], [], 1, "r0", "bus", no_report)
        assert res.state == RsuState(client_code=4)
        assert res.outbound == ()

    def test_active_reports_matching_detection(self):
        st = RsuState(client_code=4)
        calls = []

        def estimate(rsu_id, now, det):
            calls.append((rsu_id, now, det))
            from vttag.localization import PlanarPose, PoseEstimate
            return PoseEstimate(PlanarPose(0, 0, 0), 1.0, rsu_id, now)

        res = rsu_step(st, [], [fake_det(4), fake_det(2)], 5, "r0", "bus", estimate)
        kinds = [m.kind for m in res.outbound]
        assert kinds == [MsgKind.POSE_REPORT]
        assert len(calls) == 1 and calls[0][:2] == ("r0", 5) and calls[0][2].code_index == 4

    def test_confusion_alert_emitted(self):
        st = RsuState(client_code=4)
        res = rsu_step(st, [], [fake_det(4), fake_det(4)], 5, "r0", "bus", no_report)
        assert any(m.kind is MsgKind.CONFUSION_ALERT for m in res.outbound)
        alert = next(m for m in res.outbound if m.kind is MsgKind.CONFUSION_ALERT)
        assert alert.payload["count"] == 2

    def test_close_goes_idle(self):
        st = RsuState(client_code=4)
        close = ProtocolMessage(MsgKind.CLOSE, "bus", "r0")
        res = rsu_step(st, [close], [fake_det(4)], 9, "r0", "bus", no_report)
        assert res.state == RsuState()
        kinds = [m.kind for m in res.outbound]
        assert kinds == []  # and no further POSE_REPORTs

    def test_armed_rsu_evaluates_at_t_act(self):
        st = RsuState(client_code=4)
        upd = ProtocolMessage(
            MsgKind.TAG_UPDATE, "bus", "r0", {"new_code": 7, "round": 1, "t_act": 8}
        )
        st = rsu_step(st, [upd], [], 3, "r0", "bus", no_report).state
        assert st.pending == (7, 1, 8)  # armed
        # nothing happens before t_act
        st = rsu_step(st, [], [fake_det(4)], 5, "r0", "bus", no_report).state
        assert st.pending == (7, 1, 8)
        res = rsu_step(st, [], [fake_det(4), fake_det(7)], 8, "r0", "bus", no_report)
        assert res.state == RsuState(client_code=7)  # adopted on unique verdict
        result = next(m for m in res.outbound if m.kind is MsgKind.SYNC_RESULT)
        assert result.payload["verdict"].kind == "unique"


IDLE = RsuState()
ACTIVE = RsuState(client_code=4)
ARMED = RsuState(client_code=4, pending=(7, 1, 8))
ARMED_2 = RsuState(client_code=4, pending=(9, 2, 13))
UPDATE_1 = (MsgKind.TAG_UPDATE, {"new_code": 7, "round": 1, "t_act": 8})
UPDATE_2 = (MsgKind.TAG_UPDATE, {"new_code": 9, "round": 2, "t_act": 13})
CLOSE = (MsgKind.CLOSE, {})

# state, inbox, codes in frame, now -> next state, outbound kinds, event
# names, and the SYNC_RESULT's (verdict kind, round) or the CONFUSION_ALERT's
# count if one is sent
RSU_TRANSITIONS = {
    "initiate": (
        IDLE, [(MsgKind.INITIATE, {"client_code": 4})], [], 1,
        ACTIVE, [], ["rsu_active"], None,
    ),
    "initiate_while_armed": (
        ARMED, [(MsgKind.INITIATE, {"client_code": 5})], [], 5, ARMED, [], [], None,
    ),
    "update_while_idle": (IDLE, [UPDATE_1], [], 3, IDLE, [], [], None),
    "update": (ACTIVE, [UPDATE_1], [], 3, ARMED, [], [], None),
    "update_while_armed_starts_next_round": (ARMED, [UPDATE_2], [], 5, ARMED_2, [], [], None),
    "update_of_older_round": (ARMED_2, [UPDATE_1], [], 4, ARMED_2, [], [], None),
    "update_of_older_round_after_newer": (
        ACTIVE, [UPDATE_2, UPDATE_1], [], 4, ARMED_2, [], [], None,
    ),
    # neither pending nor missed: round 2 is still judged at its t_act
    "update_of_older_round_after_its_t_act": (ARMED_2, [UPDATE_1], [], 9, ARMED_2, [], [], None),
    "armed_before_t_act": (ARMED, [], [4, 7], 7, ARMED, [], [], None),
    "one_copy_silent": (ACTIVE, [], [4, 2], 5, ACTIVE, [], [], None),
    "two_copies_alert": (ACTIVE, [], [4, 2, 4], 5, ACTIVE, ["CONFUSION_ALERT"], [], 2),
    "three_copies_alert": (
        ACTIVE, [], [4, 4, 2, 4], 5, ACTIVE, ["CONFUSION_ALERT"], [], 3,
    ),
    "unique_at_t_act": (
        ARMED, [], [4, 7], 8,
        RsuState(client_code=7), ["SYNC_RESULT"], ["sync_evaluated"], ("unique", 1),
    ),
    "ambiguous_at_t_act": (
        ARMED, [], [7, 7], 8,
        ACTIVE, ["SYNC_RESULT"], ["sync_evaluated"], ("ambiguous", 1),
    ),
    "absent_at_t_act": (
        ARMED, [], [4], 8, ACTIVE, ["SYNC_RESULT"], ["sync_evaluated"], ("absent", 1),
    ),
    "late_appointment": (ACTIVE, [UPDATE_1], [], 9, ACTIVE, [], ["sync_missed"], None),
    "close": (ACTIVE, [CLOSE], [4], 9, IDLE, [], ["rsu_idle"], None),
    "close_while_armed": (ARMED, [CLOSE], [4], 5, IDLE, [], ["rsu_idle"], None),
}


@pytest.mark.parametrize(
    "state, inbox, codes, now, after, kinds, names, result",
    list(RSU_TRANSITIONS.values()),
    ids=list(RSU_TRANSITIONS),
)
def test_rsu_transition(state, inbox, codes, now, after, kinds, names, result):
    msgs = [ProtocolMessage(kind, "bus", "r0", payload) for kind, payload in inbox]
    frame = [fake_det(code, x=float(i)) for i, code in enumerate(codes)]
    res = rsu_step(state, msgs, frame, now, "r0", "bus", no_report)
    assert res.state == after
    assert [m.kind.value for m in res.outbound] == kinds
    assert [name for name, _ in res.events] == names
    sent = [
        (m.payload["verdict"].kind, m.payload["round"])
        if m.kind is MsgKind.SYNC_RESULT
        else m.payload["count"]
        for m in res.outbound
        if m.kind in (MsgKind.SYNC_RESULT, MsgKind.CONFUSION_ALERT)
    ]
    assert sent == ([] if result is None else [result])


def tracking_frame(bus_code, attacker_code) -> list:
    """The tracking RSU's detections: the bus's tag at x 0, the attacker's at x 2."""
    return [fake_det(bus_code, x=0.0), fake_det(attacker_code, x=2.0)]


def run_session(latency: int, max_ticks: int = 60, rsu_ids=("r0",)):
    """The tracking RSU "r0", bystanders that see nothing, and one FOLLOWER
    on the shared driver, network latency 1."""
    s = Session(
        config=replace(CFG, rsu_ids=rsu_ids), bus=make_bus_state(2, 30, seed=9),
        rsus={rid: RsuState() for rid in rsu_ids},
        attackers={"atk": AttackerState(AttackerStrategy.FOLLOWER, 2, latency)},
        channel=Channel(latency=1, drop=0.0, seed=0),
    )
    events = []

    def see(t, bus_code, attacker_codes):
        frames = {rid: [] for rid in rsu_ids}
        frames["r0"] = tracking_frame(bus_code, attacker_codes["atk"])
        return frames

    for t in range(max_ticks):
        step_session(s, t, see, lambda *ev: events.append(ev), no_report)
        if s.bus.phase is BusPhase.FAILED:
            break
    return s.bus, events


class TestEndToEndWalks:
    def test_honest_run_silent(self):
        # without an attacker: no alerts, no updates, display never changes
        s = Session(
            config=CFG, bus=make_bus_state(2, 30, seed=9), rsus={"r0": RsuState()},
            attackers={}, channel=Channel(latency=1, drop=0.0, seed=0),
        )
        kinds = set()

        def log(t, name, detail):
            if name == "message":
                kinds.add(detail["msg"].kind)

        for t in range(30):
            step_session(s, t, lambda t, bus_code, _: {"r0": [fake_det(bus_code)]}, log,
                         no_report)
        assert MsgKind.CONFUSION_ALERT not in kinds
        assert MsgKind.TAG_UPDATE not in kinds
        assert s.bus.displayed_code == 2
        assert s.bus.round == 0

    @pytest.mark.parametrize("latency", [1, 2, 5])
    def test_laggard_follower_resolved_first_round(self, latency):
        bus, events = run_session(latency)
        assert bus.resolved_tick is not None
        assert bus.round == 1
        assert bus.phase is not BusPhase.FAILED

    @pytest.mark.parametrize("latency", [1, 2, 5])
    def test_bystander_listed_first_changes_nothing(self, latency):
        # the bystander's "absent" reaches the bus first, and is no evidence
        alone = run_session(latency)[0]
        bus, events = run_session(latency, rsu_ids=("b0", "r0"))
        assert bus.round == 1 and bus.resolved_tick == alone.resolved_tick
        judged = [(n, d) for t, n, d in events if n.startswith("sync_")]
        assert [(n, d.get("rsu"), d.get("verdict", {}).get("kind")) for n, d in judged] == [
            ("sync_evaluated", "b0", "absent"), ("sync_evaluated", "r0", "unique"),
            ("sync_resolved", None, None),
        ]

    @pytest.mark.parametrize("latency", [0, 2])
    def test_one_challenge_message_per_rsu_per_round(self, latency):
        # lossless: besides INITIATE, the bus sends one TAG_UPDATE per RSU
        # per round (3 rounds at latency 0, 1 at latency 2)
        bus, events = run_session(latency, rsu_ids=("b0", "r0"))
        sent = [d["msg"].kind for _, name, d in events
                if name == "message" and d["msg"].sender == "bus"]
        challenges = [kind for kind in sent if kind is not MsgKind.INITIATE]
        assert challenges == [MsgKind.TAG_UPDATE] * (bus.round * 2)

    def test_driver_stamps_tick_and_agent(self):
        # a bystander listed first sees nothing, so each of its verdicts
        # is on an empty frame; the tracking RSU always sees both tags
        s = Session(
            config=ProtocolConfig(bus_id="bus", rsu_ids=("b0", "r0"), enter_tick=0,
                                  leave_tick=30),
            bus=make_bus_state(2, 30, seed=9),
            rsus={"b0": RsuState(), "r0": RsuState()},
            attackers={"atk": AttackerState(AttackerStrategy.FOLLOWER, 2, 2)},
            channel=Channel(latency=1, drop=0.0, seed=0),
        )
        logged = []

        def see(t, bus_code, attacker_codes):
            return {"b0": [], "r0": tracking_frame(bus_code, attacker_codes["atk"])}

        for step in range(40):
            step_session(s, step, see, lambda t, name, d: logged.append((step, t, name, d)),
                         no_report)
        assert all(t == step and "tick" not in d for step, t, _, d in logged)

        rsu_names = ("rsu_active", "sync_evaluated", "rsu_idle")
        rsu_events = [(name, d) for *_, name, d in logged if name in rsu_names]
        assert [(name, d["rsu"]) for name, d in rsu_events if name != "sync_evaluated"] == [
            ("rsu_active", "b0"), ("rsu_active", "r0"), ("rsu_idle", "b0"), ("rsu_idle", "r0"),
        ]
        judged = {(d["rsu"], d["verdict"]["count"] + d["verdict"]["impostors"])
                  for name, d in rsu_events if name == "sync_evaluated"}
        assert judged == {("b0", 0), ("r0", 2)}

        copies = [d for *_, name, d in logged if name.startswith("attacker_")]
        assert copies and all(d["agent"] == "atk" for d in copies)
        others = [d for *_, name, d in logged
                  if not name.startswith("attacker_") and name not in rsu_names]
        assert all("rsu" not in d and "agent" not in d for d in others)

    def test_zero_latency_fails_never_accepted(self):
        bus, events = run_session(0)
        assert bus.phase is BusPhase.FAILED
        assert bus.resolved_tick is None
        assert bus.round == CFG.max_rounds
        verdicts = [d["verdict"]["kind"] for t, n, d in events if n == "sync_evaluated"]
        assert verdicts and all(v == "ambiguous" for v in verdicts)


class ScriptedChannel:
    """A channel whose adversary drops or delays each message.

    fates[i] is the delay in ticks of the i-th message sent, or None to
    drop it; messages past the script take one tick.
    """

    def __init__(self, fates):
        self.fates = fates
        self.queue = []  # (deliver_at, message), in send order
        self.sent = self.delivered = self.dropped = 0

    def send(self, msg, now):
        fate = self.fates[self.sent] if self.sent < len(self.fates) else 1
        self.sent += 1
        if fate is None:
            self.dropped += 1
            return None
        self.queue.append((now + fate, msg))
        return now + fate

    def deliver(self, now):
        due = [m for at, m in self.queue if at == now]
        self.queue = [(at, m) for at, m in self.queue if at != now]
        self.delivered += len(due)
        return due


SCHEDULE_TICKS = 40


def run_schedule(fates, bystanders, latency, shown):
    """One session under an adversarial schedule; returns it, its log and a
    per-tick record of (sent, delivered, dropped, queued) messages.

    Bystander RSUs, inserted into the RSU list at the drawn positions, see
    nothing. The tracking RSU "r0" sees the bus's tag in every frame.
    shown[t] is a code the FOLLOWER attacker puts on its screen at tick t:
    a family index, or "next" for the bus's challenge code in flight (else
    its next one), since the family is public and the attacker may guess.
    """
    rsu_ids = ["r0"]
    for i, pos in enumerate(bystanders):
        rsu_ids.insert(pos, f"b{i}")
    s = Session(
        config=ProtocolConfig(
            bus_id="bus", rsu_ids=tuple(rsu_ids), enter_tick=0, leave_tick=32,
            max_rounds=3, delta_sync=5,
        ),
        bus=make_bus_state(2, 30, seed=9),
        rsus={rid: RsuState() for rid in rsu_ids},
        attackers={"atk": AttackerState(AttackerStrategy.FOLLOWER, 2, latency)},
        channel=ScriptedChannel(fates),
    )
    events, counts = [], []

    def see(t, bus_code, attacker_codes):
        frames = {rid: [] for rid in rsu_ids}
        frames["r0"] = tracking_frame(bus_code, attacker_codes["atk"])
        return frames

    for t in range(SCHEDULE_TICKS):
        if t in shown:
            guess, bus = shown[t], s.bus
            if guess == "next":
                guess = bus.pending_display[0] if bus.pending_display else bus.code_pool[0]
            s.attackers["atk"] = replace(s.attackers["atk"], displayed_code=guess)
        step_session(s, t, see, lambda *ev: events.append(ev), no_report)
        ch = s.channel
        counts.append((ch.sent, ch.delivered, ch.dropped, len(ch.queue)))
    return s, events, counts


@given(
    fates=st.lists(st.one_of(st.none(), st.integers(1, 3)), max_size=80),
    bystanders=st.lists(st.integers(0, 2), max_size=2),
    latency=st.integers(0, 5),
    shown=st.dictionaries(
        st.integers(0, SCHEDULE_TICKS - 1), st.one_of(st.integers(0, 29), st.just("next"))
    ),
)
# round 1's TAG_UPDATE to r0 (the sixth message sent) is dropped, so only
# the bystander b0 judges round 1, and round 2 follows
@example(fates=[1, 1, 1, 1, 1, None], bystanders=[0], latency=2, shown={})
# b0's first INITIATE is dropped, so round 1's TAG_UPDATE reaches it while
# idle and is ignored; the repeat INITIATE, sent at tick 5, activates it
@example(fates=[None], bystanders=[0], latency=0, shown={})
@settings(max_examples=400, deadline=None)
def test_driver_under_adversarial_schedules(fates, bystanders, latency, shown):
    s, events, counts = run_schedule(fates, bystanders, latency, shown)

    phases = ["IDLE"] + [d["phase"] for _, name, d in events if name == "phase"]
    assert all(a != b for a, b in zip(phases, phases[1:]))
    assert phases[-1] == s.bus.phase.value

    # every posted message is logged once, and none is lost or duplicated
    posted = [(t, d) for t, name, d in events if name == "message"]
    assert all(sent == delivered + dropped + queued for sent, delivered, dropped, queued in counts)
    assert counts[-1][0] == len(posted)
    assert counts[-1][2] == sum(d["deliver_at"] is None for _, d in posted)
    assert all(d["deliver_at"] is None or d["deliver_at"] > t for t, d in posted)

    # attribution by position: the bus's tag is at x 0, the attacker's at x 2
    unique = [d["verdict"] for _, name, d in events
              if name == "sync_evaluated" and d["verdict"]["kind"] == "unique"]
    assert all(v["tag_xyz"][0] == 0.0 for v in unique)

    # the bus judges every round by its deadline, t_act + delta_sync, if
    # the deadline comes before the leave tick
    rounds_judged = [(d["round"], t) for t, name, d in events
                     if name in ("sync_resolved", "sync_unresolved")]
    for c in [d for _, name, d in events if name == "challenge"]:
        deadline = c["t_act"] + s.config.delta_sync
        if deadline < s.config.leave_tick:
            assert any(r == c["round"] and t <= deadline for r, t in rounds_judged)

    # an RSU that read an INITIATE before round r's TAG_UPDATE, got that
    # message by t_act, and got no later round's message and no CLOSE,
    # judges round r at t_act; a TAG_UPDATE that reaches an idle RSU is
    # ignored. Messages due in one tick are read in send order.
    delivered = sorted(
        (d["deliver_at"], i, d["msg"]) for i, (_, d) in enumerate(posted)
        if d["deliver_at"] is not None
    )
    judged = {(d["rsu"], t) for t, name, d in events if name == "sync_evaluated"}
    for _, name, c in events:
        if name != "challenge" or c["t_act"] >= SCHEDULE_TICKS:
            continue
        for rid in s.rsus:
            got = [m for at, _, m in delivered if m.receiver == rid and at <= c["t_act"]]
            rounds = [m.payload["round"] for m in got if m.kind is MsgKind.TAG_UPDATE]
            update = next(
                (i for i, m in enumerate(got)
                 if m.kind is MsgKind.TAG_UPDATE and m.payload["round"] == c["round"]),
                None,
            )
            if (
                update is not None
                and any(m.kind is MsgKind.INITIATE for m in got[:update])
                and all(m.kind is not MsgKind.CLOSE for m in got)
                and max(rounds) == c["round"]
            ):
                assert (rid, c["t_act"]) in judged

    assert run_schedule(fates, bystanders, latency, shown)[1] == events
