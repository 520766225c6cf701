"""Simulation harness: trajectories, channel, metrics, end-to-end runs."""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import vttag.detector
import vttag.simulate
from vttag.cli import run_cli
from vttag.errors import ScenarioError
from vttag.localization import PlanarPose
from vttag.protocol import ProtocolMessage, MsgKind
from vttag.imaging import render_scene
from vttag.scenarios import make_baseline_scenario, make_clone_attack_scenario, overhead_camera
from vttag.simulate import (
    Channel,
    ScenarioConfig,
    Trajectory,
    compute_metrics,
    run_scenario,
)


class TestTrajectory:
    def test_linear_interpolation(self):
        tr = Trajectory(((0, PlanarPose(0, 0, 0)), (10, PlanarPose(10, 20, 1.0))))
        p = tr.at(5)
        assert (p.x, p.y, p.yaw) == (pytest.approx(5.0), pytest.approx(10.0),
                                     pytest.approx(0.5))

    def test_clamped_outside_range(self):
        tr = Trajectory(((2, PlanarPose(1, 1, 0.2)), (8, PlanarPose(3, 3, 0.4))))
        assert tr.at(0) == tr.at(2)
        assert tr.at(100) == tr.at(8)

    def test_yaw_crosses_seam_short_way(self):
        # 170 deg -> -170 deg should pass through 180, not through 0
        tr = Trajectory(
            ((0, PlanarPose(0, 0, np.radians(170))),
             (10, PlanarPose(0, 0, np.radians(-170))))
        )
        assert tr.at(5).yaw == pytest.approx(np.pi, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ScenarioError):
            Trajectory(())

    def test_duplicate_ticks_rejected(self):
        with pytest.raises(ScenarioError):
            Trajectory(((0, PlanarPose(0, 0, 0)), (0, PlanarPose(1, 1, 0))))

    def test_waypoints_sorted(self):
        tr = Trajectory(((10, PlanarPose(1, 0, 0)), (0, PlanarPose(0, 0, 0))))
        assert [w[0] for w in tr.waypoints] == [0, 10]


def msg(tag=0) -> ProtocolMessage:
    """A message told apart from others by its tag."""
    return ProtocolMessage(MsgKind.CLOSE, "bus", "r0", {"tag": tag})


class TestChannel:
    def test_latency_arithmetic(self):
        ch = Channel(latency=3, drop=0.0, seed=0)
        assert ch.send(msg(), now=5) == 8
        assert ch.deliver(7) == []
        assert [m.kind for m in ch.deliver(8)] == [MsgKind.CLOSE]

    def test_drop_one_delivers_nothing(self):
        ch = Channel(latency=1, drop=1.0, seed=0)
        for t in range(10):
            assert ch.send(msg(t), now=t) is None
        assert ch.dropped == 10 and ch.delivered == 0

    def test_fifo_within_tick(self):
        ch = Channel(latency=2, drop=0.0, seed=0)
        a = ProtocolMessage(MsgKind.CLOSE, "bus", "r0")
        b = ProtocolMessage(MsgKind.CONFUSION_ALERT, "r0", "bus", {"count": 2})
        ch.send(a, 0)
        ch.send(b, 0)
        assert [m.kind for m in ch.deliver(2)] == [MsgKind.CLOSE, MsgKind.CONFUSION_ALERT]

    def test_conservation(self):
        ch = Channel(latency=1, drop=0.5, seed=7)
        for t in range(50):
            ch.send(msg(t), now=t)
            ch.deliver(t)
        ch.deliver(50)
        assert ch.sent == ch.delivered + ch.dropped == 50

    def test_drop_pattern_deterministic(self):
        def pattern(seed):
            ch = Channel(latency=1, drop=0.3, seed=seed)
            return [ch.send(msg(t), t) is None for t in range(30)]

        assert pattern(5) == pattern(5)
        assert pattern(5) != pattern(6)


def baseline(seed=0, ticks=50) -> ScenarioConfig:
    return ScenarioConfig.from_json_dict(make_baseline_scenario(seed=seed, ticks=ticks))


def clone(seed, latency) -> ScenarioConfig:
    return ScenarioConfig.from_json_dict(
        make_clone_attack_scenario(seed=seed, reaction_latency=latency)
    )


# (section, key, value) that a scenario must reject when it is loaded;
# "attackers" means the first attacker
OUT_OF_RANGE = [
    (None, "max_rounds", 0),
    (None, "seed", -1),
    ("family", "seed", -1),
    ("family", "n", 9),
    ("family", "d_min", 0),
    ("family", "count", 3_000_000),
    (None, "delta_sync", 0),
    ("network", "latency", 0),
    ("attackers", "reaction_latency", -1),
    ("bus", "tag_size", 0.0),
    ("attackers", "tag_size", -0.1),
    ("bus", "tag_size", float("nan")),
    (None, "noise_sigma", -1.0),
    (None, "noise_sigma", float("nan")),
]
# pytest ids: "section-key", with "=value" after the first case of a key
OUT_OF_RANGE_IDS = [
    f"{s}-{k}" + (f"={v}" if (s, k) in [c[:2] for c in OUT_OF_RANGE[:i]] else "")
    for i, (s, k, v) in enumerate(OUT_OF_RANGE)
]

# (key path into the clone scenario dict, value) of a vehicle's geometry that
# a scenario must reject when it is loaded; the non-finite ones once loaded
# and then crashed in run_scenario, and the scaled mount ran
BAD_GEOMETRY = [
    pytest.param(("bus", "mount", "t", 0), float("nan"), id="bus-mount-t=nan"),
    pytest.param(("bus", "mount", "R", 0), float("nan"), id="bus-mount-R=nan"),
    pytest.param(("bus", "mount", "R"), [2.0, 0, 0, 0, 2.0, 0, 0, 0, 2.0], id="bus-mount-R=2I"),
    pytest.param(("bus", "trajectory", 0, "x"), float("nan"), id="bus-waypoint-x=nan"),
    pytest.param(("attackers", 0, "mount", "t", 2), float("inf"), id="attacker-mount-t=inf"),
    pytest.param(("attackers", 0, "trajectory", 0, "yaw"), float("inf"),
                 id="attacker-waypoint-yaw=inf"),
]


# (key path into the clone scenario dict, value) of a malformed file that
# loading must reject as a ScenarioError, not as the OverflowError or
# AttributeError it raises inside: json reads Infinity into a float, which
# int() cannot take, and a list has no .get
MALFORMED = [
    pytest.param(("ticks",), float("inf"), id="ticks=inf"),
    pytest.param(("seed",), float("inf"), id="seed=inf"),
    pytest.param(("bus", "trajectory", 0, "tick"), float("inf"), id="waypoint-tick=inf"),
    pytest.param(("family", "n"), float("inf"), id="family-n=inf"),
    pytest.param(("rsus", 0, "camera", "width"), float("inf"), id="camera-width=inf"),
    pytest.param(("network",), [], id="network=[]"),
    pytest.param(("bus",), [], id="bus=[]"),
]


def set_path(blob: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        blob = blob[key]
    blob[path[-1]] = value


class TestScenarioConfig:
    def test_baseline_builds(self):
        cfg = baseline()
        assert cfg.ticks == 50 and len(cfg.rsus) == 2 and not cfg.attackers

    def test_clone_attack_builds(self):
        cfg = clone(3, 2)
        assert len(cfg.attackers) == 1
        assert cfg.attackers[0].reaction_latency == 2

    def test_seed_jitters_clone_geometry(self):
        assert clone(1, 1).bus.trajectory != clone(2, 1).bus.trajectory

    def test_rejects_bad_windows(self):
        cfg = baseline()
        bad_bus = dataclasses.replace(cfg.bus, enter_tick=40, leave_tick=10)
        with pytest.raises(ScenarioError):
            dataclasses.replace(cfg, bus=bad_bus)

    def test_rejects_duplicate_ids(self):
        cfg = baseline()
        bad_bus = dataclasses.replace(cfg.bus, id=cfg.rsus[0].id)
        with pytest.raises(ScenarioError):
            dataclasses.replace(cfg, bus=bad_bus)

    def test_rejects_out_of_family_code(self):
        cfg = baseline()
        bad_bus = dataclasses.replace(cfg.bus, initial_code=999)
        with pytest.raises(ScenarioError):
            dataclasses.replace(cfg, bus=bad_bus)

    def test_json_round_trip_runs(self, tmp_path, capsys):
        # a scenario file run through the CLI reports as the dict run directly
        blob = make_baseline_scenario(seed=0, ticks=30)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(blob))
        assert run_cli(["sim-run", "--scenario", str(path), "--out", "-"]) == 0
        direct = ScenarioConfig.from_json_dict(blob)
        assert capsys.readouterr().out == run_scenario(direct).report_json()

    @pytest.mark.parametrize(
        "section, key, value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS
    )
    def test_rejects_values_below_one(self, section, key, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        target = blob[section] if section else blob
        (target[0] if section == "attackers" else target)[key] = value
        with pytest.raises(ScenarioError, match=key):  # the error names the setting
            ScenarioConfig.from_json_dict(blob)

    @pytest.mark.parametrize(
        "key, index, value",
        [("fx", None, float("nan")), ("fy", None, float("nan")), ("fx", None, float("inf")),
         ("fy", None, float("inf")), ("R", 0, float("nan")), ("t", 2, float("nan")),
         ("t", 0, float("inf"))],
    )
    def test_rejects_non_finite_camera(self, key, index, value):
        # NaN intrinsics once loaded and then crashed in render_scene; a
        # non-finite camera pose was accepted outright
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        camera = blob["rsus"][0]["camera"]
        if index is None:
            camera[key] = value
        else:
            camera["pose"][key][index] = value
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_json_dict(blob)

    @pytest.mark.parametrize("path, value", BAD_GEOMETRY)
    def test_rejects_bad_vehicle_geometry(self, path, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2, ticks=6)
        set_path(blob, path, value)
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_json_dict(blob)

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_rejects_malformed_values(self, path, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2, ticks=6)
        set_path(blob, path, value)
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_json_dict(json.loads(json.dumps(blob)))

    def test_load_bad_config_scenario_error(self):
        with pytest.raises(ScenarioError):
            ScenarioConfig.from_json_dict({"ticks": 10})


class TestComputeMetrics:
    def _cfg(self):
        return baseline()

    def test_position_and_yaw_errors(self):
        cfg = self._cfg()
        truth = [
            {"tick": t, "bus_pose": {"x": 0.0, "y": 0.0, "yaw": np.radians(179)}}
            for t in range(cfg.ticks)
        ]
        events = [
            {
                "event": "fused_pose",
                "timestamp": 5,
                "pose": {"x": 3.0, "y": 4.0, "yaw": np.radians(-179)},
            }
        ]
        m = compute_metrics(events, truth, cfg)
        assert m["mean_position_error"] == pytest.approx(5.0)
        assert m["max_position_error"] == pytest.approx(5.0)
        assert m["mean_yaw_error"] == pytest.approx(np.radians(2.0))

    def test_coverage_fraction(self):
        cfg = self._cfg()
        active = cfg.bus.leave_tick - cfg.bus.enter_tick
        truth = [
            {"tick": t, "bus_pose": {"x": 0.0, "y": 0.0, "yaw": 0.0}}
            for t in range(cfg.ticks)
        ]
        events = [
            {"event": "fused_pose", "timestamp": t,
             "pose": {"x": 0.0, "y": 0.0, "yaw": 0.0}}
            for t in range(cfg.bus.enter_tick, cfg.bus.enter_tick + 10)
        ]
        m = compute_metrics(events, truth, cfg)
        assert m["coverage"] == pytest.approx(10 / active)

    def test_security_counters(self):
        cfg = self._cfg()
        events = [
            {"event": "confusion_alert", "tick": 3},
            {"event": "challenge", "tick": 3, "round": 1},
            {"event": "sync_resolved", "tick": 9, "round": 1},
            {"event": "sync_attribution", "tick": 9, "rsu": "rsu0", "entity": "atk0"},
        ]
        m = compute_metrics(events, [], cfg)
        assert m["confusion_alerts"] == 1
        assert m["challenge_rounds"] == 1
        assert m["attacker_accepted"] is True
        assert m["failed"] is False


class TestEndToEndRuns:
    def test_short_baseline_localizes(self):
        report = run_scenario(baseline(0, 60))
        m = report.metrics
        assert m["confusion_alerts"] == 0
        assert m["coverage"] > 0.8
        assert m["mean_position_error"] < 0.3
        assert m["final_bus_phase"] in ("LOCALIZING", "LEAVING", "CLOSED")

    def test_clone_attack_detected_and_resolved(self):
        report = run_scenario(clone(0, 2))
        m = report.metrics
        assert m["confusion_alerts"] >= 1
        assert m["bus_resolved_tick"] is not None
        assert m["attacker_accepted"] is False
        assert not m["failed"]

    def test_zero_latency_clone_fails_closed(self):
        report = run_scenario(clone(0, 0))
        m = report.metrics
        assert m["failed"] is True
        assert m["bus_resolved_tick"] is None
        assert m["attacker_accepted"] is False

    def test_rerun_byte_identical(self):
        cfg = clone(4, 1)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.report_json() == r2.report_json()
        assert r1.events_jsonl() == r2.events_jsonl()

    def test_message_conservation_in_report(self):
        m = run_scenario(baseline(1, 40)).metrics
        assert (
            m["messages_sent"]
            == m["messages_delivered"] + m["messages_dropped"] + m["messages_in_flight"]
        )


@lru_cache(maxsize=None)
def clone_run(seed, latency):
    return run_scenario(clone(seed, latency))


# latency 0 fails after max_rounds retries; latency 2 resolves in round 1
SESSION_CASES = [(seed, latency) for seed in (0, 1) for latency in (0, 2)]


class TestOneEventPerStateChange:
    @pytest.mark.parametrize("seed,latency", SESSION_CASES)
    def test_one_display_event_per_switch(self, seed, latency):
        report = clone_run(seed, latency)
        ticks = report.config_echo["ticks"]
        t_acts = [
            ev["t_act"]
            for ev in report.events
            if ev["event"] == "challenge" and ev["t_act"] < ticks
        ]
        switches = [ev["tick"] for ev in report.events if ev["event"].startswith("display")]
        assert t_acts and switches == t_acts
        screens = [rec["bus_screen"] for rec in report.truth]
        changed = [t for t in range(1, ticks) if screens[t] != screens[t - 1]]
        assert changed == t_acts

    @pytest.mark.parametrize("seed,latency", SESSION_CASES)
    def test_phase_events_are_changes(self, seed, latency):
        report = clone_run(seed, latency)
        logged = ["IDLE"] + [ev["phase"] for ev in report.events if ev["event"] == "phase"]
        assert all(a != b for a, b in zip(logged, logged[1:]))
        # every held phase is logged; a phase may also be logged and left
        # in the same tick (a round resolving at the leave tick)
        phases = [rec["bus_phase"] for rec in report.truth]
        held = [p for i, p in enumerate(phases) if i == 0 or p != phases[i - 1]]
        remaining = iter(logged)
        assert all(p in remaining for p in held)

    def test_every_logged_phase_is_held(self):
        # a phase may last zero ticks in some runs (see above), but one the
        # bus never holds in any run is logged and never held
        runs = [clone_run(*case) for case in SESSION_CASES]
        logged = {ev["phase"] for r in runs for ev in r.events if ev["event"] == "phase"}
        assert logged <= {rec["bus_phase"] for r in runs for rec in r.truth}

    def test_late_appointment_logs_sync_missed(self):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        blob["network"]["latency"] = 6  # TAG_UPDATE lands after its t_act
        report = run_scenario(ScenarioConfig.from_json_dict(blob))
        t_acts = {ev["round"]: ev["t_act"] for ev in report.events if ev["event"] == "challenge"}
        missed = [ev for ev in report.events if ev["event"] == "sync_missed"]
        assert missed
        for ev in missed:
            assert (ev["rsu"], ev["t_act"]) == ("rsu0", t_acts[ev["round"]])
            assert ev["tick"] > ev["t_act"]


# a 640x480 camera that sees neither vehicle
FAR_RSU = {"id": "rsu_far", "camera": overhead_camera(20.0, 0.0, 700.0, 640, 480)}

FAR_SHAPE, CLONE_SHAPE = (480, 640), (180, 240)


def lossy(latency, clone_fx=260.0) -> ScenarioConfig:
    """A lossy_multi_rsu session: clone seed 3, drop 0.1, the bystander listed
    first; clone_fx sets the clone camera's focal length in x."""
    blob = make_clone_attack_scenario(seed=3, reaction_latency=latency)
    blob["rsus"][0]["camera"]["fx"] = clone_fx
    blob["rsus"] = [FAR_RSU] + blob["rsus"]
    blob["network"]["drop"] = 0.1
    return ScenarioConfig.from_json_dict(blob)


def counting_draws(monkeypatch) -> Counter:
    """Patch simulate's frame_noise, which the worker calls, to count its
    draws per frame shape."""
    draws = Counter()
    real = vttag.simulate.frame_noise

    def counting(seed, h, w, **kwargs):
        draws[h, w] += 1
        return real(seed, h, w, **kwargs)

    monkeypatch.setattr(vttag.simulate, "frame_noise", counting)
    return draws


def fail_fifth_detect(monkeypatch) -> None:
    """Patch simulate's detect to raise on its fifth call."""
    calls = []
    real = vttag.simulate.detect

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("detector fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(vttag.simulate, "detect", failing)


@pytest.fixture
def cold_memo():
    """Start from an empty frame memo, so frames that earlier tests detected
    do not skip the calls a test counts."""
    vttag.simulate._family_for.cache_clear()


@pytest.mark.usefixtures("cold_memo")
class TestTracerTargets:
    """The benchmark's tracer times the agent steps by replacing them at
    their vttag.simulate names, so the driver must call them there."""

    @pytest.mark.parametrize("bystander, rsu_calls", [(False, 40), (True, 80)])
    def test_agent_steps_are_looked_up_in_simulate(self, monkeypatch, bystander, rsu_calls):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        if bystander:
            blob["rsus"] = blob["rsus"] + [FAR_RSU]
        calls = Counter()
        for name in ("rsu_step", "bus_step", "attacker_step"):
            real = getattr(vttag.simulate, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(vttag.simulate, name, counting)
        run_scenario(ScenarioConfig.from_json_dict(blob))
        assert calls == {"rsu_step": rsu_calls, "bus_step": 40, "attacker_step": 40}


    def test_detector_stages_are_looked_up_in_detector(self, monkeypatch):
        # detect runs each stage once over the frame's stack of quads: every
        # clone frame holds 3 quads (two tags and the halo beside them), and
        # the contrast test drops the halo before decode
        calls = Counter()
        stacks = Counter()
        for name in ("estimate_homography", "pose_from_homography", "decode_code"):
            real = getattr(vttag.detector, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                if _name != "decode_code":
                    stacks[_name, len(args[0])] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(vttag.detector, name, counting)
        run_scenario(clone(0, 2))
        assert calls == {"estimate_homography": 40, "pose_from_homography": 40, "decode_code": 80}
        assert stacks == {("estimate_homography", 3): 40, ("pose_from_homography", 2): 40}


@pytest.mark.usefixtures("cold_memo")
class TestTagFreeFrames:
    def test_bystander_frames_skip_the_window_sums(self, monkeypatch):
        # a lossy_multi_rsu session: sigma 1 keeps the bystander's grey range
        # within the 10-level offset, so binarize needs no window sums there
        blob = make_clone_attack_scenario(seed=3, reaction_latency=2)
        blob["rsus"] = [FAR_RSU] + blob["rsus"]
        blob["network"]["drop"] = 0.1
        frames = []  # [frame shape, _window_sums calls] per binarize call
        real_binarize, real_sums = vttag.detector.binarize, vttag.detector._window_sums

        def recording_binarize(image, *args, **kwargs):
            frames.append([image.pixels.shape, 0])
            return real_binarize(image, *args, **kwargs)

        def counting_sums(*args):
            frames[-1][1] += 1
            return real_sums(*args)

        monkeypatch.setattr(vttag.detector, "binarize", recording_binarize)
        monkeypatch.setattr(vttag.detector, "_window_sums", counting_sums)
        run_scenario(ScenarioConfig.from_json_dict(blob))
        assert Counter((shape, calls) for shape, calls in frames) == {
            ((480, 640), 0): 40,
            ((180, 240), 2): 40,
        }


@pytest.mark.usefixtures("cold_memo")
class TestNoisePrefetch:
    """Each camera's next noise field is drawn on a worker thread."""

    @pytest.mark.parametrize("bystander", [False, True])
    def test_frames_match_inline_render(self, monkeypatch, bystander):
        blob = make_clone_attack_scenario(seed=3 if bystander else 0, reaction_latency=2)
        if bystander:  # listed first
            blob["rsus"] = [FAR_RSU] + blob["rsus"]
            blob["network"]["drop"] = 0.1
        cfg = ScenarioConfig.from_json_dict(blob)
        rsu_of = {id(r.camera): i for i, r in enumerate(cfg.rsus)}
        ticks = [0] * len(cfg.rsus)
        real = vttag.simulate.render_scene

        def checked(camera, tags, family, noise_sigma=0.0, **kwargs):
            ri = rsu_of[id(camera)]
            render_seed = int(
                np.random.SeedSequence([cfg.seed, 0xCA13, ri, ticks[ri]]).generate_state(1)[0]
            )
            ticks[ri] += 1
            want = render_scene(camera, tags, family, noise_sigma=noise_sigma, seed=render_seed)
            got = real(camera, tags, family, noise_sigma=noise_sigma, **kwargs)
            assert np.array_equal(got.pixels, want.pixels)
            return got

        monkeypatch.setattr(vttag.simulate, "render_scene", checked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over often, to stress the buffer hand-off
        try:
            run_scenario(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert ticks == [cfg.ticks] * len(cfg.rsus)

    def test_warm_frames_match_inline_render(self, monkeypatch):
        # the latency-0 session after the latency-2 one: its bystander frames
        # hit, and a clone frame whose camera and seed are held but whose
        # screens differ misses with no field drawn ahead
        cfgs = [lossy(2), lossy(0)]
        rsu_of = {id(r.camera): i for cfg in cfgs for i, r in enumerate(cfg.rsus)}
        tick = [None]
        inline = Counter()  # whether a render drew its own field, per render
        real_step, real_render = vttag.simulate.step_session, vttag.simulate.render_scene

        def stepping(s, t, *args):
            tick[0] = t
            return real_step(s, t, *args)

        def checked(camera, tags, family, noise_sigma=0.0, **kwargs):
            render_seed = int(np.random.SeedSequence(
                [3, 0xCA13, rsu_of[id(camera)], tick[0]]).generate_state(1)[0])
            inline[kwargs.get("noise") is None] += 1
            want = render_scene(camera, tags, family, noise_sigma=noise_sigma, seed=render_seed)
            got = real_render(camera, tags, family, noise_sigma=noise_sigma, **kwargs)
            assert np.array_equal(got.pixels, want.pixels)
            return got

        monkeypatch.setattr(vttag.simulate, "step_session", stepping)
        monkeypatch.setattr(vttag.simulate, "render_scene", checked)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the GIL over often, to stress the buffer hand-off
        try:
            for cfg in cfgs:
                run_scenario(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert inline[True] > 0 and inline[False] > 0

    @pytest.mark.parametrize("sigma, workers", [(2.0, 1), (0.0, 0)])
    def test_worker_lives_only_within_a_noisy_session(self, monkeypatch, sigma, workers):
        before = threading.active_count()
        during = []
        real = vttag.simulate.detect

        def counting(*args, **kwargs):
            during.append(threading.active_count() - before)
            return real(*args, **kwargs)

        monkeypatch.setattr(vttag.simulate, "detect", counting)
        run_scenario(ScenarioConfig.from_json_dict(
            make_baseline_scenario(seed=0, ticks=8, noise_sigma=sigma)))
        assert during == [workers] * 16
        assert threading.active_count() == before

    def test_no_thread_outlives_a_failed_session(self, monkeypatch):
        before = threading.active_count()
        calls = []
        real = vttag.simulate.detect

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:  # mid-session, with the next draws queued
                raise RuntimeError("detector fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(vttag.simulate, "detect", failing)
        with pytest.raises(RuntimeError, match="detector fault"):
            run_scenario(baseline(0, 8))
        assert threading.active_count() == before

    def test_no_thread_outlives_a_failed_session_with_skipped_draws(self, monkeypatch):
        # every bystander frame of seed 3 is held, and no clone frame of
        # another focal length, so the worker draws only the clone's fields
        run_scenario(lossy(2))
        before = threading.active_count()
        draws = counting_draws(monkeypatch)
        fail_fifth_detect(monkeypatch)
        with pytest.raises(RuntimeError, match="detector fault"):
            run_scenario(lossy(2, clone_fx=250.0))
        assert draws[FAR_SHAPE] == 0 and draws[CLONE_SHAPE] > 0
        assert threading.active_count() == before


def counting_detect(monkeypatch) -> list:
    """Patch simulate's detect to count its calls; returns the one-item count."""
    calls = [0]
    real = vttag.simulate.detect

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(vttag.simulate, "detect", counting)
    return calls


def memo() -> dict:
    return clone(0, 0)._family_entry[1]


def held() -> Counter:
    return clone(0, 0)._family_entry[2]


@pytest.mark.usefixtures("cold_memo")
class TestFrameMemo:
    """Sessions that share a scenario seed detect each distinct frame once."""

    def test_laggards_detect_only_frames_not_seen_before(self, monkeypatch):
        # the three laggards show the same screens until their attackers
        # fall behind: latency 2 differs from latency 1 in one frame
        calls = counting_detect(monkeypatch)
        counts = []
        for latency in (1, 2, 5):
            before = calls[0]
            run_scenario(clone(0, latency))
            counts.append(calls[0] - before)
        assert counts == [40, 1, 3]

    def test_warm_runs_equal_cold_runs(self, monkeypatch):
        calls = counting_detect(monkeypatch)

        def outputs(warm):
            out = []
            for latency in (1, 2, 5, 0):
                if not warm:
                    vttag.simulate._family_for.cache_clear()
                r = run_scenario(clone(2, latency))
                out.append((r.report_json(), r.events_jsonl()))
            return out

        cold = outputs(warm=False)
        cold_calls, calls[0] = calls[0], 0
        vttag.simulate._family_for.cache_clear()
        assert outputs(warm=True) == cold
        assert calls[0] < cold_calls == 160

    @pytest.mark.parametrize("edit, misses", [
        ({}, 0),
        # the bystander listed first takes the clone camera's RSU index, and
        # so its noise seed
        ({"rsus": [FAR_RSU] + make_clone_attack_scenario(0, 2)["rsus"]}, 80),
        ({"noise_sigma": 2.0}, 80),
    ], ids=["same", "bystander-first", "noise_sigma"])
    def test_key_misses_on_another_frame(self, monkeypatch, edit, misses):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        blob["rsus"] = blob["rsus"] + [FAR_RSU]
        run_scenario(ScenarioConfig.from_json_dict(blob))
        calls = counting_detect(monkeypatch)
        run_scenario(ScenarioConfig.from_json_dict({**blob, **edit}))
        assert calls[0] == misses

    def test_key_keeps_the_tag_order(self):
        # a static attacker on the bus's path: the tags tie in depth and the
        # first placed one is drawn, so swapping their codes changes every frame
        def stacked(bus_code, attacker_code):
            blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
            blob["bus"]["initial_code"] = bus_code
            blob["attackers"][0].update(strategy="STATIC", initial_code=attacker_code,
                                        trajectory=blob["bus"]["trajectory"])
            return ScenarioConfig.from_json_dict(blob)

        run_scenario(stacked(1, 2))
        warm = run_scenario(stacked(2, 1))
        vttag.simulate._family_for.cache_clear()
        cold = run_scenario(stacked(2, 1))
        assert (warm.report_json(), warm.events_jsonl()) == (cold.report_json(), cold.events_jsonl())

    def test_memo_is_bounded_and_cleared_with_its_family(self, monkeypatch):
        size = vttag.simulate.FRAME_MEMO_SIZE
        seeds = range(size // 40 + 1)  # 40 distinct frames each, more than size in all
        for seed in [*seeds[:-1], seeds[0], seeds[-1]]:
            run_scenario(clone(seed, 2))
        assert len(memo()) == size
        # the least recently used frames went first: seed 0's, used again
        # before the last session, are all kept
        calls = counting_detect(monkeypatch)
        run_scenario(clone(seeds[0], 2))
        assert calls[0] == 0
        vttag.simulate._family_for.cache_clear()
        assert len(memo()) == 0

    def test_failed_detect_stores_nothing(self, monkeypatch):
        real = vttag.simulate.detect
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("detector fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(vttag.simulate, "detect", failing)
        with pytest.raises(RuntimeError, match="detector fault"):
            run_scenario(clone(0, 2))
        assert len(memo()) == 4
        monkeypatch.setattr(vttag.simulate, "detect", real)
        calls = counting_detect(monkeypatch)
        run_scenario(clone(0, 2))
        assert calls[0] == 36

    def test_failed_detect_counts_nothing(self, monkeypatch):
        fail_fifth_detect(monkeypatch)
        with pytest.raises(RuntimeError, match="detector fault"):
            run_scenario(clone(0, 2))
        assert held() == Counter((view, seed) for view, _, seed in memo())
        assert sum(held().values()) == 4

    def test_held_count_follows_the_memo(self):
        # 280 frames of other seeds and of seed 0 at latency 0 evict the
        # oldest; seed 0 at latency 5 then stores the frames whose screens
        # differ, under (view, seed) pairs already held
        size = vttag.simulate.FRAME_MEMO_SIZE
        for seed, latency in [*((seed, 2) for seed in range(1, size // 40 + 1)), (0, 0), (0, 5)]:
            run_scenario(clone(seed, latency))
        assert len(memo()) == size
        assert held() == Counter((view, seed) for view, _, seed in memo())
        assert max(held().values()) > 1
        vttag.simulate._family_for.cache_clear()
        assert len(memo()) == 0 and not held()

    def test_tag_free_frames_hit_across_screens(self, monkeypatch):
        # the bystander sees no tag, so its frames are keyed by its camera
        # and noise seed alone, whatever the screens show
        run_scenario(lossy(2))
        shapes = Counter()
        real = vttag.simulate.detect

        def counting(image, *args, **kwargs):
            shapes[image.pixels.shape] += 1
            return real(image, *args, **kwargs)

        monkeypatch.setattr(vttag.simulate, "detect", counting)
        run_scenario(lossy(0))
        assert shapes[FAR_SHAPE] == 0 and shapes[CLONE_SHAPE] > 0

    def test_held_frames_draw_no_noise(self, monkeypatch):
        draws = counting_draws(monkeypatch)
        run_scenario(lossy(2))
        assert draws[FAR_SHAPE] == 40
        draws.clear()
        run_scenario(lossy(0))
        assert draws[FAR_SHAPE] == 0
