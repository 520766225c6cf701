"""Each of the benchmark's checkers rejects a broken input.

    python3 -m pytest bench -q

Every test starts from an input the checker accepts, breaks one thing in
it, and asserts that the checker now names the broken property.
"""

import copy
import json
import math
from pathlib import Path

import pytest

import checks
import run  # puts the repo's src/ on sys.path

import vttag


@pytest.fixture(scope="module")
def family():
    fam = vttag.generate_family(5, 9, 30, seed=42)
    return [c.bits for c in fam.codes]


def test_family_accepted(family):
    assert checks.check_family(family, 5, 9, 30) == []


def test_family_code_moved_to_d_min_minus_one_rejected(family):
    bad = list(family)
    near = list(bad[0])
    for i in range(8):  # flip d_min - 1 = 8 cells of code 0
        near[i] = not near[i]
    bad[5] = tuple(near)
    assert checks.check_family(bad, 5, 9, 30) == ["family_separation"]


def test_family_size_and_repeat_rejected(family):
    assert checks.check_family(family[:29], 5, 9, 30) == ["family_size"]
    repeated = family[:29] + [family[3]]
    assert "family_duplicate" in checks.check_family(repeated, 5, 9, 30)


def test_separation_sees_rotations():
    # a code and its own quarter turn are 0 apart under rotation
    code = tuple(bool(b) for b in [1, 1, 0, 0, 0, 0, 1, 0, 1])
    turned = [code[6], code[3], code[0], code[7], code[4], code[1], code[8], code[5], code[2]]
    assert checks.min_separation([code, tuple(turned)], 3) == 0


def _session(latency):
    s = run.Session(11, latency)
    return s.scenario, list(s.run().events)


@pytest.fixture(scope="module")
def mimic():
    return _session(0)


@pytest.fixture(scope="module")
def laggard():
    return _session(2)


def test_mimic_session_accepted(mimic):
    scenario, events = mimic
    reasons, errors = checks.check_session(scenario, events)
    assert reasons == []
    assert errors and max(errors) < checks.SINGLE_VIEW_TOL_M


def test_mimic_that_resolves_rejected(mimic):
    scenario, events = mimic
    events = events + [{"tick": 20, "event": "sync_resolved", "round": 1}]
    assert "b_attacker" in checks.check_session(scenario, events)[0]


def test_unique_verdict_on_attacker_rejected(mimic):
    scenario, events = mimic
    truth = checks.SessionTruth(scenario)
    ax, ay, az = truth.tag_world("atk0", 9)
    cam = scenario["rsus"][0]["camera"]["pose"]  # R = diag(1, -1, -1)
    tag_xyz = [ax - cam["t"][0], -(ay - cam["t"][1]), -(az - cam["t"][2])]
    verdict = {"kind": "unique", "count": 1, "impostors": 1, "tag_xyz": tag_xyz}
    events = events + [{"tick": 9, "event": "sync_evaluated", "rsu": "rsu0", "verdict": verdict}]
    assert "b_attacker" in checks.check_session(scenario, events)[0]


def _on_bus_after_resolution(scenario, events):
    """The laggard log with every post-resolution fused pose put on the bus."""
    truth = checks.SessionTruth(scenario)
    resolved = next(ev["tick"] for ev in events if ev["event"] == "sync_resolved")
    out = copy.deepcopy(events)
    for ev in out:
        if ev["event"] == "fused_pose" and ev["tick"] >= resolved:
            ev["pose"]["x"], ev["pose"]["y"] = truth.xy("bus", ev["timestamp"])
    return out


def test_fused_pose_shifted_after_resolution_rejected(laggard):
    scenario, events = laggard
    events = _on_bus_after_resolution(scenario, events)
    assert checks.check_session(scenario, events)[0] == []
    resolved = next(ev["tick"] for ev in events if ev["event"] == "sync_resolved")
    last = [ev for ev in events if ev["event"] == "fused_pose" and ev["tick"] >= resolved][-1]
    last["pose"]["y"] += 1.0
    assert checks.check_session(scenario, events)[0] == ["d_fused_off_bus"]


def test_laggard_hijack_is_seen(laggard):
    # the unmended program fuses the follower's copy with the bus
    assert checks.check_session(*laggard)[0] == ["d_fused_off_bus"]


def test_pose_report_moved_rejected(mimic):
    scenario, events = mimic
    events = copy.deepcopy(events)
    report = next(
        ev for ev in events
        if ev["event"] == "message" and ev["msg"]["kind"] == "POSE_REPORT"
    )
    report["msg"]["payload"]["estimate"]["pose"]["y"] += 1.0
    reasons, errors = checks.check_session(scenario, events)
    assert reasons == ["e_report_off_vehicle"]
    assert max(errors) > checks.SINGLE_VIEW_TOL_M


def test_session_that_never_ends_rejected(mimic):
    scenario, events = mimic
    events = [ev for ev in events if not (ev["event"] == "phase" and ev["phase"] == "FAILED")]
    assert checks.check_session(scenario, events)[0] == ["a_no_end"]


def test_lossless_laggard_that_fails_rejected(laggard):
    scenario, events = laggard
    events = [ev for ev in events if ev["event"] != "sync_resolved"]
    assert "c_unresolved" in checks.check_session(scenario, events)[0]


def test_truth_interpolates_waypoints():
    wps = [{"tick": 0, "x": 0.0, "y": 0.0, "yaw": 0.0}, {"tick": 10, "x": 2.0, "y": -1.0, "yaw": 0.0}]
    assert checks._interpolate(wps, 5) == (1.0, -0.5, 0.0)
    assert checks._interpolate(wps, 20) == (2.0, -1.0, 0.0)
    assert checks._interpolate(wps, -3) == (0.0, 0.0, 0.0)
    turn = [{"tick": 0, "x": 0, "y": 0, "yaw": 3.0}, {"tick": 2, "x": 0, "y": 0, "yaw": -3.0}]
    yaw = checks._interpolate(turn, 1)[2]
    assert math.isclose(abs(yaw), math.pi, abs_tol=0.01)  # the short way round


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys):
    spec = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    run.main(["--workload", "clone_sweep", "--seed", "0", "--seconds", "0",
              "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 3
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[key]}
