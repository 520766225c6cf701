"""Acceptance suite: one printed pass/fail line per top-level criterion.

Each test prints its verdict with capture suspended so the seven lines are
always visible in the terminal, then asserts so the run also fails
loudly. Criterion 3 runs on its own family at minimum distance 10: its two
clauses (<=4 flips always decode, 5 flips never give a wrong index) hold
together only when 4 + 5 < d_min. The other criteria use the scenarios'
distance-9 family.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from vttag.cli import run_cli
from vttag.codes import TagCode, decode_code, generate_family, hamming, identity_space_size, rotate90
from vttag.detector import detect
from vttag.imaging import BORDER_UNIT_CORNERS, CameraModel, PlacedTag, project, render_scene, tag_border_corners
from vttag.scenarios import make_baseline_scenario, make_clone_attack_scenario
from vttag.simulate import ScenarioConfig, run_scenario
from vttag.transforms import RigidTransform

from test_codes import check_family_separation


@pytest.fixture()
def verdict(capsys):
    """Printer for the criterion pass/fail line, bypassing pytest capture."""

    def _verdict(num: int, title: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)

    return _verdict


@pytest.fixture(scope="module")
def family():
    return generate_family(5, 9, 30, seed=42)


@pytest.fixture(scope="module")
def family_d10():
    # the greedy pass stops at 21 codes after its finish screens all 2^25
    # codes (~0.1 s); the swap phase finds the 30th after about 155M
    # candidates in all (~21-30 s in all on one 2-core Xeon, whose speed
    # drifts by up to 2x)
    return generate_family(5, 10, 30, seed=42, budget=200_000_000)


def test_criterion_1_family_validity(verdict):
    t0 = time.perf_counter()
    fam = generate_family(5, 9, 30, seed=42)
    elapsed = time.perf_counter() - t0
    min_dist = check_family_separation(fam)
    ok = len(fam) >= 30 and elapsed < 60.0 and min_dist >= 9
    verdict(1, "family n=5 d_min=9 count>=30 in <60s, verified independently",
            ok, f"{len(fam)} codes, min distance {min_dist}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_identity_space_constant(verdict):
    got = identity_space_size(6)
    ok = got == 68719476736
    verdict(2, "identity space for n=6 is 68719476736 exactly", ok, f"got {got}")
    assert ok


def test_criterion_3_codec_correction(family_d10, verdict):
    family = family_d10
    ok_family = len(family) >= 30 and check_family_separation(family) >= 10
    rng = np.random.default_rng(2024)
    wrong_low = 0
    for _ in range(1000):
        idx = int(rng.integers(len(family)))
        rot = int(rng.integers(4))
        nflips = int(rng.integers(0, 5))
        code = family.codes[idx]
        for _ in range(rot):
            code = rotate90(code)
        bits = list(code.bits)
        for p in rng.choice(25, size=nflips, replace=False):
            bits[p] = not bits[p]
        res = decode_code(TagCode(5, tuple(bits)), family)
        if res is None or (res.index, res.rotation) != (idx, rot):
            wrong_low += 1

    # five-flip clause: "no-match is fine, a wrong index is not". Random
    # probing plus a worst case aimed at the closest pairs: flip 5 of the
    # differing cells of code i toward a rotation of code j at distance
    # d_min. The word lands d_min - 5 from j, outside j's correction radius
    # only when d_min >= 10.
    wrong_five = 0
    closest_pairs = 0
    for _ in range(1000):
        idx = int(rng.integers(len(family)))
        bits = list(family.codes[idx].bits)
        for p in rng.choice(25, size=5, replace=False):
            bits[p] = not bits[p]
        res = decode_code(TagCode(5, tuple(bits)), family)
        if res is not None and res.index != idx:
            wrong_five += 1
    for i, ci in enumerate(family.codes):
        for j, cj in enumerate(family.codes):
            if i == j:
                continue
            target = cj
            for _ in range(4):
                if hamming(ci, target) == family.d_min:
                    closest_pairs += 1
                    diff = [p for p in range(25) if ci.bits[p] != target.bits[p]]
                    bits = list(ci.bits)
                    for p in diff[:5]:
                        bits[p] = not bits[p]
                    res = decode_code(TagCode(5, tuple(bits)), family)
                    if res is not None and res.index != i:
                        wrong_five += 1
                target = rotate90(target)

    ok_low = wrong_low == 0
    ok_five = wrong_five == 0
    verdict(3, "<=4 flips always decode; 5 flips never give a wrong index",
            ok_family and closest_pairs > 0 and ok_low and ok_five,
            f"{wrong_low}/1000 failures at <=4 flips, "
            f"{wrong_five} wrong-index results at 5 flips")
    assert ok_family, (len(family), check_family_separation(family))
    assert closest_pairs > 0
    assert ok_low
    assert ok_five


def _rotz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def _rotx(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])


def _sample_pose(rng, cam, tag_size):
    """Random front-facing pose whose full tag stays 12 px inside the frame."""
    full_half = tag_size * 9 / 7 / 2.0
    local = np.column_stack([BORDER_UNIT_CORNERS * full_half, np.zeros(4)])
    while True:
        depth = rng.uniform(5.0, 7.5)
        tilt = rng.uniform(np.radians(30), np.radians(60))
        roll = rng.uniform(0, 2 * np.pi)
        azim = rng.uniform(0, 2 * np.pi)
        base = np.diag([1.0, -1.0, -1.0])
        R = _rotz(azim) @ _rotx(tilt) @ _rotz(-azim) @ base @ _rotz(roll)
        off = rng.uniform(-depth * 0.2, depth * 0.2, 2)
        pose = RigidTransform(R, np.array([off[0], off[1], depth]))
        uvs = [project(cam, p) for p in pose.apply(local)]
        if any(u is None for u in uvs):
            continue
        uvs = np.array(uvs)
        if (uvs[:, 0].min() > 12 and uvs[:, 0].max() < cam.width - 12
                and uvs[:, 1].min() > 12 and uvs[:, 1].max() < cam.height - 12):
            return pose


def test_criterion_4_render_detect_round_trip(family, verdict):
    t0 = time.perf_counter()
    cam = CameraModel(fx=750.0, fy=750.0, cx=320.0, cy=240.0, width=640, height=480)
    tag_size = 1.6
    rng = np.random.default_rng(7)

    n_trials = 200
    poses = [(_sample_pose(rng, cam, tag_size), int(rng.integers(len(family))))
             for _ in range(n_trials)]

    stats = {}
    for sigma in (0.0, 4.0):
        n_det = n_id = 0
        corner_sq: list = []
        terrs: list = []
        rerrs: list = []
        for trial, (pose, idx) in enumerate(poses):
            tag = PlacedTag(index=idx, tag_size=tag_size, pose=pose)
            img = render_scene(cam, [tag], family, noise_sigma=sigma, seed=trial)
            dets = detect(img, cam, family, tag_size, window=20)
            if len(dets) != 1:
                continue
            d = dets[0]
            n_det += 1
            if d.code_index == idx:
                n_id += 1
            true_px = np.array([project(cam, p) for p in tag_border_corners(tag)])
            rolled = np.roll(d.quad.corners, d.rotation, axis=0)
            corner_sq.extend(((rolled - true_px) ** 2).sum(axis=1).tolist())
            terrs.append(
                np.linalg.norm(d.pose.translation - pose.translation)
                / pose.translation[2]
            )
            cos = (np.trace(d.pose.rotation @ pose.rotation.T) - 1.0) / 2.0
            rerrs.append(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
        stats[sigma] = {
            "rate": n_det / n_trials,
            "id_acc": n_id / max(1, n_det),
            "corner_rms": float(np.sqrt(np.mean(corner_sq))),
            "trans_pct": float(np.mean(terrs)) * 100.0,
            "rot_deg": float(np.mean(rerrs)),
        }
    elapsed = time.perf_counter() - t0

    s0, s4 = stats[0.0], stats[4.0]
    ok = (
        s0["rate"] >= 0.99
        and s0["corner_rms"] <= 0.5
        and s0["trans_pct"] <= 1.0
        and s0["rot_deg"] <= 1.0
        and s4["rate"] >= 0.95
        and s4["id_acc"] == 1.0
        and elapsed < 120.0
    )
    verdict(
        4, "200-pose round trip meets accuracy targets at sigma 0 and 4", ok,
        f"s0 rate {s0['rate']:.3f} cornerRMS {s0['corner_rms']:.3f}px "
        f"trans {s0['trans_pct']:.3f}% rot {s0['rot_deg']:.3f}deg; "
        f"s4 rate {s4['rate']:.3f} id {s4['id_acc']:.3f}; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_5_honest_cooperation(verdict):
    cfg = ScenarioConfig.from_json_dict(
        make_baseline_scenario(seed=0, ticks=300, noise_sigma=2.0)
    )
    m = run_scenario(cfg).metrics
    ok = (
        m["confusion_alerts"] == 0
        and m["mean_position_error"] <= 0.2
        and np.degrees(m["mean_yaw_error"]) <= 2.0
        and m["coverage"] >= 0.9
    )
    verdict(
        5, "honest baseline localizes quietly and accurately", ok,
        f"alerts {m['confusion_alerts']}, pos {m['mean_position_error']:.3f}m, "
        f"yaw {np.degrees(m['mean_yaw_error']):.2f}deg, "
        f"coverage {m['coverage']:.3f}",
    )
    assert ok


def test_criterion_6_identity_security(verdict):
    n_seeds = 100
    failures: list = []
    for latency in (1, 2, 5):
        for seed in range(n_seeds):
            cfg = ScenarioConfig.from_json_dict(
                make_clone_attack_scenario(seed=seed, reaction_latency=latency)
            )
            m = run_scenario(cfg).metrics
            if not (
                m["confusion_alerts"] >= 1
                and m["bus_resolved_tick"] is not None
                and m["challenge_rounds"] <= 3
                and not m["attacker_accepted"]
                and not m["failed"]
            ):
                failures.append((latency, seed, m))
    for seed in range(n_seeds):
        cfg = ScenarioConfig.from_json_dict(
            make_clone_attack_scenario(seed=seed, reaction_latency=0)
        )
        m = run_scenario(cfg).metrics
        if not (m["failed"] and not m["attacker_accepted"]):
            failures.append((0, seed, m))
    ok = not failures
    verdict(
        6, "clone attacks always detected; laggards resolved, mimics fail closed",
        ok, f"{len(failures)} failing runs of {4 * n_seeds}",
    )
    assert ok, failures[:3]


def test_criterion_7_determinism(tmp_path, verdict):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(make_clone_attack_scenario(seed=11, reaction_latency=2))
    )
    blobs = []
    for i in range(2):
        out = tmp_path / f"report{i}.json"
        log = tmp_path / f"events{i}.jsonl"
        code = run_cli([
            "sim-run", "--scenario", str(scenario),
            "--out", str(out), "--log", str(log),
        ])
        assert code == 0
        blobs.append((out.read_bytes(), log.read_bytes()))
    ok = blobs[0] == blobs[1]
    verdict(7, "sim-run twice gives byte-identical report and event log", ok)
    assert ok
