"""CLI behavior: round trips, exit codes, stdout purity."""

from __future__ import annotations

import json

import numpy as np
import pytest

from vttag.cli import run_cli
from vttag.imaging import CameraModel, Image, PlacedTag, render_scene
from vttag.codes import TagFamily, generate_family
from vttag.scenarios import make_clone_attack_scenario
from vttag.transforms import RigidTransform

from test_sim import BAD_GEOMETRY, MALFORMED, OUT_OF_RANGE, OUT_OF_RANGE_IDS, set_path


def assert_one_error_line(capsys) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.fixture()
def family_path(tmp_path):
    path = tmp_path / "family.json"
    assert run_cli([
        "family-gen", "--n", "4", "--d-min", "6", "--count", "8",
        "--seed", "7", "--out", str(path),
    ]) == 0
    return path


class TestFamilyGen:
    def test_writes_loadable_family(self, family_path):
        fam = TagFamily.load(family_path)
        assert fam.n == 4 and len(fam) == 8
        assert fam == generate_family(4, 6, 8, seed=7)

    def test_stdout_is_pure_json(self, capsys):
        assert run_cli([
            "family-gen", "--n", "4", "--d-min", "6", "--count", "3",
            "--seed", "1", "--out", "-",
        ]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["n"] == 4

    def test_short_family_warns_on_stderr(self, capsys):
        # the budget covers only the greedy pass, which stops at 13 codes
        assert run_cli([
            "family-gen", "--n", "4", "--d-min", "6", "--count", "14",
            "--seed", "0", "--budget", "65536", "--out", "-",
        ]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["codes"]) == 13
        assert captured.err.startswith("warning:")
        assert all(s in captured.err for s in ("13", "14", "65536"))

    def test_impossible_family_exits_1(self, capsys, tmp_path):
        code = run_cli([
            "family-gen", "--n", "2", "--d-min", "9", "--count", "5",
            "--budget", "100", "--out", str(tmp_path / "f.json"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "option, value", [("--count", "0"), ("--n", "1"), ("--d-min", "0"), ("--budget", "2")]
    )
    def test_out_of_range_setting_exits_1(self, capsys, option, value):
        # argparse keeps the last of a repeated option
        assert run_cli([
            "family-gen", "--n", "4", "--d-min", "6", "--count", "3",
            option, value, "--out", "-",
        ]) == 1
        assert_one_error_line(capsys)


class TestTagRender:
    def test_renders_pgm(self, family_path, tmp_path):
        out = tmp_path / "tag.pgm"
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "2",
            "--px", "8", "--out", str(out),
        ]) == 0
        img = Image.load_pgm(out)
        # 4 payload cells + black border + white quiet zone, 8 px per cell
        assert img.pixels.shape == (64, 64)

    def test_out_of_range_id_exits_1(self, family_path, tmp_path):
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "99",
            "--out", str(tmp_path / "t.pgm"),
        ]) == 1

    def test_stdout_rejected_for_binary(self, family_path):
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "0", "--out", "-",
        ]) == 1


class TestDetect:
    def _scene(self, tmp_path):
        fam = generate_family(4, 6, 8, seed=7)
        cam = CameraModel(fx=500.0, fy=500.0, cx=120.0, cy=90.0,
                          width=240, height=180)
        tag = PlacedTag(
            index=3, tag_size=0.6,
            pose=RigidTransform(np.diag([1.0, -1.0, -1.0]),
                                np.array([0.0, 0.0, 2.0])),
        )
        img = render_scene(cam, [tag], fam)
        img_path = tmp_path / "scene.pgm"
        img.save_pgm(img_path)
        cam_path = tmp_path / "camera.json"
        cam_path.write_text(json.dumps(cam.to_json_dict()))
        return img_path, cam_path

    def test_round_trip_detection(self, family_path, tmp_path, capsys):
        img_path, cam_path = self._scene(tmp_path)
        assert run_cli([
            "detect", "--image", str(img_path), "--family", str(family_path),
            "--camera", str(cam_path), "--tag-size", "0.6", "--out", "-",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report) == 1
        assert report[0]["code_index"] == 3
        assert abs(report[0]["pose"]["t"][2] - 2.0) < 0.05

    def test_blank_image_empty_list_exit_0(self, family_path, tmp_path, capsys):
        img_path = tmp_path / "blank.pgm"
        Image(np.full((120, 160), 96, dtype=np.uint8)).save_pgm(img_path)
        cam = CameraModel(fx=500.0, fy=500.0, cx=80.0, cy=60.0,
                          width=160, height=120)
        cam_path = tmp_path / "camera.json"
        cam_path.write_text(json.dumps(cam.to_json_dict()))
        assert run_cli([
            "detect", "--image", str(img_path), "--family", str(family_path),
            "--camera", str(cam_path), "--tag-size", "0.6", "--out", "-",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize(
        "option, value", [("--window", "0"), ("--tag-size", "0"), ("--tag-size", "nan")]
    )
    def test_out_of_range_setting_exits_1(self, family_path, tmp_path, capsys, option, value):
        img_path, cam_path = self._scene(tmp_path)
        # argparse keeps the last of a repeated option
        assert run_cli([
            "detect", "--image", str(img_path), "--family", str(family_path),
            "--camera", str(cam_path), "--tag-size", "0.6", option, value,
            "--out", "-",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_image_exits_1(self, family_path, tmp_path, capsys):
        _, cam_path = self._scene(tmp_path)
        assert run_cli([
            "detect", "--image", str(tmp_path / "nope.pgm"),
            "--family", str(family_path), "--camera", str(cam_path),
            "--tag-size", "0.6", "--out", "-",
        ]) == 1
        assert "not found" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_exits_2(self, capsys):
        assert run_cli(["family-gen", "--frobnicate", "1"]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["no-such-command"]) == 2

    def test_corrupt_family_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli([
            "tag-render", "--family", str(bad), "--id", "0",
            "--out", str(tmp_path / "t.pgm"),
        ]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert run_cli(["--help"]) == 0

    @pytest.mark.parametrize("command, bad", [
        ("tag-render", "family"), ("detect", "family"), ("detect", "camera"),
    ])
    def test_infinite_integer_in_input_exits_1(self, tmp_path, capsys, command, bad):
        # json reads Infinity into a float, which int() cannot take
        family = generate_family(4, 6, 8, seed=7).to_json_dict()
        camera = CameraModel(fx=500.0, fy=500.0, cx=80.0, cy=60.0,
                             width=160, height=120).to_json_dict()
        if bad == "family":
            family["n"] = float("inf")
        else:
            camera["width"] = float("inf")
        paths = {}
        for name, blob in (("family", family), ("camera", camera)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(blob))
        image = tmp_path / "blank.pgm"
        Image(np.full((120, 160), 96, dtype=np.uint8)).save_pgm(image)
        argv = {
            "tag-render": ["--id", "0", "--out", str(tmp_path / "t.pgm")],
            "detect": ["--image", str(image), "--camera", str(paths["camera"]),
                       "--tag-size", "0.6", "--out", "-"],
        }[command]
        assert run_cli([command, "--family", str(paths["family"])] + argv) == 1
        assert_one_error_line(capsys)


class TestSimRun:
    def test_deterministic_outputs(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            json.dumps(make_clone_attack_scenario(seed=2, reaction_latency=1))
        )
        outs = []
        logs = []
        for i in range(2):
            out = tmp_path / f"report{i}.json"
            log = tmp_path / f"events{i}.jsonl"
            assert run_cli([
                "sim-run", "--scenario", str(scenario),
                "--out", str(out), "--log", str(log),
            ]) == 0
            outs.append(out.read_bytes())
            logs.append(log.read_bytes())
        assert outs[0] == outs[1]
        assert logs[0] == logs[1]
        report = json.loads(outs[0])
        assert report["metrics"]["confusion_alerts"] >= 1

    def test_bad_scenario_exits_1(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"ticks": 5}))
        assert run_cli([
            "sim-run", "--scenario", str(scenario), "--out", "-",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "section, key, value", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS
    )
    def test_value_below_one_exits_1(self, tmp_path, capsys, section, key, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2)
        target = blob[section] if section else blob
        (target[0] if section == "attackers" else target)[key] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(blob))
        assert run_cli([
            "sim-run", "--scenario", str(scenario), "--out", "-",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("path, value", MALFORMED)
    def test_malformed_scenario_exits_1(self, tmp_path, capsys, path, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2, ticks=6)
        set_path(blob, path, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(blob))
        assert run_cli([
            "sim-run", "--scenario", str(scenario), "--out", "-",
        ]) == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("path, value", BAD_GEOMETRY)
    def test_bad_vehicle_geometry_exits_1(self, tmp_path, capsys, path, value):
        blob = make_clone_attack_scenario(seed=0, reaction_latency=2, ticks=6)
        set_path(blob, path, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(blob))
        assert run_cli([
            "sim-run", "--scenario", str(scenario), "--out", "-",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")
