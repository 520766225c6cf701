"""CLI behavior: round trips, exit codes, stdout purity."""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vttag.cli import run_cli
from vttag.imaging import CameraModel, Image, PlacedTag, render_scene
from vttag.codes import TagFamily, generate_family
from vttag.scenarios import make_clone_attack_scenario
from vttag.transforms import RigidTransform

from test_sim import BAD_GEOMETRY, MALFORMED, OUT_OF_RANGE, OUT_OF_RANGE_IDS, set_path


def assert_one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


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
        fam = TagFamily.from_json_dict(json.loads(family_path.read_text()))
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
        "option, value",
        [("--count", "0"), ("--n", "1"), ("--d-min", "0"), ("--budget", "2"), ("--n", "9"),
         ("--seed", "-3")],
    )
    def test_out_of_range_setting_exits_1(self, capsys, option, value):
        # argparse keeps the last of a repeated option
        assert run_cli([
            "family-gen", "--n", "4", "--d-min", "6", "--count", "3",
            option, value, "--out", "-",
        ]) == 1
        err = assert_one_error_line(capsys)
        assert option[2:].replace("-", "_") in err  # the error names the setting


class TestTagRender:
    def test_renders_pgm(self, family_path, tmp_path):
        out = tmp_path / "tag.pgm"
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "2",
            "--px", "8", "--out", str(out),
        ]) == 0
        img = Image.from_pgm(out.read_bytes())
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

    @pytest.mark.parametrize("px", ["0", "-3"])
    def test_non_positive_px_exits_1(self, family_path, tmp_path, capsys, px):
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "0",
            "--px", px, "--out", str(tmp_path / "t.pgm"),
        ]) == 1
        assert_one_error_line(capsys)

    def test_unallocatable_px_exits_1(self, family_path, tmp_path, capsys):
        # (4 + 4) * 10**9 pixels square: numpy refuses the bitmap at once
        assert run_cli([
            "tag-render", "--family", str(family_path), "--id", "0",
            "--px", str(10**9), "--out", str(tmp_path / "t.pgm"),
        ]) == 1
        assert_one_error_line(capsys)


def write_scene(tmp_path):
    """A 240 x 180 PGM of tag 3 of the family_path family, and its camera's JSON."""
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
    img_path.write_bytes(img.to_pgm())
    cam_path = tmp_path / "camera.json"
    cam_path.write_text(json.dumps(cam.to_json_dict()))
    return img_path, cam_path


class TestDetect:
    def test_round_trip_detection(self, family_path, tmp_path, capsys):
        img_path, cam_path = write_scene(tmp_path)
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
        img_path.write_bytes(Image(np.full((120, 160), 96, dtype=np.uint8)).to_pgm())
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
        img_path, cam_path = write_scene(tmp_path)
        # argparse keeps the last of a repeated option
        assert run_cli([
            "detect", "--image", str(img_path), "--family", str(family_path),
            "--camera", str(cam_path), "--tag-size", "0.6", option, value,
            "--out", "-",
        ]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_window_as_frame_wide(self, family_path, tmp_path, capsys):
        # a window wider than the 240 x 180 frame covers all of it
        img_path, cam_path = write_scene(tmp_path)
        reports = []
        for window in (10**30, 240):
            assert run_cli([
                "detect", "--image", str(img_path), "--family", str(family_path),
                "--camera", str(cam_path), "--tag-size", "0.6", "--window", str(window),
                "--out", "-",
            ]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_missing_image_exits_1(self, family_path, tmp_path, capsys):
        _, cam_path = write_scene(tmp_path)
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
        ("tag-render", "family-n9"), ("detect", "family-n9"),
    ])
    def test_infinite_integer_in_input_exits_1(self, tmp_path, capsys, command, bad):
        # json reads Infinity into a float, which int() cannot take; the
        # family-n9 cases hold a well-formed 9 x 9 family, whose 81-bit codes
        # the 64-bit packing cannot take
        family = generate_family(4, 6, 8, seed=7).to_json_dict()
        camera = CameraModel(fx=500.0, fy=500.0, cx=80.0, cy=60.0,
                             width=160, height=120).to_json_dict()
        if bad == "family":
            family["n"] = float("inf")
        elif bad == "family-n9":
            family.update(n=9, codes=["0" * 81, "01" * 40 + "0"])
        else:
            camera["width"] = float("inf")
        paths = {}
        for name, blob in (("family", family), ("camera", camera)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(blob))
        image = tmp_path / "blank.pgm"
        image.write_bytes(Image(np.full((120, 160), 96, dtype=np.uint8)).to_pgm())
        argv = {
            "tag-render": ["--id", "0", "--out", str(tmp_path / "t.pgm")],
            "detect": ["--image", str(image), "--camera", str(paths["camera"]),
                       "--tag-size", "0.6", "--out", "-"],
        }[command]
        assert run_cli([command, "--family", str(paths["family"])] + argv) == 1
        err = assert_one_error_line(capsys)
        assert bad != "family-n9" or "corrupt family file" in err


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
        assert key in assert_one_error_line(capsys)

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


# Numeric option values: negative, zero, small and huge. A --px between about
# 10**3 and 10**8 could allocate its (n + 4) * px square bitmap, so the menu
# has none; 10**9 fails at once.
INTS = [-3, -1, 0, 1, 2, 10**9, 10**30]
TAG_SIZES = [float("nan"), float("inf"), float("-inf"), -1.0, 0.0, 1e-300, 1.0, 1e308]
# A larger budget with a count the search cannot reach runs until the budget
# is spent, by design.
BUDGETS = [-1, 0, 1, 2**16]


def options(values, *names):
    """argv of the given options, each with a value drawn from values."""
    return st.tuples(*(st.sampled_from(values) for _ in names)).map(
        lambda vs: [a for name, v in zip(names, vs) for a in (name, str(v))]
    )


NUMERIC_RUNS = st.one_of(
    st.tuples(st.just("family-gen"), options(INTS, "--n", "--d-min", "--count", "--seed"),
              options(BUDGETS, "--budget")),
    st.tuples(st.just("tag-render"), options(INTS, "--id", "--px")),
    st.tuples(st.just("detect"), options(INTS, "--window"), options(TAG_SIZES, "--tag-size")),
).map(lambda run: [run[0]] + [a for part in run[1:] for a in part])


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    family = tmp / "family.json"
    family.write_text(json.dumps(generate_family(4, 6, 8, seed=7).to_json_dict()))
    image, camera = write_scene(tmp)
    return {"--family": family, "--image": image, "--camera": camera, "--out": tmp / "out"}


# the files each subcommand reads and writes
FILES = {
    "family-gen": ["--out"],
    "tag-render": ["--family", "--out"],
    "detect": ["--image", "--family", "--camera", "--out"],
}


@settings(max_examples=200, deadline=None)
@given(argv=NUMERIC_RUNS)
@example(argv=["tag-render", "--id", "0", "--px", str(10**9)])
@example(argv=["detect", "--window", str(10**30), "--tag-size", "1.0"])
@example(argv=["detect", "--window", "15", "--tag-size", "1e-300"])
def test_numeric_options_exit_cleanly(input_files, argv):
    # any numeric option value ends in an exit code, never a traceback
    files = [str(a) for name in FILES[argv[0]] for a in (name, input_files[name])]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = run_cli(argv + files)
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
