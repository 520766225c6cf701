"""Command-line front end: family-gen, tag-render, detect, sim-run.

Exit codes: 0 on success, 1 on domain errors (missing/corrupt inputs,
generation failure), 2 on usage errors. Every subcommand accepts
``--out -`` to stream its JSON to stdout with nothing else mixed in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .codes import TagFamily, generate_family
from .detector import detect
from .errors import VttagError
from .imaging import CameraModel, Image, render_tag_bitmap
from .simulate import ScenarioConfig, run_scenario

__all__ = ["main", "run_cli"]


class _CliError(Exception):
    """Domain-level CLI failure; message is the one-line diagnostic."""


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_json(path: str, what: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"{what} file not found: {path}")
    try:
        return json.loads(p.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _CliError(f"corrupt {what} file {path}: {exc}") from exc


# what a JSON value of the wrong kind raises in a from_json_dict;
# OverflowError is Infinity in an integer field
_BAD_FIELD = (KeyError, OverflowError, TypeError, ValueError)


def _load_family(path: str) -> TagFamily:
    d = _load_json(path, "family")
    try:
        return TagFamily.from_json_dict(d)
    except _BAD_FIELD as exc:
        raise _CliError(f"corrupt family file {path}: {exc}") from exc


def _cmd_family_gen(args) -> None:
    try:
        family = generate_family(
            n=args.n,
            d_min=args.d_min,
            max_codes=args.count,
            seed=args.seed,
            budget=args.budget,
        )
    except ValueError as exc:  # a size, distance, count or budget out of range
        raise _CliError(str(exc)) from exc
    if len(family) < args.count:
        print(
            f"warning: found {len(family)} of {args.count} requested codes "
            f"within a budget of {args.budget} candidates",
            file=sys.stderr,
        )
    _write_text(args.out, json.dumps(family.to_json_dict(), indent=2) + "\n")


def _cmd_tag_render(args) -> None:
    family = _load_family(args.family)
    if not 0 <= args.id < len(family):
        raise _CliError(
            f"tag id {args.id} outside family of {len(family)} codes"
        )
    try:
        img = render_tag_bitmap(family, args.id, args.px)
    except (MemoryError, ValueError) as exc:  # pixels per cell out of range or too many
        raise _CliError(str(exc)) from exc
    if args.out == "-":
        raise _CliError("tag-render writes binary PGM; --out - is not supported")
    Path(args.out).write_bytes(img.to_pgm())


def _cmd_detect(args) -> None:
    family = _load_family(args.family)
    cam_dict = _load_json(args.camera, "camera")
    try:
        camera = CameraModel.from_json_dict(cam_dict)
    except _BAD_FIELD as exc:
        raise _CliError(f"corrupt camera file {args.camera}: {exc}") from exc
    img_path = Path(args.image)
    if not img_path.is_file():
        raise _CliError(f"image file not found: {args.image}")
    try:
        image = Image.from_pgm(img_path.read_bytes())
    except (OSError, ValueError) as exc:
        raise _CliError(f"corrupt image file {args.image}: {exc}") from exc
    try:
        detections = detect(image, camera, family, args.tag_size, args.window)
    except ValueError as exc:  # a window or tag size out of range
        raise _CliError(str(exc)) from exc
    report = [d.to_json_dict() for d in detections]
    _write_text(args.out, json.dumps(report, indent=2) + "\n")


def _cmd_sim_run(args) -> None:
    cfg_dict = _load_json(args.scenario, "scenario")
    config = ScenarioConfig.from_json_dict(cfg_dict)
    report = run_scenario(config)
    _write_text(args.out, report.report_json())
    if args.log is not None:
        _write_text(args.log, report.events_jsonl())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vttag",
        description="Identity-secured fiducial tags: codec, rendering, "
        "detection, and cooperative-localization simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family-gen", help="generate a Hamming-separated tag family")
    p.add_argument("--n", type=int, required=True, help="payload cells per side")
    p.add_argument("--d-min", type=int, required=True, help="minimum mutual distance")
    p.add_argument("--count", type=int, required=True, help="codes to generate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=2_000_000,
                   help="max candidates to examine")
    p.add_argument("--out", required=True, help="output JSON path, or - for stdout")
    p.set_defaults(func=_cmd_family_gen)

    p = sub.add_parser("tag-render", help="rasterize one tag to a PGM file")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--id", type=int, required=True, help="code index in the family")
    p.add_argument("--px", type=int, default=16, help="pixels per cell")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=_cmd_tag_render)

    p = sub.add_parser("detect", help="detect tags in a PGM image")
    p.add_argument("--image", required=True, help="input PGM path")
    p.add_argument("--family", required=True, help="family JSON path")
    p.add_argument("--camera", required=True, help="camera JSON path")
    p.add_argument("--tag-size", type=float, required=True,
                   help="black-border side length, meters")
    p.add_argument("--window", type=int, default=15,
                   help="adaptive threshold half-window, px")
    p.add_argument("--out", required=True, help="output JSON path, or - for stdout")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sim-run", help="run a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", required=True, help="report JSON path, or - for stdout")
    p.add_argument("--log", default=None,
                   help="optional JSONL event log path, or - for stdout")
    p.set_defaults(func=_cmd_sim_run)
    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        args.func(args)
    except (_CliError, VttagError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
