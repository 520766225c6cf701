"""Span tracing for the benchmark's traced run, and the per-layer figures.

The tracer replaces public vttag functions at the module attribute their
callers look up (``vttag.simulate.detect``, ``vttag.detector.binarize``,
...) with wrappers that record one span per call: name, start, end, parent
span and operation id. Spans stay in memory until the run ends. There is
one thread, so a span's self time (its duration minus the time its child
spans cover) is busy time: nothing in the loop waits.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import vttag.codes
import vttag.detector
import vttag.protocol
import vttag.simulate

# span name -> the modules whose attribute of that function is replaced.
# A module is listed when code being measured calls the function through it.
TARGETS = {
    "simulate.run_scenario": (vttag.simulate,),
    "imaging.render_scene": (vttag.simulate,),
    "detector.detect": (vttag.simulate,),
    "detector.binarize": (vttag.detector,),
    "detector.extract_quads": (vttag.detector,),
    "detector.estimate_homography": (vttag.detector,),
    "detector.pose_from_homography": (vttag.detector,),
    "codes.decode_code": (vttag.detector,),
    "codes.generate_family": (vttag.simulate, vttag.codes),
    "localization.vehicle_pose_from_detection": (vttag.simulate,),
    "localization.fuse_poses": (vttag.protocol,),
    "protocol.rsu_step": (vttag.simulate,),
    "protocol.bus_step": (vttag.simulate,),
    "protocol.attacker_step": (vttag.simulate,),
}

# span name -> how many items a call produced, kept with its span
_SIZES = {
    "detector.extract_quads": len,
    "detector.detect": len,
    "localization.fuse_poses": lambda fused: fused.n_views,
}


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op, size]
        self.op = None  # id of the operation now running
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        size = _SIZES.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if size is not None:
                span[5] = size(out)
            return out

        return traced

    def __enter__(self):
        for name, modules in TARGETS.items():
            attr = name.split(".")[1]
            for module in modules:
                fn = getattr(module, attr)
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def layer_metrics(tracer: Tracer, ops: dict, frames: int, wall_s: float, sessions: list) -> dict:
    """Per-layer figures of the measured operations, as name -> (value, unit).

    ops maps each measured operation id to its kind ("session" or
    "family"); frames and wall_s are the camera frames of the measured
    sessions and the wall time they took under tracing; sessions holds
    (messages sent, delivered, dropped, challenge rounds, events) per
    measured session. Time per frame is busy time summed over the run and
    divided by its frames; time per call is a mean; calls are per session.
    """
    child = defaultdict(int)
    for s in tracer.spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    total = defaultdict(int)
    own = defaultdict(int)
    calls = defaultdict(int)
    sizes = defaultdict(int)
    session_self = 0
    for i, s in enumerate(tracer.spans):
        if s[4] not in ops:
            continue  # set-up spans
        name = s[0]
        dur = s[2] - s[1]
        total[name] += dur
        own[name] += dur - child[i]
        calls[name] += 1
        sizes[name] += max(s[5], 0)
        if ops[s[4]] == "session":
            session_self += dur - child[i]

    per_frame = max(frames, 1)
    n_sessions = max(len(sessions), 1)

    def ms_per_frame(ns):
        return ns / 1e6 / per_frame, "ms"

    def ratio(a, b, unit):
        return (a / b if b else 0.0), unit

    m = {}
    for name in ("imaging.render_scene", "detector.detect", "detector.binarize",
                 "detector.extract_quads"):
        m[f"{name}.ms"] = ms_per_frame(total[name])
    for name in ("imaging.render_scene", "detector.detect"):
        m[f"{name}.calls"] = ratio(calls[name], n_sessions, "1/session")
    m["detector.detect.self_ms"] = ms_per_frame(own["detector.detect"])
    quads = sizes["detector.extract_quads"]
    dets = sizes["detector.detect"]
    m["detector.quads_per_frame"] = ratio(quads, per_frame, "count")
    m["detector.detections_per_frame"] = ratio(dets, per_frame, "count")
    m["detector.decode_yield"] = ratio(dets, quads, "ratio")
    m["detector.decode_yield.quads"] = (quads, "count")
    for name in ("detector.estimate_homography", "detector.pose_from_homography",
                 "codes.decode_code", "localization.vehicle_pose_from_detection",
                 "localization.fuse_poses", "protocol.rsu_step", "protocol.bus_step",
                 "protocol.attacker_step"):
        m[f"{name}.us"] = ratio(total[name] / 1e3, calls[name], "us")
        m[f"{name}.calls"] = ratio(calls[name], n_sessions, "1/session")
    name = "codes.generate_family"
    m[f"{name}.s"] = ratio(total[name] / 1e9, calls[name], "s")
    m["localization.fuse_poses.views"] = ratio(
        sizes["localization.fuse_poses"], calls["localization.fuse_poses"], "count")
    m["protocol.challenge_rounds"] = ratio(sum(s[3] for s in sessions), n_sessions, "count")
    m["simulate.run_scenario.self_ms"] = ms_per_frame(own["simulate.run_scenario"])
    for k, key in enumerate(("sent", "delivered", "dropped")):
        m[f"simulate.channel.{key}"] = ratio(sum(s[k] for s in sessions), n_sessions, "count")
    m["simulate.events_per_session"] = ratio(sum(s[4] for s in sessions), n_sessions, "count")
    m["trace.ms_per_frame"] = (wall_s * 1e3 / per_frame, "ms")
    m["trace.self_sum_ms_per_frame"] = ms_per_frame(session_self)
    return m
