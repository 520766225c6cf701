"""Benchmark of vttag's roadside loop and its identity-family search.

    python3 bench/run.py --workload clone_sweep --seed 1 --seconds 20 --trace 0

Runs one workload through vttag's public API, in this process and thread,
as a closed loop: each operation (one ``run_scenario`` session, or one
``generate_family`` call) starts when the previous one has finished. The
loop runs whole rounds of operations until ``--seconds`` have passed.
Every output is checked against ground truth computed in ``checks.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run is traced and the
metrics are the per-layer ones, and its spans are written to
``bench/out/``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread, as the loop itself

import argparse
import contextlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

try:
    import numpy as np
    import vttag.codes
    import vttag.scenarios
    import vttag.simulate
except ImportError as exc:
    sys.exit(f"bench: cannot import vttag from {SRC}: {exc}")
if Path(vttag.simulate.__file__).resolve().parent != SRC / "vttag":
    sys.exit(f"bench: vttag was imported from {vttag.simulate.__file__}, not {SRC}")

import checks  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("clone_sweep", "lossy_multi_rsu", "family_search")

# Laggard sessions at drop 0 fail every time (post-resolution hijack, or RSU
# order with the bystander first), so they run on fixed scenario seeds,
# round r on seed r % 25, whatever --seed is. Mimic sessions pass, and take
# their scenario seeds from --seed.
FIXED_SEEDS = 25
# Sessions with message loss pass or fail by the drop stream of their
# scenario seed, so every round runs them on this one seed, the one
# ROADMAP.md reproduces both the order fault and the loss fault on.
LOSSY_SEED = 3
DROPS = (0.0, 0.1, 0.2)
# A camera far from the road: it sees neither vehicle.
BYSTANDER = {"id": "rsu_far", "camera": vttag.scenarios.overhead_camera(20.0, 0.0, 700.0, 640, 480)}

# generate_family(5, 10, 26, seed) on the seeds criterion 3 uses: the greedy
# pass stops at 21-22 codes on each, so every call walks all 2^25
# candidates and then the one-swap phase.
SEARCH = {"n": 5, "d_min": 10, "count": 26, "budget": 400_000_000}
SEARCH_SEEDS = (0, 1, 7, 42)
# The family every clone scenario names, which simulate builds and caches.
SCENARIO_FAMILY = vttag.scenarios.make_clone_attack_scenario(0, 0)["family"]

SETUP_REPEATS = 5


def passing_seed(seed: int, r: int) -> int:
    """Scenario seed of round r's mimic sessions, drawn from --seed."""
    return int(np.random.SeedSequence([seed, r, 0xBE4C]).generate_state(1)[0] % 1_000_000)


class Session:
    """One run_scenario call on a clone-attack scenario."""

    kind = "session"

    def __init__(self, seed: int, latency: int, drop: float = 0.0, bystander: str = ""):
        d = vttag.scenarios.make_clone_attack_scenario(seed, latency)
        d["network"]["drop"] = drop
        if bystander == "first":
            d["rsus"] = [BYSTANDER] + d["rsus"]
        elif bystander == "last":
            d["rsus"] = d["rsus"] + [BYSTANDER]
        self.scenario = d
        self.config = vttag.simulate.ScenarioConfig.from_json_dict(d)
        self.frames = self.config.ticks * len(self.config.rsus)
        self.label = f"seed={seed} latency={latency} drop={drop} bystander={bystander or '-'}"

    def run(self):
        return vttag.simulate.run_scenario(self.config)

    def check(self, report):
        return checks.check_session(self.scenario, report.events)


class Family:
    """One generate_family call."""

    kind = "family"
    frames = 0

    def __init__(self, n: int, d_min: int, count: int, seed: int, **budget):
        self.args = (n, d_min, count)
        self.kwargs = {"seed": seed, **budget}
        self.label = f"family n={n} d_min={d_min} count={count} seed={seed}"

    def run(self):
        return vttag.codes.generate_family(*self.args, **self.kwargs)

    def check(self, family):
        return checks.check_family([c.bits for c in family.codes], *self.args), []


def build_round(workload: str, seed: int, r: int) -> list:
    """The operations of round r; every round has the same make-up."""
    mimic = passing_seed(seed, r)
    fixed = r % FIXED_SEEDS
    # The simulation workloads also rebuild their scenarios' family now and
    # then, as operations of its own, so family_s is sampled across the run.
    if workload == "clone_sweep":
        sessions = [Session(mimic, 0)] + [Session(fixed, latency) for latency in (1, 2, 5)]
        return sessions + [Family(**SCENARIO_FAMILY)]
    if workload == "lossy_multi_rsu":
        ops = []
        for drop in DROPS:
            for latency in (2, 0):
                for order in ("first", "last"):
                    if drop:
                        s = LOSSY_SEED
                    else:
                        s = fixed if latency else mimic
                    ops.append(Session(s, latency, drop, order))
            ops.append(Family(**SCENARIO_FAMILY))
        return ops
    # a mimic session on fixed inputs, so this workload exercises every layer too
    return [Family(**SEARCH, seed=SEARCH_SEEDS[(seed + r) % len(SEARCH_SEEDS)]), Session(fixed, 0)]


def set_up(workload: str, seed: int) -> float:
    """Build round 0's configs and run one untimed session, from a cold family cache.

    Returns the set-up's wall time, which includes simulate's lazy family build.
    """
    # simulate caches the family it builds; clear it so every repeat builds it
    cache = getattr(vttag.simulate, "_family_for", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    t0 = time.perf_counter()
    ops = build_round(workload, seed, 0)
    next(op for op in ops if op.kind == "session").run()
    return time.perf_counter() - t0


class Tally:
    """What the measured operations of one run produced."""

    def __init__(self):
        self.attempted = self.failed = self.unexpected = self.frames = 0
        self.session_s = 0.0
        self.family_s: list = []
        self.errors: list = []  # POSE_REPORT planar errors, m
        self.reasons: Counter = Counter()
        self.kinds: dict = {}  # operation id -> "session" or "family"
        self.sessions: list = []  # (sent, delivered, dropped, challenge rounds, events)
        self.log: list = []  # (label, seconds, frames, failed checks)

    def run(self, op, op_id: str) -> None:
        self.attempted += 1
        self.kinds[op_id] = op.kind
        t0 = time.perf_counter()
        try:
            out = op.run()
            dt = time.perf_counter() - t0
            why, errs = op.check(out)
        except Exception:  # a crash fails the operation, not the run
            traceback.print_exc()
            dt = time.perf_counter() - t0
            out, why, errs = None, ["exception"], []
        if op.kind == "family":
            self.family_s.append(dt)
        else:
            self.session_s += dt
            self.frames += op.frames
            self.errors.extend(errs)
            if out is not None:
                m = out.metrics
                self.sessions.append((m["messages_sent"], m["messages_delivered"],
                                      m["messages_dropped"], m["challenge_rounds"],
                                      len(out.events)))
        self.log.append((op.label, dt, op.frames, why))
        if why:
            self.failed += 1
            self.reasons.update(why)
            if not set(why) <= checks.FAULT_REASONS:
                self.unexpected += 1
                print(f"unexpected failure {why} in {op.label}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tally = Tally()
    with Tracer() if args.trace else contextlib.nullcontext() as tracer:
        setups = [set_up(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        for r in itertools.count():
            if r and time.perf_counter() - start >= args.seconds:
                break  # only whole rounds, and at least one
            for k, op in enumerate(build_round(args.workload, args.seed, r)):
                op_id = f"r{r}.{k}"
                if tracer:
                    tracer.op = op_id
                tally.run(op, op_id)
        elapsed = time.perf_counter() - start

    print(f"{args.workload} seed={args.seed}: {tally.attempted} operations in "
          f"{elapsed:.1f} s, {tally.failed} failed")
    for why, n in sorted(tally.reasons.items()):
        print(f"  failed check {why}: {n}")
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(out_dir / f"spans-{name}.jsonl")
        metrics = layer_metrics(tracer, tally.kinds, tally.frames, tally.session_s,
                                tally.sessions)
    else:
        metrics = {
            "ms_per_frame": (tally.session_s * 1e3 / tally.frames if tally.frames else 0.0, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pose_error_mm": (statistics.fmean(tally.errors) * 1e3 if tally.errors else 0.0, "mm"),
            "family_s": (statistics.median(tally.family_s), "s"),
        }
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"result": result, "setups": setups, "operations": tally.log}
    (out_dir / f"result-{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
