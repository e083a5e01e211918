"""One workload run in a fresh process, started by run.py.

Imports qdssim from the checkout's ``src``, resolves the workload's
configuration, prints ``ready`` (run.py times set-up up to that line),
then repeats the workload's rounds until ``--seconds`` have passed and
prints one JSON line with the measurements.

With ``--trace 1`` the first half of the time runs untraced, and the
same rounds then run again with every layer wrapped by the span
recorder; the two walls give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from yardstick import Yardstick

ROOT = Path(__file__).resolve().parents[1]
MAX_ERRORS = 20
SETUP_YARDSTICK = ("interp",)  # importing is interpreted work
SETUP_YARDSTICK_TICKS = 60


class Phase:
    """Walls, work and failures of consecutive rounds.

    ``walls`` are the program's own seconds in each round, yardstick runs
    excluded. The yardstick ticks between rounds and between a round's
    operations, so its runs sample the machine's speed evenly over the
    phase; ``ref_seconds`` is the phase's total wall in reference seconds.
    """

    def __init__(self, kernels: tuple[str, ...]):
        self.yard = Yardstick(kernels)
        self.walls: list[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, wl, rounds: int | None = None, deadline: float | None = None, recorder=None):
        yard = self.yard
        k = 0
        while (k < rounds) if rounds is not None else (k == 0 or time.perf_counter() < deadline):
            if recorder is not None:
                recorder.run_id = k
            wl.prepare(k)
            yard.tick()
            inside = yard.seconds
            t0 = time.perf_counter()
            rnd = wl.execute(k, yard.tick)
            self.walls.append(time.perf_counter() - t0 - (yard.seconds - inside))
            yard.tick()
            self.work += rnd.work
            failed, errors = wl.check(rnd)
            self.attempted += rnd.ops
            self.failed += failed
            self.errors += errors[: MAX_ERRORS - len(self.errors)]
            k += 1
        return self

    @property
    def ref_seconds(self) -> float:
        return sum(self.walls) * self.yard.scale()


def layer_metrics(recorder, labels, workload, rounds, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, per round where a total is meant."""
    from workloads import REQUIRED_SPANS

    summary = recorder.summary()

    def stat(label, key):
        return summary.get(label, {}).get(key, 0) / rounds

    m = {}
    for label in (
        "cli.main", "protocol.distribute", "protocol.count_mismatches", "protocol.write_transcript",
        "protocol.read_transcript", "security.estimate_cost_matrix", "security.analyze",
        "security.read_cost_matrix", "config.ExperimentConfig.protocol_params",
        "detection.phase_click_matrix", "detection.measurement_rates",
        "discrimination.min_error_probability", "discrimination.srm_outcomes",
        "adversary.repudiation_frequency", "adversary.forge_campaign", "adversary.active_forge_budget",
    ):
        m[f"{label}.self_s"] = stat(label, "self_s")
    for label in (
        "protocol.distribute", "security.analyze", "security.decompose",
        "config.ExperimentConfig.protocol_params", "detection.phase_click_matrix",
        "detection.click_probability", "discrimination.min_error_probability",
    ):
        m[f"{label}.calls"] = stat(label, "calls")
    dist = recorder.distribute
    m["protocol.distribute.peak_bytes_per_element"] = max(dist.peak_bytes_per_element, default=0.0)
    m["protocol.stored_click_fraction"] = dist.clicked / dist.stored if dist.stored else 0.0
    exchange = recorder.durations("protocol.run_honest_exchange")
    m["protocol.run_honest_exchange.p50_s"] = statistics.median(exchange) if exchange else 0.0
    m["protocol.run_honest_exchange.samples"] = len(exchange)
    write = recorder.write
    m["protocol.write_transcript.bytes"] = write.bytes / rounds
    m["stored_bytes_per_element"] = write.bytes / write.elements if write.elements else 0.0
    m["trace.overhead_share"] = (traced.ref_seconds - untraced.ref_seconds) / untraced.ref_seconds
    missing = [
        f"traced run never reached {label} on {workload}"
        for label in REQUIRED_SPANS[workload]
        if label not in labels or summary.get(label, {}).get("calls", 0) == 0
    ]
    return m, missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import qdssim

    if Path(qdssim.__file__).resolve().parent != (ROOT / "src" / "qdssim").resolve():
        print(f"error: imported qdssim from {qdssim.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 3
    import workloads

    inputs = json.loads(Path(args.inputs).read_text())
    wl = workloads.WORKLOADS[inputs["workload"]](inputs, qdssim)
    print("ready", flush=True)
    if args.setup_only:
        # the machine's speed right after set-up, to scale it to reference seconds
        yard = Yardstick(SETUP_YARDSTICK)
        yard.tick()
        snapshot = yard.seconds, yard.reps
        for _ in range(SETUP_YARDSTICK_TICKS):
            yard.tick()
        print(yard.scale(*snapshot), flush=True)
        return 0

    start = time.perf_counter()
    result = {"numpy": numpy.__version__, "unit": wl.unit}
    if not args.trace:
        phase = Phase(wl.yardstick).run(wl, deadline=start + args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["work_per_s"] = phase.work / phase.ref_seconds
        result["raw_work_per_s"] = phase.work / sum(phase.walls)
        phases = [phase]
    else:
        from spans import SpanRecorder

        untraced = Phase(wl.yardstick).run(wl, deadline=start + args.seconds / 2)
        recorder = SpanRecorder()
        labels = recorder.install(qdssim)
        try:
            traced = Phase(wl.yardstick).run(wl, rounds=len(untraced.walls), recorder=recorder)
        finally:
            recorder.uninstall()
        result["per_layer"], missing = layer_metrics(
            recorder, labels, inputs["workload"], len(untraced.walls), untraced, traced
        )
        result["trace_errors"] = missing
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        recorder.dump(out / f"trace-{inputs['workload']}.npz")
        result["spans"] = len(recorder.start)
        phases = [untraced, traced]
    result["rounds"] = sum(len(p.walls) for p in phases)
    result["attempted"] = sum(p.attempted for p in phases)
    result["failed"] = sum(p.failed for p in phases)
    result["errors"] = [e for p in phases for e in p.errors][:MAX_ERRORS]
    result["round_walls_s"] = [w for p in phases for w in p.walls]
    result["yardstick_scale"] = [p.yard.scale() for p in phases]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
