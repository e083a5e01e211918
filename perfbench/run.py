"""Benchmark of the qdssim simulator and analytic pipeline.

    python3 perfbench/run.py --workload honest-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh process with the BLAS/OpenMP thread
variables set to 1, one at a time. The generated inputs go to a
temporary directory under ``.perfbench/`` in the checkout, which also
keeps one result record per run and the last span trace per workload.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("honest-mc", "record-replay", "campaigns", "design-scan")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh processes per run; setup_s is the median of their set-up times, each
# scaled to reference seconds by a yardstick the process runs right after.
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170  # every run ends within this, set-up included

BENCHMARK_FILE = ROOT / "BENCHMARK.json"
WORK_NAMES = {"elements": "elements_per_s", "points": "points_per_s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "threads": {name: child_env()[name] for name in THREAD_VARIABLES},
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                facts[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    facts["commit"] = git_commit(ROOT / ".git")
    return facts


def git_commit(git: Path) -> str:
    """HEAD's commit, read from the checkout's own .git; "unknown" outside a clone."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class RunError(Exception):
    pass


def start_worker(inputs: Path, seconds: float, trace: int, setup_only: bool):
    """Start a worker and wait for its ``ready`` line; return it and its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RunError(f"worker did not start: {line.strip()!r}")
    return proc, setup


def finish_worker(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, tmp: Path, listed: list[dict]) -> dict:
    """Run one workload: set-up samples, then the measured worker; return its record."""
    began = time.perf_counter()
    work_dir = tmp / name
    work_dir.mkdir()
    inputs = workloads.make_inputs(name, seed, work_dir, ROOT)
    setups, raw_setups = [], []
    for _ in range(SETUP_SAMPLES):
        proc, setup = start_worker(inputs, seconds, trace, setup_only=True)
        scale = float(finish_worker(proc, 30))
        raw_setups.append(setup)
        setups.append(setup * scale)
    proc, _ = start_worker(inputs, seconds, trace, setup_only=False)
    out = finish_worker(proc, RUN_LIMIT_S - (time.perf_counter() - began))
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    worker = json.loads(lines[-1])
    errors = worker["errors"] + worker.get("trace_errors", [])
    attempted, failed = worker["attempted"], worker["failed"]
    if trace:
        values = worker["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "work_per_s": worker["work_per_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_share": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "worker": {k: v for k, v in worker.items() if k not in ("errors", "per_layer")},
    }


def print_summary(res: dict):
    unit = res["worker"]["unit"]
    print(f"[{res['workload']} seed={res['seed']} trace={res['trace']}] rounds={res['worker']['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    for name, m in res["metrics"].items():
        note = f"  ({WORK_NAMES[unit]}: {unit} per second)" if name == "work_per_s" else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{note}")
    for e in res["errors"]:
        print(f"  error: {e}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdssim" / "__init__.py").is_file():
        print(f"error: no qdssim source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        listed = json.loads(BENCHMARK_FILE.read_text())["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {BENCHMARK_FILE}: {exc}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    state = ROOT / ".perfbench"
    (state / "results").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="inputs-", dir=state))
    results = []
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, tmp, listed)
            res["machine"] = dict(facts, numpy=res["worker"]["numpy"])
            record = state / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            record.write_text(json.dumps(res, indent=1) + "\n")
            results.append(res)
    except (RunError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("machine " + json.dumps(results[0]["machine"]))
    for res in results:
        print_summary(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
