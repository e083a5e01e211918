"""Write BENCH_<N>.json: one point of the repository's benchmark trajectory.

    python3 tools/bench_trajectory.py --number N
    python3 tools/bench_trajectory.py --number N --checkout ../other-checkout --seed 1 --seconds 20

Runs ``perfbench/run.py --workload all`` in the checkout twice, at
``--trace 0`` (end-to-end metrics) and at ``--trace 1`` (per-layer
metrics), and reads the result record each workload leaves in
``.perfbench/results/``. The point holds the machine facts, both sets of
metrics per workload, whether every run was correct, and the number of
lines under ``src/``; its commit is the checkout's HEAD, or null outside a
git checkout. It is written to the root of this repository, and
each metric is printed with its ratio to the newest ``BENCH_<n>.json``
there with n < N. perfbench is run as a program, never imported or changed.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

HOME = Path(__file__).resolve().parent.parent
SECTIONS = {0: "end_to_end", 1: "per_layer"}


def run_perfbench(checkout: Path, seed: int, seconds: float, trace: int) -> tuple[bool, dict]:
    """Whether a ``--workload all`` run was correct, and each workload's result record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    records = {}
    for path in sorted((checkout / ".perfbench" / "results").glob(f"*-seed{seed}-trace{trace}.json")):
        record = json.loads(path.read_text())
        records[record["workload"]] = record
    return summary["correct"], records


def head_commit(checkout: Path) -> str | None:
    """The commit checked out at ``checkout``; None unless it is the top of a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout:
        return None
    return lines[1]


def src_lines(checkout: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((checkout / "src").rglob("*.py")))


def previous(number: int) -> tuple[int, dict] | None:
    """The newest BENCH_<n>.json in the repository root with n < number."""
    found = []
    for path in HOME.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < number:
            found.append((int(m.group(1)), path))
    if not found:
        return None
    n, path = max(found)
    return n, json.loads(path.read_text())


def print_ratios(point: dict, earlier: tuple[int, dict] | None, better: dict[str, str]):
    tag = f"BENCH_{earlier[0]}" if earlier else "no earlier point"
    print(f"BENCH_{point['number']} against {tag}; ratio new/old, '+' where the metric improved")
    for section in SECTIONS.values():
        for workload, metrics in point[section].items():
            for name, value in metrics.items():
                old = earlier[1].get(section, {}).get(workload, {}).get(name) if earlier else None
                line = f"  {section:10s} {workload:14s} {name:46s} {value:>12.6g}"
                if isinstance(old, (int, float)) and old:
                    ratio = value / old
                    sign = ""
                    if name in better and ratio != 1 and math.isfinite(ratio):
                        sign = "+" if (ratio > 1) == (better[name] == "higher") else "-"
                    line += f"  x{ratio:.3f} {sign}"
                print(line)
    if earlier:
        print(f"  src_lines {earlier[1].get('src_lines')} -> {point['src_lines']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True, help="number of the point, as in BENCH_<N>.json")
    ap.add_argument("--checkout", type=Path, default=HOME, help="checkout to measure (default: this one)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()

    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for s in SECTIONS.values() for m in benchmark[s]}
    point = {"number": args.number, "seed": args.seed, "seconds": args.seconds}
    for trace, section in SECTIONS.items():
        correct, records = run_perfbench(checkout, args.seed, args.seconds, trace)
        point.setdefault("machine", next(iter(records.values()))["machine"])
        point[f"correct_trace{trace}"] = correct
        point[section] = {
            workload: {name: m["value"] for name, m in record["metrics"].items()}
            for workload, record in records.items()
        }
    point["machine"]["commit"] = head_commit(checkout)
    point["src_lines"] = src_lines(checkout)

    earlier = previous(args.number)
    out = HOME / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print_ratios(point, earlier, better)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
