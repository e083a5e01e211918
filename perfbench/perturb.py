"""Show that the output checks fail on perturbed outputs.

    python3 perfbench/perturb.py

Runs one real round of each workload, checks that it passes, then
perturbs one output at a time (a pinned analytic line, a Monte Carlo
line beyond five sigma, a transcript that no longer reads back as
written, one ulp of one scan point) and checks that each perturbation is
caught. Exits 1 if a clean round fails or a perturbed one passes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qdssim  # noqa: E402

import workloads as w  # noqa: E402


def edit(result: w.CliResult, key: str, value) -> w.CliResult:
    lines = []
    for line in result.stdout.splitlines():
        k, _, v = line.partition(" = ")
        lines.append(f"{k} = {value(v) if callable(value) else value}" if k == key else line)
    return dataclasses.replace(result, stdout="\n".join(lines) + "\n")


def last_digit(v: str) -> str:
    return v[:-1] + str((int(v[-1]) + 1) % 10)


def honest_cases(rnd):
    sim = rnd.outputs["simulate"]
    yield "pinned auth_threshold, last digit", {"simulate": edit(sim, "auth_threshold", last_digit)}
    yield "estimated_p_honest 25% high", {"simulate": edit(sim, "estimated_p_honest", lambda v: repr(float(v) * 1.25))}
    yield "18 null clicks per run at Bob", {"simulate": edit(sim, "mean_null_count_bob", "18")}
    aborted = edit(edit(sim, "bob_accepted_freq", "0"), "bob_rejected_freq", "0")
    yield "every Bob run aborted", {"simulate": edit(aborted, "bob_aborted_freq", "1")}
    yield "exit code 1", {"simulate": dataclasses.replace(sim, rc=1)}


def replay_cases(rnd):
    tb, tc = rnd.outputs["transcripts"]
    key = tb.key_phases
    first_miss = int(next(i for i in range(len(key)) if not tb.view.eliminations[i, key[i]]))
    flipped = tb.view.eliminations.copy()
    flipped[first_miss, key[first_miss]] = True
    bob = dataclasses.replace(tb, view=dataclasses.replace(tb.view, eliminations=flipped))
    yield "one elimination flag flipped on read-back", {"transcripts": (bob, tc)}
    other = tc.key_phases.copy()
    other[0] = (other[0] + 1) % 4
    yield "Charlie's key differs from Bob's", {"transcripts": (tb, dataclasses.replace(tc, key_phases=other))}
    yield "cost_matrix.txt pulse count off by one", "pulses"


def campaign_cases(rnd):
    rep = rnd.outputs["repudiate"]
    yield "repudiation success above its bound", {"repudiate": edit(rep, "empirical_success", "0.999")}
    fp = rnd.outputs["forge_passive"]
    yield "forger mismatch fraction 1% high", {"forge_passive": edit(fp, "mean_mismatch_fraction", lambda v: repr(float(v) * 1.01))}
    fa = rnd.outputs["forge_active_bound"]
    yield "pinned active-forging margin, last digit", {"forge_active_bound": edit(fa, "margin", last_digit)}


def scan_cases(rnd):
    rows = dict(rnd.outputs["rows"])
    idx = next(iter(rows))
    col = w.REPORT_FIELDS.index("g_lower")
    row = list(rows[idx])
    row[col] = math.nextafter(row[col], math.inf)
    yield "one scan point's g_lower one ulp up", {"rows": {**rows, idx: tuple(row)}}
    yield "bounds required_length + 1", {"bounds": edit(rnd.outputs["bounds"], "required_length", lambda v: str(int(v) + 1))}
    yield "one scan point raised", {"failures": {idx: "ValueError('perturbed')"}}


def main() -> int:
    ok = True
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="perturb-", dir=state))
    try:
        for name, cls in w.WORKLOADS.items():
            work_dir = tmp / name
            work_dir.mkdir()
            wl = cls(json.loads(w.make_inputs(name, 0, work_dir, ROOT).read_text()), qdssim)
            wl.prepare(0)
            rnd = wl.execute(0, lambda: None)
            failed, errors = wl.check(rnd)
            print(f"{name}: clean round -> {'pass' if not failed else 'FAIL ' + str(errors)}")
            ok &= not failed
            if name == "honest-mc":
                cases = honest_cases(rnd)
            elif name == "record-replay":
                cases = replay_cases(rnd)
            elif name == "campaigns":
                cases = campaign_cases(rnd)
            else:
                cases = scan_cases(rnd)
            for label, change in cases:
                if change == "pulses":
                    path = Path(wl.inputs["out_dir"]) / "cost_matrix.txt"
                    original = path.read_text()
                    head, _, body = original.partition("\n")
                    counts = head.split()
                    counts[2] = str(int(counts[2]) + 1)
                    path.write_text(" ".join(counts) + "\n" + body)
                    failed, errors = wl.check(rnd)
                    path.write_text(original)
                else:
                    perturbed = copy.copy(rnd)
                    perturbed.outputs = {**rnd.outputs, **change}
                    failed, errors = wl.check(perturbed)
                caught = failed > 0 and errors
                print(f"  {label}: {'caught' if caught else 'NOT CAUGHT'}" + (f" ({errors[0]})" if errors else ""))
                ok &= bool(caught)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("all perturbations caught" if ok else "some check did not behave")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
