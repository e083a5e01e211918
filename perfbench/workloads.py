"""The four workloads: generated inputs, one timed round, and its checks.

Every workload uses the paper-2014 preset. A round is the unit the
worker times and repeats until its time is up; the workload seed only
chooses the seeds the program gets and the order of the scan, so the
analytic outputs are the same for every seed and are pinned exactly.

honest-mc      one ``simulate`` call: HONEST_TRIALS runs at L = 10^6, no --out.
record-replay  one ``simulate --trials 1 --out`` at L = 2*10^5, then
               ``read_transcript`` on both transcripts and
               ``estimate_cost_matrix`` from them.
campaigns      for one seed: ``attack repudiate`` (10^6 trials),
               ``forge_passive`` (2*10^5 trials) and ``forge_active_bound``,
               the last two on the bundled matrix.
design-scan    every point of a 50 alpha_sq x 40 multiport-loss grid
               (``protocol_params`` -> ``analyze`` on the analytic click
               matrix -> ``measurement_rates``), then ``bounds`` on the
               bundled matrix.

An operation, the unit of ``attempted`` and ``failed``, is one CLI call or
one scan point; a record-replay round is one operation.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import (
    as_count,
    binom_outlier,
    binom_tail,
    check_cli,
    check_keys,
    check_pinned,
    normal_outlier,
    parse_kv,
)

PRESET = "paper-2014"
HONEST_LENGTH = 1_000_000
HONEST_TRIALS = 2
REPLAY_LENGTH = 200_000
CAMPAIGN_LENGTH = 1_000_000
REPUDIATE_TRIALS = 1_000_000
FORGE_TRIALS = 200_000
GRID_ALPHA_SQ = [(i + 2) / 10 for i in range(50)]  # 0.2 .. 5.1
GRID_LOSS_DB = [j / 2 for j in range(40)]  # 0 .. 19.5
ROUND_SEEDS = 4096
SCAN_POINTS_PER_TICK = 100
BUNDLED_MATRIX = Path("src/qdssim/data/reference_cost_matrix.txt")
EXPECTED_FILE = Path(__file__).parent / "expected.json"

SIMULATE_KEYS = (
    "runs", "length", "alpha_sq", "auth_threshold", "verify_threshold",
    "null_abort_fraction", "analytic_p_honest", "estimated_p_honest",
    "bob_accepted_freq", "bob_rejected_freq", "bob_aborted_freq",
    "charlie_accepted_freq", "charlie_rejected_freq", "charlie_aborted_freq",
    "mean_mismatch_fraction_bob", "mean_mismatch_fraction_charlie",
    "mean_null_count_bob", "mean_null_count_charlie", "expected_null_count",
)
SIMULATE_PINNED = (
    "alpha_sq", "auth_threshold", "verify_threshold", "null_abort_fraction",
    "analytic_p_honest", "expected_null_count",
)
REPORT_FIELDS = (
    "alpha_sq", "security_level", "p_honest", "guaranteed_advantage", "min_error",
    "g_lower", "g_upper", "c_min_lower", "c_min_upper", "auth_threshold",
    "verify_threshold", "required_length", "failure_bound",
)
PARAM_FIELDS = ("auth_threshold", "verify_threshold", "null_abort_fraction")
RATE_FIELDS = ("elimination_success", "elimination_error", "full_identification", "identification_error")


# ------------------------------------------------------------------ inputs

def make_inputs(workload: str, seed: int, tmp: Path, root: Path) -> Path:
    """Write the generated inputs of one run into ``tmp``; return the index file."""
    rnd = random.Random(f"{workload}:{seed}")
    lengths = {"honest-mc": HONEST_LENGTH, "record-replay": REPLAY_LENGTH}
    config = tmp / "config.json"
    config.write_text(json.dumps({"length": lengths.get(workload, CAMPAIGN_LENGTH)}))
    matrix = tmp / "matrix.txt"
    shutil.copyfile(root / BUNDLED_MATRIX, matrix)
    grid = [
        [i * len(GRID_LOSS_DB) + j, a, loss]
        for i, a in enumerate(GRID_ALPHA_SQ)
        for j, loss in enumerate(GRID_LOSS_DB)
    ]
    rnd.shuffle(grid)
    inputs = {
        "workload": workload,
        "seed": seed,
        "config": str(config),
        "matrix": str(matrix),
        "out_dir": str(tmp / "out"),
        "round_seeds": [rnd.getrandbits(31) for _ in range(ROUND_SEEDS)],
        "grid": grid if workload == "design-scan" else [],
    }
    index = tmp / "inputs.json"
    index.write_text(json.dumps(inputs))
    return index


# ------------------------------------------------------------------ calls

@dataclass
class CliResult:
    argv: list[str]
    rc: int | None
    stdout: str
    stderr: str
    exception: str | None


def call_cli(qdssim, argv: list[str]) -> CliResult:
    """Run ``qdssim.cli.main(argv)`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = qdssim.cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash of the run
        return CliResult(argv, None, out.getvalue(), err.getvalue(), repr(exc))
    return CliResult(argv, rc, out.getvalue(), err.getvalue(), None)


@dataclass
class Round:
    """What one round produced: work units, operations attempted, raw outputs."""

    work: float
    ops: int
    outputs: dict = field(default_factory=dict)


class Workload:
    unit = "elements"
    yardstick: tuple[str, ...] = ()  # yardstick kernels that load the machine as this workload does

    def __init__(self, inputs: dict, qdssim):
        self.q = qdssim
        self.inputs = inputs
        overlay = json.loads(Path(inputs["config"]).read_text())
        self.config = qdssim.config.config_from_dict({**qdssim.config.PRESETS[PRESET], **overlay})
        self.params = self.config.protocol_params()

    @functools.cached_property
    def expected(self) -> dict:
        return json.loads(EXPECTED_FILE.read_text())

    def seed(self, k: int) -> int:
        seeds = self.inputs["round_seeds"]
        return seeds[k % len(seeds)]

    def common_argv(self, k: int) -> list[str]:
        return ["--preset", PRESET, "--config", self.inputs["config"], "--seed", str(self.seed(k))]

    def prepare(self, k: int):
        """Untimed set-up before round ``k``."""

    def execute(self, k: int, tick) -> Round:
        """Round ``k``; ``tick()`` runs the yardstick between operations."""
        raise NotImplementedError

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        """(failed operations, error messages) for one round."""
        raise NotImplementedError


# ------------------------------------------------------------------ simulate report

def check_simulate(what: str, result: CliResult, runs: int, length: int, pinned: dict, click_matrix) -> list[str]:
    """Check a ``simulate`` report: pinned analytic lines, Monte Carlo lines in law."""
    errors = check_cli(what, result)
    if errors:
        return errors
    try:
        kv = parse_kv(result.stdout)
    except ValueError as exc:
        return [f"{what}: {exc}"]
    errors += check_keys(what, kv, SIMULATE_KEYS)
    if errors:
        return errors
    errors += check_pinned(what, kv, {"runs": str(runs), "length": str(length), **pinned})
    if errors:
        return errors
    num = {k: float(v) for k, v in kv.items()}
    n = runs * length
    p = num["analytic_p_honest"]
    null_p = num["expected_null_count"] / length
    diag = np.diag(click_matrix)
    # four diagonal estimates, each over about 2 * n / 4 pulses (two recipients)
    sd = math.sqrt(float((diag * (1 - diag) / (n / 2)).sum())) / 4
    errors += normal_outlier(f"{what}: estimated_p_honest", num["estimated_p_honest"], p, sd)
    budget = math.floor(num["null_abort_fraction"] * length)
    q_abort = binom_tail(budget + 1, length, null_p, upper=True)
    for who, threshold in (("bob", "auth_threshold"), ("charlie", "verify_threshold")):
        m, e1 = as_count(f"{what}: mean_mismatch_fraction_{who}", num[f"mean_mismatch_fraction_{who}"], n)
        nulls, e2 = as_count(f"{what}: mean_null_count_{who}", num[f"mean_null_count_{who}"], runs)
        errors += e1 + e2
        errors += binom_outlier(f"{what}: {who} mismatches", m, n, p)
        errors += binom_outlier(f"{what}: {who} null clicks", nulls, n, null_p)
        counts = {}
        for outcome in ("accepted", "rejected", "aborted"):
            counts[outcome], e = as_count(f"{what}: {who}_{outcome}_freq", num[f"{who}_{outcome}_freq"], runs)
            errors += e
        if sum(counts.values()) != runs:
            errors.append(f"{what}: {who} outcome counts {counts} do not add up to {runs} runs")
        q_reject = (1 - q_abort) * binom_tail(math.ceil(num[threshold] * length), length, p, upper=True)
        errors += binom_outlier(f"{what}: {who} rejections", counts["rejected"], runs, q_reject)
        errors += binom_outlier(f"{what}: {who} aborts", counts["aborted"], runs, q_abort)
    return errors


class HonestMC(Workload):
    """Dense per-element sampling plus cmd_simulate's pooling loop."""

    yardstick = ("dense",)

    def execute(self, k: int, tick) -> Round:
        argv = ["simulate", *self.common_argv(k), "--trials", str(HONEST_TRIALS)]
        return Round(HONEST_TRIALS * HONEST_LENGTH, 1, {"simulate": call_cli(self.q, argv)})

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        exp = self.expected["simulate"][str(HONEST_LENGTH)]
        errors = check_simulate("honest-mc simulate", rnd.outputs["simulate"], HONEST_TRIALS,
                                HONEST_LENGTH, exp, self.click_matrix())
        return int(bool(errors)), errors

    def click_matrix(self) -> np.ndarray:
        return np.array([[float.fromhex(x) for x in row] for row in self.expected["click_matrix"]])


# ------------------------------------------------------------------ record-replay

class RecordReplay(HonestMC):
    """Store-then-re-analyse: transcripts written, read back and re-estimated."""

    yardstick = ("text", "dense")

    def prepare(self, k: int):
        out = Path(self.inputs["out_dir"])
        shutil.rmtree(out, ignore_errors=True)

    def execute(self, k: int, tick) -> Round:
        out = Path(self.inputs["out_dir"])
        argv = ["simulate", *self.common_argv(k), "--trials", "1", "--out", str(out)]
        outputs = {"simulate": call_cli(self.q, argv)}
        tick()
        try:
            tb = self.q.protocol.read_transcript(out / "transcript_bob.txt")
            tick()
            tc = self.q.protocol.read_transcript(out / "transcript_charlie.txt")
            tick()
            outputs["transcripts"] = (tb, tc)
            outputs["estimate"] = self.q.security.estimate_cost_matrix(
                (tb.key_phases, tb.view.eliminations), (tc.key_phases, tc.view.eliminations)
            )
        except Exception as exc:  # reported by the check as a failed operation
            outputs["exception"] = repr(exc)
        return Round(REPLAY_LENGTH, 1, outputs)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        what = "record-replay"
        L = REPLAY_LENGTH
        exp = self.expected["simulate"][str(L)]
        C = self.click_matrix()
        errors = check_simulate(f"{what} simulate", rnd.outputs["simulate"], 1, L, exp, C)
        if "exception" in rnd.outputs:
            errors.append(f"{what}: re-analysis raised {rnd.outputs['exception']}")
        if errors:
            return 1, errors
        out = Path(self.inputs["out_dir"])
        report = (out / "report.txt").read_text()
        if report != rnd.outputs["simulate"].stdout:
            errors.append(f"{what}: report.txt differs from stdout")
        kv = parse_kv(report)
        with open(out / "runs.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 1 or rows[0]["run"] != "0":
            return 1, errors + [f"{what}: runs.csv has rows {rows!r}, expected run 0 only"]
        row = rows[0]
        tb, tc = rnd.outputs["transcripts"]
        key = tb.key_phases
        if key is None or tc.key_phases is None or len(key) != L:
            return 1, errors + [f"{what}: transcripts do not carry the {L}-element key"]
        if not np.array_equal(key, tc.key_phases) or tb.message_bit != tc.message_bit:
            errors.append(f"{what}: the two transcripts record different keys or bits")
        if key.min() < 0 or key.max() > 3:
            errors.append(f"{what}: key digits outside 0..3")
        thresholds = {"bob": float(kv["auth_threshold"]), "charlie": float(kv["verify_threshold"])}
        budget = float(kv["null_abort_fraction"]) * L
        clicks = np.zeros((4, 4), dtype=np.int64)
        pulses = np.zeros(4, dtype=np.int64)
        for who, t in (("bob", tb), ("charlie", tc)):
            elims = t.view.eliminations
            nulls = t.view.null_clicks
            if elims.shape != (L, 4) or nulls.shape != (L,):
                errors.append(f"{what}: {who} transcript shapes {elims.shape}, {nulls.shape}")
                continue
            mismatches = int(elims[np.arange(L), key].sum())
            null_count = int(nulls.sum())
            if (int(row[f"{who}_mismatches"]), int(row[f"{who}_nulls"])) != (mismatches, null_count):
                errors.append(
                    f"{what}: {who} transcript has {mismatches} mismatches and {null_count} nulls, "
                    f"runs.csv {row[f'{who}_mismatches']} and {row[f'{who}_nulls']}"
                )
            if format(mismatches / L, ".12g") != kv[f"mean_mismatch_fraction_{who}"]:
                errors.append(f"{what}: {who} transcript mismatch fraction differs from the report")
            decided = "aborted" if null_count > budget else "accepted" if mismatches < thresholds[who] * L else "rejected"
            if row[f"{who}_outcome"] != decided:
                errors.append(f"{what}: {who} outcome {row[f'{who}_outcome']!r}, transcript gives {decided!r}")
            for i in range(4):
                sel = key == i
                pulses[i] += int(sel.sum())
                clicks[i] += elims[sel].sum(axis=0)
        if errors:
            return 1, errors
        est = rnd.outputs["estimate"]
        written = self.q.security.read_cost_matrix(out / "cost_matrix.txt")
        if not np.array_equal(est.pulse_counts, pulses) or not np.array_equal(written.pulse_counts, pulses):
            errors.append(f"{what}: pulse counts {est.pulse_counts}, cost_matrix.txt {written.pulse_counts}, transcripts {pulses}")
        mine = clicks / pulses[:, None]
        if not np.array_equal(est.entries, mine):
            errors.append(f"{what}: estimate_cost_matrix differs from the transcripts' click counts")
        if not np.array_equal(written.entries, np.array([[float(f"{x:.10e}") for x in r] for r in mine])):
            errors.append(f"{what}: cost_matrix.txt differs from the transcripts' click counts")
        se = self.q.security.CostMatrix(C, pulses).standard_errors()
        for i in range(4):
            for j in range(4):
                found = binom_outlier(f"{what}: entry ({i}, {j})", int(clicks[i, j]), int(pulses[i]), float(C[i, j]))
                if found:
                    z = (mine[i, j] - C[i, j]) / se[i, j]
                    errors.append(f"{found[0]} ({z:+.1f} standard errors)")
        return int(bool(errors)), errors


# ------------------------------------------------------------------ campaigns

class Campaigns(Workload):
    """Count-level adversary campaigns and the active-forging bound."""

    yardstick = ("binomial",)

    def execute(self, k: int, tick) -> Round:
        base = self.common_argv(k)
        matrix = ["--cost-matrix", self.inputs["matrix"]]
        outputs = {}
        for kind, extra in (
            ("repudiate", ["--trials", str(REPUDIATE_TRIALS)]),
            ("forge_passive", [*matrix, "--trials", str(FORGE_TRIALS)]),
            ("forge_active_bound", matrix),
        ):
            if outputs:
                tick()
            outputs[kind] = call_cli(self.q, ["attack", kind, *base, *extra])
        return Round(CAMPAIGN_LENGTH * (REPUDIATE_TRIALS + FORGE_TRIALS), 3, outputs)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        failed = 0
        errors = []
        for kind, result in rnd.outputs.items():
            found = self._check_attack(kind, result)
            failed += bool(found)
            errors += found
        return failed, errors

    def _check_attack(self, kind: str, result: CliResult) -> list[str]:
        what = f"campaigns {kind}"
        errors = check_cli(what, result)
        if errors:
            return errors
        try:
            kv = parse_kv(result.stdout)
        except ValueError as exc:
            return [f"{what}: {exc}"]
        pinned = self.expected["attack"][kind]
        errors += check_keys(what, kv, pinned["keys"])
        errors += check_pinned(what, kv, pinned["lines"])
        if errors:
            return errors
        L = CAMPAIGN_LENGTH
        r_budget = math.floor(self.params.null_abort_fraction * L)
        null_p = self.params.null_click_prob()
        if kind == "repudiate":
            runs = REPUDIATE_TRIALS
            success = float(kv["empirical_success"])
            if success > float(kv["bound"]):
                errors.append(f"{what}: empirical_success {success!r} exceeds its bound {kv['bound']}")
            t = float(kv["target_mismatch_prob"])
            s_a, s_v = self.params.auth_threshold, self.params.verify_threshold
            q = (
                binom_tail(math.ceil(s_a * L) - 1, L, t, upper=False)
                * binom_tail(math.ceil(s_v * L), L, t, upper=True)
                * binom_tail(r_budget, L, null_p, upper=False) ** 2
            )
            count, e = as_count(f"{what}: empirical_success", success, runs)
            errors += e + binom_outlier(f"{what}: successes", count, runs, q)
        elif kind == "forge_passive":
            runs = FORGE_TRIALS
            cost = float(kv["expected_cost"])
            m, e = as_count(f"{what}: mean_mismatch_fraction", float(kv["mean_mismatch_fraction"]), runs * L)
            errors += e + binom_outlier(f"{what}: mismatches", m, runs * L, cost)
            s_v = float(kv["verify_threshold"])
            q = (
                binom_tail(math.ceil(s_v * L) - 1, L, cost, upper=False)
                * binom_tail(r_budget, L, null_p, upper=False)
            )
            count, e = as_count(f"{what}: empirical_success", float(kv["empirical_success"]), runs)
            errors += e + binom_outlier(f"{what}: successes", count, runs, q)
        return errors


# ------------------------------------------------------------------ design-scan

def field_digests(rows: dict[int, tuple]) -> dict[str, str]:
    """One sha256 per output field over every grid point, in grid order."""
    names = [f"report.{f}" for f in REPORT_FIELDS] + [f"params.{f}" for f in PARAM_FIELDS] + \
        [f"rates.{f}" for f in RATE_FIELDS]
    digests = {}
    for col, name in enumerate(names):
        h = hashlib.sha256()
        for idx in sorted(rows):
            v = rows[idx][col]
            h.update((v.hex() if isinstance(v, float) else repr(v)).encode() + b"\n")
        digests[name] = h.hexdigest()
    return digests


class DesignScan(Workload):
    """Analytic pipeline over a grid of operating points; no Monte Carlo."""

    unit = "points"
    yardstick = ("interp",)

    def execute(self, k: int, tick) -> Round:
        security, detection = self.q.security, self.q.detection
        rows: dict[int, tuple] = {}
        failures: dict[int, str] = {}
        for n, (idx, a2, loss) in enumerate(self.inputs["grid"]):
            if n % SCAN_POINTS_PER_TICK == 0:
                tick()
            try:
                cfg = self.config.replace(alpha_sq=a2, multiport_loss_db=loss)
                params = cfg.protocol_params()
                report = security.analyze(params.click_matrix(), cfg.alpha_sq, cfg.security_level)
                rates = detection.measurement_rates(params.receiver_intensity(), params.detector)
            except Exception as exc:  # counted as a failed point
                failures[idx] = repr(exc)
                continue
            rows[idx] = (
                *(getattr(report, f) for f in REPORT_FIELDS),
                *(getattr(params, f) for f in PARAM_FIELDS),
                *(getattr(rates, f) for f in RATE_FIELDS),
            )
        bounds = call_cli(self.q, ["bounds", *self.common_argv(k), self.inputs["matrix"]])
        points = len(self.inputs["grid"])
        return Round(points, points + 1, {"rows": rows, "failures": failures, "bounds": bounds})

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        points = len(self.inputs["grid"])
        errors = [f"design-scan point {idx}: {msg}" for idx, msg in sorted(rnd.outputs["failures"].items())]
        failed = len(errors)
        digests = field_digests(rnd.outputs["rows"])
        moved = [name for name, d in self.expected["design_scan"]["digests"].items() if digests.get(name) != d]
        if moved or points != self.expected["design_scan"]["points"]:
            # a digest cannot say which point moved, so every point counts as failed
            failed = points
            errors.append(f"design-scan: fields differ from the pinned scan: {moved}")
        b = rnd.outputs["bounds"]
        found = check_cli("design-scan bounds", b)
        if not found:
            try:
                kv = parse_kv(b.stdout)
                found = check_keys("design-scan bounds", kv, self.expected["bounds"]) + \
                    check_pinned("design-scan bounds", kv, self.expected["bounds"])
            except ValueError as exc:
                found = [f"design-scan bounds: {exc}"]
        return failed + bool(found), errors + found


WORKLOADS = {
    "honest-mc": HonestMC,
    "record-replay": RecordReplay,
    "campaigns": Campaigns,
    "design-scan": DesignScan,
}

# Functions each workload must reach, so that a missed binding cannot hide a layer.
REQUIRED_SPANS = {
    "honest-mc": (
        "cli.main", "config.ExperimentConfig.protocol_params", "protocol.run_honest_exchange",
        "protocol.distribute", "protocol.count_mismatches", "protocol.authenticate", "protocol.verify",
        "detection.phase_click_matrix",
    ),
    "record-replay": (
        "cli.main", "protocol.distribute", "protocol.write_transcript", "protocol.read_transcript",
        "security.estimate_cost_matrix", "security.write_cost_matrix",
    ),
    "campaigns": (
        "cli.main", "security.read_cost_matrix", "adversary.repudiation_frequency",
        "adversary.forge_campaign", "adversary.active_forge_budget", "adversary.srm_forging_strategy",
        "discrimination.srm_outcomes", "security.decompose",
    ),
    "design-scan": (
        "cli.main", "config.ExperimentConfig.protocol_params", "security.analyze", "security.decompose",
        "security.read_cost_matrix", "detection.phase_click_matrix", "detection.click_probability",
        "detection.measurement_rates", "discrimination.min_error_probability",
    ),
}
