"""Command-line front end.

Subcommands: ``sweep`` (receiver rates across mean photon numbers),
``bounds`` (security report from a cost-matrix file), ``simulate``
(honest end-to-end Monte Carlo), ``attack`` (adversary Monte Carlo or
bound evaluation). Exit codes: 0 success, 1 usage or configuration
error, 2 when the input admits no provable security.

Numbers are printed with a fixed 12-significant-digit format and every
random stream is derived from the seed, so equal invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import adversary, config as config_mod, detection, protocol, security
from .config import ConfigError, ExperimentConfig

ATTACK_KINDS = ("repudiate", "forge_passive", "forge_active_bound")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for no-security only
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _fields(record) -> list[tuple[str, object]]:
    """(field name, value) of a result record, in declaration order."""
    return [(f.name, getattr(record, f.name)) for f in dataclasses.fields(record)]


def _emit_kv(pairs, out_path):
    lines = [f"{k} = {_fmt(v)}" for k, v in pairs]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    sys.stdout.write(text)


def _report(pairs, out_path):
    # the CSV first, so that a failed write prints no report
    if out_path:
        _write_csv(out_path, [k for k, _ in pairs], [[v for _, v in pairs]])
    _emit_kv(pairs, None)


def _write_csv(path, header, rows):
    def render(f):
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])

    if path:
        with open(path, "w", newline="") as f:
            render(f)
    else:
        render(sys.stdout)


def _load_config(args) -> ExperimentConfig:
    cfg = config_mod.preset(args.preset) if args.preset else ExperimentConfig()
    if args.config:
        # file keys overlay the preset (or the defaults)
        overlay = config_mod.read_config_file(args.config)
        cfg = config_mod.config_from_dict({**cfg.to_dict(), **overlay})
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.trials is not None:
        cfg = cfg.replace(trials=args.trials)
    return cfg


def _runs(cfg: ExperimentConfig) -> int:
    if cfg.trials < 1:
        raise ConfigError(f"field 'trials' must be >= 1 for this command, got {cfg.trials}")
    return cfg.trials


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _amplitude_scale(args, alpha_sq: float, default: float) -> float:
    scale = default if args.amplitude_scale is None else args.amplitude_scale
    if scale <= 0:
        raise UsageError(f"argument --amplitude-scale: must be > 0, got {scale}")
    if not math.isfinite(alpha_sq * scale * scale):
        raise UsageError(
            f"argument --amplitude-scale: the forger's mean photon number alpha_sq * {scale}**2 is not finite"
        )
    return scale


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--preset", help="named parameter set (ideal, paper-2014)")
    p.add_argument("--seed", type=int, help="base seed for all random streams")
    p.add_argument("--trials", type=int, help="Monte Carlo repetitions")
    p.add_argument("--out", help="output path (CSV or report; directory for simulate)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qdssim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="receiver outcome rates across mean photon numbers")
    _add_common(p)

    p = sub.add_parser("bounds", help="security report from a cost-matrix file")
    p.add_argument("matrix", help="cost-matrix file (4x4, optional pulse header)")
    _add_common(p)

    p = sub.add_parser("simulate", help="honest end-to-end protocol Monte Carlo")
    _add_common(p)

    p = sub.add_parser("attack", help="adversary Monte Carlo / bound evaluation")
    p.add_argument("kind", choices=ATTACK_KINDS)
    p.add_argument("--target", type=_finite_float, help="repudiation per-element mismatch target")
    p.add_argument(
        "--amplitude-scale", type=_finite_float, help="forger amplitude multiplier (default 1 passive, sqrt(3/2) active)"
    )
    p.add_argument("--cost-matrix", help="measured matrix file overriding the analytic channel")
    _add_common(p)

    return parser


# ------------------------------------------------------------------ sweep

def _sampled_rates(probs, trials: int, rng: np.random.Generator) -> detection.MeasurementRates:
    """Receiver rates over ``trials`` pulses whose detectors click
    independently with ``probs``, the sent phase's first, drawn as one
    multinomial over five disjoint cells: that detector silent with none,
    some or all others clicking, or clicking with not all or all of them.
    The draw's last cell takes what rounding leaves, so it is the one
    whose probability is itself a remainder.
    """
    c = probs[0]
    none = float(np.prod(1.0 - probs[1:]))
    every = float(np.prod(probs[1:]))
    some = max(0.0, 1.0 - none - every)
    cells = [(1.0 - c) * none, (1.0 - c) * every, c * (1.0 - every), c * every, (1.0 - c) * some]
    _, silent_all, clicked_not_all, clicked_all, silent_some = rng.multinomial(trials, cells)
    return detection.MeasurementRates(
        elimination_success=int(silent_some + silent_all) / trials,
        elimination_error=int(clicked_not_all + clicked_all) / trials,
        full_identification=int(silent_all) / trials,
        identification_error=int(clicked_all) / trials,
    )


def cmd_sweep(cfg: ExperimentConfig, out_path) -> int:
    det = cfg.detector()
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.sweep_grid))
    rows = []
    for a2, ss in zip(cfg.sweep_grid, streams):
        i_rx = cfg.receiver_intensity(a2)
        pairs = [("alpha_sq", a2), *_fields(detection.measurement_rates(i_rx, det))]
        if cfg.trials > 0:
            rng = np.random.default_rng(ss)
            mc = _sampled_rates(detection.phase_click_matrix(i_rx, det)[0], cfg.trials, rng)
            pairs += [("mc_" + k, v) for k, v in _fields(mc)]
        rows.append(pairs)
    _write_csv(out_path, [k for k, _ in rows[0]], [[v for _, v in row] for row in rows])
    return 0


# ------------------------------------------------------------------ bounds

def cmd_bounds(cfg: ExperimentConfig, matrix_path, out_path) -> int:
    matrix = security.read_cost_matrix(matrix_path)
    report = security.analyze(matrix, cfg.alpha_sq, cfg.security_level)
    pairs = _fields(report) + [("sequence_seconds", report.required_length / cfg.clock_hz)]
    _report(pairs, out_path)
    return 0


# ------------------------------------------------------------------ simulate

def cmd_simulate(cfg: ExperimentConfig, out_path) -> int:
    params = cfg.protocol_params()
    runs = _runs(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(runs)
    clicks = np.zeros((4, 4), dtype=np.int64)
    pulses = np.zeros(4, dtype=np.int64)
    rows = []
    for run, ss in enumerate(streams):
        res = protocol.run_honest_exchange(params, np.random.default_rng(ss))
        dist = res.distribution
        for view in (dist.bob[res.message_bit], dist.charlie[res.message_bit]):
            clicks += view.clicks
            pulses += dist.keys[res.message_bit].pulses
        rows.append(
            [
                run,
                res.bob_mismatches,
                res.charlie_mismatches,
                res.bob_null_count,
                res.charlie_null_count,
                res.bob_outcome.value,
                res.charlie_outcome.value,
            ]
        )
    estimated = security.cost_matrix_from_counts(clicks, pulses)
    _, mismatch_b, mismatch_c, null_b, null_c, outcome_b, outcome_c = zip(*rows)
    total = runs * params.length
    pairs = [
        ("runs", runs),
        ("length", params.length),
        ("alpha_sq", cfg.alpha_sq),
        ("auth_threshold", params.auth_threshold),
        ("verify_threshold", params.verify_threshold),
        ("null_abort_fraction", params.null_abort_fraction),
        ("analytic_p_honest", params.honest_mismatch_prob()),
        ("estimated_p_honest", float(np.diag(estimated.entries).mean())),
        ("bob_accepted_freq", outcome_b.count("accepted") / runs),
        ("bob_rejected_freq", outcome_b.count("rejected") / runs),
        ("bob_aborted_freq", outcome_b.count("aborted") / runs),
        ("charlie_accepted_freq", outcome_c.count("accepted") / runs),
        ("charlie_rejected_freq", outcome_c.count("rejected") / runs),
        ("charlie_aborted_freq", outcome_c.count("aborted") / runs),
        ("mean_mismatch_fraction_bob", sum(mismatch_b) / total),
        ("mean_mismatch_fraction_charlie", sum(mismatch_c) / total),
        ("mean_null_count_bob", sum(null_b) / runs),
        ("mean_null_count_charlie", sum(null_c) / runs),
        ("expected_null_count", params.null_click_prob() * params.length),
    ]
    if out_path:
        bit = res.message_bit  # the transcripts are the last run's
        key = res.distribution.keys[bit]
        views = {"bob": res.distribution.bob[bit], "charlie": res.distribution.charlie[bit]}
        try:  # expand the records, cached on the views, before any file is written
            for view in views.values():
                view.eliminations, view.null_clicks
        except MemoryError:
            raise ConfigError(
                f"field 'length' = {params.length} is too long for --out: the last run's records do not fit "
                f"in memory, and each transcript's key alone would take {params.length} bytes; "
                "lower it or run without --out"
            ) from None
        out_dir = Path(out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit_kv(pairs, out_dir / "report.txt")
        security.write_cost_matrix(out_dir / "cost_matrix.txt", estimated)
        _write_csv(
            out_dir / "runs.csv",
            ["run", "bob_mismatches", "charlie_mismatches", "bob_nulls", "charlie_nulls", "bob_outcome", "charlie_outcome"],
            rows,
        )
        for name, view in views.items():
            protocol.write_transcript(out_dir / f"transcript_{name}.txt", bit, view, key)
    else:
        _emit_kv(pairs, None)
    return 0


# ------------------------------------------------------------------ attack

def cmd_attack(cfg: ExperimentConfig, args) -> int:
    measured = security.read_cost_matrix(args.cost_matrix) if args.cost_matrix else None
    params = cfg.protocol_params(measured)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    runs = _runs(cfg)

    if args.kind == "repudiate":
        target = args.target if args.target is not None else adversary.optimal_repudiation_target(params)
        floor = params.honest_mismatch_prob()
        if not floor <= target <= 1.0:
            raise UsageError(
                f"target mismatch probability {target} is not achievable; "
                f"the channel noise floor is {floor}"
            )
        freq = adversary.repudiation_frequency(adversary.RepudiationStrategy(target), params, runs, rng)
        pairs = [
            ("kind", args.kind),
            ("runs", runs),
            ("length", params.length),
            ("target_mismatch_prob", target),
            ("empirical_success", freq),
            ("bound", adversary.repudiation_bound(params)),
        ]
    elif args.kind == "forge_passive":
        scale = _amplitude_scale(args, cfg.alpha_sq, 1.0)
        strategy = adversary.srm_forging_strategy(cfg.alpha_sq, scale)
        try:
            freq, mean_fraction = adversary.forge_campaign(strategy, params, runs, rng)
        except MemoryError:
            raise ConfigError(f"fields 'length' = {params.length} and 'trials' = {runs} are too large for memory") from None
        _, c_min_lower = adversary.forge_floor(params, scale)
        pairs = [
            ("kind", args.kind),
            ("runs", runs),
            ("length", params.length),
            ("amplitude_scale", scale),
            ("expected_cost", adversary.expected_forge_cost(strategy, params)),
            ("c_min_lower", c_min_lower),
            ("verify_threshold", params.verify_threshold),
            ("empirical_success", freq),
            ("mean_mismatch_fraction", mean_fraction),
        ]
    else:  # forge_active_bound
        scale = _amplitude_scale(args, cfg.alpha_sq, math.sqrt(1.5))
        budget = adversary.active_forge_budget(params, scale)
        pairs = [("kind", args.kind), ("length", params.length), *_fields(budget)]
    _report(pairs, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _load_config(args)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.matrix, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        return cmd_attack(cfg, args)
    except security.NoProvableSecurityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
