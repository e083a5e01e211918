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
import math
import sys
from pathlib import Path

import numpy as np

from . import adversary, config as config_mod, detection, protocol, security
from .config import ConfigError, ExperimentConfig
from .discrimination import min_error_probability

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


def _emit_kv(pairs, out_path):
    lines = [f"{k} = {_fmt(v)}" for k, v in pairs]
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    sys.stdout.write(text)


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
    p.add_argument("--target", type=float, help="repudiation per-element mismatch target")
    p.add_argument(
        "--amplitude-scale", type=float, help="forger amplitude multiplier (default 1 passive, sqrt(3/2) active)"
    )
    p.add_argument("--cost-matrix", help="measured matrix file overriding the analytic channel")
    _add_common(p)

    return parser


# ------------------------------------------------------------------ sweep

def cmd_sweep(cfg: ExperimentConfig, out_path) -> int:
    det = cfg.detector()
    header = [
        "alpha_sq",
        "elimination_success",
        "elimination_error",
        "full_identification",
        "identification_error",
    ]
    mc = cfg.trials > 0
    if mc:
        header += ["mc_" + h for h in header[1:]]
    streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.sweep_grid))
    rows = []
    for a2, ss in zip(cfg.sweep_grid, streams):
        i_rx = cfg.receiver_intensity(a2)
        rates = detection.measurement_rates(i_rx, det)
        row = [
            a2,
            rates.elimination_success,
            rates.elimination_error,
            rates.full_identification,
            rates.identification_error,
        ]
        if mc:
            rng = np.random.default_rng(ss)
            probs = detection.phase_click_matrix(i_rx, det)[0]  # phase 0 sent
            clicks = rng.random((cfg.trials, 4)) < probs
            err_click = clicks[:, 0]  # detector that rules out the sent state
            others = clicks[:, 1:]
            row += [
                float((~err_click & others.any(axis=1)).mean()),
                float(err_click.mean()),
                float((~err_click & others.all(axis=1)).mean()),
                float((err_click & others.all(axis=1)).mean()),
            ]
        rows.append(row)
    _write_csv(out_path, header, rows)
    return 0


# ------------------------------------------------------------------ bounds

def cmd_bounds(cfg: ExperimentConfig, matrix_path, out_path) -> int:
    matrix = security.read_cost_matrix(matrix_path)
    report = security.analyze(matrix, cfg.alpha_sq, cfg.security_level)
    pairs = [(k, getattr(report, k)) for k in (
        "alpha_sq",
        "security_level",
        "p_honest",
        "guaranteed_advantage",
        "min_error",
        "g_lower",
        "g_upper",
        "c_min_lower",
        "c_min_upper",
        "auth_threshold",
        "verify_threshold",
        "required_length",
        "failure_bound",
    )]
    pairs.append(("sequence_seconds", report.required_length / cfg.clock_hz))
    _emit_kv(pairs, None)
    if out_path:
        _write_csv(out_path, [k for k, _ in pairs], [[v for _, v in pairs]])
    return 0


# ------------------------------------------------------------------ simulate

def cmd_simulate(cfg: ExperimentConfig, out_path) -> int:
    params = cfg.protocol_params()
    runs = _runs(cfg)
    streams = np.random.SeedSequence(cfg.seed).spawn(runs)
    outcome_names = [o.value for o in protocol.Outcome]
    bob_counts = dict.fromkeys(outcome_names, 0)
    charlie_counts = dict.fromkeys(outcome_names, 0)
    clicks = np.zeros((4, 4), dtype=np.int64)
    pulses = np.zeros(4, dtype=np.int64)
    sum_mismatch_b = sum_mismatch_c = 0
    sum_null_b = sum_null_c = 0
    rows = []
    last = None
    for run, ss in enumerate(streams):
        res = protocol.run_honest_exchange(params, np.random.default_rng(ss))
        key = res.distribution.keys[res.message_bit]
        for view in (res.distribution.bob[res.message_bit], res.distribution.charlie[res.message_bit]):
            c, n = security.count_clicks(key.phases, view.eliminations)
            clicks += c
            pulses += n
        bob_counts[res.bob_outcome.value] += 1
        charlie_counts[res.charlie_outcome.value] += 1
        sum_mismatch_b += res.bob_mismatches
        sum_mismatch_c += res.charlie_mismatches
        sum_null_b += res.bob_null_count
        sum_null_c += res.charlie_null_count
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
        last = res
    estimated = security.cost_matrix_from_counts(clicks, pulses)
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
        ("bob_accepted_freq", bob_counts["accepted"] / runs),
        ("bob_rejected_freq", bob_counts["rejected"] / runs),
        ("bob_aborted_freq", bob_counts["aborted"] / runs),
        ("charlie_accepted_freq", charlie_counts["accepted"] / runs),
        ("charlie_rejected_freq", charlie_counts["rejected"] / runs),
        ("charlie_aborted_freq", charlie_counts["aborted"] / runs),
        ("mean_mismatch_fraction_bob", sum_mismatch_b / total),
        ("mean_mismatch_fraction_charlie", sum_mismatch_c / total),
        ("mean_null_count_bob", sum_null_b / runs),
        ("mean_null_count_charlie", sum_null_c / runs),
        ("expected_null_count", params.null_click_prob() * params.length),
    ]
    if out_path:
        out_dir = Path(out_path)
        out_dir.mkdir(parents=True, exist_ok=True)
        _emit_kv(pairs, out_dir / "report.txt")
        security.write_cost_matrix(out_dir / "cost_matrix.txt", estimated)
        _write_csv(
            out_dir / "runs.csv",
            ["run", "bob_mismatches", "charlie_mismatches", "bob_nulls", "charlie_nulls", "bob_outcome", "charlie_outcome"],
            rows,
        )
        bit = last.message_bit
        key = last.distribution.keys[bit]
        protocol.write_transcript(out_dir / "transcript_bob.txt", bit, last.distribution.bob[bit], key)
        protocol.write_transcript(out_dir / "transcript_charlie.txt", bit, last.distribution.charlie[bit], key)
    else:
        _emit_kv(pairs, None)
    return 0


# ------------------------------------------------------------------ attack

def cmd_attack(cfg: ExperimentConfig, args) -> int:
    measured = security.read_cost_matrix(args.cost_matrix) if args.cost_matrix else None
    params = cfg.protocol_params(measured)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    runs = _runs(cfg)
    governing = measured.entries if measured is not None else params.click_matrix()

    if args.kind == "repudiate":
        target = args.target if args.target is not None else adversary.optimal_repudiation_target(params)
        strategy = adversary.RepudiationStrategy(target)
        freq = adversary.repudiation_frequency(strategy, params, runs, rng)
        pairs = [
            ("kind", args.kind),
            ("runs", runs),
            ("length", params.length),
            ("target_mismatch_prob", target),
            ("empirical_success", freq),
            ("bound", adversary.repudiation_bound(params)),
        ]
    elif args.kind == "forge_passive":
        scale = args.amplitude_scale if args.amplitude_scale is not None else 1.0
        strategy = adversary.srm_forging_strategy(cfg.alpha_sq, scale)
        freq, mean_fraction = adversary.forge_campaign(strategy, params, runs, rng, governing)
        dec = security.decompose(governing)
        bounds = security.bound_min_cost(dec, min_error_probability(cfg.alpha_sq * scale**2))
        pairs = [
            ("kind", args.kind),
            ("runs", runs),
            ("length", params.length),
            ("amplitude_scale", scale),
            ("expected_cost", adversary.expected_forge_cost(strategy, params, governing)),
            ("c_min_lower", bounds.c_min_lower),
            ("verify_threshold", params.verify_threshold),
            ("empirical_success", freq),
            ("mean_mismatch_fraction", mean_fraction),
        ]
    else:  # forge_active_bound
        scale = args.amplitude_scale if args.amplitude_scale is not None else math.sqrt(1.5)
        budget = adversary.active_forge_budget(params, governing, scale)
        pairs = [
            ("kind", args.kind),
            ("length", params.length),
            ("amplitude_scale", budget.amplitude_scale),
            ("scaled_min_error", budget.scaled_min_error),
            ("c_prime_min", budget.c_prime_min),
            ("tampering_allowance", budget.tampering_allowance),
            ("effective_threshold", budget.effective_threshold),
            ("margin", budget.margin),
            ("hoeffding_term", budget.hoeffding_term),
            ("epsilon_term", budget.epsilon_term),
            ("bound", budget.bound),
            ("vacuous", budget.vacuous),
        ]
    _emit_kv(pairs, None)
    if args.out:
        _write_csv(args.out, [k for k, _ in pairs], [[v for _, v in pairs]])
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
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
