import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qdssim import adversary, cli, config, detection, protocol, security


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


REF = "src/qdssim/data/reference_cost_matrix.txt"


def test_sweep_runs_and_is_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "sweep", "--trials", "200", "--seed", "5")
    assert code == 0
    code, out2, _ = run_cli(capsys, "sweep", "--trials", "200", "--seed", "5")
    assert out1 == out2
    code, out3, _ = run_cli(capsys, "sweep", "--trials", "200", "--seed", "6")
    assert out1 != out3
    header = out1.splitlines()[0].split(",")
    assert header[:5] == [
        "alpha_sq",
        "elimination_success",
        "elimination_error",
        "full_identification",
        "identification_error",
    ]
    assert "mc_elimination_success" in header
    assert len(out1.splitlines()) == 12  # header + default 11-point grid


def test_sweep_without_trials_drops_mc_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--trials", "0")
    assert code == 0
    assert "mc_" not in out


def test_sweep_elimination_beats_identification_everywhere(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--trials", "0")
    assert code == 0
    for line in out.splitlines()[1:]:
        row = line.split(",")
        assert float(row[1]) > float(row[3])  # success rate ordering


def test_sweep_analytic_rates_share_the_closed_form_path(capsys, tmp_path):
    """The emitted analytic columns are the detection module's closed
    forms rendered by the same formatter, digit for digit."""
    from qdssim import detection
    from qdssim.config import preset

    cfg_file = tmp_path / "one_point.json"
    cfg_file.write_text(json.dumps({"sweep_grid": [1.0], "trials": 0}))
    code, out, _ = run_cli(
        capsys, "sweep", "--preset", "paper-2014", "--config", str(cfg_file)
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    cfg = preset("paper-2014")
    rates = detection.measurement_rates(cfg.receiver_intensity(1.0), cfg.detector())
    assert row[1] == format(rates.elimination_success, ".12g")
    assert row[2] == format(rates.elimination_error, ".12g")
    assert row[3] == format(rates.full_identification, ".12g")
    assert row[4] == format(rates.identification_error, ".12g")


def test_bounds_on_rescaled_matrix_quarters_the_length(tmp_path, capsys):
    code, out1, _ = run_cli(capsys, "bounds", REF)
    ref_len = int(parse_kv(out1)["required_length"])
    doubled = security.rescale_for_loss(security.reference_cost_matrix(), 0.5, 1.0)
    path = tmp_path / "doubled.txt"
    security.write_cost_matrix(path, doubled)
    code, out2, _ = run_cli(capsys, "bounds", str(path))
    assert code == 0
    scaled_len = int(parse_kv(out2)["required_length"])
    assert abs(scaled_len * 4 - ref_len) <= 4  # exact up to ceiling rounding


def test_sweep_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "rates.csv"
    code, _, _ = run_cli(capsys, "sweep", "--trials", "0", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("alpha_sq,")
    assert len(lines) == 12


def dense_sweep_rates(probs, trials, rng):
    """The per-pulse form of the sweep's Monte Carlo: four independent
    detectors per pulse, the first ruling out the sent phase."""
    clicks = rng.random((trials, 4)) < probs
    err_click, others = clicks[:, 0], clicks[:, 1:]
    return [
        (~err_click & others.any(axis=1)).mean(),
        err_click.mean(),
        (~err_click & others.all(axis=1)).mean(),
        (err_click & others.all(axis=1)).mean(),
    ]


def sweep_cells(rates, trials):
    """Per-row counts of the five disjoint cells, from the four mc_ rates:
    sent-phase detector silent with none, some or all others clicking,
    or clicking with not all or all of them."""
    success, error, full, ident_error = np.rint(np.asarray(rates) * trials).astype(np.int64).T
    return np.stack([trials - success - error, success - full, full, error - ident_error, ident_error], axis=1)


def test_sweep_matches_the_dense_per_pulse_form_in_law(tmp_path, capsys):
    replicates, trials = 400, 50
    cfg_file = tmp_path / "c.json"
    settings = {"sweep_grid": [2.0] * replicates, "detection_visibility": 0.5}
    cfg_file.write_text(json.dumps(settings))
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg_file), "--trials", str(trials))
    assert code == 0, err
    swept = sweep_cells([[float(x) for x in row.split(",")[5:]] for row in out.splitlines()[1:]], trials)

    cfg = config.config_from_dict(settings)
    probs = detection.phase_click_matrix(cfg.receiver_intensity(2.0), cfg.detector())[0]
    rng = np.random.default_rng(8)
    dense = sweep_cells([dense_sweep_rates(probs, trials, rng) for _ in range(replicates)], trials)

    # exact cell law, by enumerating the 16 click patterns
    law = np.zeros(5)
    for pattern in itertools.product((False, True), repeat=4):
        weight = np.prod(np.where(pattern, probs, 1.0 - probs))
        others = sum(pattern[1:])
        law[3 + (others == 3) if pattern[0] else min(others, 1) + (others == 3)] += weight
    assert law.min() > 0.01  # every cell is exercised

    n = replicates * trials
    for counts in (swept, dense):
        assert counts.shape == (replicates, 5) and (counts >= 0).all()
        assert (counts.sum(axis=1) == trials).all()
        var = trials * law * (1 - law)
        assert np.all(np.abs(counts.sum(axis=0) - n * law) < 5 * np.sqrt(replicates * var))
        # per-replicate spread: the variance of a sample variance is about 2 var^2 / replicates
        assert np.all(np.abs(counts.var(axis=0, ddof=1) - var) < 5 * var * math.sqrt(2 / replicates))
    assert np.all(np.abs(swept.sum(axis=0) - dense.sum(axis=0)) < 5 * np.sqrt(2 * n * law * (1 - law)))


@pytest.mark.parametrize("trials", [10**12, 2**63 - 1])
def test_sweep_takes_any_trial_count_below_2_63(tmp_path, capsys, trials):
    # the counts are drawn at once, so memory and time do not grow with trials
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"sweep_grid": [0.0, 1.0, 5.0]}))
    for preset in ("ideal", "paper-2014"):
        code, out, err = run_cli(
            capsys, "sweep", "--preset", preset, "--config", str(cfg_file), "--trials", str(trials)
        )
        assert code == 0, err
        for row in out.splitlines()[1:]:
            values = [float(x) for x in row.split(",")]
            for p, mc in zip(values[1:5], values[5:9]):
                assert abs(mc - p) <= 5 * math.sqrt(p * (1 - p) / trials) + 1 / trials
                if p == 0:  # an impossible outcome never appears
                    assert mc == 0


def test_bounds_matches_library_pipeline(capsys):
    code, out, _ = run_cli(capsys, "bounds", REF)
    assert code == 0
    pairs = parse_kv(out)
    rep = security.analyze(security.reference_cost_matrix(), 1.0, 1e-4)
    assert float(pairs["p_honest"]) == pytest.approx(rep.p_honest, rel=1e-10)
    assert float(pairs["g_lower"]) == pytest.approx(rep.g_lower, rel=1e-10)
    assert int(pairs["required_length"]) == rep.required_length
    assert float(pairs["sequence_seconds"]) == pytest.approx(
        rep.required_length / 100e6, rel=1e-10
    )


def test_bounds_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "no_such_file.txt")
    assert code == 1
    assert "error:" in err


def test_bounds_no_security_exit_code(tmp_path, capsys):
    flat = tmp_path / "flat.txt"
    flat.write_text("\n".join(["1e-4 1e-4 1e-4 1e-4"] * 4) + "\n")
    code, _, err = run_cli(capsys, "bounds", str(flat))
    assert code == 2
    assert "no provable security" in err


def test_bounds_vanishing_gap_exit_code(tmp_path, capsys):
    tiny = tmp_path / "tiny.txt"
    tiny.write_text(
        "\n".join(" ".join("0" if i == j else "1e-160" for j in range(4)) for i in range(4))
        + "\n"
    )
    code, out, err = run_cli(capsys, "bounds", str(tiny))
    assert code == 2
    assert out == ""
    assert "gap" in err and "Traceback" not in err


def test_simulate_report_and_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 5000, "trials": 4, "seed": 2}))
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["runs"] == "4"
    assert pairs["length"] == "5000"
    assert float(pairs["bob_accepted_freq"]) == 1.0
    report = (out_dir / "report.txt").read_text()
    assert report == out
    est = security.read_cost_matrix(out_dir / "cost_matrix.txt")
    assert est.pulse_counts.sum() == 2 * 4 * 5000  # both recipients, all runs
    runs_lines = (out_dir / "runs.csv").read_text().splitlines()
    assert len(runs_lines) == 5
    for name in ("transcript_bob.txt", "transcript_charlie.txt"):
        t = protocol.read_transcript(out_dir / name)
        assert len(t.view.null_clicks) == 5000
        assert t.key_phases is not None


def test_simulate_cost_matrix_is_the_estimate_over_its_transcripts(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 3000}))
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg), "--preset", "paper-2014",
        "--trials", "1", "--seed", "4", "--out", str(out_dir),
    )
    assert code == 0
    pairs = []
    for name in ("transcript_bob.txt", "transcript_charlie.txt"):
        t = protocol.read_transcript(out_dir / name)
        pairs.append((t.key_phases, t.view.eliminations))
    security.write_cost_matrix(tmp_path / "replayed.txt", security.estimate_cost_matrix(*pairs))
    assert (tmp_path / "replayed.txt").read_text() == (out_dir / "cost_matrix.txt").read_text()


@pytest.mark.parametrize("argv", [["simulate"], ["attack", "repudiate"], ["attack", "forge_active_bound"]])
def test_zero_trials_is_a_configuration_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--trials", "0")
    assert code == 1
    assert out == ""
    assert "'trials'" in err


def test_simulate_too_short_to_see_every_state(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 2, "trials": 1}))
    code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--seed", "1")
    assert code == 1
    assert "no pulses recorded for state(s)" in err


def test_simulate_at_the_required_length(tmp_path, capsys):
    """The length the bundled matrix asks for (bounds' required_length)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 51042710665729}))
    code, out, err = run_cli(capsys, "simulate", "--preset", "paper-2014", "--config", str(cfg), "--trials", "2")
    assert code == 0, err
    pairs = parse_kv(out)
    assert pairs["length"] == "51042710665729"
    assert float(pairs["bob_accepted_freq"]) == 1.0


@pytest.mark.parametrize(
    "argv",
    [["bounds", REF], ["attack", "repudiate", "--trials", "10"], ["attack", "forge_active_bound"]],
)
def test_unwritable_out_prints_no_report(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out", "/nonexistent/x.csv")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_simulate_out_past_the_memory_of_its_records_exits_1(tmp_path):
    """At the required length --out stops before any file, naming the field, the option and the size."""
    L = 51042710665729
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": L}))
    out_dir = tmp_path / "E"
    # only the child's address space is capped, so that its 46 TiB of records cannot be allocated
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from qdssim.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["simulate", "--preset", "paper-2014", "--config", str(cfg), "--trials", "1", "--out", str(out_dir)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "'length'" in proc.stderr and "--out" in proc.stderr
    assert f"each transcript's key alone would take {L} bytes" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out_dir.exists()


def test_forge_passive_past_the_memory_of_its_counts_exits_1():
    """A trial count whose per-run counts cannot be allocated names 'trials' and prints nothing."""
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from qdssim.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = ["attack", "forge_passive", "--preset", "paper-2014", "--trials", "1000000000000"]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "'trials' = 1000000000000" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_attack_repudiate_takes_the_largest_trial_count_at_once(capsys):
    runs = 2**63 - 1
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "attack", "repudiate", "--preset", "paper-2014", "--trials", str(runs))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    pairs = parse_kv(out)
    assert pairs["runs"] == str(runs)
    assert 0.0 <= float(pairs["empirical_success"]) <= float(pairs["bound"])


def test_simulate_deterministic(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 2000, "trials": 3}))
    code, out1, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--seed", "9")
    code, out2, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--seed", "9")
    assert out1 == out2


def test_attack_repudiate(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "repudiate", "--trials", "500", "--seed", "3"
    )
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["kind"] == "repudiate"
    assert float(pairs["empirical_success"]) <= 1.0
    assert 0 < float(pairs["bound"]) <= 1.0
    # default target is the threshold midpoint
    code, out2, _ = run_cli(
        capsys,
        "attack",
        "repudiate",
        "--trials",
        "500",
        "--seed",
        "3",
        "--target",
        pairs["target_mismatch_prob"],
    )
    assert parse_kv(out2)["empirical_success"] == pairs["empirical_success"]


def test_attack_forge_passive_with_measured_matrix(capsys):
    code, out, _ = run_cli(
        capsys,
        "attack",
        "forge_passive",
        "--trials",
        "40",
        "--seed",
        "4",
        "--cost-matrix",
        REF,
    )
    assert code == 0
    pairs = parse_kv(out)
    assert float(pairs["expected_cost"]) == pytest.approx(5.089874891926661e-5, rel=1e-9)
    assert float(pairs["c_min_lower"]) == pytest.approx(4.295147840285797e-5, rel=1e-9)
    assert float(pairs["mean_mismatch_fraction"]) > 0


def test_attack_forge_active_bound(capsys):
    code, out, _ = run_cli(capsys, "attack", "forge_active_bound", "--cost-matrix", REF)
    assert code == 0
    pairs = parse_kv(out)
    assert pairs["vacuous"] == "true"
    assert float(pairs["bound"]) == 1.0
    assert float(pairs["margin"]) < 0


def test_attack_out_csv(tmp_path, capsys):
    out_file = tmp_path / "attack.csv"
    code, out, _ = run_cli(
        capsys,
        "attack",
        "repudiate",
        "--trials",
        "100",
        "--seed",
        "1",
        "--out",
        str(out_file),
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].split(",")[0] == "kind"
    assert len(lines) == 2


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{broken")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert "error:" in err
    cfg.write_text(json.dumps({"mystery_knob": 1}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert "mystery_knob" in err


@pytest.mark.parametrize("preset", [None, "paper-2014"])
@pytest.mark.parametrize(
    "text, named",
    [
        ("[1, 2]", "JSON object"),
        ('"length"', "JSON object"),
        ('{"length": Infinity}', "'length'"),
        ('{"seed": NaN}', "'seed'"),
        ('{"trials": -Infinity}', "'trials'"),
        ('{"trials": true}', "'trials'"),
        ('{"trials": 9223372036854775808}', "'trials'"),
        ('{"alpha_sq": false}', "'alpha_sq'"),
        ('{"auth_threshold": false, "verify_threshold": 0.2}', "'auth_threshold'"),
        ('{"sweep_grid": [1.0, true]}', "'sweep_grid'"),
        ('{"detector_efficiency": "0.5"}', "'detector_efficiency'"),
        ('{"null_abort_fraction": "0.1"}', "'null_abort_fraction'"),
        ('{"sweep_grid": ["1"]}', "'sweep_grid'"),
        ('{"alpha_sq": Infinity}', "'alpha_sq'"),
        ('{"dark_rate_hz": 1e12}', "fields 'dark_rate_hz' and 'gate_ns'"),
        ('{"dark_rate_hz": 5e8, "gate_ns": 2.0}', "fields 'dark_rate_hz' and 'gate_ns'"),
    ],
)
def test_malformed_config_names_the_field(tmp_path, capsys, text, named, preset):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    for command in (["sweep", "--trials", "0"], ["bounds", REF], ["simulate", "--trials", "1"],
                    ["attack", "repudiate", "--trials", "1"]):
        argv = [*command, "--config", str(cfg)]
        if preset:
            argv += ["--preset", preset]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1, command
        assert out == ""
        assert named in err


def test_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "nope")
    assert code == 1
    assert "available" in err


def test_config_overlays_preset(tmp_path, capsys):
    cfg = tmp_path / "overlay.json"
    cfg.write_text(json.dumps({"detector_efficiency": 0.5}))
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--preset",
        "paper-2014",
        "--config",
        str(cfg),
        "--trials",
        "0",
    )
    assert code == 0
    # visibility still from the preset, efficiency from the file
    code2, out2, _ = run_cli(capsys, "sweep", "--preset", "paper-2014", "--trials", "0")
    assert out != out2


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "attack", "not_a_kind")
    assert code == 1
    assert "error:" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qdssim", "sweep", "--trials", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha_sq,")
    assert proc.stderr == ""


def test_cli_module_runs_like_the_package():
    """``python -m qdssim.cli`` prints what ``python -m qdssim`` prints (its
    stderr still carries runpy's warning, since the package imports ``cli``)."""
    cli_run, package_run = (
        subprocess.run([sys.executable, "-m", module, "bounds", REF], capture_output=True, text=True)
        for module in ("qdssim.cli", "qdssim")
    )
    assert (cli_run.returncode, package_run.returncode) == (0, 0)
    assert cli_run.stdout == package_run.stdout != ""


def test_repudiate_rejects_unreachable_target(capsys):
    code, _, err = run_cli(
        capsys, "attack", "repudiate", "--target", "0.0", "--preset", "paper-2014"
    )
    assert code == 1
    assert "not achievable" in err


def test_repudiation_floor_comes_from_the_measured_matrix(capsys):
    # the default target lies between thresholds derived from the bundled
    # matrix, above its own floor though below the analytic channel's
    code, out, err = run_cli(
        capsys, "attack", "repudiate", "--preset", "paper-2014", "--cost-matrix", REF, "--trials", "50"
    )
    assert code == 0, err
    rep = security.analyze(security.reference_cost_matrix(), 1.0, 1e-4)
    target = float(parse_kv(out)["target_mismatch_prob"])
    assert target == pytest.approx((rep.auth_threshold + rep.verify_threshold) / 2, rel=1e-11)


def test_repudiation_target_below_the_measured_floor_names_it(capsys):
    code, out, err = run_cli(
        capsys, "attack", "repudiate", "--preset", "paper-2014", "--cost-matrix", REF,
        "--target", "4.0e-5", "--trials", "1",
    )
    assert code == 1
    assert out == ""
    assert "the channel noise floor is 4.175e-05" in err


def _record_keys(record_type):
    return [f.name for f in dataclasses.fields(record_type)]


def test_bounds_report_keys_are_the_security_report_fields(capsys):
    code, out, _ = run_cli(capsys, "bounds", REF)
    assert code == 0
    assert list(parse_kv(out)) == _record_keys(security.SecurityReport) + ["sequence_seconds"]


def test_active_bound_report_keys_are_the_budget_fields(capsys):
    code, out, _ = run_cli(capsys, "attack", "forge_active_bound", "--trials", "1")
    assert code == 0
    assert list(parse_kv(out)) == ["kind", "length"] + _record_keys(adversary.ActiveForgeBound)


@pytest.mark.parametrize("trials", ["0", "20"])
def test_sweep_header_is_the_measurement_rates_fields(capsys, trials):
    code, out, _ = run_cli(capsys, "sweep", "--trials", trials)
    assert code == 0
    rates = _record_keys(detection.MeasurementRates)
    expected = ["alpha_sq"] + rates + (["mc_" + k for k in rates] if trials != "0" else [])
    assert out.splitlines()[0].split(",") == expected


@pytest.mark.parametrize("kind", ["forge_passive", "forge_active_bound"])
@pytest.mark.parametrize("scale", ["0", "-1"])
def test_attack_rejects_a_scale_that_is_not_positive(capsys, kind, scale):
    code, out, err = run_cli(capsys, "attack", kind, f"--amplitude-scale={scale}", "--trials", "1")
    assert code == 1
    assert out == ""
    assert "argument --amplitude-scale: must be > 0" in err


@pytest.mark.parametrize(
    "argv", [["simulate"], ["sweep"], ["bounds", REF], ["attack", "repudiate"]], ids=lambda a: a[0]
)
@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_negative_seed_names_the_field(tmp_path, capsys, argv, source):
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"length": 1000, "seed": -1}' if source == "file" else '{"length": 1000}')
    extra = ["--seed", "-1"] if source == "flag" else []
    code, out, err = run_cli(capsys, *argv, "--trials", "2", "--config", str(cfg), *extra)
    assert code == 1
    assert out == ""
    assert "invalid value for field 'seed': -1" in err


@pytest.mark.parametrize("kind", ["forge_passive", "forge_active_bound"])
def test_attack_rejects_an_amplitude_scale_whose_photon_number_overflows(capsys, kind):
    code, out, err = run_cli(capsys, "attack", kind, "--amplitude-scale", "1e200", "--trials", "1")
    assert code == 1
    assert out == ""
    assert "--amplitude-scale" in err


@pytest.mark.parametrize(
    "kind, flag",
    [("forge_passive", "--amplitude-scale"), ("forge_active_bound", "--amplitude-scale"), ("repudiate", "--target")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_attack_rejects_non_finite_flag_values(capsys, kind, flag, value):
    code, out, err = run_cli(capsys, "attack", kind, f"{flag}={value}", "--trials", "1")
    assert code == 1
    assert out == ""
    assert f"argument {flag}: must be a finite number" in err


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("key", ["length", "alpha_sq"])
def test_an_integer_too_long_for_a_double_is_a_config_error(tmp_path, capsys, command, key):
    cfg = tmp_path / "huge.json"
    cfg.write_text('{"%s": 1%s}' % (key, "0" * 400))
    argv = [command, "--trials", "1", "--config", str(cfg)]
    if command == "bounds":
        argv.append(REF)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"field '{key}' must be a number" in err


def test_an_integer_past_the_digit_limit_names_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "digits.json"
    cfg.write_text('{"seed": 1%s}' % ("0" * 5000))
    code, out, err = run_cli(capsys, "simulate", "--trials", "1", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert str(cfg) in err
    assert "set_int_max_str_digits" not in err


def test_the_largest_length_is_an_exact_integer(tmp_path, capsys):
    cfg = tmp_path / "longest.json"
    cfg.write_text('{"length": 9223372036854775807}')  # 2**63 - 1, not a double
    code, out, _ = run_cli(capsys, "simulate", "--trials", "1", "--config", str(cfg))
    assert code == 0
    assert "length = 9223372036854775807\n" in out


@pytest.mark.parametrize("length", ["1e300", "9223372036854775808"])
def test_oversized_length_is_a_config_error(tmp_path, capsys, length):
    cfg = tmp_path / "long.json"
    cfg.write_text('{"length": %s}' % length)
    code, out, err = run_cli(capsys, "simulate", "--trials", "1", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert "'length'" in err
