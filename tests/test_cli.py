import json
import subprocess
import sys

import numpy as np
import pytest

from qdssim import cli, protocol, security


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
        ('{"alpha_sq": false}', "'alpha_sq'"),
        ('{"auth_threshold": false, "verify_threshold": 0.2}', "'auth_threshold'"),
        ('{"sweep_grid": [1.0, true]}', "'sweep_grid'"),
        ('{"detector_efficiency": "0.5"}', "'detector_efficiency'"),
        ('{"null_abort_fraction": "0.1"}', "'null_abort_fraction'"),
        ('{"sweep_grid": ["1"]}', "'sweep_grid'"),
        ('{"alpha_sq": Infinity}', "'alpha_sq'"),
    ],
)
def test_malformed_config_names_the_field(tmp_path, capsys, text, named, preset):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    argv = ["sweep", "--trials", "0", "--config", str(cfg)]
    if preset:
        argv += ["--preset", preset]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
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
        [sys.executable, "-m", "qdssim.cli", "sweep", "--trials", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("alpha_sq,")


def test_repudiate_rejects_unreachable_target(capsys):
    code, _, err = run_cli(
        capsys, "attack", "repudiate", "--target", "0.0", "--preset", "paper-2014"
    )
    assert code == 1
    assert "not achievable" in err
