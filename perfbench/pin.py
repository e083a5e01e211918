"""Print the analytic outputs the benchmark pins, as expected.json holds them.

    python3 perfbench/pin.py > perfbench/expected.json

``expected.json`` was written this way at the commit that introduced the
benchmark, and the checks hold every later commit to it. Running this on
another commit and diffing against ``expected.json`` shows which analytic
output moved.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qdssim  # noqa: E402

import workloads as w  # noqa: E402
from checks import parse_kv  # noqa: E402


def cli_lines(argv):
    result = w.call_cli(qdssim, argv)
    if result.rc != 0 or result.exception or result.stderr:
        raise SystemExit(f"{argv} failed: {result}")
    return parse_kv(result.stdout)


def main():
    expected = {"simulate": {}, "attack": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        tmp = Path(tmp)
        for length in (w.HONEST_LENGTH, w.REPLAY_LENGTH):
            cfg = tmp / "config.json"
            cfg.write_text(json.dumps({"length": length}))
            kv = cli_lines(["simulate", "--preset", w.PRESET, "--config", str(cfg), "--trials", "1"])
            expected["simulate"][str(length)] = {k: kv[k] for k in w.SIMULATE_PINNED}
        config = qdssim.config.config_from_dict(qdssim.config.PRESETS[w.PRESET])
        expected["click_matrix"] = [[float(x).hex() for x in row] for row in config.protocol_params().click_matrix()]

        index = w.make_inputs("design-scan", 0, tmp, ROOT)
        scan = w.DesignScan(json.loads(index.read_text()), qdssim)
        rnd = scan.execute(0, lambda: None)
        if rnd.outputs["failures"]:
            raise SystemExit(f"scan points failed: {rnd.outputs['failures']}")
        expected["design_scan"] = {"points": len(scan.inputs["grid"]), "digests": w.field_digests(rnd.outputs["rows"])}
        expected["bounds"] = cli_lines(["bounds", *scan.common_argv(0), scan.inputs["matrix"]])

        base = scan.common_argv(0)
        matrix = ["--cost-matrix", scan.inputs["matrix"]]
        random_lines = {"empirical_success", "mean_mismatch_fraction"}
        for kind, extra in (
            ("repudiate", ["--trials", str(w.REPUDIATE_TRIALS)]),
            ("forge_passive", [*matrix, "--trials", str(w.FORGE_TRIALS)]),
            ("forge_active_bound", matrix),
        ):
            kv = cli_lines(["attack", kind, *base, *extra])
            lines = {k: v for k, v in kv.items() if k not in random_lines}
            expected["attack"][kind] = {"keys": list(kv), "lines": lines}
    json.dump(expected, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
