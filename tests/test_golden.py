"""Golden outputs: the SHA-256 of every byte a fixed list of invocations prints or writes.

Each invocation runs in-process through ``qdssim.cli.main`` with stdout
and stderr captured, and is pinned by the digests of its exit code,
stdout, stderr and each file it writes under ``--out``. The pins are in
``tests/golden.json``. A change that moves an output on purpose (a new
random stream, a corrected digit) re-pins with

    PYTHONPATH=src python tests/test_golden.py --update

and lists every moved digest, with its reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from qdssim import cli

GOLDEN = Path(__file__).with_name("golden.json")
REF = str(Path(cli.__file__).with_name("data") / "reference_cost_matrix.txt")

# name: (argv, input files); "{out}" in argv is the --out path and "{cfg}" or
# "{matrix}" the file of that name in the inputs, holding the given text. At
# L = 123457 the transcripts hold a key line of 123457 digits and element
# indices of one to six digits.
L_OUT = json.dumps({"length": 123457})
FLAT = "0.3 0.3 0.3 0.3\n" * 4  # no off-diagonal excess: no provable security
INVOCATIONS: dict[str, tuple[list[str], dict[str, str]]] = {
    **{
        f"simulate-out-{name}-seed{seed}": (
            ["simulate", *preset, "--config", "{cfg}", "--trials", "2", "--seed", str(seed), "--out", "{out}"],
            {"cfg": L_OUT},
        )
        for name, preset in (("paper-2014", ["--preset", "paper-2014"]), ("default", []))
        for seed in (1, 2)
    },
    "simulate-paper-2014": (["simulate", "--preset", "paper-2014", "--trials", "20", "--seed", "3"], {}),
    "simulate-trials-0": (["simulate", "--trials", "0"], {}),
    "bounds": (["bounds", REF], {}),
    "bounds-out": (["bounds", REF, "--out", "{out}"], {}),
    "bounds-paper-2014": (["bounds", REF, "--preset", "paper-2014"], {}),
    "bounds-no-security": (["bounds", "{matrix}"], {"matrix": FLAT}),
    "sweep-default": (["sweep", "--trials", "0"], {}),
    "sweep-paper-2014": (["sweep", "--preset", "paper-2014", "--trials", "0"], {}),
    "sweep-mc": (["sweep", "--preset", "paper-2014", "--trials", "100000", "--seed", "4"], {}),
    "attack-repudiate": (["attack", "repudiate", "--preset", "paper-2014", "--seed", "5"], {}),
    "attack-repudiate-matrix-out": (
        ["attack", "repudiate", "--preset", "paper-2014", "--cost-matrix", REF, "--out", "{out}"], {}
    ),
    "attack-repudiate-unreachable": (["attack", "repudiate", "--preset", "paper-2014", "--target", "0"], {}),
    "attack-forge-passive": (["attack", "forge_passive", "--preset", "paper-2014", "--seed", "6"], {}),
    "attack-forge-passive-matrix": (
        ["attack", "forge_passive", "--preset", "paper-2014", "--cost-matrix", REF, "--amplitude-scale", "1.2"],
        {},
    ),
    "attack-forge-active-bound": (["attack", "forge_active_bound", "--preset", "paper-2014"], {}),
    "attack-forge-active-bound-matrix-out": (
        ["attack", "forge_active_bound", "--cost-matrix", REF, "--out", "{out}"], {}
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, workdir: Path) -> dict[str, str]:
    """Digests of the exit code, stdout, stderr and each --out file of one invocation."""
    argv, inputs = INVOCATIONS[name]
    out = workdir / "out"
    paths = {"out": out}
    for placeholder, text in inputs.items():
        paths[placeholder] = workdir / f"{placeholder}.in"
        paths[placeholder].write_text(text)
    argv = [a.format(**paths) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    found = {
        "exit": _sha(str(code).encode()),
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
    }
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
    found.update({f"out/{f.name}": _sha(f.read_bytes()) for f in files})
    return found


def test_golden_pins_every_invocation():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(INVOCATIONS)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_golden_outputs(tmp_path, name):
    assert digests(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


def update():
    pins = {}
    for name in sorted(INVOCATIONS):
        with tempfile.TemporaryDirectory() as workdir:
            pins[name] = digests(name, Path(workdir))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} invocations in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    update()
