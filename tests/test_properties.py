"""Property tests: malformed input of any kind ends in an error, never a traceback."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdssim import cli, config, protocol, security
from qdssim.detection import DetectorModel
from qdssim.protocol import ABORT, ACCEPT, REJECT, ProtocolParams, decide
import transcript_reference

REF = "src/qdssim/data/reference_cost_matrix.txt"


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    """Cost-matrix arguments: none, the bundled one, one without security, a missing file."""
    d = tmp_path_factory.mktemp("matrices")
    flat = d / "flat.txt"
    flat.write_text("\n".join(["1e-4 1e-4 1e-4 1e-4"] * 4) + "\n")
    return [None, REF, str(flat), str(d / "missing.txt")]


def _flag_value():
    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-2.0, 2.0),
        st.integers(-3, 3),
    ).map(repr)
    return st.one_of(st.none(), number, st.text(max_size=6))


@settings(max_examples=150)
@given(
    kind=st.sampled_from(cli.ATTACK_KINDS),
    target=_flag_value(),
    scale=_flag_value(),
    trials=st.integers(-3, 50),
    seed=st.one_of(st.none(), st.integers(-3, 2**64 + 3)),
    preset=st.sampled_from([None, "ideal", "paper-2014", "nope"]),
    matrix=st.integers(0, 3),
)
def test_attack_argv_ends_in_an_exit_code(matrix_files, kind, target, scale, trials, seed, preset, matrix):
    argv = ["attack", kind, "--trials", str(trials)]
    for flag, value in (("--target", target), ("--amplitude-scale", scale), ("--seed", seed),
                        ("--preset", preset), ("--cost-matrix", matrix_files[matrix])):
        if value is not None:
            argv.append(f"{flag}={value}")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert (code == 0) == (err.getvalue() == "")


def _read_allowing_value_errors(reader, data: bytes):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.txt"
        path.write_bytes(data)
        try:
            reader(path)
        except ValueError:
            pass


@st.composite
def _mutated(draw, lines: list[bytes], tokens: list[str]):
    """A valid file with up to three of its lines dropped, repeated or replaced by junk."""
    junk = st.one_of(
        st.lists(st.sampled_from(tokens), max_size=8).map(lambda t: " ".join(t).encode()),
        st.binary(max_size=12),
    )
    out = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["insert", "drop", "repeat", "replace"]))
        if op == "insert" or i == len(out):
            out.insert(i, draw(junk))
        elif op == "drop":
            del out[i]
        elif op == "repeat":
            out.insert(i, out[i])
        else:
            out[i] = draw(junk)
    return b"\n".join(out) + draw(st.sampled_from([b"", b"\n"]))


_MATRIX_TOKENS = ["#", "pulses", "1", "0", "-1", "2.5e-4", "1e400", "nan", "inf", "x", "1_0", "\u0663"]
_TRANSCRIPT_TOKENS = ["#", "qdssim", "transcript", "v2", "bit", "key", "0", "1", "2", "5", "-1", "00", "0123", "4", "x"]


def _valid_matrix_lines():
    return Path(REF).read_bytes().splitlines()


def _valid_transcript_lines():
    key = protocol.PrivateKey(1, np.array([0, 1, 2, 3, 0, 2], dtype=np.int8))
    elims = np.random.default_rng(0).random((6, 4)) < 0.5
    view = protocol.RecipientView(elims, np.array([0, 1, 0, 0, 0, 1], dtype=bool))
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.txt"
        protocol.write_transcript(path, 1, view, key)
        return path.read_bytes().splitlines()


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=200), _mutated(_valid_matrix_lines(), _MATRIX_TOKENS)))
def test_read_cost_matrix_raises_only_value_errors(data):
    _read_allowing_value_errors(security.read_cost_matrix, data)


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=200), _mutated(_valid_transcript_lines(), _TRANSCRIPT_TOKENS)))
def test_read_transcript_raises_only_value_errors(data):
    _read_allowing_value_errors(protocol.read_transcript, data)


@settings(max_examples=300)
@given(_mutated(_valid_transcript_lines(), _TRANSCRIPT_TOKENS))
def test_read_transcript_agrees_with_the_line_by_line_reference(data):
    """Both read equal arrays, or both reject the file at the same line."""
    expected = transcript_reference.read(data)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.txt"
        path.write_bytes(data)
        if isinstance(expected, int):
            with pytest.raises(ValueError, match=f"^line {expected}: "):
                protocol.read_transcript(path)
            return
        got = protocol.read_transcript(path)
    bit, phases, elims, nulls = expected
    assert got.message_bit == bit
    assert np.array_equal(got.key_phases, phases)
    assert np.array_equal(got.view.eliminations, elims)
    assert np.array_equal(got.view.null_clicks, nulls)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_field = st.sampled_from([f.name for f in dataclasses.fields(config.ExperimentConfig)] + ["mystery_knob"])
_config_value = st.one_of(
    _json, st.floats(-2.0, 2.0), st.integers(-3, 2**64), st.floats(0.0, 1.0).map(lambda x: [x])
)


@settings(max_examples=300)
@given(st.dictionaries(_field, _config_value, max_size=5))
def test_config_dicts_raise_only_value_errors(data):
    data = json.loads(json.dumps(data))  # what a config file can hold
    try:
        config.config_from_dict(data).protocol_params()
    except ValueError:
        pass


@settings(max_examples=200)
@given(
    length=st.integers(1, 10**6),
    threshold=st.floats(0.0, 1.0),
    budget=st.floats(0.0, 1.0),
    mismatches=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).map(sorted),
    nulls=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)).map(sorted),
)
def test_decide_is_monotone_in_both_counts(length, threshold, budget, mismatches, nulls):
    params = ProtocolParams(
        length=length,
        auth_threshold=0.1,
        verify_threshold=0.2,
        alpha_sq=1.0,
        null_abort_fraction=budget,
        epsilon=0.0,
        detector=DetectorModel(efficiency=1.0),
    )
    # more mismatches or more nulls never make a decision more lenient
    severity = {int(ACCEPT): 0, int(REJECT): 1, int(ABORT): 2}
    low = severity[int(decide(mismatches[0], nulls[0], params, threshold))]
    for m, n in ((mismatches[1], nulls[0]), (mismatches[0], nulls[1]), (mismatches[1], nulls[1])):
        assert severity[int(decide(m, n, params, threshold))] >= low
