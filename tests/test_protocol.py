import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdssim import detection, protocol, security
from qdssim.config import preset
from qdssim.detection import DetectorModel
from qdssim.protocol import (
    ChannelModel,
    Outcome,
    ProtocolParams,
    RecipientView,
    authenticate,
    count_mismatches,
    decide,
    distribute,
    read_transcript,
    run_honest_exchange,
    verify,
    write_transcript,
)
import transcript_reference


def make_params(**overrides):
    defaults = dict(
        length=500,
        auth_threshold=0.1,
        verify_threshold=0.2,
        alpha_sq=1.0,
        null_abort_fraction=0.05,
        detector=DetectorModel(efficiency=0.4, dark_click_prob=1e-4, visibility=0.9),
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


def test_channel_model_validation_and_product():
    ch = ChannelModel(0.5, 0.5, 0.5, 0.99)
    assert ch.total_transmittance == pytest.approx(0.125)
    with pytest.raises(ValueError):
        ChannelModel(multiport_transmittance=1.5)
    with pytest.raises(ValueError):
        ChannelModel(multiport_visibility=-0.2)


def test_params_threshold_ordering():
    with pytest.raises(ValueError):
        make_params(auth_threshold=0.2, verify_threshold=0.1)
    with pytest.raises(ValueError):
        make_params(auth_threshold=0.2, verify_threshold=0.2)
    with pytest.raises(ValueError):
        make_params(length=0)


def test_params_null_budget_must_cover_dark_rate():
    det = DetectorModel(efficiency=1.0, dark_click_prob=0.01)
    with pytest.raises(ValueError, match="null_abort_fraction"):
        make_params(detector=det, null_abort_fraction=0.005)
    make_params(detector=det, null_abort_fraction=0.02)  # fine


def test_receiver_intensity_includes_all_factors():
    ch = ChannelModel(0.5, 0.25, 0.8, 0.9)
    params = make_params(alpha_sq=2.0, channel=ch)
    expected = 2.0 * 0.5 * 0.25 * 0.8 * (1 + 0.9) / 2
    assert params.receiver_intensity() == pytest.approx(expected, rel=1e-12)


def test_honest_mismatch_prob_is_click_matrix_diagonal():
    params = make_params()
    m = params.click_matrix()
    assert params.honest_mismatch_prob() == pytest.approx(float(np.diag(m).mean()))


def test_null_click_prob_is_dark_rate():
    params = make_params()
    assert params.null_click_prob() == pytest.approx(1e-4, rel=1e-10)


def test_distribute_shapes_and_reproducibility():
    params = make_params(length=200)
    a = distribute(params, np.random.default_rng(21))
    b = distribute(params, np.random.default_rng(21))
    for bit in (0, 1):
        assert a.keys[bit].phases.shape == (200,)
        assert a.bob[bit].eliminations.shape == (200, 4)
        assert a.charlie[bit].null_clicks.shape == (200,)
        assert (a.keys[bit].phases == b.keys[bit].phases).all()
        assert (a.bob[bit].eliminations == b.bob[bit].eliminations).all()
        assert (a.charlie[bit].null_clicks == b.charlie[bit].null_clicks).all()


def test_distribute_rejects_bad_bits():
    params = make_params()
    with pytest.raises(ValueError):
        distribute(params, np.random.default_rng(0), message_bits=(2,))
    with pytest.raises(ValueError):
        distribute(params, np.random.default_rng(0), message_bits=(0, 0))


def test_distribute_click_frequencies_match_model():
    """Per-column elimination frequencies track the analytic click matrix."""
    params = make_params(length=60_000)
    dist = distribute(params, np.random.default_rng(8), message_bits=(0,))
    key = dist.keys[0]
    view = dist.bob[0]
    m = params.click_matrix()
    for i in range(4):
        sel = key.phases == i
        n = int(sel.sum())
        freq = view.eliminations[sel].mean(axis=0)
        for j in range(4):
            sigma = math.sqrt(m[i, j] * (1 - m[i, j]) / n)
            assert abs(freq[j] - m[i, j]) < 4 * sigma + 1e-12


def _dense_counts(params, rng):
    """Per-element reference sampler: every element's phase, detectors and null monitor."""
    L = params.length
    phases = rng.integers(0, 4, L)
    per_element = params.click_matrix()[phases]
    counts = []
    for _ in range(2):  # Bob, Charlie
        elims = rng.random((L, 4)) < per_element
        clicks, pulses = security.count_clicks(phases, elims)
        nulls = int((rng.random(L) < params.null_click_prob()).sum())
        counts += [clicks.ravel(), [nulls, np.trace(clicks)]]
    return np.concatenate([pulses, *counts])


def _kernel_counts(params, rng):
    dist = distribute(params, rng, message_bits=(0,))
    key = dist.keys[0]
    counts = [key.pulses]
    for view in (dist.bob[0], dist.charlie[0]):
        counts += [view.clicks.ravel(), [view.null_count(), count_mismatches(key, view)]]
    return np.concatenate(counts)


def test_count_kernel_matches_per_element_sampler_in_law():
    """Pulses, per-(i, j) clicks, nulls and mismatches of both recipients
    agree with the per-element process in mean and in every covariance
    between them (5 sigma)."""
    params = make_params(
        length=800, detector=DetectorModel(efficiency=0.4, dark_click_prob=0.01, visibility=0.9)
    )
    runs = 3000
    dense = np.array([_dense_counts(params, rng) for rng in map(np.random.default_rng, range(runs))])
    kernel = np.array([_kernel_counts(params, rng) for rng in map(np.random.default_rng, range(runs, 2 * runs))])
    assert (dense[:, :4].sum(axis=1) == params.length).all()
    assert (kernel[:, :4].sum(axis=1) == params.length).all()

    def moments(x):
        """Means and pairwise covariances, each with its squared standard error."""
        x = x.astype(float)
        c = x - x.mean(axis=0)
        products = (c[:, :, None] * c[:, None, :]).reshape(runs, -1)
        stats = np.concatenate([x, products], axis=1)
        return stats.mean(axis=0), stats.var(axis=0, ddof=1) / runs

    stat_d, se2_d = moments(dense)
    stat_k, se2_k = moments(kernel)
    assert (se2_d + se2_k > 0).all()
    z = np.abs(stat_d - stat_k) / np.sqrt(se2_d + se2_k)
    assert z.max() < 5, (z.argmax(), z.max())


def test_drawn_records_reproduce_the_counts():
    params = make_params(length=5000)
    dist = distribute(params, np.random.default_rng(41))
    pairs = [(dist.keys[bit], view) for bit in (0, 1) for view in (dist.bob[bit], dist.charlie[bit])]
    counted = [count_mismatches(key, view) for key, view in pairs]
    assert all(len(key) == params.length for key, _ in pairs)
    # counting a pair drawn together expands no record
    assert not any({"phases", "groups", "eliminations", "null_clicks"} & (vars(key).keys() | vars(view).keys())
                   for key, view in pairs)
    for (key, view), mismatches in zip(pairs, counted):
        clicks, pulses = security.count_clicks(key.phases, view.eliminations)
        assert np.array_equal(clicks, view.clicks)
        assert np.array_equal(pulses, key.pulses)
        assert int(view.null_clicks.sum()) == view.null_count()
        crafted = RecipientView(view.eliminations.copy(), view.null_clicks.copy())
        assert count_mismatches(protocol.PrivateKey(key.message_bit, key.phases.copy()), crafted) == mismatches
        assert mismatches == int(np.trace(view.clicks))


def test_drawn_key_phases_and_groups_keep_their_stream():
    """The phases are the int8 shuffle of the pulse counts, and the shared
    groups are each phase's elements in ascending order."""
    dist = distribute(make_params(length=20011), np.random.default_rng(45))
    for key in dist.keys.values():
        symbols = np.repeat(np.arange(4, dtype=np.int8), key.pulses)
        expected = protocol._record_stream(key.seed, 0).permutation(symbols)
        assert key.phases.dtype == np.int8
        assert np.array_equal(key.phases, expected)
        assert len(key.groups) == 4
        for i, where in enumerate(key.groups):
            assert np.array_equal(where, np.flatnonzero(expected == i))


def test_drawn_records_do_not_depend_on_access_order():
    params = make_params(length=3000)
    first = distribute(params, np.random.default_rng(42))
    second = distribute(params, np.random.default_rng(42))
    records = []
    for dist, order in ((first, 1), (second, -1)):
        # the views' records first and the keys last, then the reverse
        sources = [(dist.bob[b], "eliminations") for b in (0, 1)] + [(dist.charlie[b], "null_clicks") for b in (0, 1)]
        sources += [(dist.charlie[b], "eliminations") for b in (0, 1)] + [(dist.bob[b], "null_clicks") for b in (0, 1)]
        sources += [(dist.keys[b], "phases") for b in (0, 1)]
        records.append({i: getattr(obj, attr) for i, (obj, attr) in list(enumerate(sources))[::order]})
    for i, rec in records[0].items():
        assert np.array_equal(rec, records[1][i])
    third = distribute(params, np.random.default_rng(43))
    assert not np.array_equal(third.keys[0].phases, first.keys[0].phases)


def test_distribute_reaches_the_required_length():
    """Counts at the length the bundled matrix asks for, without any record."""
    params = make_params(length=51_042_710_665_729)
    res = run_honest_exchange(params, np.random.default_rng(44))
    assert len(res.distribution.keys[0]) == params.length
    p_h = params.honest_mismatch_prob()
    sigma = math.sqrt(params.length * p_h)
    assert abs(res.bob_mismatches - params.length * p_h) < 5 * sigma


def test_count_mismatches_crafted():
    phases = np.array([0, 1, 2, 3, 0], dtype=np.int8)
    elims = np.zeros((5, 4), dtype=bool)
    elims[0, 0] = True  # eliminates declared phase 0: mismatch
    elims[1, 0] = True  # eliminates phase 0 but element declares 1: fine
    elims[3, 3] = True  # mismatch
    key = protocol.PrivateKey(0, phases)
    assert count_mismatches(key, RecipientView(elims, np.zeros(5, bool))) == 2
    with pytest.raises(ValueError):
        count_mismatches(key, RecipientView(np.zeros((4, 4), bool), np.zeros(4, bool)))


def test_decision_boundaries_are_strict():
    """Accept needs count strictly below threshold*L; abort needs count
    strictly above the null budget."""
    params = make_params(length=100, auth_threshold=0.1, verify_threshold=0.2)
    # 0.1 * 100 = 10 mismatches: not accepted
    assert authenticate(9, 0, params) is Outcome.ACCEPTED
    assert authenticate(10, 0, params) is Outcome.REJECTED
    assert verify(19, 0, params) is Outcome.ACCEPTED
    assert verify(20, 0, params) is Outcome.REJECTED
    # null budget 0.05 * 100 = 5: abort only beyond it
    assert authenticate(0, 5, params) is Outcome.ACCEPTED
    assert authenticate(0, 6, params) is Outcome.ABORTED
    assert verify(50, 6, params) is Outcome.ABORTED  # abort wins over reject
    with pytest.raises(ValueError):
        authenticate(-1, 0, params)


def test_decide_on_arrays_matches_the_scalar_decisions():
    params = make_params(length=100, auth_threshold=0.1, verify_threshold=0.2)
    m, n = np.meshgrid(np.arange(0, 30), np.arange(0, 9))
    for threshold, scalar in ((0.1, authenticate), (0.2, verify)):
        codes = decide(m, n, params, threshold)
        assert codes.shape == m.shape
        for mi, ni, code in zip(m.ravel(), n.ravel(), codes.ravel()):
            assert protocol.OUTCOMES[code] is scalar(int(mi), int(ni), params)
    with pytest.raises(ValueError, match=">= 0"):
        decide(np.array([3, -1]), np.array([0, 0]), params, 0.1)


def test_run_honest_exchange_accepts_with_sane_thresholds():
    params = make_params(length=2000, auth_threshold=0.3, verify_threshold=0.6)
    res = run_honest_exchange(params, np.random.default_rng(3))
    assert res.bob_outcome is Outcome.ACCEPTED
    assert res.charlie_outcome is Outcome.ACCEPTED
    assert res.bob_mismatches < 0.3 * 2000
    assert res.message_bit == 0


def test_transcript_round_trip(tmp_path):
    params = make_params(length=150)
    dist = distribute(params, np.random.default_rng(17), message_bits=(1,))
    view = dist.bob[1]
    key = dist.keys[1]
    path = tmp_path / "transcript.txt"
    write_transcript(path, 1, view, key)
    back = read_transcript(path)
    assert back.message_bit == 1
    assert (back.view.eliminations == view.eliminations).all()
    assert (back.view.null_clicks == view.null_clicks).all()
    assert (back.key_phases == key.phases).all()


def test_transcript_key_bit_mismatch(tmp_path):
    params = make_params(length=10)
    dist = distribute(params, np.random.default_rng(19))
    with pytest.raises(ValueError, match="bit"):
        write_transcript(tmp_path / "x.txt", 1, dist.bob[1], dist.keys[0])


def _random_view(L, seed, rate=0.5):
    flags = np.random.default_rng(seed).random((L, 5)) < rate
    return RecipientView(flags[:, :4].copy(), flags[:, 4].copy())


def _random_key(L, seed, bit=1):
    return protocol.PrivateKey(bit, np.random.default_rng(seed).integers(0, 4, L).astype(np.int8))


@pytest.mark.parametrize("rate", [0.5, 0.01, 0.0])
@pytest.mark.parametrize("L", [1, 9, 10, 10**4, 123457, 10**6])
def test_transcript_round_trip_at_every_scale(tmp_path, L, rate):
    view, key = _random_view(L, L, rate), _random_key(L, L)
    write_transcript(tmp_path / "t.txt", 1, view, key)
    back = read_transcript(tmp_path / "t.txt")
    assert back.message_bit == 1
    assert np.array_equal(back.view.eliminations, view.eliminations)
    assert np.array_equal(back.view.null_clicks, view.null_clicks)
    assert np.array_equal(back.key_phases, key.phases)
    if L <= 123457:  # the bytes of the line-by-line reference writer
        transcript_reference.write(tmp_path / "r.txt", 1, view.eliminations, view.null_clicks, key.phases)
        assert (tmp_path / "t.txt").read_bytes() == (tmp_path / "r.txt").read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    flags=st.integers(1, 300).flatmap(lambda L: hnp.arrays(np.bool_, (L, 5))),
    bit=st.integers(0, 1),
)
def test_transcript_round_trip_property(tmp_path_factory, flags, bit):
    path = tmp_path_factory.mktemp("codec") / "t.txt"
    view = RecipientView(flags[:, :4], flags[:, 4])
    phases = (np.arange(len(flags)) % 4).astype(np.int8)
    write_transcript(path, bit, view, protocol.PrivateKey(bit, phases))
    back = read_transcript(path)
    assert back.message_bit == bit
    assert np.array_equal(back.view.eliminations, view.eliminations)
    assert np.array_equal(back.view.null_clicks, view.null_clicks)
    assert np.array_equal(back.key_phases, phases)


@pytest.mark.parametrize("bit", [2, -1, "1"])
def test_write_transcript_rejects_a_bit_other_than_0_or_1(tmp_path, bit):
    with pytest.raises(ValueError, match="message bit"):
        write_transcript(tmp_path / "t.txt", bit, _random_view(5, 0), _random_key(5, 0))
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize(
    "phases, match",
    [([0, 1, 2, 3], "do not match"), ([0, 1, 2, 3, 4], "phase 0..3"), ([0, 1, -1, 3, 0], "phase 0..3")],
)
def test_write_transcript_rejects_a_key_that_does_not_fit_the_view(tmp_path, phases, match):
    key = protocol.PrivateKey(0, np.array(phases, dtype=np.int8))
    with pytest.raises(ValueError, match=match):
        write_transcript(tmp_path / "t.txt", 0, _random_view(5, 0), key)
    assert not (tmp_path / "t.txt").exists()


_HEAD = b"# qdssim transcript v2\n# bit 1\n# key 0123\n"


def _assert_rejected_at(tmp_path, data, line, expected=""):
    """The reader and the line-by-line reference both reject data at line."""
    p = tmp_path / "bad.txt"
    p.write_bytes(data)
    assert transcript_reference.read(data) == line
    with pytest.raises(ValueError, match=f"^line {line}: expected {expected}"):
        read_transcript(p)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"", 1),
        (b"# qdssim transcript v2", 1),  # no LF
        (b"# qdssim transcript v1\n# bit 1\n# key 0\n", 1),
        (b"1 0 1 0 0 0 0\n", 1),  # a fixed-layout line of the earlier form
        (b"# qdssim transcript v2\n", 2),
        (b"# qdssim transcript v2\n# bit 2\n# key 0\n", 2),
        (b"# qdssim transcript v2\n# bit 1\n", 3),
        (_HEAD + b"0 1 0 0 0 0\n\n1 0 0 0 0 1\n", 5),  # blank line
        (_HEAD + b"0 1 0 0 0 0\n# note\n", 5),
        (_HEAD + b"0 1 0 0 0 0\n1 0 0 0 0 1", 5),  # no LF at the end
        (_HEAD + b"0 1 0 0 0 0\n\x00", 5),  # a trailing byte
    ],
)
def test_read_transcript_names_the_first_line_out_of_the_writer_form(tmp_path, data, line):
    _assert_rejected_at(tmp_path, data, line)


def test_read_transcript_rejects_malformed(tmp_path):
    element = "'index e0 e1 e2 e3 null'"
    _assert_rejected_at(tmp_path, _HEAD + b"0 0 0 0 0 0\n", 4, element)  # no flag set
    _assert_rejected_at(tmp_path, _HEAD + b"0 1 0 0 0\n", 4, element)  # five columns
    _assert_rejected_at(tmp_path, _HEAD + b"1 0 1 0 0 0 0\n", 4, element)  # seven columns
    _assert_rejected_at(tmp_path, _HEAD + b"0 1 0 0 0 2\n", 4, element)  # flag out of range


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 1 0 0 0 0\n4 0 0 0 0 1\n", 5),  # index past the key
        ("2 1 0 0 0 0\n2 0 0 0 0 1\n", 5),  # duplicate index
        ("2 1 0 0 0 0\n1 0 0 0 0 1\n", 5),  # out of order
        ("0 1 0 0 0 0\n1 0 0 0 0 1\n3 0 1 0 0 0\n2 0 0 1 0 0\n", 7),
    ],
)
def test_read_transcript_checks_the_index_column(tmp_path, text, line):
    _assert_rejected_at(tmp_path, _HEAD + text.encode(), line, "an index above")


@pytest.mark.parametrize("header", ["# key", "# key ", "# key 4", "# key 0x", "# key 01 2", "# key 0123\r"])
def test_read_transcript_rejects_malformed_key_header(tmp_path, header):
    data = b"# qdssim transcript v2\n# bit 1\n" + header.encode() + b"\n0 1 0 0 0 0\n"
    _assert_rejected_at(tmp_path, data, 3, "'# key '")


@pytest.mark.parametrize(
    "line",
    [
        "1  0 0 0 0 1",  # double space
        "1\t0 0 0 0 1",  # tab
        "1 0 0 0 0 1\r",  # CRLF
        "1 0 0 0 0 1 # note",  # trailing comment
        "1 0 0 x 0 1",  # non-digit
        "01 0 0 0 0 1",  # leading zero
    ],
)
def test_read_transcript_names_the_line_not_in_the_writer_form(tmp_path, line):
    data = _HEAD + b"0 1 0 0 0 0\n" + line.encode() + b"\n3 0 1 0 0 0\n"
    _assert_rejected_at(tmp_path, data, 5, "'index e0 e1 e2 e3 null'")


def _savetxt_transcript(path, bit, view, key):
    """Reference writer: the header lines, then ``np.savetxt`` over the rows with a flag."""
    L = len(key.phases)
    stack = np.column_stack([np.arange(L), view.eliminations, view.null_clicks]).astype(np.int64)
    with open(path, "w") as f:
        f.write(f"# qdssim transcript v2\n# bit {bit}\n# key " + "".join(str(int(p)) for p in key.phases) + "\n")
        np.savetxt(f, stack[stack[:, 1:].any(axis=1)], fmt="%d")


# lengths on both sides of every index-width change up to 10^5, and others between
@pytest.mark.parametrize(
    "L", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001, 19999, 20000, 20001, 75536, 75537, 100001, 110001]
)
def test_writer_bytes_match_savetxt(tmp_path, L):
    for bit, rate in ((L % 2, 0.5), (1 - L % 2, 0.01)):
        view, key = _random_view(L, L, rate), _random_key(L, L, bit)
        write_transcript(tmp_path / "codec.txt", bit, view, key)
        _savetxt_transcript(tmp_path / "savetxt.txt", bit, view, key)
        assert (tmp_path / "codec.txt").read_bytes() == (tmp_path / "savetxt.txt").read_bytes()
        back = read_transcript(tmp_path / "savetxt.txt")
        assert back.message_bit == bit
        assert np.array_equal(back.view.eliminations, view.eliminations)
        assert np.array_equal(back.view.null_clicks, view.null_clicks)
        assert np.array_equal(back.key_phases, key.phases)


def _written_lines(tmp_path, L, seed=3):
    """The lines of a transcript the writer made, without their line feeds."""
    write_transcript(tmp_path / "w.txt", 1, _random_view(L, seed), _random_key(L, seed))
    return (tmp_path / "w.txt").read_bytes().split(b"\n")[:-1]


@pytest.mark.parametrize("L", [1, 10, 10**4, 10**4 + 1])
def test_read_transcript_rejects_a_last_line_without_its_line_feed(tmp_path, L):
    lines = _written_lines(tmp_path, L)
    _assert_rejected_at(tmp_path, b"\n".join(lines), len(lines), "a line ended by a LF")


@pytest.mark.parametrize(
    "column, byte, expected",
    [
        (-1, b"2", "'index e0 e1 e2 e3 null'"),
        (-3, b"x", "'index e0 e1 e2 e3 null'"),
        (-2, b"\t", "'index e0 e1 e2 e3 null'"),
        (0, b"9", "an index above .* below the key's 20001 elements, got 9"),
        (0, b"0", "'index e0 e1 e2 e3 null'"),  # a leading zero
    ],
)
def test_read_transcript_names_one_corrupted_byte(tmp_path, column, byte, expected):
    lines = _written_lines(tmp_path, 20001)
    line = bytearray(lines[3 + 12345])
    assert line[:1] == b"1"  # an index of five digits, 10000..19999
    line[column] = byte[0]
    lines[3 + 12345] = bytes(line)
    _assert_rejected_at(tmp_path, b"\n".join(lines) + b"\n", 4 + 12345, expected)


def test_read_transcript_takes_a_file_without_events(tmp_path):
    p = tmp_path / "quiet.txt"
    p.write_bytes(_HEAD)
    back = read_transcript(p)
    assert back.message_bit == 1
    assert back.key_phases.tolist() == [0, 1, 2, 3]
    assert not back.view.eliminations.any() and back.view.eliminations.shape == (4, 4)
    assert not back.view.null_clicks.any() and back.view.null_clicks.shape == (4,)


def test_read_transcript_allocates_for_the_key_line_only(tmp_path):
    """An index far past the key is refused before any array is sized."""
    p = tmp_path / "far.txt"
    p.write_bytes(_HEAD + b"999999999999999999 1 0 0 0 0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^line 4: "):
            read_transcript(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5


def test_click_matrix_is_computed_once_per_params(monkeypatch):
    real = detection.phase_click_matrix
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(detection, "phase_click_matrix", counting)
    params = make_params()
    cached = [run_honest_exchange(params, np.random.default_rng(s)) for s in range(100)]
    assert len(calls) == 1
    fresh = [run_honest_exchange(make_params(), np.random.default_rng(s)) for s in range(100)]
    assert [(r.bob_mismatches, r.charlie_mismatches) for r in cached] == [
        (r.bob_mismatches, r.charlie_mismatches) for r in fresh
    ]
    assert np.array_equal(params.click_matrix(), real(params.receiver_intensity(), params.detector))
    with pytest.raises(ValueError):
        params.click_matrix()[0, 0] = 0.5

    # a config derives its thresholds from the analytic matrix and hands that matrix on
    calls.clear()
    cfg = preset("paper-2014")
    configured = cfg.protocol_params()
    assert configured.click_matrix() is configured.click_matrix()
    assert len(calls) == 1
    analytic = real(cfg.receiver_intensity(), cfg.detector())
    report = security.analyze(analytic, cfg.alpha_sq, cfg.security_level)
    assert (configured.auth_threshold, configured.verify_threshold) == (
        report.auth_threshold, report.verify_threshold,
    )
    assert np.array_equal(configured.click_matrix(), analytic)
    # params rebuilt from the same fields, but left to compute their own matrix, agree
    rebuilt = ProtocolParams(
        **{f.name: getattr(configured, f.name) for f in dataclasses.fields(configured) if f.name != "cost_matrix"}
    )
    assert rebuilt.click_matrix() is not configured.click_matrix()
    assert configured.click_matrix().tobytes() == rebuilt.click_matrix().tobytes()
    with pytest.raises(ValueError):
        configured.click_matrix()[0, 0] = 0.5

    # a measured matrix governs the params it is given to, and no analytic one is built
    calls.clear()
    ref = security.reference_cost_matrix()
    measured = cfg.protocol_params(ref)
    assert len(calls) == 0
    assert measured.click_matrix().tobytes() == ref.entries.tobytes()
    assert measured.honest_mismatch_prob() == float(np.diag(ref.entries).mean())
    ref.entries[0, 0] = 0.5  # the params hold their own read-only copy
    assert measured.click_matrix()[0, 0] != 0.5
    with pytest.raises(ValueError):
        measured.click_matrix()[0, 0] = 0.5
    assert len(calls) == 0


def test_honest_runs_on_a_measured_matrix_reject_at_its_exact_tail():
    # sampled from and judged by the bundled matrix, each recipient's
    # mismatch count is Binomial(L, p_h(M)), so it rejects with the exact
    # upper tail at its threshold; nulls stay far below the budget
    from scipy import stats

    ref = security.reference_cost_matrix()
    params = preset("paper-2014").replace(length=10**6).protocol_params(ref)
    L, p_h = params.length, params.honest_mismatch_prob()
    assert p_h == float(np.diag(ref.entries).mean())
    runs = 4000
    results = [run_honest_exchange(params, np.random.default_rng(ss)) for ss in np.random.SeedSequence(3016).spawn(runs)]
    for threshold, outcomes in (
        (params.auth_threshold, [r.bob_outcome for r in results]),
        (params.verify_threshold, [r.charlie_outcome for r in results]),
    ):
        k = math.ceil(threshold * L)  # the least count ``decide`` rejects
        exact = math.exp(security.log_binomial_tail(k, L, p_h, upper=True))
        assert exact == pytest.approx(stats.binom.sf(k - 1, L, p_h), rel=1e-10)
        rejected = sum(outcome is Outcome.REJECTED for outcome in outcomes) / runs
        assert abs(rejected - exact) <= 5 * math.sqrt(exact * (1 - exact) / runs)


def test_params_with_a_governing_matrix_compare_and_hash_without_it():
    cfg = preset("paper-2014")
    analytic, measured = cfg.protocol_params(), cfg.protocol_params(security.reference_cost_matrix())
    assert hash(analytic) == hash(analytic) and analytic == analytic
    # the matrix stays out of == and hash: an ndarray would make both raise
    same = dataclasses.replace(analytic, cost_matrix=measured.click_matrix())
    assert same == analytic and hash(same) == hash(analytic)
    assert measured != analytic  # their thresholds differ
    assert {analytic, measured, same} == {analytic, measured}
    # replace keeps the matrix unless it is reset, which recomputes it for the new fields
    brighter = cfg.replace(alpha_sq=2 * cfg.alpha_sq).protocol_params()
    kept = dataclasses.replace(analytic, alpha_sq=brighter.alpha_sq)
    assert kept.click_matrix() is analytic.click_matrix()
    reset = dataclasses.replace(analytic, alpha_sq=brighter.alpha_sq, cost_matrix=None)
    assert reset.click_matrix().tobytes() == brighter.click_matrix().tobytes()
    assert reset.click_matrix().tobytes() != analytic.click_matrix().tobytes()


@pytest.mark.parametrize(
    "matrix, message",
    [(np.zeros((3, 4)), "4x4"), (np.full((4, 4), 1.5), r"\[0, 1\]"), (np.full((4, 4), np.nan), "finite")],
)
def test_params_refuse_a_malformed_governing_matrix(matrix, message):
    with pytest.raises(ValueError, match=message):
        make_params(cost_matrix=matrix)


def test_distribute_ideal_optics_never_eliminates_sent_phase():
    params = make_params(
        length=2000,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0, visibility=1.0),
    )
    result = distribute(params, np.random.default_rng(11))
    for views in (result.bob, result.charlie):
        for bit, view in views.items():
            sent = result.keys[bit].phases
            hits = view.eliminations[np.arange(params.length), sent]
            assert not hits.any()
            assert view.null_count() == 0


def test_distribute_null_clicks_are_dark_counts_only():
    dark = 1e-3
    params = make_params(
        length=40_000,
        detector=DetectorModel(efficiency=0.4, dark_click_prob=dark, visibility=0.9),
    )
    result = distribute(params, np.random.default_rng(12))
    pooled = sum(
        views[bit].null_count()
        for views in (result.bob, result.charlie)
        for bit in (0, 1)
    )
    draws = 4 * params.length
    mean = draws * dark
    sigma = math.sqrt(draws * dark * (1.0 - dark))
    assert abs(pooled - mean) < 4 * sigma


def test_declared_key_mismatch_rates_follow_click_matrix():
    params = make_params(length=200_000)
    C = params.click_matrix()
    rng = np.random.default_rng(13)
    result = distribute(params, rng, message_bits=(0,))
    sent = result.keys[0].phases
    view = result.bob[0]
    L = params.length

    # a declaration drawn independently of the key samples every
    # (sent, declared) pair uniformly, so the full matrix mean governs
    uniform_decl = rng.integers(0, 4, L).astype(np.int8)
    frac = count_mismatches(protocol.PrivateKey(0, uniform_decl), view) / L
    p_full = C.mean()
    assert abs(frac - p_full) < 4 * math.sqrt(p_full * (1 - p_full) / L)

    # a declaration that always avoids the sent phase sees the
    # off-diagonal mean instead
    wrong_decl = ((sent + rng.integers(1, 4, L)) % 4).astype(np.int8)
    frac = count_mismatches(protocol.PrivateKey(0, wrong_decl), view) / L
    p_off = C[~np.eye(4, dtype=bool)].mean()
    assert abs(frac - p_off) < 4 * math.sqrt(p_off * (1 - p_off) / L)


def test_authenticate_acceptance_implies_verify_acceptance():
    rng = np.random.default_rng(14)
    for _ in range(300):
        s_a = rng.uniform(0.0, 0.8)
        s_v = s_a + rng.uniform(0.01, 0.19)
        params = make_params(length=100, auth_threshold=s_a, verify_threshold=s_v)
        m = int(rng.integers(0, 101))
        n = int(rng.integers(0, 101))
        auth = authenticate(m, n, params)
        ver = verify(m, n, params)
        if auth is Outcome.ACCEPTED:
            assert ver is Outcome.ACCEPTED
        if auth is Outcome.ABORTED:
            assert ver is Outcome.ABORTED


def test_mismatch_count_between_thresholds_splits_the_decisions():
    params = make_params(length=10, auth_threshold=0.2, verify_threshold=0.6)
    assert authenticate(4, 0, params) is Outcome.REJECTED
    assert verify(4, 0, params) is Outcome.ACCEPTED
