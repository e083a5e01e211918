import dataclasses
import math
import warnings

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
    assert not any({"phases", "eliminations", "null_clicks"} & (vars(key).keys() | vars(view).keys())
                   for key, view in pairs)
    for (key, view), mismatches in zip(pairs, counted):
        clicks, pulses = security.count_clicks(key.phases, view.eliminations)
        assert np.array_equal(clicks, view.clicks)
        assert np.array_equal(pulses, key.pulses)
        assert int(view.null_clicks.sum()) == view.null_count()
        crafted = RecipientView(view.eliminations.copy(), view.null_clicks.copy())
        assert count_mismatches(protocol.PrivateKey(key.message_bit, key.phases.copy()), crafted) == mismatches
        assert mismatches == int(np.trace(view.clicks))


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


def test_transcript_without_key(tmp_path):
    params = make_params(length=40)
    dist = distribute(params, np.random.default_rng(18), message_bits=(0,))
    path = tmp_path / "t.txt"
    write_transcript(path, 0, dist.charlie[0])
    back = read_transcript(path)
    assert back.key_phases is None
    assert back.message_bit == 0


def test_transcript_key_bit_mismatch(tmp_path):
    params = make_params(length=10)
    dist = distribute(params, np.random.default_rng(19))
    with pytest.raises(ValueError, match="bit"):
        write_transcript(tmp_path / "x.txt", 1, dist.bob[1], dist.keys[0])


def test_read_transcript_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 1 0 0 0\n")  # six columns
    with pytest.raises(ValueError, match="7 columns"):
        read_transcript(p)
    p.write_text("0 0 1 0 0 0 0\n1 1 0 0 0 0 0\n")  # mixed bits
    with pytest.raises(ValueError, match="single message bit"):
        read_transcript(p)
    p.write_text("0 0 2 0 0 0 0\n")  # flag out of range
    with pytest.raises(ValueError, match="0 or 1"):
        read_transcript(p)
    p.write_text("# key 012\n0 0 1 0 0 0 0\n")  # key length mismatch
    with pytest.raises(ValueError, match="key length"):
        read_transcript(p)


@pytest.mark.parametrize(
    "text, line",
    [
        ("0 0 1 0 0 0 0\n0 5 0 0 0 0 0\n0 5 0 0 0 0 0\n", 2),  # index 5 where 1 belongs
        ("0 0 1 0 0 0 0\n0 1 0 0 0 0 0\n0 1 0 0 0 0 0\n", 3),  # duplicate index
        ("0 1 1 0 0 0 0\n0 0 0 0 0 0 0\n", 1),  # out of order
        ("# key 012\n0 0 1 0 0 0 0\n\n# note\n0 2 0 0 0 0 0\n0 1 0 0 0 0 0\n", 5),
    ],
)
def test_read_transcript_checks_the_index_column(tmp_path, text, line):
    p = tmp_path / "bad_index.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^line {line}: element index"):
        read_transcript(p)


@pytest.mark.parametrize("text", ["", "\n\n", "# key 0123\n", "# a comment\n"])
def test_read_transcript_without_elements(tmp_path, text):
    p = tmp_path / "empty.txt"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="transcript has no elements"):
            read_transcript(p)


@pytest.mark.parametrize("header", ["# key", "# key ", "# key 4", "# key 0x", "# key 01 2"])
def test_read_transcript_rejects_malformed_key_header(tmp_path, header):
    p = tmp_path / "bad_key.txt"
    p.write_text(header + "\n0 0 1 0 0 0 0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_transcript(p)


def _savetxt_transcript(path, bit, view, key=None):
    """Reference writer: ``np.savetxt`` over the (L, 7) column stack."""
    L = len(view.null_clicks)
    stack = np.column_stack(
        [
            np.full(L, bit, dtype=np.int64),
            np.arange(L, dtype=np.int64),
            view.eliminations.astype(np.int64),
            view.null_clicks.astype(np.int64),
        ]
    )
    with open(path, "w") as f:
        if key is not None:
            f.write("# key " + "".join(str(int(p)) for p in key.phases) + "\n")
        np.savetxt(f, stack, fmt="%d")


def _random_view(L, seed):
    flags = np.random.default_rng(seed).random((L, 5)) < 0.5
    return RecipientView(flags[:, :4].copy(), flags[:, 4].copy())


# lengths on both sides of every index-width change up to 10^5, and across
# the 2^16-row block boundary at 10^4 + 2^16 = 75536
@pytest.mark.parametrize("L", [1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 10001, 75536, 75537, 100001])
def test_writer_bytes_match_savetxt(tmp_path, L):
    view = _random_view(L, L)
    key = protocol.PrivateKey(L % 2, np.random.default_rng(L).integers(0, 4, L).astype(np.int8))
    for bit, k in ((L % 2, key), (1 - L % 2, None)):
        write_transcript(tmp_path / "codec.txt", bit, view, k)
        _savetxt_transcript(tmp_path / "savetxt.txt", bit, view, k)
        assert (tmp_path / "codec.txt").read_bytes() == (tmp_path / "savetxt.txt").read_bytes()
        back = read_transcript(tmp_path / "savetxt.txt")
        assert back.message_bit == bit
        assert np.array_equal(back.view.eliminations, view.eliminations)
        assert np.array_equal(back.view.null_clicks, view.null_clicks)
        assert (back.key_phases is None) if k is None else np.array_equal(back.key_phases, key.phases)


@settings(max_examples=60, deadline=None)
@given(
    flags=st.integers(1, 300).flatmap(lambda L: hnp.arrays(np.bool_, (L, 5))),
    bit=st.integers(0, 1),
    with_key=st.booleans(),
)
def test_transcript_round_trip_property(tmp_path_factory, flags, bit, with_key):
    path = tmp_path_factory.mktemp("codec") / "t.txt"
    view = RecipientView(flags[:, :4], flags[:, 4])
    phases = (np.arange(len(flags)) % 4).astype(np.int8)
    write_transcript(path, bit, view, protocol.PrivateKey(bit, phases) if with_key else None)
    back = read_transcript(path)
    assert back.message_bit == bit
    assert np.array_equal(back.view.eliminations, view.eliminations)
    assert np.array_equal(back.view.null_clicks, view.null_clicks)
    assert np.array_equal(back.key_phases, phases) if with_key else back.key_phases is None


def test_read_transcript_skips_blank_and_comment_lines(tmp_path):
    p = tmp_path / "annotated.txt"
    p.write_bytes(b"# key 01\n\n# a note\n0 0 1 0 0 0 0\n\n0 1 0 0 0 1 1")  # no final line feed
    back = read_transcript(p)
    assert back.key_phases.tolist() == [0, 1]
    assert back.view.eliminations.tolist() == [[True, False, False, False], [False, False, False, True]]
    assert back.view.null_clicks.tolist() == [False, True]


@pytest.mark.parametrize(
    "line",
    [
        "0 1  0 0 0 0 1",  # double space
        "0 1\t0 0 0 0 1",  # tab
        "0 1 0 0 0 0 1\r",  # CRLF
        "0 1 0 0 0 0 1 # note",  # trailing comment
        "0 1 0 x 0 0 1",  # non-digit
        "0 01 0 0 0 0 1",  # leading zero
    ],
)
def test_read_transcript_names_the_line_not_in_the_writer_form(tmp_path, line):
    p = tmp_path / "form.txt"
    p.write_bytes(f"# key 012\n0 0 1 0 0 0 0\n{line}\n0 2 0 1 0 0 0\n".encode())
    with pytest.raises(ValueError, match="^line 3: "):
        read_transcript(p)


@pytest.mark.parametrize("bit", [2, -1, "1"])
def test_write_transcript_rejects_a_bit_other_than_0_or_1(tmp_path, bit):
    with pytest.raises(ValueError, match="message bit"):
        write_transcript(tmp_path / "t.txt", bit, _random_view(5, 0))
    assert not (tmp_path / "t.txt").exists()


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
    rebuilt = ProtocolParams(**{f.name: getattr(configured, f.name) for f in dataclasses.fields(configured)})
    assert configured.click_matrix().tobytes() == rebuilt.click_matrix().tobytes()
    with pytest.raises(ValueError):
        configured.click_matrix()[0, 0] = 0.5

    # thresholds from a measured matrix need no analytic one until it is asked for
    calls.clear()
    measured = cfg.protocol_params(security.reference_cost_matrix())
    assert len(calls) == 0
    assert measured.click_matrix().tobytes() == rebuilt.click_matrix().tobytes()
    assert len(calls) == 1


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
