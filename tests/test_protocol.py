import math

import numpy as np
import pytest

from qdssim import protocol
from qdssim.detection import DetectorModel
from qdssim.protocol import (
    ChannelModel,
    Outcome,
    ProtocolParams,
    RecipientView,
    authenticate,
    count_mismatches,
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


@pytest.mark.parametrize("header", ["# key", "# key ", "# key 4", "# key 0x", "# key 01 2"])
def test_read_transcript_rejects_malformed_key_header(tmp_path, header):
    p = tmp_path / "bad_key.txt"
    p.write_text(header + "\n0 0 1 0 0 0 0\n")
    with pytest.raises(ValueError, match="line 1"):
        read_transcript(p)


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
