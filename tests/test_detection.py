import math

import numpy as np
import pytest

from qdssim import detection, optics
from qdssim.detection import DetectorModel, IDEAL_DETECTOR


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, dark_click_prob=1.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.5, visibility=-0.1)


def test_click_probability_ideal():
    assert detection.click_probability(0.0, IDEAL_DETECTOR) == 0.0
    assert detection.click_probability(1.0, IDEAL_DETECTOR) == pytest.approx(
        1.0 - math.exp(-1.0)
    )
    assert detection.click_probability(0.5, IDEAL_DETECTOR) == pytest.approx(
        0.3934693402873666
    )


def test_click_probability_dark_floor_and_efficiency():
    det = DetectorModel(efficiency=0.4, dark_click_prob=1e-6)
    assert detection.click_probability(0.0, det) == pytest.approx(1e-6)
    expected = 1.0 - (1.0 - 1e-6) * math.exp(-0.4 * 2.0)
    assert detection.click_probability(2.0, det) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        detection.click_probability(-0.1, det)


def test_visibility_adjusted_intensity_ideal_matches_field_arithmetic():
    """At unit visibility the adjusted intensity is |s - r*i^k|^2 / 4."""
    rng = np.random.default_rng(41)
    for _ in range(300):
        s = complex(rng.normal(), rng.normal())
        r = complex(rng.normal(), rng.normal())
        k = int(rng.integers(4))
        direct = abs(s - r * 1j**k) ** 2 / 4.0
        assert detection.visibility_adjusted_intensity(s, r, k, 1.0) == pytest.approx(
            direct, rel=1e-12, abs=1e-15
        )


def test_visibility_zero_removes_interference():
    s, r = 1.0, 1.0
    for k in range(4):
        got = detection.visibility_adjusted_intensity(s, r, k, 0.0)
        assert got == pytest.approx(0.5)


def test_visibility_interpolates_cross_term():
    # matched signal and reference, mode 0: I*(1-V)/2
    for v in (0.0, 0.3, 0.809, 1.0):
        got = detection.visibility_adjusted_intensity(1.0, 1.0, 0, v)
        assert got == pytest.approx((1.0 - v) / 2.0, rel=1e-12)
        opposite = detection.visibility_adjusted_intensity(1.0, 1.0, 2, v)
        assert opposite == pytest.approx((1.0 + v) / 2.0, rel=1e-12)


def test_elimination_click_probs_match_receiver_modes():
    """At unit visibility each click-matrix row is the click probability of
    the amplitude-level receiver modes for that sent phase."""
    det = DetectorModel(efficiency=0.7, dark_click_prob=1e-5, visibility=1.0)
    I = 0.81
    m = detection.phase_click_matrix(I, det)
    amp = math.sqrt(I)
    for i in range(4):
        modes = optics.elimination_receiver(amp * 1j**i, amp).as_tuple()
        for k in range(4):
            assert m[i, k] == pytest.approx(
                detection.click_probability(optics.intensity(modes[k]), det), rel=1e-12
            )


def test_phase_click_matrix_structure():
    """Diagonal sees (1-V)/2, opposite (1+V)/2, adjacents I/2."""
    det = DetectorModel(efficiency=0.405, dark_click_prob=6.4e-7, visibility=0.809)
    I = 0.0064
    m = detection.phase_click_matrix(I, det)
    c = detection.click_probability(I * (1 - 0.809) / 2, det)
    p = detection.click_probability(I * (1 + 0.809) / 2, det)
    q = detection.click_probability(I / 2, det)
    for i in range(4):
        assert m[i, i] == pytest.approx(c, rel=1e-12)
        assert m[i, (i + 2) % 4] == pytest.approx(p, rel=1e-12)
        assert m[i, (i + 1) % 4] == pytest.approx(q, rel=1e-12)
        assert m[i, (i + 3) % 4] == pytest.approx(q, rel=1e-12)


def test_phase_click_matrix_rejects_negative_intensity():
    with pytest.raises(ValueError):
        detection.phase_click_matrix(-1.0, IDEAL_DETECTOR)


def test_measurement_rates_ideal_unit_intensity():
    rates = detection.measurement_rates(1.0, IDEAL_DETECTOR)
    p = 1.0 - math.exp(-1.0)
    q = 1.0 - math.exp(-0.5)
    assert rates.elimination_error == 0.0
    assert rates.full_identification == pytest.approx(p * q * q, rel=1e-12)
    assert rates.full_identification == pytest.approx(0.09786371763498013)
    assert rates.elimination_success == pytest.approx(0.8646647167633873)
    assert rates.identification_error == 0.0


def test_measurement_rates_match_click_pattern_enumeration():
    """The closed forms equal the exact sum over detector click patterns."""
    det = DetectorModel(efficiency=0.6, dark_click_prob=1e-4, visibility=0.93)
    I = 0.8
    m = detection.phase_click_matrix(I, det)
    probs = m[0]  # sent phase 0: detector k clicks with probs[k]
    use = err = usd = usd_err = 0.0
    for pattern in range(16):
        bits = [(pattern >> k) & 1 for k in range(4)]
        w = 1.0
        for k in range(4):
            w *= probs[k] if bits[k] else 1.0 - probs[k]
        if bits[0]:
            err += w
        if not bits[0] and (bits[1] or bits[2] or bits[3]):
            use += w
        if not bits[0] and bits[1] and bits[2] and bits[3]:
            usd += w
        if bits[0] and bits[1] and bits[2] and bits[3]:
            usd_err += w
    rates = detection.measurement_rates(I, det)
    assert rates.elimination_success == pytest.approx(use, rel=1e-12)
    assert rates.elimination_error == pytest.approx(err, rel=1e-12)
    assert rates.full_identification == pytest.approx(usd, rel=1e-12)
    assert rates.identification_error == pytest.approx(usd_err, rel=1e-12)


def test_measurement_rates_monte_carlo():
    det = DetectorModel(efficiency=0.405, dark_click_prob=6.4e-7, visibility=0.809)
    I = 0.02
    rates = detection.measurement_rates(I, det)
    rng = np.random.default_rng(99)
    n = 200_000
    v = det.visibility
    probs = np.array(
        [
            detection.click_probability(I * (1 - v) / 2, det),
            detection.click_probability(I / 2, det),
            detection.click_probability(I * (1 + v) / 2, det),
            detection.click_probability(I / 2, det),
        ]
    )
    clicks = rng.random((n, 4)) < probs
    freq = float((~clicks[:, 0] & clicks[:, 1:].any(axis=1)).mean())
    sigma = math.sqrt(rates.elimination_success * (1 - rates.elimination_success) / n)
    assert abs(freq - rates.elimination_success) < 4 * sigma


def test_measurement_rates_zero_intensity_no_dark():
    rates = detection.measurement_rates(0.0, DetectorModel(efficiency=1.0))
    assert rates.elimination_success == 0.0
    assert rates.elimination_error == 0.0
    assert rates.full_identification == 0.0
    assert rates.identification_error == 0.0


def test_ideal_receiver_never_errs():
    # perfect visibility and no dark counts leave the sent-phase detector
    # strictly dark, whatever the pulse energy
    for intensity in (0.01, 0.5, 1.0, 10.0):
        rates = detection.measurement_rates(intensity, IDEAL_DETECTOR)
        assert rates.elimination_error == 0.0
        assert rates.identification_error == 0.0


def test_elimination_beats_identification_on_grid():
    det = DetectorModel(efficiency=0.7, dark_click_prob=0.0, visibility=0.93)
    for intensity in np.linspace(0.05, 8.0, 25):
        rates = detection.measurement_rates(float(intensity), det)
        assert rates.elimination_success > rates.full_identification
