import math

import numpy as np
import pytest

from qdssim import optics


def test_intensity_is_squared_modulus():
    assert optics.intensity(0) == 0.0
    assert optics.intensity(1 + 0j) == 1.0
    assert optics.intensity(3 + 4j) == pytest.approx(25.0)
    assert optics.intensity(-2.0) == pytest.approx(4.0)


def test_phase_factors_are_fourth_roots():
    for k, f in enumerate(optics.PHASE_FACTORS):
        assert f == pytest.approx(1j**k)
    assert optics.apply_phase(2.0, 1) == pytest.approx(2j)
    assert optics.apply_phase(1.0, 2) == pytest.approx(-1.0)


@pytest.mark.parametrize("bad", [-1, 4, 1.5, "0"])
def test_apply_phase_rejects_bad_symbols(bad):
    with pytest.raises(ValueError):
        optics.apply_phase(1.0, bad)


def test_apply_loss_scales_intensity_linearly():
    rng = np.random.default_rng(71)
    for _ in range(200):
        a = complex(rng.normal(), rng.normal())
        t = rng.uniform()
        out = optics.apply_loss(a, t)
        assert optics.intensity(out) == pytest.approx(t * optics.intensity(a))


def test_apply_loss_rejects_out_of_range():
    with pytest.raises(ValueError):
        optics.apply_loss(1.0, -0.1)
    with pytest.raises(ValueError):
        optics.apply_loss(1.0, 1.1)


def test_db_to_transmittance():
    assert optics.db_to_transmittance(0.0) == 1.0
    assert optics.db_to_transmittance(10.0) == pytest.approx(0.1)
    assert optics.db_to_transmittance(3.0) == pytest.approx(0.501187, abs=1e-6)
    with pytest.raises(ValueError):
        optics.db_to_transmittance(-1.0)


def test_beam_splitter_conserves_energy():
    rng = np.random.default_rng(72)
    for _ in range(500):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        u, v = optics.beam_splitter(a, b)
        before = optics.intensity(a) + optics.intensity(b)
        after = optics.intensity(u) + optics.intensity(v)
        assert after == pytest.approx(before, rel=1e-12)


def test_beam_splitter_convention():
    u, v = optics.beam_splitter(1.0, 1.0)
    assert u == pytest.approx(math.sqrt(2.0))
    assert v == pytest.approx(0.0)


def test_multiport_symmetrizes():
    """Both outputs carry (b+c)/2 on signal and (b-c)/2 on null ports."""
    rng = np.random.default_rng(73)
    for _ in range(500):
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal())
        out = optics.multiport(b, c)
        assert out.bob_signal == out.charlie_signal
        assert out.bob_null == out.charlie_null
        assert out.bob_signal == pytest.approx((b + c) / 2)
        assert out.bob_null == pytest.approx((b - c) / 2)
        before = optics.intensity(b) + optics.intensity(c)
        after = (
            optics.intensity(out.bob_signal)
            + optics.intensity(out.charlie_signal)
            + optics.intensity(out.bob_null)
            + optics.intensity(out.charlie_null)
        )
        assert after == pytest.approx(before, rel=1e-12)


def test_multiport_identical_inputs_null_is_exactly_zero():
    out = optics.multiport(0.3 - 0.7j, 0.3 - 0.7j)
    assert out.bob_null == 0
    assert out.charlie_null == 0


def test_elimination_receiver_nulls_the_matching_phase():
    """The mode for phase k is dark exactly when the signal carries phase k."""
    amp = 0.8
    for k in range(4):
        modes = optics.elimination_receiver(optics.apply_phase(amp, k), amp).as_tuple()
        assert abs(modes[k]) == pytest.approx(0.0, abs=1e-15)
        for j in range(4):
            if j != k:
                assert abs(modes[j]) > 0.1


def test_elimination_receiver_amplitudes():
    modes = optics.elimination_receiver(1.0, 1.0)
    assert modes.not_0 == pytest.approx(0.0)
    assert modes.not_half_pi == pytest.approx((1 - 1j) / 2)
    assert modes.not_pi == pytest.approx(1.0)
    assert modes.not_three_half_pi == pytest.approx((1 + 1j) / 2)


def test_elimination_receiver_energy_split():
    # cross terms cancel over the four phases, so the four modes together
    # carry exactly the signal energy plus the reference energy
    rng = np.random.default_rng(74)
    for _ in range(200):
        s = complex(rng.normal(), rng.normal())
        r = complex(rng.normal(), rng.normal())
        modes = optics.elimination_receiver(s, r).as_tuple()
        total = sum(optics.intensity(m) for m in modes)
        assert total == pytest.approx(
            optics.intensity(s) + optics.intensity(r), rel=1e-12
        )


def test_loss_of_7_7_db():
    t = optics.db_to_transmittance(7.7)
    assert t == pytest.approx(0.16982, abs=1e-5)
    assert optics.apply_loss(1.0 + 0j, t) == pytest.approx(0.41209, abs=1e-5)


def test_apply_loss_composes():
    rng = np.random.default_rng(75)
    for _ in range(200):
        a = complex(rng.normal(), rng.normal())
        t1, t2 = rng.uniform(size=2)
        once = optics.apply_loss(a, t1 * t2)
        twice = optics.apply_loss(optics.apply_loss(a, t1), t2)
        assert twice == pytest.approx(once, rel=1e-12)


def test_apply_phase_is_cyclic():
    a = 0.3 - 1.7j
    out = a
    for _ in range(4):
        out = optics.apply_phase(out, 1)
    assert out == pytest.approx(a, rel=1e-12)
    assert optics.apply_phase(optics.apply_phase(a, 1), 2) == pytest.approx(
        optics.apply_phase(a, 3), rel=1e-12
    )


def test_receiver_matches_composed_interferometer():
    # oracle: build the receiver from its parts (a splitter on each input,
    # a quarter turn on one reference arm, two recombining splitters) and
    # compare with the closed-form modes
    rng = np.random.default_rng(76)
    for _ in range(200):
        s = complex(rng.normal(), rng.normal())
        r = complex(rng.normal(), rng.normal())
        s_a, s_b = optics.beam_splitter(s, 0.0)
        r_a, r_b = optics.beam_splitter(r, 0.0)
        sum_a, dif_a = optics.beam_splitter(s_a, r_a)
        sum_b, dif_b = optics.beam_splitter(s_b, optics.apply_phase(r_b, 1))
        modes = optics.elimination_receiver(s, r)
        assert dif_a == pytest.approx(modes.not_0, abs=1e-12)
        assert sum_a == pytest.approx(modes.not_pi, abs=1e-12)
        assert dif_b == pytest.approx(modes.not_half_pi, abs=1e-12)
        assert sum_b == pytest.approx(modes.not_three_half_pi, abs=1e-12)
