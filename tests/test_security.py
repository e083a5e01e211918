import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qdssim import detection, discrimination, protocol, security
from qdssim.config import preset
from qdssim.security import (
    CostMatrix,
    NoProvableSecurityError,
    analyze,
    bound_min_cost,
    choose_thresholds,
    count_clicks,
    decompose,
    estimate_cost_matrix,
    failure_bounds,
    hoeffding,
    read_cost_matrix,
    reference_cost_matrix,
    required_length,
    rescale_for_loss,
    write_cost_matrix,
)

# frozen pipeline values for the bundled measured matrix
REF_P_HONEST = 4.175e-5
REF_ADVANTAGE = 1.3e-5
REF_G_LOWER = 1.2014784028579663e-6
REF_C_MIN_LOWER = 4.295147840285797e-5


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CostMatrix(np.full((4, 4), 1.5))
    with pytest.raises(ValueError):
        CostMatrix(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        CostMatrix(np.zeros((4, 4)), pulse_counts=[1, 2, 3])
    m = CostMatrix(np.full((4, 4), 0.25), pulse_counts=[10, 10, 10, 10])
    assert m.standard_errors().shape == (4, 4)
    assert m.standard_errors()[0, 0] == pytest.approx(math.sqrt(0.25 * 0.75 / 10))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pos", range(16))
def test_cost_matrix_rejects_a_non_finite_entry_anywhere(pos, bad):
    entries = np.full(16, 0.25)
    entries[pos] = bad
    with pytest.raises(ValueError, match="must be finite"):
        CostMatrix(entries.reshape(4, 4))
    # the finiteness check comes first, whatever else is wrong
    entries[(pos + 5) % 16] = -0.5
    with pytest.raises(ValueError, match="must be finite"):
        CostMatrix(entries.reshape(4, 4))


@pytest.mark.parametrize("bad", [-5e-324, -1e-12, 1.0 + 2**-52, 7.0])
@pytest.mark.parametrize("pos", range(16))
def test_cost_matrix_rejects_an_entry_outside_the_unit_interval(pos, bad):
    entries = np.full(16, 0.25)
    entries[pos] = bad
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        CostMatrix(entries.reshape(4, 4))


def test_cost_matrix_accepts_the_closed_unit_interval():
    entries = np.array([0.0, -0.0, 1.0, 5e-324] * 4).reshape(4, 4)
    assert CostMatrix(entries).entries.tobytes() == entries.tobytes()


def test_standard_errors_need_counts():
    with pytest.raises(ValueError, match="pulse counts"):
        CostMatrix(np.zeros((4, 4))).standard_errors()


def test_estimate_cost_matrix_counts_correctly():
    phases = np.array([0, 0, 1, 2, 3, 3])
    elims = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 1],
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [1, 0, 0, 1],
        ],
        dtype=bool,
    )
    m = estimate_cost_matrix((phases, elims))
    assert m.pulse_counts.tolist() == [2, 1, 1, 2]
    assert m.entries[0, 0] == pytest.approx(0.5)
    assert m.entries[0, 1] == pytest.approx(0.5)
    assert m.entries[1, 2] == pytest.approx(1.0)
    assert m.entries[2].tolist() == [0, 0, 0, 0]
    assert m.entries[3, 0] == pytest.approx(1.0)
    assert m.entries[3, 3] == pytest.approx(0.5)


def test_estimate_cost_matrix_pools_samples():
    rng = np.random.default_rng(11)
    phases1 = rng.integers(0, 4, 1000)
    phases2 = rng.integers(0, 4, 1000)
    elims1 = rng.random((1000, 4)) < 0.2
    elims2 = rng.random((1000, 4)) < 0.2
    pooled = estimate_cost_matrix((phases1, elims1), (phases2, elims2))
    assert pooled.pulse_counts.sum() == 2000
    # pooling equals concatenation
    both = estimate_cost_matrix(
        (np.concatenate([phases1, phases2]), np.vstack([elims1, elims2]))
    )
    np.testing.assert_allclose(pooled.entries, both.entries)


def test_estimate_cost_matrix_errors():
    with pytest.raises(ValueError, match="at least one"):
        estimate_cost_matrix()
    with pytest.raises(ValueError, match="no pulses"):
        estimate_cost_matrix((np.array([0, 1, 2]), np.zeros((3, 4), bool)))
    with pytest.raises(ValueError, match="shape"):
        estimate_cost_matrix((np.array([0]), np.zeros((2, 4), bool)))


def _mask_loop_counts(phases, elims):
    """Per-phase mask pooling, the reference the counting step must equal."""
    clicks = np.zeros((4, 4), dtype=np.int64)
    pulses = np.zeros(4, dtype=np.int64)
    for i in range(4):
        sel = phases == i
        pulses[i] += int(sel.sum())
        clicks[i] += elims[sel].sum(axis=0)
    return clicks, pulses


@pytest.mark.parametrize("case", ["random", "missing_state", "no_clicks"])
def test_count_clicks_equals_per_phase_mask_loop(case):
    rng = np.random.default_rng(71)
    n = 20_000
    phases = rng.integers(0, 4, n).astype(np.int8)
    elims = rng.random((n, 4)) < rng.uniform(0.0, 0.3, 4)
    if case == "missing_state":
        phases[phases == 2] = 1
    if case == "no_clicks":
        elims[:] = False
    clicks, pulses = count_clicks(phases, elims)
    ref_clicks, ref_pulses = _mask_loop_counts(phases, elims)
    assert np.array_equal(clicks, ref_clicks)
    assert np.array_equal(pulses, ref_pulses)
    if case == "missing_state":
        assert pulses[2] == 0
        with pytest.raises(ValueError, match=r"no pulses recorded for state\(s\) \[2\]"):
            estimate_cost_matrix((phases, elims))
    else:
        est = estimate_cost_matrix((phases, elims))
        assert np.array_equal(est.entries, ref_clicks / ref_pulses[:, None])


def test_count_clicks_checks_phase_range():
    with pytest.raises(ValueError, match="0..3"):
        count_clicks(np.array([0, 4]), np.zeros((2, 4), bool))
    with pytest.raises(ValueError, match="0..3"):
        count_clicks(np.array([-1, 0]), np.zeros((2, 4), bool))


def test_one_coercion_for_matrices_and_arrays():
    ref = reference_cost_matrix()
    assert security.cost_entries(ref) is ref.entries
    assert np.array_equal(security.cost_entries(ref.entries.tolist()), ref.entries)
    for bad in (np.zeros((2, 2)), np.full((4, 4), np.inf), np.full((4, 4), -0.1)):
        with pytest.raises(ValueError, match="cost matrix"):
            security.cost_entries(bad)


def test_cost_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    m = CostMatrix(rng.uniform(0, 1e-3, (4, 4)), pulse_counts=[5, 6, 7, 8])
    path = tmp_path / "m.txt"
    write_cost_matrix(path, m)
    back = read_cost_matrix(path)
    np.testing.assert_allclose(back.entries, m.entries, rtol=1e-9)
    assert back.pulse_counts.tolist() == [5, 6, 7, 8]


def test_read_cost_matrix_errors_carry_position(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1e-4 1e-4 1e-4\n")
    with pytest.raises(ValueError, match="line 1: expected 4 values"):
        read_cost_matrix(p)
    p.write_text("1e-4 1e-4 1e-4 1e-4\n1e-4 oops 1e-4 1e-4\n")
    with pytest.raises(ValueError, match="line 2, column 2"):
        read_cost_matrix(p)
    p.write_text("# pulses 1 2 3\n")
    with pytest.raises(ValueError, match="pulse header"):
        read_cost_matrix(p)
    p.write_text("1e-4 1e-4 1e-4 1e-4\n")
    with pytest.raises(ValueError, match="expected 4 matrix rows"):
        read_cost_matrix(p)


@pytest.mark.parametrize(
    "header, where",
    [
        ("# pulses 1 2 x 4", "line 1, column 3"),
        ("# pulses 1 -2 3 4", "line 1, column 2"),
        ("# pulses 1 2 3 0", "line 1, column 4"),
        ("# pulses 1.5 2 3 4", "line 1, column 1"),
    ],
)
def test_read_cost_matrix_pulse_counts_carry_position(tmp_path, header, where):
    p = tmp_path / "bad_pulses.txt"
    p.write_text(header + "\n" + "1e-4 1e-4 1e-4 1e-4\n" * 4)
    with pytest.raises(ValueError, match=f"^{where}: pulse count"):
        read_cost_matrix(p)


def test_reference_matrix_entries():
    m = reference_cost_matrix()
    assert m.entries[0, 0] == pytest.approx(9.80e-5)
    assert m.entries[1, 1] == pytest.approx(2.37e-5)
    assert m.entries[3, 1] == pytest.approx(2.82e-4)  # the corrected entry
    assert m.entries[2, 0] == pytest.approx(2.19e-4)


def test_decompose_reference_matrix():
    dec = decompose(reference_cost_matrix())
    assert dec.p_honest == pytest.approx(REF_P_HONEST, abs=1e-12)
    assert dec.guaranteed_advantage == pytest.approx(REF_ADVANTAGE, rel=1e-12)
    # the excess is each entry less its row's diagonal, the honest baseline
    entries = reference_cost_matrix().entries
    assert np.array_equal(dec.excess, entries - np.diag(entries)[:, None])
    assert (np.diag(dec.excess) == 0).all()
    off = ~np.eye(4, dtype=bool)
    assert dec.excess[off].min() == dec.guaranteed_advantage


def test_decompose_accepts_plain_arrays():
    arr = np.full((4, 4), 0.2)
    np.fill_diagonal(arr, 0.1)
    dec = decompose(arr)
    assert dec.p_honest == pytest.approx(0.1)
    assert dec.guaranteed_advantage == pytest.approx(0.1)
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 2)))


def test_bound_min_cost_reference_values():
    dec = decompose(reference_cost_matrix())
    bounds = bound_min_cost(dec, 0.09242141560445893)
    assert bounds.g_lower == pytest.approx(REF_G_LOWER, rel=1e-12)
    assert bounds.c_min_lower == pytest.approx(REF_C_MIN_LOWER, rel=1e-12)
    assert bounds.g_upper == pytest.approx(2.3706093102543717e-5, rel=1e-9)
    assert bounds.c_min_upper > bounds.c_min_lower
    with pytest.raises(ValueError):
        bound_min_cost(dec, 1.5)


def test_hoeffding_values_and_validation():
    assert hoeffding(0.0, 100) == 1.0
    assert hoeffding(0.1, 100) == pytest.approx(math.exp(-2.0), rel=1e-12)
    with pytest.raises(ValueError):
        hoeffding(-0.1, 100)
    with pytest.raises(ValueError):
        hoeffding(0.1, -1)


def test_hoeffding_dominates_binomial_tail():
    """Monte Carlo: empirical deviation frequency never beats the bound."""
    rng = np.random.default_rng(55)
    n, L, p, t = 100_000, 200, 0.3, 0.08
    counts = rng.binomial(L, p, size=n)
    freq_above = float((counts >= (p + t) * L).mean())
    freq_below = float((counts <= (p - t) * L).mean())
    bound = hoeffding(t, L)
    margin = 3 * math.sqrt(bound / n)
    assert freq_above <= bound + margin
    assert freq_below <= bound + margin


def test_choose_thresholds_quartiles():
    s_a, s_v = choose_thresholds(0.1, 0.04)
    assert s_a == pytest.approx(0.11)
    assert s_v == pytest.approx(0.13)
    with pytest.raises(NoProvableSecurityError):
        choose_thresholds(0.1, 0.0)
    with pytest.raises(ValueError):
        choose_thresholds(-0.1, 0.04)


def test_failure_bounds_ordering_errors_name_the_inequality():
    with pytest.raises(ValueError, match="auth_threshold >= p_honest"):
        failure_bounds(0.2, 0.5, length=10, auth_threshold=0.1, verify_threshold=0.3)
    with pytest.raises(ValueError, match="verify_threshold >= auth_threshold"):
        failure_bounds(0.1, 0.5, length=10, auth_threshold=0.3, verify_threshold=0.2)
    with pytest.raises(ValueError, match="c_min >= verify_threshold"):
        failure_bounds(0.1, 0.2, length=10, auth_threshold=0.15, verify_threshold=0.3)


def test_failure_bounds_values():
    fb = failure_bounds(
        0.1, 0.3, length=1000, auth_threshold=0.15, verify_threshold=0.25, epsilon=0.01
    )
    assert fb.honest_rejection == pytest.approx(hoeffding(0.05, 1000), rel=1e-12)
    assert fb.repudiation == pytest.approx(math.exp(-0.1**2 * 1000 / 2), rel=1e-12)
    assert fb.forgery == pytest.approx(hoeffding(0.05, 1000), rel=1e-12)
    assert fb.honest_abort == pytest.approx(hoeffding(0.01, 1000), rel=1e-12)
    # equal thresholds are allowed; repudiation bound goes vacuous
    fb2 = failure_bounds(0.1, 0.3, length=10, auth_threshold=0.2, verify_threshold=0.2)
    assert fb2.repudiation == 1.0


def test_required_length_frozen_values():
    assert required_length(1.20e-6, 1e-4) == 51168557622090
    assert required_length(8.05e-5, 1e-4) == 11370351912
    with pytest.raises(NoProvableSecurityError):
        required_length(0.0, 1e-4)
    with pytest.raises(ValueError):
        required_length(1e-6, 1.5)


@pytest.mark.parametrize("gap", [1e-161, 1e-170, 5e-324])
def test_required_length_too_small_a_gap_has_no_security(gap):
    with pytest.raises(NoProvableSecurityError, match="gap"):
        required_length(gap, 1e-4)


def test_analyze_vanishing_gap_has_no_security():
    tiny = np.full((4, 4), 1e-160)
    np.fill_diagonal(tiny, 0.0)
    with pytest.raises(NoProvableSecurityError, match="gap"):
        analyze(tiny, 1.0, 1e-4)


def test_required_length_inverts_the_bound():
    for g, lvl in [(1e-3, 1e-4), (0.02, 1e-6), (0.5, 1e-2)]:
        L = required_length(g, lvl)
        assert math.exp(-g * g * L / 8) <= lvl
        assert math.exp(-g * g * (L - 1) / 8) > lvl


def test_rescale_for_loss():
    m = reference_cost_matrix()
    scaled = rescale_for_loss(m, 0.5, 0.25)
    np.testing.assert_allclose(scaled.entries, m.entries * 0.5, rtol=1e-12)
    assert scaled.pulse_counts is None
    with pytest.raises(ValueError):
        rescale_for_loss(m, 0.0, 0.5)
    with pytest.raises(ValueError, match="exceed 1"):
        rescale_for_loss(CostMatrix(np.full((4, 4), 0.5)), 0.1, 0.9)


def test_analyze_reference_matrix_report():
    rep = analyze(reference_cost_matrix(), 1.0, 1e-4)
    assert rep.p_honest == pytest.approx(REF_P_HONEST, abs=1e-12)
    assert rep.guaranteed_advantage == pytest.approx(REF_ADVANTAGE, rel=1e-12)
    assert rep.g_lower == pytest.approx(REF_G_LOWER, rel=1e-12)
    assert rep.c_min_lower == pytest.approx(REF_C_MIN_LOWER, rel=1e-12)
    assert rep.auth_threshold == pytest.approx(REF_P_HONEST + REF_G_LOWER / 4, rel=1e-12)
    assert rep.verify_threshold == pytest.approx(
        REF_P_HONEST + 3 * REF_G_LOWER / 4, rel=1e-12
    )
    assert rep.required_length == 51042710665729
    assert rep.failure_bound <= 1e-4
    assert rep.failure_bound == pytest.approx(
        math.exp(-rep.g_lower**2 * rep.required_length / 8), rel=1e-12
    )


def test_analyze_flat_matrix_has_no_security():
    with pytest.raises(NoProvableSecurityError):
        analyze(np.full((4, 4), 0.1), 1.0, 1e-4)


def test_estimate_from_ideal_runs_has_zero_diagonal():
    params = protocol.ProtocolParams(
        length=5000, auth_threshold=0.1, verify_threshold=0.2, alpha_sq=1.0
    )
    result = protocol.distribute(params, np.random.default_rng(31))
    pairs = [
        (result.keys[bit].phases, views[bit].eliminations)
        for views in (result.bob, result.charlie)
        for bit in (0, 1)
    ]
    est = estimate_cost_matrix(*pairs)
    off = ~np.eye(4, dtype=bool)
    assert np.all(np.diag(est.entries) == 0.0)
    assert np.all(est.entries[off] > 0.0)


def test_estimate_recovers_synthesized_probabilities():
    truth = np.array(
        [
            [0.020, 0.180, 0.300, 0.150],
            [0.120, 0.015, 0.200, 0.280],
            [0.250, 0.090, 0.030, 0.110],
            [0.140, 0.310, 0.070, 0.025],
        ]
    )
    rng = np.random.default_rng(32)
    n = 150_000
    phases = rng.integers(0, 4, n)
    elims = rng.random((n, 4)) < truth[phases]
    est = estimate_cost_matrix((phases, elims))
    sigma = np.sqrt(truth * (1 - truth) / est.pulse_counts[:, None])
    assert np.all(np.abs(est.entries - truth) < 3.5 * sigma)


def test_decompose_random_matrices_property():
    rng = np.random.default_rng(33)
    off = ~np.eye(4, dtype=bool)
    for _ in range(1000):
        entries = rng.random((4, 4))
        dec = decompose(entries)
        assert np.array_equal(dec.excess, entries - np.diag(entries)[:, None])
        assert dec.guaranteed_advantage == dec.excess[off].min()


def test_uniform_excess_collapses_the_bounds():
    # dyadic entries keep the row subtractions exact, so the two bounds
    # must coincide to the last bit
    diag = np.array([0.125, 0.25, 0.375, 0.5])
    delta = 0.0625
    entries = np.repeat(diag[:, None], 4, axis=1)
    entries[~np.eye(4, dtype=bool)] += delta
    bounds = bound_min_cost(decompose(entries), 0.25)
    assert bounds.g_lower == bounds.g_upper == 0.25 * delta
    assert bounds.c_min_lower == bounds.c_min_upper


def test_halving_the_gap_quadruples_the_length():
    for gap in (1e-6, 3.7e-5, 2.2e-4):
        base = required_length(gap, 1e-4)
        finer = required_length(gap / 2, 1e-4)
        assert 0 <= 4 * base - finer <= 3


def test_required_length_monotonicity():
    lengths = [required_length(g, 1e-4) for g in (1e-6, 5e-6, 2e-5, 1e-4, 5e-4)]
    assert lengths == sorted(lengths, reverse=True)
    lengths = [required_length(1e-5, lvl) for lvl in (1e-8, 1e-6, 1e-4, 1e-2)]
    assert lengths == sorted(lengths, reverse=True)


def test_rescale_identity_and_doubling():
    ref = reference_cost_matrix()
    same = rescale_for_loss(ref, 0.3, 0.3)
    assert np.array_equal(same.entries, ref.entries)

    doubled = rescale_for_loss(ref, 0.25, 0.5)
    min_error = 0.09242141560445893  # discrimination floor at one photon
    bounds = bound_min_cost(decompose(doubled.entries), min_error)
    assert bounds.g_lower == pytest.approx(2 * REF_G_LOWER, rel=1e-12)
    assert bounds.g_lower == pytest.approx(2.40e-6, rel=2e-3)
    quartered = required_length(bounds.g_lower, 1e-4)
    assert 0 <= 4 * quartered - 51042710665729 <= 3


def test_simulated_runs_sit_within_a_decade_of_the_measured_matrix():
    # the bundled matrix came from hardware whose per-component losses are
    # not itemized here, so the analytic model is only held to order of
    # magnitude on the aggregate rates, plus the qualitative structure
    cfg = preset("paper-2014").replace(length=300_000)
    params = cfg.protocol_params(reference_cost_matrix())
    result = protocol.distribute(params, np.random.default_rng(20140401))
    pairs = [
        (result.keys[bit].phases, views[bit].eliminations)
        for views in (result.bob, result.charlie)
        for bit in (0, 1)
    ]
    est = estimate_cost_matrix(*pairs)
    ref = reference_cost_matrix()

    idx = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4
    sim_diag = float(np.diag(est.entries).mean())
    sim_off = float(est.entries[idx != 0].mean())
    ref_diag = float(np.diag(ref.entries).mean())
    ref_off = float(ref.entries[idx != 0].mean())
    assert abs(math.log10(sim_diag / ref_diag)) < 1.15
    assert abs(math.log10(sim_off / ref_off)) < 1.15

    adjacent = float(est.entries[(idx == 1) | (idx == 3)].mean())
    opposite = float(est.entries[idx == 2].mean())
    assert sim_diag < adjacent < opposite


# ------------------------------------------------------------------ numpy oracle
# The bookkeeping over the 16 entries runs on Python floats; this is the
# numpy form it replaced, kept as the oracle for its bits.

_OFF = ~np.eye(4, dtype=bool)


def _numpy_decompose(entries):
    diag = np.diag(entries)
    excess = entries - diag[:, None]
    return excess, float(diag.mean()), float(excess[_OFF].min())


def _numpy_bounds(excess, p_honest, advantage, min_error):
    g_low = min_error * advantage
    g_up = min_error * float(excess[_OFF].max())
    return security.CostBounds(p_honest + g_low, p_honest + g_up, g_low, g_up)


def _numpy_analyze(entries, alpha_sq, level):
    excess, p_honest, advantage = _numpy_decompose(entries)
    if advantage <= 0:
        raise NoProvableSecurityError(
            f"smallest off-diagonal excess is {advantage}; no provable security from this matrix"
        )
    min_error = discrimination._min_error.__wrapped__(alpha_sq)
    b = _numpy_bounds(excess, p_honest, advantage, min_error)
    s_a, s_v = choose_thresholds(p_honest, b.g_lower)
    length = required_length(b.g_lower, level)
    return security.SecurityReport(
        alpha_sq, level, p_honest, advantage, min_error, b.g_lower, b.g_upper,
        b.c_min_lower, b.c_min_upper, s_a, s_v, length, math.exp(-b.g_lower**2 * length / 8.0),
    )


def _same_bits(got, want):
    """Every field of two records holds the same type and the same bits."""
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert type(other) is type(value), name
        if isinstance(value, np.ndarray):
            assert other.dtype == value.dtype and other.tobytes() == value.tobytes(), name
        elif isinstance(value, float):
            assert other.hex() == value.hex(), name
        else:
            assert other == value, name


_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.5e-4, 0.5]),  # ties and signed zeros
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-3),
)
_detector = st.builds(
    detection.DetectorModel,
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e-3),
    st.floats(0.0, 1.0),
)
_matrices = st.one_of(
    hnp.arrays(np.float64, (4, 4), elements=_entry),
    st.just(reference_cost_matrix().entries),
    st.builds(detection.phase_click_matrix, st.floats(0.0, 10.0), _detector),
)


@settings(max_examples=400, deadline=None)
@given(
    entries=_matrices,
    min_error=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.75])),
    alpha_sq=st.one_of(st.sampled_from([(i + 2) / 10 for i in range(50)]), st.floats(0.0, 12.0)),
)
def test_float_bookkeeping_is_bit_identical_to_numpy(entries, min_error, alpha_sq):
    dec = decompose(entries)
    excess, p_honest, advantage = _numpy_decompose(entries)
    _same_bits(dec, security.Decomposition(excess, p_honest, advantage))
    want = _numpy_bounds(excess, p_honest, advantage, min_error)
    _same_bits(bound_min_cost(dec, min_error), want)
    scaled = discrimination.min_error_probability(alpha_sq)  # the np.float64 analyze multiplies by
    _same_bits(bound_min_cost(dec, scaled), _numpy_bounds(excess, p_honest, advantage, scaled))
    try:
        want = _numpy_analyze(entries, alpha_sq, 1e-4)
    except NoProvableSecurityError as exc:
        with pytest.raises(NoProvableSecurityError) as got:
            analyze(entries, alpha_sq, 1e-4)
        assert str(got.value) == str(exc)
    else:
        _same_bits(analyze(entries, alpha_sq, 1e-4), want)


def test_signed_zero_excess_follows_numpy():
    # -0.0 off the diagonal against +0.0 on it leaves a -0.0 excess; which
    # zero is smallest or largest is numpy's choice, and the message shows it
    for signs in range(1 << 4):
        entries = np.zeros((4, 4))
        for k, (i, j) in enumerate([(0, 1), (1, 3), (2, 0), (3, 2)]):
            if signs >> k & 1:
                entries[i, j] = -0.0
        dec = decompose(entries)
        excess, p_honest, advantage = _numpy_decompose(entries)
        _same_bits(dec, security.Decomposition(excess, p_honest, advantage))
        _same_bits(bound_min_cost(dec, 0.5), _numpy_bounds(excess, p_honest, advantage, 0.5))
        with pytest.raises(NoProvableSecurityError, match=f"excess is {advantage};"):
            analyze(entries, 1.0, 1e-4)
