import math

import numpy as np
import pytest
from scipy import stats

from qdssim import adversary, detection, discrimination, optics, security
from qdssim.adversary import (
    ForgingStrategy,
    RepudiationStrategy,
    active_forge_budget,
    expected_forge_cost,
    forge_campaign,
    optimal_repudiation_target,
    repudiation_bound,
    repudiation_frequency,
    srm_forging_strategy,
)
from qdssim.detection import DetectorModel
from qdssim.protocol import ACCEPT, REJECT, UNIFORM_PHASES, ChannelModel, ProtocolParams, decide


def make_params(**overrides):
    defaults = dict(
        length=1000,
        auth_threshold=0.4,
        verify_threshold=0.6,
        alpha_sq=1.0,
        null_abort_fraction=0.01,
        detector=DetectorModel(efficiency=0.5, dark_click_prob=1e-4, visibility=0.95),
    )
    defaults.update(overrides)
    return ProtocolParams(**defaults)


# ------------------------------------------------------------------ repudiation

def test_repudiation_target_must_be_reachable():
    # a target is a probability; the channel's noise floor depends on which
    # matrix governs the run, so the CLI checks it against that matrix
    for target in (-1e-9, 1.1, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            RepudiationStrategy(target)
    params = make_params()
    below_floor = RepudiationStrategy(params.honest_mismatch_prob() / 2)
    assert repudiation_frequency(below_floor, params, 10, np.random.default_rng(0)) == 0.0


def test_repudiation_frequency_deterministic():
    params = make_params(length=50)
    s = RepudiationStrategy(0.5)
    a = repudiation_frequency(s, params, 5000, np.random.default_rng(9))
    b = repudiation_frequency(s, params, 5000, np.random.default_rng(9))
    assert a == b
    assert 0.0 < a < 1.0
    assert (a * 5000).is_integer()


def exact_repudiation_success(params, target):
    """P(Bob accepts) * P(Charlie rejects), summed from scipy's pmf with
    the comparisons ``decide`` makes."""
    L = params.length
    k = np.arange(L + 1)
    mismatch = stats.binom.pmf(k, L, target)
    kept = stats.binom.pmf(k, L, params.null_click_prob())[k <= params.null_abort_fraction * L].sum()
    bob = mismatch[k < params.auth_threshold * L].sum() * kept
    charlie = mismatch[k >= params.verify_threshold * L].sum() * kept
    return bob * charlie, kept


def test_repudiation_frequency_matches_exact_law():
    """Bob accepts and Charlie rejects independently, each a closed-form
    binomial event; the campaign's frequency matches their product."""
    params = make_params(
        length=40, auth_threshold=0.4, verify_threshold=0.6, null_abort_fraction=0.05
    )
    target, runs = 0.5, 200_000
    q, _ = exact_repudiation_success(params, target)
    freq = repudiation_frequency(
        RepudiationStrategy(target), params, runs, np.random.default_rng(12)
    )
    assert abs(freq - q) < 5 * math.sqrt(q * (1 - q) / runs)


def two_stage_repudiation_frequency(strategy, params, runs, rng):
    """The per-run sampler: Bob's mismatch and null counts for every run,
    then Charlie's for the runs Bob accepted, each run decided by ``decide``."""
    L, t, d = params.length, strategy.target_mismatch_prob, params.null_click_prob()
    bob = decide(rng.binomial(L, t, runs), rng.binomial(L, d, runs), params, params.auth_threshold)
    accepted = int(np.count_nonzero(bob == ACCEPT))
    charlie = decide(rng.binomial(L, t, accepted), rng.binomial(L, d, accepted), params, params.verify_threshold)
    return np.count_nonzero(charlie == REJECT) / runs


REPUDIATION_SETTINGS = {
    "midpoint": (dict(length=40, auth_threshold=0.4, verify_threshold=0.6, null_abort_fraction=0.05), 0.5),
    # the null budget r L = 10 sits at the mean null count 9.8: about half the recipients abort
    "null-budget-binds": (
        dict(length=200, auth_threshold=0.49, verify_threshold=0.51, null_abort_fraction=0.05,
             detector=DetectorModel(efficiency=0.5, dark_click_prob=0.049)), 0.5
    ),
    # s_a L = 24, s_v L = 26 and r L = 5 are whole numbers, where < and <= differ
    "whole-cut-offs": (
        dict(length=50, auth_threshold=0.48, verify_threshold=0.52, null_abort_fraction=0.1,
             detector=DetectorModel(efficiency=0.5, dark_click_prob=0.09)), 0.5
    ),
    "whole-cut-offs-off-centre": (
        dict(length=50, auth_threshold=0.48, verify_threshold=0.52, null_abort_fraction=0.1,
             detector=DetectorModel(efficiency=0.5, dark_click_prob=0.09)), 0.47
    ),
}


@pytest.mark.parametrize("setting", sorted(REPUDIATION_SETTINGS))
def test_repudiation_frequency_draws_one_binomial_at_the_exact_success_probability(setting):
    overrides, target = REPUDIATION_SETTINGS[setting]
    params = make_params(**overrides)
    if setting.startswith("whole"):
        L = params.length
        assert all((x * L).is_integer() for x in (params.auth_threshold, params.verify_threshold,
                                                  params.null_abort_fraction))

    class Spy:
        def binomial(self, n, p, size=None):
            assert size is None
            seen.append((n, p))
            return 7

    seen = []
    assert repudiation_frequency(RepudiationStrategy(target), params, 10**9, Spy()) == 7 / 10**9
    q, _ = exact_repudiation_success(params, target)
    assert len(seen) == 1 and seen[0][0] == 10**9
    assert seen[0][1] == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("setting", sorted(REPUDIATION_SETTINGS))
def test_repudiation_frequency_agrees_in_law_with_the_two_stage_sampler(setting):
    overrides, target = REPUDIATION_SETTINGS[setting]
    params = make_params(**overrides)
    q, kept = exact_repudiation_success(params, target)
    assert 0.005 < q < 0.5
    if setting == "null-budget-binds":
        assert 0.3 < kept < 0.7
    runs = 200_000
    strategy = RepudiationStrategy(target)
    new = repudiation_frequency(strategy, params, runs, np.random.default_rng(41))
    old = two_stage_repudiation_frequency(strategy, params, runs, np.random.default_rng(42))
    sigma = math.sqrt(q * (1 - q) / runs)
    assert abs(new - q) < 5 * sigma
    assert abs(old - q) < 5 * sigma
    assert abs(new - old) < 5 * math.sqrt(2) * sigma


def test_repudiation_frequency_takes_any_number_of_runs():
    params = make_params(length=40, auth_threshold=0.4, verify_threshold=0.6, null_abort_fraction=0.05)
    q, _ = exact_repudiation_success(params, 0.5)
    runs = 2**63 - 1
    freq = repudiation_frequency(RepudiationStrategy(0.5), params, runs, np.random.default_rng(5))
    assert abs(freq - q) < 5 * math.sqrt(q * (1 - q) / runs) + 1e-15


def test_repudiation_bound_and_midpoint():
    params = make_params()
    assert repudiation_bound(params) == pytest.approx(
        math.exp(-0.2**2 * 1000 / 2), rel=1e-12
    )
    assert optimal_repudiation_target(params) == pytest.approx(0.5)


def test_repudiation_empirical_below_bound():
    params = make_params(length=200)
    target = optimal_repudiation_target(params)
    freq = repudiation_frequency(
        RepudiationStrategy(target), params, 50_000, np.random.default_rng(77)
    )
    bound = repudiation_bound(params)
    assert freq <= bound + 3 * math.sqrt(bound * (1 - bound) / 50_000)


def test_midpoint_target_beats_off_midpoint():
    """Empirically the midpoint maximizes the success frequency."""
    params = make_params(
        length=40, auth_threshold=0.4, verify_threshold=0.6, null_abort_fraction=0.05
    )
    runs = 200_000
    freqs = {}
    for t, seed in [(0.45, 7), (0.5, 8), (0.55, 9)]:
        freqs[t] = repudiation_frequency(
            RepudiationStrategy(t), params, runs, np.random.default_rng(seed)
        )
    assert freqs[0.5] > freqs[0.45]
    assert freqs[0.5] > freqs[0.55]


# ------------------------------------------------------------------ forging

def test_forging_strategy_validation():
    with pytest.raises(ValueError, match="row"):
        ForgingStrategy(np.full((4, 4), 0.3))
    with pytest.raises(ValueError):
        ForgingStrategy(np.eye(3))
    ForgingStrategy(np.eye(4))  # fine


def test_srm_strategy_is_the_discrimination_outcome_matrix():
    s = srm_forging_strategy(1.0)
    np.testing.assert_allclose(
        s.outcome_matrix,
        discrimination.srm_outcomes(discrimination.gram_matrix(1.0)),
        atol=1e-14,
    )
    boosted = srm_forging_strategy(1.0, amplitude_scale=math.sqrt(1.5))
    np.testing.assert_allclose(
        boosted.outcome_matrix,
        discrimination.srm_outcomes(discrimination.gram_matrix(1.5)),
        atol=1e-14,
    )


def test_expected_cost_orderings():
    """A perfect guesser pays the honest diagonal; the square-root
    measurement beats uniform guessing; everyone beats the lower bound."""
    params = make_params()
    C = security.reference_cost_matrix()
    dec = security.decompose(C)
    perfect = expected_forge_cost(ForgingStrategy(np.eye(4)), params, C)
    assert perfect == pytest.approx(dec.p_honest, rel=1e-12)
    srm_cost = expected_forge_cost(srm_forging_strategy(1.0), params, C)
    uni_cost = expected_forge_cost(ForgingStrategy(np.full((4, 4), 0.25)), params, C)
    assert srm_cost == pytest.approx(5.089874891926661e-5, rel=1e-9)
    assert uni_cost == pytest.approx(float(C.entries.mean()), rel=1e-12)
    assert perfect < srm_cost < uni_cost
    bounds = security.bound_min_cost(dec, discrimination.min_error_probability(1.0))
    assert srm_cost >= bounds.c_min_lower


def test_forge_campaign_deterministic():
    params = make_params(length=500)
    s = ForgingStrategy(np.full((4, 4), 0.25))
    a = forge_campaign(s, params, 200, np.random.default_rng(2))
    b = forge_campaign(s, params, 200, np.random.default_rng(2))
    assert a == b
    freq, mean_fraction = a
    assert 0.0 <= freq <= 1.0 and (freq * 200).is_integer()
    assert 0.0 <= mean_fraction <= 1.0
    assert mean_fraction * 500 * 200 == pytest.approx(round(mean_fraction * 500 * 200))


def reference_forge_counts(strategy, params, runs, rng, C):
    """Per-run mismatches and acceptances from the element-level chain:
    sent phases, then declared phases, then eliminations of the declared
    phase, summed over the run."""
    L = params.length
    sent = rng.multinomial(L, UNIFORM_PHASES, size=runs)
    mismatches = np.zeros(runs, dtype=np.int64)
    for i in range(4):
        declared = rng.multinomial(sent[:, i], strategy.outcome_matrix[i])
        mismatches += rng.binomial(declared, C[i]).sum(axis=1)
    nulls = rng.binomial(L, params.null_click_prob(), size=runs)
    return mismatches, decide(mismatches, nulls, params, params.verify_threshold) == ACCEPT


def campaign_counts(monkeypatch, strategy, params, runs, rng, C):
    """Per-run mismatches and acceptances that ``forge_campaign`` decides on."""
    seen = {}

    def spy(mismatches, nulls, p, threshold):
        seen["m"], seen["codes"] = mismatches, decide(mismatches, nulls, p, threshold)
        return seen["codes"]

    monkeypatch.setattr(adversary, "decide", spy)
    freq, mean_fraction = forge_campaign(strategy, params, runs, rng, C)
    ok = seen["codes"] == ACCEPT
    assert freq == ok.mean()
    assert mean_fraction == seen["m"].mean() / params.length
    return seen["m"], ok


COARSE = np.full((4, 4), 0.5)
np.fill_diagonal(COARSE, 0.05)


@pytest.mark.parametrize(
    "C, thresholds, null_abort_fraction",
    [
        # any mismatch or any null fails the forger: both counts decide
        (security.reference_cost_matrix().entries, (5e-5, 1e-4), 1.5e-4),
        # cost 0.0916 against s_v = 0.092: about half the runs succeed
        (COARSE, (0.05, 0.092), 0.01),
    ],
    ids=["bundled", "coarse"],
)
def test_forge_campaign_matches_element_level_chain(
    monkeypatch, C, thresholds, null_abort_fraction
):
    params = make_params(
        length=2000,
        auth_threshold=thresholds[0],
        verify_threshold=thresholds[1],
        null_abort_fraction=null_abort_fraction,
    )
    s = srm_forging_strategy(1.0)
    runs = 3000
    m, ok = campaign_counts(monkeypatch, s, params, runs, np.random.default_rng(31), C)
    m_ref, ok_ref = reference_forge_counts(s, params, runs, np.random.default_rng(32), C)
    L, p = params.length, expected_forge_cost(s, params, C)
    var = L * p * (1 - p)
    fourth = var * (1 + 3 * (L - 2) * p * (1 - p))  # central fourth moment
    assert abs(m.mean() - L * p) < 5 * math.sqrt(var / runs)
    assert abs(m.mean() - m_ref.mean()) < 5 * math.sqrt(2 * var / runs)
    sd_var = math.sqrt(2 * (fourth - var**2) / runs)
    assert abs(m.var(ddof=1) - m_ref.var(ddof=1)) < 5 * sd_var
    q = (ok.sum() + ok_ref.sum()) / (2 * runs)
    assert 0.05 < q < 0.95
    assert abs(int(ok.sum()) - int(ok_ref.sum())) < 5 * math.sqrt(2 * runs * q * (1 - q))


def test_forge_campaign_clamps_a_cost_rounded_past_one():
    """On an all-ones matrix the SRM cost can round to 1 + 2**-52, which
    ``rng.binomial`` would refuse; every element mismatches instead."""
    params = make_params()
    s = srm_forging_strategy(9.949924812030076)
    ones = np.ones((4, 4))
    assert expected_forge_cost(s, params, ones) > 1.0
    assert forge_campaign(s, params, 50, np.random.default_rng(3), ones) == (0.0, 1.0)


def test_forge_campaign_mean_tracks_expected_cost():
    params = make_params(length=2000)
    s = srm_forging_strategy(1.0)
    C = params.click_matrix()
    expected = expected_forge_cost(s, params)
    runs = 3000
    _, mean_fraction = forge_campaign(s, params, runs, np.random.default_rng(42))
    sigma = math.sqrt(expected / (params.length * runs))  # Poisson-ish scale
    assert abs(mean_fraction - expected) < 5 * sigma
    assert C.shape == (4, 4)


def test_forge_campaign_with_override_matrix():
    params = make_params(length=1000, verify_threshold=0.6)
    C = np.full((4, 4), 0.9)  # every declaration almost surely mismatches
    np.fill_diagonal(C, 0.9)
    freq, mean_fraction = forge_campaign(
        ForgingStrategy(np.full((4, 4), 0.25)), params, 500, np.random.default_rng(5), C
    )
    assert freq == 0.0
    assert mean_fraction == pytest.approx(0.9, abs=0.01)


def test_forge_success_frequency_against_threshold():
    # park the expected cost right below the verify threshold: successes common
    params = make_params(length=400, auth_threshold=0.1, verify_threshold=0.3)
    C = np.full((4, 4), 0.25)
    freq, _ = forge_campaign(
        ForgingStrategy(np.full((4, 4), 0.25)), params, 2000, np.random.default_rng(6), C
    )
    assert freq > 0.9  # mean fraction 0.25, threshold 0.3, sd ~ 0.022


# ------------------------------------------------------------------ active forging

def test_active_forge_budget_reference_is_vacuous():
    """At the bundled matrix's tiny thresholds any tampering allowance
    dwarfs the discrimination margin, so the bound degenerates to 1."""
    rep = security.analyze(security.reference_cost_matrix(), 1.0, 1e-4)
    params = make_params(
        length=10**6,
        auth_threshold=rep.auth_threshold,
        verify_threshold=rep.verify_threshold,
        null_abort_fraction=1e-6,
        epsilon=1e-6,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0),
        cost_matrix=security.reference_cost_matrix(),
    )
    budget = active_forge_budget(params)
    assert budget.scaled_min_error == pytest.approx(0.02933889338067952, rel=1e-10)
    assert budget.c_prime_min == pytest.approx(4.2131405613948835e-5, rel=1e-10)
    assert budget.c_prime_min < rep.c_min_lower  # boosted copy discriminates better
    assert budget.tampering_allowance == pytest.approx(math.sqrt(2e-6), rel=1e-12)
    assert budget.margin < 0
    assert budget.vacuous
    assert budget.bound == 1.0


def test_active_forge_budget_nonvacuous_case():
    # a dim constellation against a coarse matrix with a huge advantage
    # leaves real room under the tampering allowance
    C = np.full((4, 4), 0.5)
    np.fill_diagonal(C, 0.01)
    params = make_params(
        length=200_000,
        alpha_sq=0.1,
        auth_threshold=0.05,
        verify_threshold=0.1,
        null_abort_fraction=6e-3,
        epsilon=5e-3,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0),
        cost_matrix=C,
    )
    budget = active_forge_budget(params, amplitude_scale=math.sqrt(1.5))
    assert budget.scaled_min_error == pytest.approx(
        discrimination.min_error_probability(0.15), rel=1e-12
    )
    expected_floor = 0.01 + budget.scaled_min_error * 0.49
    assert budget.c_prime_min == pytest.approx(expected_floor, rel=1e-12)
    assert budget.tampering_allowance == pytest.approx(math.sqrt(0.011), rel=1e-12)
    assert budget.margin > 0.05
    assert budget.epsilon_term == pytest.approx(
        2 * math.exp(-2 * (5e-3) ** 2 * 200_000), rel=1e-12
    )
    assert not budget.vacuous
    assert budget.bound == pytest.approx(
        budget.hoeffding_term + budget.epsilon_term, rel=1e-12
    )
    assert budget.bound < 1e-4


def test_active_budget_degenerate_limit_matches_passive_bound():
    """With no tampering budget and no amplitude boost the active analysis
    collapses onto the passive forgery bound."""
    rep = security.analyze(security.reference_cost_matrix(), 1.0, 1e-4)
    L = 10**6
    params = make_params(
        length=L,
        auth_threshold=rep.auth_threshold,
        verify_threshold=rep.verify_threshold,
        null_abort_fraction=0.0,
        epsilon=0.0,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0),
        cost_matrix=security.reference_cost_matrix(),
    )
    budget = active_forge_budget(params, amplitude_scale=1.0)
    assert budget.tampering_allowance == 0.0
    assert budget.c_prime_min == pytest.approx(rep.c_min_lower, rel=1e-12)
    passive = security.failure_bounds(
        rep.p_honest,
        rep.c_min_lower,
        length=L,
        auth_threshold=rep.auth_threshold,
        verify_threshold=rep.verify_threshold,
    )
    assert budget.hoeffding_term == pytest.approx(passive.forgery, rel=1e-9)
    # the epsilon term is 2 at epsilon = 0, so the combined bound is still 1
    assert budget.epsilon_term == 2.0
    assert budget.vacuous


def tampered_null_click_probs(params, substitute):
    """Null-monitor click probability per sent phase when a tamperer swaps
    the second recipient's multiport input for a fixed amplitude, through
    the multiport, its transmittance and the threshold detector."""
    amp = math.sqrt(params.alpha_sq)
    t = params.channel.multiport_transmittance
    return np.array([
        detection.click_probability(
            optics.intensity(optics.multiport(amp * 1j**k, substitute).bob_null) * t, params.detector
        )
        for k in range(4)
    ])


def test_tamper_null_clicks_silent_for_matching_amplitude():
    params = make_params(
        alpha_sq=1.0,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=1e-5),
    )
    for k in range(4):
        probs = tampered_null_click_probs(params, 1j**k)  # matches phase k exactly
        assert probs[k] == pytest.approx(1e-5, rel=1e-9)  # dark counts only
        assert probs[(k + 2) % 4] > 0.5  # opposite phase lights the monitor
    # swapping in vacuum still leaks (honest - 0)/2
    vac = tampered_null_click_probs(params, 0.0)
    expected = 1 - (1 - 1e-5) * math.exp(-0.25)
    np.testing.assert_allclose(vac, expected, rtol=1e-9, atol=0)


def test_tamper_null_clicks_through_the_multiport_match_the_null_formula():
    # reference: the null port carries (honest - substituted)/2, attenuated
    # by the multiport transmittance
    rng = np.random.default_rng(77)
    for _ in range(200):
        params = make_params(
            alpha_sq=rng.uniform(0.0, 5.0),
            channel=ChannelModel(multiport_transmittance=rng.uniform()),
            detector=DetectorModel(efficiency=rng.uniform(), dark_click_prob=rng.uniform(0.0, 1e-3)),
        )
        sub = complex(rng.normal(), rng.normal())
        amp = math.sqrt(params.alpha_sq)
        t = params.channel.multiport_transmittance
        expected = [
            1.0 - (1.0 - params.detector.dark_click_prob)
            * math.exp(-params.detector.efficiency * abs(amp * 1j**k - sub) ** 2 / 4.0 * t)
            for k in range(4)
        ]
        np.testing.assert_allclose(tampered_null_click_probs(params, sub), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("campaign", ["repudiation", "forge"])
@pytest.mark.parametrize("runs", [0, -1])
def test_campaigns_need_at_least_one_run(campaign, runs):
    params = make_params()

    class NoDraws:  # any draw would fail the test
        def __getattr__(self, name):
            raise AssertionError(f"drew from the generator ({name}) before checking runs")

    with pytest.raises(ValueError, match="runs must be >= 1"):
        if campaign == "repudiation":
            repudiation_frequency(RepudiationStrategy(0.5), params, runs, NoDraws())
        else:
            forge_campaign(ForgingStrategy(np.full((4, 4), 0.25)), params, runs, NoDraws())


def test_omniscient_forger_pays_only_the_honest_rate():
    # a forger who reads the key still trips the honest error floor, and
    # with any positive gap that floor sits below the verify threshold:
    # this is why the thresholds must leave the gap open
    C = security.reference_cost_matrix()
    rep = security.analyze(C, 1.0, 1e-4)
    params = make_params(
        length=10**6,
        auth_threshold=rep.auth_threshold,
        verify_threshold=rep.verify_threshold,
        null_abort_fraction=1e-6,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0),
    )
    runs = 300
    omniscient = ForgingStrategy(np.eye(4))
    freq, mean_fraction = forge_campaign(
        omniscient, params, runs, np.random.default_rng(21), C
    )
    p_h = security.decompose(C).p_honest
    sigma = math.sqrt(p_h / (params.length * runs))
    assert abs(mean_fraction - p_h) < 4 * sigma
    srm_freq, _ = forge_campaign(
        srm_forging_strategy(1.0), params, runs, np.random.default_rng(22), C
    )
    assert freq > srm_freq
    assert freq > 0.3


def test_uniform_guessing_tracks_the_matrix_mean():
    C = security.reference_cost_matrix()
    rep = security.analyze(C, 1.0, 1e-4)
    params = make_params(
        length=10**6,
        auth_threshold=rep.auth_threshold,
        verify_threshold=rep.verify_threshold,
        null_abort_fraction=1e-6,
        detector=DetectorModel(efficiency=1.0, dark_click_prob=0.0),
    )
    runs = 300
    expected = float(C.entries.mean())
    _, mean_fraction = forge_campaign(
        ForgingStrategy(np.full((4, 4), 0.25)), params, runs, np.random.default_rng(23), C
    )
    sigma = math.sqrt(expected / (params.length * runs))
    assert abs(mean_fraction - expected) < 4 * sigma


def test_amplitude_boost_never_raises_the_cost():
    ref = security.reference_cost_matrix()
    for alpha_sq in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0):
        params = make_params(alpha_sq=alpha_sq)
        for governing in (None, ref):
            plain = expected_forge_cost(
                srm_forging_strategy(alpha_sq), params, governing
            )
            boosted = expected_forge_cost(
                srm_forging_strategy(alpha_sq, amplitude_scale=math.sqrt(1.5)),
                params,
                governing,
            )
            assert boosted <= plain
