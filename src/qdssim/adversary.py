"""Dishonest-party simulations and the bounds they are tested against.

Two cheating roles matter. A dishonest sender tries to repudiate: get the
first recipient to accept while the declaration later fails transfer at
the second. Because the multiport symmetrizes whatever she launches, both
recipients see the same per-element mismatch probability, and her best
play is to park that probability between the two thresholds. A dishonest
recipient tries to forge: he measures his own copies, declares what he
inferred, and pays the elimination cost of every wrong guess; actively,
he may also tamper with the other recipient's arm, at the price of
lighting up null monitors.

Campaigns draw from the exact law of what they report: a forging run's
mismatch and null counts are binomials, and a repudiation campaign's
success count is one binomial at a product of exact tails, for any runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import discrimination, security
from .protocol import ACCEPT, N_PHASES, ProtocolParams, decide


# ------------------------------------------------------------------ repudiation

@dataclass(frozen=True)
class RepudiationStrategy:
    """A symmetrized attack pinned at one per-element mismatch probability.

    A target below the channel's noise floor cannot be realized; which
    floor applies depends on the matrix that governs the run, so callers
    check it against that matrix.
    """

    target_mismatch_prob: float

    def __post_init__(self):
        if not 0.0 <= self.target_mismatch_prob <= 1.0:
            raise ValueError(
                f"target mismatch probability must lie in [0, 1], got {self.target_mismatch_prob}"
            )


def repudiation_frequency(
    strategy: RepudiationStrategy,
    params: ProtocolParams,
    runs: int,
    rng: np.random.Generator,
) -> float:
    """Empirical success frequency of repudiation: Bob accepts, Charlie rejects.

    The sender launches identical tampered copies, so null monitors stay at
    dark counts and both recipients' mismatch counts are independent
    Binomial(L, target). A run succeeds with the product q of four exact
    tails, both recipients' nulls within r * L, Bob's mismatches below s_a * L
    and Charlie's at s_v * L or more (the products ``decide`` compares).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    L, target, tail = params.length, strategy.target_mismatch_prob, security.log_binomial_tail
    kept = tail(math.floor(params.null_abort_fraction * L), L, params.null_click_prob(), upper=False)
    bob = tail(math.ceil(params.auth_threshold * L) - 1, L, target, upper=False)
    charlie = tail(math.ceil(params.verify_threshold * L), L, target, upper=True)
    return int(rng.binomial(runs, math.exp(bob + charlie + 2.0 * kept))) / runs


def repudiation_bound(params: ProtocolParams) -> float:
    """Large-deviation bound exp(-(s_v - s_a)^2 L / 2) on repudiation success."""
    gap = params.verify_threshold - params.auth_threshold
    return math.exp(-(gap**2) * params.length / 2.0)


def optimal_repudiation_target(params: ProtocolParams) -> float:
    """Midpoint of the two thresholds, where the bound's two tails balance."""
    return (params.auth_threshold + params.verify_threshold) / 2.0


# ------------------------------------------------------------------ forging

@dataclass(frozen=True)
class ForgingStrategy:
    """A forger summarized by what he declares given what was sent.

    ``outcome_matrix[i, j]`` is the probability he declares phase j when
    phase i was sent (row-stochastic).
    """

    outcome_matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.outcome_matrix, dtype=float)
        if m.shape != (N_PHASES, N_PHASES):
            raise ValueError(f"outcome matrix must be 4x4, got shape {m.shape}")
        if m.min() < 0 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("outcome matrix rows must be probability vectors")
        object.__setattr__(self, "outcome_matrix", m)


def srm_forging_strategy(alpha_sq: float, amplitude_scale: float = 1.0) -> ForgingStrategy:
    """Forger running the optimal square-root measurement on his copy.

    He is granted the full launch amplitude times ``amplitude_scale`` (1
    for a passive forger, sqrt(3/2) in the active analysis where he also
    steals the multiport dump port), i.e. no channel loss on his side.
    The SRM minimizes a circulant cost, so against a circulant matrix, such
    as the analytic one, the simulated forger is at least as strong as any
    physical one at the same scale; against a measured, non-circulant
    matrix a cheaper measurement may exist.
    """
    g = discrimination.gram_matrix(alpha_sq * amplitude_scale**2)
    return ForgingStrategy(discrimination.srm_outcomes(g))


def expected_forge_cost(
    strategy: ForgingStrategy, params: ProtocolParams, click_matrix=None
) -> float:
    """Mean mismatch fraction the strategy pays per element, in expectation."""
    C = params.click_matrix() if click_matrix is None else security.cost_entries(click_matrix)
    return float((strategy.outcome_matrix * C).sum() / N_PHASES)


def forge_campaign(
    strategy: ForgingStrategy,
    params: ProtocolParams,
    runs: int,
    rng: np.random.Generator,
    click_matrix=None,
) -> tuple[float, float]:
    """(success frequency, mean mismatch fraction) over many forging runs.

    Per element the sent phase is uniform, the forger declares according to
    his outcome matrix, and the verifier's record eliminates the declared
    phase with the click matrix's probability (``click_matrix`` overrides
    the params' governing matrix). So each element independently
    mismatches with probability ``expected_forge_cost``, and a run's
    mismatch count is exactly Binomial(L, cost). Passive forging leaves
    the verifier's null monitor at dark counts: Binomial(L, d).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    # the cost can round to just above 1 when every entry is 1
    cost = min(1.0, expected_forge_cost(strategy, params, click_matrix))
    mismatches = rng.binomial(params.length, cost, size=runs)
    nulls = rng.binomial(params.length, params.null_click_prob(), size=runs)
    codes = decide(mismatches, nulls, params, params.verify_threshold)
    return float((codes == ACCEPT).mean()), float(mismatches.mean() / params.length)


def forge_floor(params: ProtocolParams, amplitude_scale: float) -> tuple[float, float]:
    """(discrimination limit, provable floor of the mismatch fraction) of a
    forger at ``amplitude_scale**2 * alpha_sq`` mean photons, against the
    params' governing matrix."""
    min_error = discrimination.min_error_probability(params.alpha_sq * amplitude_scale**2)
    dec = security.decompose(params.click_matrix())
    return min_error, security.bound_min_cost(dec, min_error).c_min_lower


# ------------------------------------------------------------------ active forging

@dataclass(frozen=True)
class ActiveForgeBound:
    """Components of the active-forging failure bound.

    The forger may tamper as long as null counts stay under r*L; the
    undetected tampering buys him at most sqrt(epsilon + r) of mismatch
    fraction, which acts like a lowered verification threshold. His
    discrimination floor ``c_prime_min`` is evaluated at the boosted
    amplitude. If the margin is not positive the bound is vacuous (1).
    """

    amplitude_scale: float
    scaled_min_error: float
    c_prime_min: float
    tampering_allowance: float
    effective_threshold: float
    margin: float
    hoeffding_term: float
    epsilon_term: float
    bound: float
    vacuous: bool


def active_forge_budget(
    params: ProtocolParams, amplitude_scale: float = math.sqrt(1.5)
) -> ActiveForgeBound:
    """Evaluate the active-forging bound for the given parameter set.

    The honest-baseline and excess statistics come from the params'
    governing matrix, while the forger's discrimination floor uses
    ``amplitude_scale**2 * alpha_sq`` mean photons. Vacuous parameter sets
    are reported, not raised.
    """
    scaled_min_error, c_prime_min = forge_floor(params, amplitude_scale)
    allowance = math.sqrt(params.epsilon + params.null_abort_fraction)
    margin = c_prime_min - params.verify_threshold - allowance
    hoeffding_term = (
        math.exp(-2.0 * margin * margin * params.length) if margin > 0 else 1.0
    )
    epsilon_term = 2.0 * math.exp(-2.0 * params.epsilon**2 * params.length)
    bound = min(1.0, hoeffding_term + epsilon_term)
    return ActiveForgeBound(
        amplitude_scale=amplitude_scale,
        scaled_min_error=scaled_min_error,
        c_prime_min=c_prime_min,
        tampering_allowance=allowance,
        effective_threshold=params.verify_threshold + allowance,
        margin=margin,
        hoeffding_term=hoeffding_term,
        epsilon_term=epsilon_term,
        bound=bound,
        vacuous=bound >= 1.0,
    )
