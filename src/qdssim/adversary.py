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

Campaign helpers draw per-run counts directly as binomials/multinomials,
which is the exact distribution of the summed per-element process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detection, discrimination, security
from .protocol import Outcome, ProtocolParams, authenticate, verify

N_PHASES = 4
UNIFORM_PHASES = (0.25, 0.25, 0.25, 0.25)


# ------------------------------------------------------------------ repudiation

@dataclass(frozen=True)
class RepudiationStrategy:
    """A symmetrized attack pinned at one per-element mismatch probability."""

    target_mismatch_prob: float


@dataclass(frozen=True)
class RepudiationResult:
    bob_mismatches: int
    charlie_mismatches: int
    bob_outcome: Outcome
    charlie_outcome: Outcome

    @property
    def succeeded(self) -> bool:
        return (
            self.bob_outcome is Outcome.ACCEPTED
            and self.charlie_outcome is Outcome.REJECTED
        )


def _check_target(strategy: RepudiationStrategy, params: ProtocolParams) -> float:
    target = strategy.target_mismatch_prob
    floor = params.honest_mismatch_prob()
    if not floor <= target <= 1.0:
        raise ValueError(
            f"target mismatch probability {target} is not achievable; "
            f"the channel noise floor is {floor}"
        )
    return target


def repudiate_run(
    strategy: RepudiationStrategy, params: ProtocolParams, rng: np.random.Generator
) -> RepudiationResult:
    """One repudiation attempt: authenticate at Bob, verify at Charlie.

    The sender launches identical tampered copies, so null monitors stay
    at dark counts, and both recipients' mismatch counts are independent
    binomials at the targeted probability.
    """
    target = _check_target(strategy, params)
    L = params.length
    null_p = params.null_click_prob()
    mb = int(rng.binomial(L, target))
    mc = int(rng.binomial(L, target))
    nb = int(rng.binomial(L, null_p))
    nc = int(rng.binomial(L, null_p))
    return RepudiationResult(
        mb, mc, authenticate(mb, nb, params), verify(mc, nc, params)
    )


def repudiation_frequency(
    strategy: RepudiationStrategy,
    params: ProtocolParams,
    runs: int,
    rng: np.random.Generator,
) -> float:
    """Empirical success frequency of ``repudiate_run`` over many runs."""
    target = _check_target(strategy, params)
    L = params.length
    null_p = params.null_click_prob()
    mb = rng.binomial(L, target, size=runs)
    mc = rng.binomial(L, target, size=runs)
    nb = rng.binomial(L, null_p, size=runs)
    nc = rng.binomial(L, null_p, size=runs)
    budget = params.null_abort_fraction * L
    ok = (
        (nb <= budget)
        & (mb < params.auth_threshold * L)
        & (nc <= budget)
        & (mc >= params.verify_threshold * L)
    )
    return float(ok.mean())


def repudiation_bound(params: ProtocolParams) -> float:
    """Large-deviation bound exp(-(s_v - s_a)^2 L / 2) on repudiation success."""
    gap = params.verify_threshold - params.auth_threshold
    return math.exp(-(gap**2) * params.length / 2.0)


def optimal_repudiation_target(params: ProtocolParams) -> float:
    """Midpoint of the two thresholds, where the bound's two tails balance."""
    return (params.auth_threshold + params.verify_threshold) / 2.0


def intermediate_phase_strategy(
    params: ProtocolParams, phase_angle: float, declared_phase: int = 0
) -> RepudiationStrategy:
    """Optical instantiation: launch a constellation-offset phase.

    Sending identical copies of amplitude sqrt(I) * exp(i*phase_angle) and
    later declaring ``declared_phase`` gives each recipient the mismatch
    probability of that detector, anywhere between the honest floor (angle
    on the declared phase) and the opposite-phase maximum (angle off by
    pi). This realizes any target in that range with honest-looking nulls.
    """
    if declared_phase not in (0, 1, 2, 3):
        raise ValueError(f"declared phase must be in 0..3, got {declared_phase}")
    amp = math.sqrt(params.receiver_intensity())
    signal = amp * complex(math.cos(phase_angle), math.sin(phase_angle))
    target = detection.click_probability(
        detection.visibility_adjusted_intensity(
            signal, amp, declared_phase, params.detector.visibility
        ),
        params.detector,
    )
    return RepudiationStrategy(target)


# ------------------------------------------------------------------ forging

@dataclass(frozen=True)
class ForgingStrategy:
    """A forger summarized by what he declares given what was sent.

    ``outcome_matrix[i, j]`` is the probability he declares phase j when
    phase i was sent (row-stochastic). ``amplitude_scale`` is the amplitude
    multiplier of the copy he measures: 1 for a passive forger, sqrt(3/2)
    in the active analysis where he also steals the multiport dump port.
    """

    outcome_matrix: np.ndarray
    amplitude_scale: float = 1.0

    def __post_init__(self):
        m = np.asarray(self.outcome_matrix, dtype=float)
        if m.shape != (N_PHASES, N_PHASES):
            raise ValueError(f"outcome matrix must be 4x4, got shape {m.shape}")
        if m.min() < 0 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("outcome matrix rows must be probability vectors")
        if self.amplitude_scale <= 0:
            raise ValueError(f"amplitude_scale must be > 0, got {self.amplitude_scale}")
        object.__setattr__(self, "outcome_matrix", m)


def srm_forging_strategy(alpha_sq: float, amplitude_scale: float = 1.0) -> ForgingStrategy:
    """Forger running the optimal square-root measurement on his copy.

    He is granted the full launch amplitude (scaled), i.e. no channel loss
    on his side; that makes the simulated forger at least as strong as any
    physical one at the same scale.
    """
    g = discrimination.gram_matrix(alpha_sq * amplitude_scale**2)
    return ForgingStrategy(discrimination.srm_outcomes(g), amplitude_scale)


def uniform_forging_strategy() -> ForgingStrategy:
    """Forger who ignores his measurement and guesses uniformly."""
    return ForgingStrategy(np.full((N_PHASES, N_PHASES), 0.25))


@dataclass(frozen=True)
class ForgeResult:
    mismatches: int
    length: int
    null_count: int
    outcome: Outcome

    @property
    def mismatch_fraction(self) -> float:
        return self.mismatches / self.length

    @property
    def succeeded(self) -> bool:
        return self.outcome is Outcome.ACCEPTED


def expected_forge_cost(
    strategy: ForgingStrategy, params: ProtocolParams, click_matrix=None
) -> float:
    """Mean mismatch fraction the strategy pays per element, in expectation."""
    C = _clicks(params, click_matrix)
    return float((strategy.outcome_matrix * C).sum() / N_PHASES)


def _clicks(params: ProtocolParams, click_matrix) -> np.ndarray:
    if click_matrix is None:
        return params.click_matrix()
    return security.cost_entries(click_matrix)


def passive_forge_run(
    strategy: ForgingStrategy,
    params: ProtocolParams,
    rng: np.random.Generator,
    click_matrix=None,
) -> ForgeResult:
    """One forging attempt against the verifier.

    Per element the sent phase is uniform, the forger declares according to
    his outcome matrix, and the verifier's record eliminates the declared
    phase with the click matrix's probability (``click_matrix`` overrides
    the analytic one, e.g. to replay a measured matrix). Passive forging
    leaves the verifier's null monitor at dark counts.
    """
    C = _clicks(params, click_matrix)
    L = params.length
    sent = rng.multinomial(L, UNIFORM_PHASES)
    mismatches = 0
    for i in range(N_PHASES):
        declared = rng.multinomial(sent[i], strategy.outcome_matrix[i])
        mismatches += int(rng.binomial(declared, C[i]).sum())
    nulls = int(rng.binomial(L, params.null_click_prob()))
    return ForgeResult(mismatches, L, nulls, verify(mismatches, nulls, params))


def forge_campaign(
    strategy: ForgingStrategy,
    params: ProtocolParams,
    runs: int,
    rng: np.random.Generator,
    click_matrix=None,
) -> tuple[float, float]:
    """(success frequency, mean mismatch fraction) over many forging runs."""
    C = _clicks(params, click_matrix)
    L = params.length
    sent = rng.multinomial(L, UNIFORM_PHASES, size=runs)
    mismatches = np.zeros(runs, dtype=np.int64)
    for i in range(N_PHASES):
        declared = rng.multinomial(sent[:, i], strategy.outcome_matrix[i])
        mismatches += rng.binomial(declared, C[i]).sum(axis=1)
    nulls = rng.binomial(L, params.null_click_prob(), size=runs)
    ok = (mismatches < params.verify_threshold * L) & (
        nulls <= params.null_abort_fraction * L
    )
    return float(ok.mean()), float(mismatches.mean() / L)


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
    params: ProtocolParams,
    cost_matrix=None,
    amplitude_scale: float = math.sqrt(1.5),
) -> ActiveForgeBound:
    """Evaluate the active-forging bound for the given parameter set.

    The honest-baseline and excess statistics come from ``cost_matrix``
    (or the analytic click matrix), while the forger's discrimination
    floor uses ``amplitude_scale**2 * alpha_sq`` mean photons. Vacuous
    parameter sets are reported, not raised.
    """
    C = _clicks(params, cost_matrix)
    dec = security.decompose(C)
    scaled_min_error = discrimination.min_error_probability(
        params.alpha_sq * amplitude_scale**2
    )
    c_prime_min = dec.p_honest + scaled_min_error * dec.guaranteed_advantage
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


def tamper_null_click_probs(params: ProtocolParams, substituted_amplitude: complex) -> np.ndarray:
    """Null-monitor click probability per sent phase if one arm is swapped.

    A tamperer replacing the second recipient's multiport input with a
    fixed amplitude breaks the honest cancellation: the null port carries
    (honest - substituted)/2, attenuated by the multiport transmittance.
    Returned per honest phase index; compare with the dark rate to see the
    alarm the tamperer trips.
    """
    amp = math.sqrt(params.alpha_sq)
    t = params.channel.multiport_transmittance
    probs = np.empty(N_PHASES)
    for k in range(N_PHASES):
        honest = amp * (1j**k)
        null_intensity = abs(honest - complex(substituted_amplitude)) ** 2 / 4.0 * t
        probs[k] = detection.click_probability(null_intensity, params.detector)
    return probs
