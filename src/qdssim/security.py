r"""Finite-size security analysis from a measured elimination-cost matrix.

The single object everything runs on is the cost matrix C: entry (i, j) is
the probability that the detector eliminating phase j clicks when phase i
was actually sent. Honest declarations pay the diagonal; a forger who must
declare a phase he inferred from his own measurement pays the off-diagonal
of whichever column he declares wrongly.

The analysis splits C = C_h + C', with C_h constant along each row at that
row's diagonal value. Declaring honestly costs p_h (the mean diagonal) no
matter what; C' is the extra cost of wrong declarations. Replacing C' by
the uniform matrix whose off-diagonals all equal the smallest excess
``guaranteed_advantage`` can only help the forger, and against that
uniform matrix his best play is simply to minimize his probability of
misidentifying the phase, which no measurement can push below the
closed-form minimum-error probability of the four-state constellation.
Chaining the two gives the forger's minimum expected mismatch fraction

    c_min >= p_h + min_error * guaranteed_advantage

and every protocol failure mode then reduces to a large-deviation bound:
an i.i.d.-per-element count of mean mu * L deviating by t * L is
suppressed as exp(-2 t^2 L) (one-sided Hoeffding), while repudiation,
which needs two recipients' counts to straddle both thresholds, pays
exp(-(s_v - s_a)^2 L / 2). Placing the thresholds at p_h + g/4 and
p_h + 3g/4 (g the guaranteed gap to c_min) equalizes all three exponents
at g^2 L / 8, which is what sets the required sequence length.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import discrimination

N_PHASES = 4


class NoProvableSecurityError(ValueError):
    """The measured matrix gives the forger no guaranteed disadvantage."""


# ------------------------------------------------------------------ cost matrix

@dataclass(frozen=True)
class CostMatrix:
    """A 4x4 elimination-probability matrix, optionally with pulse counts.

    ``entries[i, j]`` = P(detector for phase j clicks | phase i sent).
    ``pulse_counts[i]`` = pulses of state i behind row i, when known;
    estimation fills it in, extrapolation drops it.
    """

    entries: np.ndarray
    pulse_counts: np.ndarray | None = None

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (N_PHASES, N_PHASES):
            raise ValueError(f"cost matrix must be 4x4, got shape {e.shape}")
        values = e.ravel().tolist()
        if not all(map(math.isfinite, values)):
            raise ValueError("cost matrix entries must be finite")
        if min(values) < 0.0 or max(values) > 1.0:
            raise ValueError("cost matrix entries must lie in [0, 1]")
        object.__setattr__(self, "entries", e)
        if self.pulse_counts is not None:
            n = np.asarray(self.pulse_counts, dtype=np.int64)
            if n.shape != (N_PHASES,) or (n < 1).any():
                raise ValueError("pulse_counts must be four positive integers")
            object.__setattr__(self, "pulse_counts", n)

    def standard_errors(self) -> np.ndarray:
        """Binomial standard error of each entry; needs pulse counts."""
        if self.pulse_counts is None:
            raise ValueError("standard errors need pulse counts")
        p = self.entries
        return np.sqrt(p * (1.0 - p) / self.pulse_counts[:, None])


def cost_entries(matrix) -> np.ndarray:
    """The validated 4x4 entries of a CostMatrix or of any array-like."""
    return matrix.entries if isinstance(matrix, CostMatrix) else CostMatrix(matrix).entries


def count_clicks(phases, eliminations) -> tuple[np.ndarray, np.ndarray]:
    """Click and pulse counts of one record with known sent phases.

    ``phases`` is an (N,) array of sent phase indices and ``eliminations``
    the matching (N, 4) boolean elimination record. Returns the 4x4 counts
    of (sent i, eliminated j) clicks and the per-state pulse counts.
    """
    phases = np.asarray(phases, dtype=np.intp)
    elims = np.asarray(eliminations)
    if elims.shape != (len(phases), N_PHASES):
        raise ValueError(
            f"eliminations shape {elims.shape} does not match {len(phases)} phases"
        )
    if len(phases) and (phases.min() < 0 or phases.max() >= N_PHASES):
        raise ValueError("phase indices must lie in 0..3")
    element, phase = np.divmod(np.flatnonzero(elims), N_PHASES)
    pairs = phases[element] * N_PHASES + phase
    clicks = np.bincount(pairs, minlength=N_PHASES * N_PHASES).reshape(N_PHASES, N_PHASES)
    return clicks, np.bincount(phases, minlength=N_PHASES)


def cost_matrix_from_counts(clicks, pulses) -> CostMatrix:
    """Cost matrix of pooled click counts; every state needs a pulse."""
    missing = np.nonzero(pulses == 0)[0]
    if len(missing):
        raise ValueError(f"no pulses recorded for state(s) {missing.tolist()}")
    return CostMatrix(clicks / pulses[:, None], pulses)


def estimate_cost_matrix(*samples) -> CostMatrix:
    """Estimate the cost matrix from recorded runs with known sent phases.

    Parameters
    ----------
    *samples
        One or more pairs (phases, eliminations): an (N,) array of sent
        phase indices and the matching (N, 4) boolean elimination records.
        Multiple pairs (several runs, several recipients) are pooled.

    Raises
    ------
    ValueError
        If any of the four states never occurs in the pool.
    """
    if not samples:
        raise ValueError("at least one (phases, eliminations) pair is required")
    clicks = np.zeros((N_PHASES, N_PHASES), dtype=np.int64)
    pulses = np.zeros(N_PHASES, dtype=np.int64)
    for phases, elims in samples:
        c, n = count_clicks(phases, elims)
        clicks += c
        pulses += n
    return cost_matrix_from_counts(clicks, pulses)


def write_cost_matrix(path, matrix: CostMatrix):
    """Write four rows of four decimals, preceded by a pulse-count header if known."""
    with open(path, "w") as f:
        if matrix.pulse_counts is not None:
            f.write("# pulses " + " ".join(str(int(n)) for n in matrix.pulse_counts) + "\n")
        for row in matrix.entries:
            f.write(" ".join(f"{x:.10e}" for x in row) + "\n")


def read_cost_matrix(path) -> CostMatrix:
    """Parse a cost-matrix file; errors carry the offending line and column."""
    rows = []
    counts = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if fields and fields[0] == "pulses":
                    if len(fields) != 1 + N_PHASES:
                        raise ValueError(
                            f"line {lineno}: pulse header needs 4 counts, got {len(fields) - 1}"
                        )
                    for col, tok in enumerate(fields[1:], start=1):
                        if not tok.isdecimal() or int(tok) < 1:
                            raise ValueError(
                                f"line {lineno}, column {col}: pulse count must be a positive integer, got {tok!r}"
                            )
                    counts = [int(x) for x in fields[1:]]
                continue
            tokens = line.split()
            if len(tokens) != N_PHASES:
                raise ValueError(
                    f"line {lineno}: expected 4 values, got {len(tokens)}"
                )
            row = []
            for col, tok in enumerate(tokens, start=1):
                try:
                    row.append(float(tok))
                except ValueError:
                    raise ValueError(
                        f"line {lineno}, column {col}: could not parse {tok!r}"
                    ) from None
            rows.append((lineno, row))
    if len(rows) != N_PHASES:
        raise ValueError(f"expected 4 matrix rows, got {len(rows)}")
    return CostMatrix(np.array([r for _, r in rows]), counts)


def reference_cost_matrix() -> CostMatrix:
    """The bundled measured matrix from the 2014 tabletop run at alpha_sq = 1.

    Entry (4, 2) of the source table carries a typographical exponent
    (1e-3 where the table's own excess decomposition implies 1e-4); the
    bundled file uses the corrected 2.82e-4.
    """
    ref = importlib.resources.files("qdssim").joinpath("data/reference_cost_matrix.txt")
    with importlib.resources.as_file(ref) as path:
        return read_cost_matrix(path)


# ------------------------------------------------------------------ decomposition

@dataclass(frozen=True)
class Decomposition:
    """Split of a cost matrix into honest baseline and forger excess.

    ``excess`` is each entry less its row's diagonal value, the honest
    baseline. ``p_honest`` is the mean diagonal and
    ``guaranteed_advantage`` the smallest off-diagonal excess (may be
    <= 0, in which case no security is provable from this matrix).
    """

    excess: np.ndarray
    p_honest: float
    guaranteed_advantage: float


def decompose(matrix) -> Decomposition:
    """Decompose a cost matrix (CostMatrix or 4x4 array) for bounding."""
    entries = cost_entries(matrix)
    excess = entries - entries.diagonal()[:, None]
    d0, d1, d2, d3 = entries.diagonal().tolist()
    return Decomposition(
        excess=excess,
        p_honest=(0.0 + d0 + d1 + d2 + d3) / N_PHASES,  # numpy's mean of four, in its order
        guaranteed_advantage=_off_diagonal(excess, min),
    )


def _off_diagonal(excess: np.ndarray, pick) -> float:
    """``pick`` (``min`` or ``max``) of the off-diagonal entries, as numpy gives it."""
    values = excess.ravel().tolist()
    del values[:: N_PHASES + 1]  # the diagonal
    extreme = pick(values)
    if extreme == 0.0:  # numpy's order of reduction decides between 0.0 and -0.0
        off = excess[~np.eye(N_PHASES, dtype=bool)]
        return float(off.min() if pick is min else off.max())
    return extreme


@dataclass(frozen=True)
class CostBounds:
    """Bounds on the forger's minimum expected mismatch fraction.

    The lower bound is the provable one used for thresholds and lengths.
    The upper bound replaces the smallest excess by the largest and is
    only indicative (see the module docstring); it is not a guarantee.
    """

    c_min_lower: float
    c_min_upper: float
    g_lower: float
    g_upper: float


def bound_min_cost(dec: Decomposition, min_error: float) -> CostBounds:
    """Combine a decomposition with the discrimination limit ``min_error``."""
    if not 0.0 <= min_error <= 1.0:
        raise ValueError(f"min_error must lie in [0, 1], got {min_error}")
    g_low = min_error * dec.guaranteed_advantage
    g_up = min_error * _off_diagonal(dec.excess, max)
    return CostBounds(
        c_min_lower=dec.p_honest + g_low,
        c_min_upper=dec.p_honest + g_up,
        g_lower=g_low,
        g_upper=g_up,
    )


# ------------------------------------------------------------------ bounds

def hoeffding(deviation: float, length: int) -> float:
    """One-sided large-deviation bound exp(-2 t^2 L) for a mean of L bounded terms."""
    if deviation < 0:
        raise ValueError(f"deviation must be >= 0, got {deviation}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    return math.exp(-2.0 * deviation * deviation * length)


def choose_thresholds(p_honest: float, gap: float) -> tuple[float, float]:
    """Thresholds p_h + g/4 and p_h + 3g/4 that equalize the failure exponents."""
    if gap <= 0:
        raise NoProvableSecurityError(
            f"guaranteed gap must be > 0 to place thresholds, got {gap}"
        )
    if p_honest < 0:
        raise ValueError(f"p_honest must be >= 0, got {p_honest}")
    return p_honest + gap / 4.0, p_honest + 3.0 * gap / 4.0


@dataclass(frozen=True)
class FailureBounds:
    """Per-failure-mode probabilities, each a Hoeffding-type bound."""

    honest_rejection: float
    repudiation: float
    forgery: float
    honest_abort: float


def failure_bounds(
    p_honest: float,
    c_min: float,
    *,
    length: int,
    auth_threshold: float,
    verify_threshold: float,
    epsilon: float = 0.0,
) -> FailureBounds:
    """Evaluate the four failure bounds at a given sequence length.

    Requires c_min >= verify_threshold >= auth_threshold >= p_honest;
    raises naming the violated inequality otherwise. Equal thresholds are
    allowed and simply give a vacuous repudiation bound of 1.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    for name, low, high in (
        ("auth_threshold >= p_honest", p_honest, auth_threshold),
        ("verify_threshold >= auth_threshold", auth_threshold, verify_threshold),
        ("c_min >= verify_threshold", verify_threshold, c_min),
    ):
        if high < low:
            raise ValueError(f"ordering violated: {name} fails ({high} < {low})")
    return FailureBounds(
        honest_rejection=hoeffding(auth_threshold - p_honest, length),
        repudiation=math.exp(
            -((verify_threshold - auth_threshold) ** 2) * length / 2.0
        ),
        forgery=hoeffding(c_min - verify_threshold, length),
        honest_abort=hoeffding(epsilon, length),
    )


def required_length(gap: float, security_level: float) -> int:
    """Smallest L making every equalized failure bound <= security_level.

    Inverts exp(-g^2 L / 8) = level, so L = ceil(8 ln(1/level) / g^2).
    """
    gap = float(gap)  # plain float division overflows to inf without a warning
    if gap <= 0:
        raise NoProvableSecurityError(f"gap must be > 0, got {gap}")
    if not 0.0 < security_level < 1.0:
        raise ValueError(f"security_level must lie in (0, 1), got {security_level}")
    squared = gap * gap
    length = 8.0 * math.log(1.0 / security_level) / squared if squared else math.inf
    if not math.isfinite(length):
        raise NoProvableSecurityError(f"gap {gap} is too small for a finite sequence length")
    return math.ceil(length)


def rescale_for_loss(matrix, old_transmittance: float, new_transmittance: float) -> CostMatrix:
    """Extrapolate a cost matrix to a different end-to-end transmittance.

    In the low-count regime every click probability is proportional to the
    transmittance, so entries scale by new/old. Valid only while the scaled
    entries stay small; pulse counts do not carry over.
    """
    for name, t in (("old", old_transmittance), ("new", new_transmittance)):
        if not 0.0 < t <= 1.0:
            raise ValueError(f"{name} transmittance must lie in (0, 1], got {t}")
    scaled = cost_entries(matrix) * (new_transmittance / old_transmittance)
    if scaled.max() > 1.0:
        raise ValueError("rescaled entries exceed 1; linear scaling is not valid there")
    return CostMatrix(scaled)


# ------------------------------------------------------------------ exact tails

def log_binomial_tail(k: int, n: int, p: float, upper: bool) -> float:
    """ln P(X >= k) if ``upper`` else ln P(X <= k), for X ~ Binomial(n, p).

    The tail away from the mean is the binomial term, -n KL(k/n || p) plus
    Stirling's remainders in the log, times the convergent continued fraction
    for the incomplete beta; the other tail is one minus that. Within a standard
    deviation of the mean at variance V >= 1e8, where the fraction needs
    ~V^(1/3) terms, the Lugannani-Rice formula takes over (error O(V^-3/2)).
    """
    k, n = int(k), int(n)
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"need n >= 0 and p in [0, 1], got n={n}, p={p}")
    num, den = float(p).as_integer_ratio()  # p exactly, so that k - np is formed exactly
    if not upper:  # X <= k exactly when n - X >= n - k, and n - X ~ Binomial(n, 1 - p)
        k, num = n - k, den - num
    if k <= 0 or num == den:
        return 0.0
    if k > n or num == 0:
        return -math.inf
    x, y, lam = num / den, (den - num) / den, (k * den - (n + 1) * num) / den
    if n * x * y >= 1e8 and lam * lam < n * x * y:
        return _lugannani_rice(k, n, num, den)
    if lam > 0:  # P(X >= k) = I_p(k, n - k + 1) = k q pmf(k) r
        return math.log(k * y) + _log_pmf(k, n, num, den) + _beta_fraction(k, n - k + 1, x, y, lam)
    # P(X < k) = I_q(n - k + 1, k) = (n - k + 1) p pmf(k - 1) r
    far = math.log((n - k + 1) * x) + _log_pmf(k - 1, n, num, den) + _beta_fraction(n - k + 1, k, y, x, -lam)
    return math.log1p(-math.exp(far))


def binomial_support(n: int, p: float) -> tuple[int, int]:
    """The first and last m whose Binomial(n, p) pmf is a positive normal double; the mass outside is below 1e-300."""
    num, den = float(p).as_integer_ratio()
    if num in (0, den):
        return (n, n) if num else (0, 0)
    mode, step, tiny = (n + 1) * num // den, int(math.sqrt(n * p * (1.0 - p))) + 1, math.log(2.0**-1022)
    ends = []
    for sign, room in ((-1, mode), (1, n - mode)):  # the pmf is log-concave: gallop out from the mode, then bisect
        good, bad = 0, room + 1  # the pmf is normal at mode + sign * good, and not at mode + sign * bad
        while bad - good > 1:
            mid = min(2 * good + step, (good + bad) // 2)
            good, bad = (mid, bad) if _log_pmf(mode + sign * mid, n, num, den) >= tiny else (good, mid)
        ends.append(mode + sign * good)
    return ends[0], ends[1]


def binomial_pmf(n: int, p: float, lo: int, hi: int) -> np.ndarray:
    """The Binomial(n, p) pmf at lo..hi, normalized over them, from running sums (in extended precision where there is
    one) of ln r_k, r_k = pmf(k+1) / pmf(k), as log1p of r_k - 1 = (np - q - k) / ((k + 1) q) where r_k >= 1/2."""
    num, den = float(p).as_integer_ratio()
    mode, q = (n + 1) * num // den, (den - num) / den
    k = np.arange(lo - mode, hi - mode, dtype=float)  # offsets from the mode
    r1 = ((n * num - mode * den - den + num) / den - k) / ((k + (mode + 1)) * q)
    step = np.log1p(r1, out=np.log(((n - mode) - k) * (num / den) / ((k + (mode + 1)) * q)), where=r1 >= -0.5)
    log_w = np.cumsum(np.concatenate(([0.0], step)), dtype=np.longdouble)  # ln pmf(lo..hi) - ln pmf(lo)
    w = np.exp((log_w - log_w.max()).astype(float))
    return w / w.sum()


def _log_pmf(k: int, n: int, num: int, den: int) -> float:
    m, mq, d = n * num / den, n * (den - num) / den, (k * den - n * num) / den
    return _stirling(n) - _stirling(k) - _stirling(n - k) - _bd0(k, m, d) - _bd0(n - k, mq, -d)


def _stirling(m: int) -> float:
    """ln m! - (m ln m - m)."""
    if m < 30:
        return math.lgamma(m + 1) - m * math.log(m) + m if m else 0.0
    r = 1.0 / float(m) ** 2
    return 0.5 * math.log(2.0 * math.pi * m) + (1 / 12 - r * (1 / 360 - r / 1260)) / m


def _bd0(x: float, m: float, d: float) -> float:
    """x ln(x/m) + m - x for d = x - m; near x = m by Loader's series in v = d / (x + m)."""
    v = d / (x + m)
    if abs(v) > 0.1:
        return m if x == 0 else x * (math.log1p(d / m) if abs(d) < 0.5 * m else math.log(x) - math.log(m)) - d
    return d * v + 2.0 * x * sum(v ** (2 * j + 1) / (2 * j + 1) for j in range(1, 9))


def _beta_fraction(a: int, b: int, x: float, y: float, lam: float) -> float:
    """ln r, for I_x(a, b) = x^a y^b r / B(a, b), y = 1 - x and lam = a - (a + b) x >= 0: the fraction
    of Didonato and Morris (ACM TOMS 18, 360, 1992), which no cancellation enters, by Lentz's method."""
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    f = C = c / c1
    D, u, s, j = 0.0, 1.0, a + 1.0, 0
    while True:
        j += 1
        t, w, e = j / a, j * (b - j) * x, a / s
        alpha = u * (u + c0) * e * e * w * x
        beta = j + w / s + (1.0 + t) / (c1 + t + t) * (c + j * (1.0 + y))
        u, s = 1.0 + t, s + 2.0
        D = 1.0 / (beta + alpha * D or 1e-300)
        C = beta + alpha / C or 1e-300
        f *= C * D
        if abs(C * D - 1.0) < 1e-15:
            return -math.log(f)


def _lugannani_rice(k: int, n: int, num: int, den: int) -> float:
    """ln P(X >= k) from the saddlepoint at k - 1/2."""
    x, xq, m, mq = k - 0.5, n - k + 0.5, n * num / den, n * (den - num) / den
    d = ((2 * k - 1) * den - 2 * n * num) / (2 * den)
    w = math.copysign(math.sqrt(2.0 * (_bd0(x, m, d) + _bd0(xq, mq, -d))), d)
    u = 2.0 * math.sinh((math.log1p(d / m) - math.log1p(-d / mq)) / 2.0) * math.sqrt(x * xq / n)
    # 1/u - 1/w tends to -(1 - 2p) / (6 sd) at the mean, where both terms blow up
    gap = 1.0 / u - 1.0 / w if abs(w) > 1e-4 else (m - mq) / (6.0 * n * math.sqrt(m * mq / n))
    return math.log(0.5 * math.erfc(w / math.sqrt(2.0)) + math.exp(-w * w / 2.0) / math.sqrt(2.0 * math.pi) * gap)


# ------------------------------------------------------------------ report

@dataclass(frozen=True)
class SecurityReport:
    """Everything the threshold/length pipeline derives from one matrix."""

    alpha_sq: float
    security_level: float
    p_honest: float
    guaranteed_advantage: float
    min_error: float
    g_lower: float
    g_upper: float
    c_min_lower: float
    c_min_upper: float
    auth_threshold: float
    verify_threshold: float
    required_length: int
    failure_bound: float


def analyze(matrix, alpha_sq: float, security_level: float) -> SecurityReport:
    """Full pipeline: decompose, bound the forger, place thresholds, size L."""
    dec = decompose(matrix)
    if dec.guaranteed_advantage <= 0:
        raise NoProvableSecurityError(
            "smallest off-diagonal excess is "
            f"{dec.guaranteed_advantage}; no provable security from this matrix"
        )
    min_error = discrimination.min_error_probability(alpha_sq)
    bounds = bound_min_cost(dec, min_error)
    s_a, s_v = choose_thresholds(dec.p_honest, bounds.g_lower)
    length = required_length(bounds.g_lower, security_level)
    common = math.exp(-bounds.g_lower**2 * length / 8.0)
    return SecurityReport(
        alpha_sq=alpha_sq,
        security_level=security_level,
        p_honest=dec.p_honest,
        guaranteed_advantage=dec.guaranteed_advantage,
        min_error=min_error,
        g_lower=bounds.g_lower,
        g_upper=bounds.g_upper,
        c_min_lower=bounds.c_min_lower,
        c_min_upper=bounds.c_min_upper,
        auth_threshold=s_a,
        verify_threshold=s_v,
        required_length=length,
        failure_bound=common,
    )
