"""Output checks shared by the workloads.

Analytic outputs must equal the values pinned in ``expected.json``,
captured from the program at the commit that introduced this benchmark.
Monte Carlo outputs are counts with a known binomial law, so they stay
checkable when the random streams change: a count fails when it lies
beyond five standard deviations, judged by its exact binomial tail
probability (at most Phi(-5) on either side). The normal approximation
would understate the upper tail of the small counts checked here (null
clicks, single matrix entries), and false failures would then be common
across many runs.
"""

from __future__ import annotations

import math

FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))  # Phi(-5)

# Above this variance the binomial skew is below 1% and the normal tail is used.
_NORMAL_VARIANCE = 1e4


def _logpmf(j: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        + j * math.log(p) + (n - j) * math.log1p(-p)
    )


def _far_tail(k: int, n: int, p: float, step: int) -> float:
    """P(X >= k) for step +1 (k above the mean), P(X <= k) for step -1 (k below)."""
    mean = n * p
    var = mean * (1.0 - p)
    if var > _NORMAL_VARIANCE:
        return 0.5 * math.erfc(abs(k - mean) / math.sqrt(2.0 * var))
    total = 0.0
    j = k
    while 0 <= j <= n:
        term = math.exp(_logpmf(j, n, p))
        total += term
        if term <= total * 1e-17:
            break
        j += step
    return min(total, 1.0)


def binom_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if ``upper`` else P(X <= k), for X ~ Binomial(n, p)."""
    if upper and k <= 0 or not upper and k >= n:
        return 1.0
    if upper and k > n or not upper and k < 0:
        return 0.0
    if p <= 0.0 or p >= 1.0:
        x = 0 if p <= 0.0 else n
        return float(x >= k) if upper else float(x <= k)
    mean = n * p
    if upper:
        return _far_tail(k, n, p, 1) if k > mean else 1.0 - _far_tail(k - 1, n, p, -1)
    return _far_tail(k, n, p, -1) if k < mean else 1.0 - _far_tail(k + 1, n, p, 1)


def binom_outlier(what: str, k: int, n: int, p: float) -> list[str]:
    """An error if count ``k`` of ``n`` lies beyond five sigma of Binomial(n, p)."""
    lo = binom_tail(k, n, p, upper=False)
    hi = binom_tail(k, n, p, upper=True)
    if min(lo, hi) < FIVE_SIGMA_TAIL:
        return [f"{what}: count {k} of {n} is beyond 5 sigma of p={p!r} (expected {n * p:.6g})"]
    return []


def normal_outlier(what: str, value: float, mean: float, sd: float) -> list[str]:
    if abs(value - mean) > 5.0 * sd:
        return [f"{what}: {value!r} is {abs(value - mean) / sd:.1f} sigma from {mean!r}"]
    return []


def as_count(what: str, value: float, scale: int) -> tuple[int, list[str]]:
    """Recover the integer count behind a printed frequency or mean."""
    x = value * scale
    k = round(x)
    if abs(x - k) > 1e-6 * max(1.0, abs(x)):
        return k, [f"{what}: {value!r} x {scale} is not a whole count"]
    return k, []


def parse_kv(text: str) -> dict[str, str]:
    """Parse ``key = value`` report lines, keeping their order."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep or key in out:
            raise ValueError(f"malformed report line {line!r}")
        out[key] = value
    return out


def check_keys(what: str, kv: dict[str, str], keys) -> list[str]:
    if list(kv) != list(keys):
        return [f"{what}: report keys {list(kv)} differ from {list(keys)}"]
    return []


def check_pinned(what: str, kv: dict[str, str], pinned: dict[str, str]) -> list[str]:
    return [
        f"{what}: {key} = {kv.get(key)!r}, pinned {value!r}"
        for key, value in pinned.items()
        if kv.get(key) != value
    ]


def check_cli(what: str, result) -> list[str]:
    """A CLI call succeeded: exit code 0, no exception, nothing on stderr."""
    errors = []
    if result.exception is not None:
        errors.append(f"{what}: raised {result.exception}")
    elif result.rc != 0:
        errors.append(f"{what}: exit code {result.rc}")
    if result.stderr:
        errors.append(f"{what}: stderr {result.stderr.strip()[:200]!r}")
    return errors
