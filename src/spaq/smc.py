"""Statistical decisions over samples drawn from calibration traces.

Hypothesis tests and nonparametric quantile bounds over small sample sets.
All binomial tail probabilities are computed by direct summation in log
space (sample counts here are at most a few thousand), never by a normal
approximation, so results are reproducible bit-for-bit across platforms.

Conventions:

* ``F`` is a population proportion / quantile level in (0, 1).
* ``C`` is a confidence level in (0.5, 1).
* Boolean samples feed the tests; scalar samples feed the quantile bounds.
* Tests claim "the property holds in at least a fraction F of the
  population"; ``holds`` means that claim is accepted at confidence C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptySamplesError, InsufficientDataError

HOLDS = "holds"
DOES_NOT_HOLD = "does_not_hold"
INSUFFICIENT_DATA = "insufficient_data"

LOWER = "lower"
UPPER = "upper"
TWO_SIDED = "two_sided"

_SIDES = (LOWER, UPPER, TWO_SIDED)


@dataclass(frozen=True)
class SmcConfig:
    """Parameters of a statistical query.

    ``delta`` is the half-width of the sequential test's indifference
    region and is only required by :func:`sprt_test`.
    """

    F: float
    C: float
    delta: float | None = None
    side: str = UPPER

    def __post_init__(self) -> None:
        if not 0.0 < self.F < 1.0:
            raise ValueError(f"F must be in (0, 1), got {self.F}")
        if not 0.5 < self.C < 1.0:
            raise ValueError(f"C must be in (0.5, 1), got {self.C}")
        if self.delta is not None and self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")


@dataclass(frozen=True)
class SmcResult:
    """Outcome of a test or estimator.

    Exactly one of the following is populated, depending on the query:
    a three-state ``verdict`` (tests), a one-sided ``bound`` with its
    ``rank``, or a two-sided ``interval`` with its ``ranks``. ``verdict``
    is also set to ``insufficient_data`` when a bound cannot be formed.
    """

    verdict: str | None
    n_used: int
    p_value: float | None = None
    bound: float | None = None
    rank: int | None = None
    interval: tuple[float, float] | None = None
    ranks: tuple[int, int] | None = None
    coverage: float | None = None
    llr: tuple[float, ...] | None = None


def _log_binom_pmf(n: int, k: int, p: float) -> float:
    if k < 0 or k > n:
        return -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _log_sum_exp(values: list[float]) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def binom_tail_upper(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) >= k), by log-space summation."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return min(1.0, math.exp(_log_sum_exp([_log_binom_pmf(n, j, p) for j in range(k, n + 1)])))


def binom_tail_lower(n: int, k: int, p: float) -> float:
    """P(Bin(n, p) <= k), by log-space summation."""
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    return min(1.0, math.exp(_log_sum_exp([_log_binom_pmf(n, j, p) for j in range(0, k + 1)])))


@lru_cache(maxsize=256)
def _binom_cdf_table(n: int, p: float) -> tuple[float, ...]:
    """cdf[k] = P(Bin(n, p) <= k) for k in 0..n."""
    acc = 0.0
    out = []
    for k in range(n + 1):
        acc = min(1.0, acc + math.exp(_log_binom_pmf(n, k, p)))
        out.append(acc)
    return tuple(out)


def min_samples(F: float, C: float, side: str = LOWER) -> int:
    """Smallest n for which any rank / rank pair can reach coverage C.

    For a lower bound this is the smallest n with 1 - (1-F)^n >= C; the
    upper side mirrors it, and the two-sided case requires both extreme
    order statistics to leave enough probability inside.
    """
    cfg = SmcConfig(F=F, C=C, side=side)  # range validation

    # the coverage itself decides, not its logarithm: at a boundary such
    # as F=0.1, C=0.9 the rounded logs disagree with 1 - F^n >= C
    def lower_ok(n: int) -> bool:
        return 1.0 - (1.0 - cfg.F) ** n >= cfg.C

    def upper_ok(n: int) -> bool:
        return 1.0 - cfg.F**n >= cfg.C

    def two_sided_ok(n: int) -> bool:
        return 1.0 - cfg.F**n - (1.0 - cfg.F) ** n >= cfg.C

    ok = {LOWER: lower_ok, UPPER: upper_ok, TWO_SIDED: two_sided_ok}[side]
    if side == LOWER:
        n = math.ceil(math.log1p(-C) / math.log1p(-F))
    elif side == UPPER:
        n = math.ceil(math.log1p(-C) / math.log(F))
    else:
        n = max(min_samples(F, C, LOWER), min_samples(F, C, UPPER))
    # the closed form can land one off at float boundaries
    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def exact_binomial_test(samples: list[bool], cfg: SmcConfig) -> SmcResult:
    """Exact one-sided binomial test on boolean samples.

    With ``side=upper`` (the default) it tests H0: p <= F against
    H1: p > F; the p-value is P(Bin(n, F) >= k) for k observed successes,
    and the claim holds iff p-value <= 1 - C. ``side=lower`` mirrors it.
    Returns ``insufficient_data`` when no outcome could reject H0 at this
    sample size (even k = n, respectively k = 0, keeps the p-value above
    1 - C), so the verdict is decided by power rather than by data.
    """
    if cfg.side == TWO_SIDED:
        raise ValueError("exact_binomial_test is one-sided; use side=lower or side=upper")
    n = len(samples)
    k = sum(bool(s) for s in samples)
    alpha = 1.0 - cfg.C
    if cfg.side == UPPER:
        best = binom_tail_upper(n, n, cfg.F)  # p-value at k = n
        p_value = binom_tail_upper(n, k, cfg.F)
    else:
        best = binom_tail_lower(n, 0, cfg.F)  # p-value at k = 0
        p_value = binom_tail_lower(n, k, cfg.F)
    if best > alpha:
        return SmcResult(verdict=INSUFFICIENT_DATA, n_used=n, p_value=p_value)
    verdict = HOLDS if p_value <= alpha else DOES_NOT_HOLD
    return SmcResult(verdict=verdict, n_used=n, p_value=p_value)


def sprt_test(samples: list[bool], cfg: SmcConfig) -> SmcResult:
    """Wald sequential probability ratio test on boolean samples.

    Tests p = p0 = F - delta against p = p1 = F + delta with error
    bounds alpha = beta = 1 - C, consuming samples in order until a
    boundary is crossed. Returns ``insufficient_data`` if the sample
    list is exhausted inside the indifference region.
    """
    if cfg.delta is None:
        raise ValueError("sprt_test requires cfg.delta")
    p0 = cfg.F - cfg.delta
    p1 = cfg.F + cfg.delta
    if p0 <= 0.0 or p1 >= 1.0:
        raise ValueError(f"F +/- delta must stay inside (0, 1), got ({p0}, {p1})")
    alpha = beta = 1.0 - cfg.C
    accept_h1 = math.log((1.0 - beta) / alpha)
    accept_h0 = math.log(beta / (1.0 - alpha))
    step_true = math.log(p1 / p0)
    step_false = math.log((1.0 - p1) / (1.0 - p0))

    llr = 0.0
    trajectory = []
    for i, s in enumerate(samples, start=1):
        llr += step_true if s else step_false
        trajectory.append(llr)
        if llr >= accept_h1:
            return SmcResult(verdict=HOLDS, n_used=i, llr=tuple(trajectory))
        if llr <= accept_h0:
            return SmcResult(verdict=DOES_NOT_HOLD, n_used=i, llr=tuple(trajectory))
    return SmcResult(verdict=INSUFFICIENT_DATA, n_used=len(samples), llr=tuple(trajectory))


def quantile_confidence_bound(samples: list[float], F: float, C: float, side: str) -> SmcResult:
    """Distribution-free confidence bound on the F-quantile.

    Lower side: the largest rank r (1-indexed into the sorted samples)
    whose coverage P(X_(r) <= q_F) = P(Bin(n, F) >= r) is still >= C;
    the bound is the r-th order statistic. Upper side mirrors it. The
    verdict is ``insufficient_data`` when no rank achieves coverage C.
    """
    SmcConfig(F=F, C=C, side=side)  # range validation
    if side == TWO_SIDED:
        raise ValueError("use quantile_confidence_interval for two-sided queries")
    if not samples:
        raise EmptySamplesError("quantile bound needs at least one sample")
    n = len(samples)
    xs = sorted(samples)
    cdf = _binom_cdf_table(n, F)
    if side == LOWER:
        # coverage(r) = P(Bin >= r) = 1 - cdf[r-1] decreases with r; largest feasible r
        rank = 0
        for r in range(1, n + 1):
            if 1.0 - cdf[r - 1] >= C:
                rank = r
            else:
                break
        if rank == 0:
            return SmcResult(verdict=INSUFFICIENT_DATA, n_used=n)
        coverage = 1.0 - cdf[rank - 1]
    else:
        # coverage(s) = cdf[s-1] increases with s; take the smallest feasible s
        rank = 0
        for s in range(1, n + 1):
            if cdf[s - 1] >= C:
                rank = s
                break
        if rank == 0:
            return SmcResult(verdict=INSUFFICIENT_DATA, n_used=n)
        coverage = cdf[rank - 1]
    return SmcResult(verdict=None, n_used=n, bound=xs[rank - 1], rank=rank, coverage=coverage)


def quantile_confidence_interval(samples: list[float], F: float, C: float) -> SmcResult:
    """Distribution-free two-sided confidence interval on the F-quantile.

    Chooses the order-statistic pair (r, s), r < s, with coverage
    P(r <= Bin(n, F) <= s-1) >= C, minimising the rank width s - r;
    ties are broken by centering the covered count window on n*F, then
    by the smaller r.
    """
    SmcConfig(F=F, C=C)  # range validation
    if not samples:
        raise EmptySamplesError("quantile interval needs at least one sample")
    n = len(samples)
    xs = sorted(samples)
    cdf = _binom_cdf_table(n, F)

    def coverage(r: int, s: int) -> float:
        # P(r <= Bin <= s-1) = cdf[s-1] - cdf[r-1]; ranks are 1-indexed
        return cdf[s - 1] - cdf[r - 1]

    # two-pointer sweep: for each r the smallest feasible s is non-decreasing
    best: tuple[int, float, int, int] | None = None  # (width, asymmetry, r, s)
    center = n * F
    s = 2
    for r in range(1, n + 1):
        if s <= r:
            s = r + 1
        while s <= n and coverage(r, s) < C:
            s += 1
        if s > n:
            break
        if coverage(r, s) >= C:
            width = s - r
            asym = abs((r + s - 1) / 2.0 - center)
            key = (width, asym, r, s)
            if best is None or key < best:
                best = key
    if best is None:
        raise InsufficientDataError(
            f"no rank pair reaches coverage {C} with n={n} at F={F}"
        )
    _, _, r, s = best
    return SmcResult(
        verdict=None,
        n_used=n,
        interval=(xs[r - 1], xs[s - 1]),
        ranks=(r, s),
        coverage=coverage(r, s),
    )
