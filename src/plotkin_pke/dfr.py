"""Decoding failure rates (DFR) of the bit-flipping decoders, by Monte Carlo.

Every trial draws a fresh code and a fresh weight-t error.  Estimates carry
exact Clopper-Pearson 95% intervals, and a scan picks the largest error weight
meeting a target DFR.  The interval ends are beta quantiles, found in pure
Python: the regularized incomplete beta function by its continued fraction
(Lentz's method, Numerical Recipes 6.4), inverted by Newton steps kept inside
a bisection bracket.  A trial decodes the error alone rather than codeword +
error: every decoder decision depends only on the syndrome, and
H (c + e)^T = H e^T, so both words take the same steps and fail together.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from math import comb, exp, inf, lgamma, log, log1p, sqrt

from .bitflip import DecoderConfig, decode
from .gf2 import sample_fixed_weight
from .qc import QcParams, sample_parity_check
from .rng import RandomStream, derive_substream_seed, substream


class SelectionError(ValueError):
    """No error weight t >= 1 meets the requested DFR target."""


# Up to this smaller beta argument log B comes from an exact binomial.  Past
# it math.comb takes over 0.4 ms and lgamma takes over.  Its rounding, about
# 3e-9 absolute at a + b = 10**6, moves a quantile by roughly that over
# sqrt(min(a, b)) relative: under 1e-10.
_EXACT_BETA_MAX = 1000
_TINY = 1e-300  # Lentz's guard against a zero denominator


def _log_beta(a: int, b: int) -> float:
    """log B(a, b) for integers a, b >= 1: B(a, b) = 1 / ((a+b-1) C(a+b-2, a-1))."""
    if min(a, b) <= _EXACT_BETA_MAX:
        return -log((a + b - 1) * comb(a + b - 2, a - 1))
    return lgamma(a) + lgamma(b) - lgamma(a + b)


def _beta_cf(a: int, b: int, x: float) -> float:
    """Continued fraction of I_x(a, b) by Lentz's method; converges fast for
    x < (a + 1) / (a + b + 2), in O(sqrt(max(a, b))) terms at worst."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h, m, delta = d, 0, 0.0
    while abs(delta - 1.0) > 1e-15:
        m += 1
        m2 = a + 2 * m
        for aa in (m * (b - m) * x / ((m2 - 1) * m2), -(a + m) * (a + b + m) * x / (m2 * (m2 + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            delta = c * d
            h *= delta
    return h


def _beta_cdf(x: float, a: int, b: int, log_beta: float) -> float:
    """Regularized incomplete beta function I_x(a, b), 0 < x < 1."""
    front = exp(a * log(x) + b * log1p(-x) - log_beta)
    if x * (a + b + 2) < a + 1:
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b  # I_x(a, b) = 1 - I_{1-x}(b, a)


def _beta_ppf(p: float, a: int, b: int) -> float:
    """The x with I_x(a, b) = p.

    Starts from the Numerical Recipes 6.4 normal-approximation guess (valid
    for a, b >= 1) and takes Newton steps on I_x - p, each kept inside the
    bracket [lo, hi] the evaluations so far have established; a step that
    leaves it, or meets an underflowed density, bisects instead.  Stops once
    a Newton step or the bracket is below 1e-12 of x.
    """
    log_beta = _log_beta(a, b)
    t = sqrt(-2.0 * log(min(p, 1.0 - p)))
    z = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
    z = -z if p < 0.5 else z
    al, h = (z * z - 3.0) / 6.0, 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = z * sqrt(al + h) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x = a / (a + b * exp(2.0 * w))
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12 * x:
        f = _beta_cdf(x, a, b, log_beta) - p
        lo, hi = (x, hi) if f < 0 else (lo, x)
        density = exp((a - 1) * log(x) + (b - 1) * log1p(-x) - log_beta)
        step = f / density if density else inf
        if abs(step) <= 1e-12 * x:
            return x - step
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x


def clopper_pearson(failures: int, trials: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval for a failure count."""
    if not 0 <= failures <= trials or trials < 1:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    alpha = 1.0 - 0.95  # not the float 0.05, which differs in the last bit
    lo = 0.0 if failures == 0 else _beta_ppf(alpha / 2, failures, trials - failures + 1)
    hi = 1.0 if failures == trials else _beta_ppf(1 - alpha / 2, failures + 1, trials - failures)
    return lo, hi


def _camel_dict(report) -> dict:
    """A report's JSON record: its fields in order, keyed in camelCase, with
    a nested dataclass (the code's ``QcParams``) as such a record too."""
    out = {}
    for f in fields(report):
        head, *rest = f.name.split("_")
        value = getattr(report, f.name)
        out[head + "".join(map(str.capitalize, rest))] = (
            _camel_dict(value) if is_dataclass(value) else value)
    return out


@dataclass(frozen=True)
class DfrReport:
    params: QcParams
    t: int
    variant: str
    trials: int
    failures: int
    dfr: float
    ci_low: float
    ci_high: float
    seed: str

    def to_dict(self) -> dict:
        return _camel_dict(self)

    def to_json(self) -> str:
        """Single-line JSON record."""
        return json.dumps(self.to_dict(), separators=(",", ":"))


def _dfr_trial(params: QcParams, t: int, cfg: DecoderConfig, stream: RandomStream) -> bool:
    """One Monte-Carlo trial; True on decoding failure.

    Decodes the error e alone (see the module docstring).  A "failure" is
    anything other than recovering e, so a miscorrection (valid but wrong
    codeword) also counts.
    """
    h = sample_parity_check(stream, params)
    stream.take_bits(params.k)  # the unused message: keeps later draws in place
    error = sample_fixed_weight(stream, params.n, t)
    outcome = decode(h, error, cfg)
    return not (outcome.success and outcome.error_vector == error)


def _dfr_range(trial, seed: bytes, lo: int, hi: int, stop_at: int | None = None) -> int:
    """Failures over trials lo..hi-1, trial i being the picklable ``trial``
    run on substream(seed, i), True on a failure; stops at stop_at failures."""
    failures = 0
    for i in range(lo, hi):
        failures += trial(substream(seed, i))
        if failures == stop_at:
            break
    return failures


def estimate_dfr(params: QcParams, t: int, cfg: DecoderConfig, trials: int,
                 rng: RandomStream, workers: int = 1) -> DfrReport:
    """Monte-Carlo DFR estimate with a 95% Clopper-Pearson interval.

    Trial i draws everything from the independent substream
    derive(seed, i) of the master seed, so the report is bit-for-bit
    reproducible and does not depend on how trials are split across
    workers.  Worker results are merged in worker order.  ``workers`` must
    be positive and is capped at the trial count and the CPU count.
    """
    if not 0 <= t <= params.n:
        raise ValueError(f"t must lie in [0, n], here [0, {params.n}]")
    if trials < 1:
        raise ValueError("trials must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    workers = min(workers, trials, os.cpu_count() or 1)
    seed = rng.seed
    job = partial(_dfr_range, partial(_dfr_trial, params, t, cfg), seed)
    if workers <= 1:
        failures = job(0, trials)
    else:
        from concurrent.futures import ProcessPoolExecutor  # here: a costly import

        bounds = [trials * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            failures = sum(pool.map(job, bounds[:-1], bounds[1:]))
    ci_low, ci_high = clopper_pearson(failures, trials)
    return DfrReport(
        params=params,
        t=t,
        variant=cfg.variant,
        trials=trials,
        failures=failures,
        dfr=failures / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed.hex(),
    )


def select_t_for_dfr(params: QcParams, target_dfr: float, budget: int,
                     cfg: DecoderConfig, rng: RandomStream) -> int:
    """Largest error weight whose measured DFR upper bound meets the target.

    An error weight qualifies when the 95% Clopper-Pearson upper bound on
    its DFR over ``budget`` trials is <= target_dfr.  The scan doubles t
    upward, keeping lo, the last power of two that qualified, until a
    weight disqualifies or passes n (the upper bracket hi).  It then walks
    down from min(hi - 1, n) to lo + 1 and returns the first qualifying
    weight, or lo if none does, so each weight is measured at most once.
    Measurements abort early once the accumulated failures already push
    the final upper bound past the target, which keeps clearly-bad weights
    cheap.

    Trials for weight t use substreams of derive(seed, t), so measurements
    for a given (seed, t, budget) are identical across calls; with a shared
    seed the returned weight is monotone in target_dfr.

    Raises SelectionError when not even t = 1 qualifies.
    """
    if not 0.0 < target_dfr <= 1.0:
        raise ValueError("target_dfr must lie in (0, 1]")
    if budget < 10.0 / target_dfr:
        raise ValueError("budget too small to resolve target_dfr (need >= 10/target)")
    seed = rng.seed
    # the fewest failures whose upper bound exceeds the target; the bound
    # grows with the failure count, so a weight qualifies iff its trials
    # stay below this (budget + 1: nothing disqualifies)
    stop_at = 1 + bisect_right(range(1, budget + 1), target_dfr,
                               key=lambda f: clopper_pearson(f, budget)[1])

    def qualifies(t: int) -> bool:
        trial = partial(_dfr_trial, params, t, cfg)
        return _dfr_range(trial, derive_substream_seed(seed, t), 0, budget, stop_at) < stop_at

    n = params.n
    lo, hi = 0, 1
    while hi <= n and qualifies(hi):
        lo, hi = hi, 2 * hi
    for t in range(min(hi - 1, n), lo, -1):
        if qualifies(t):
            return t
    if lo:
        return lo
    raise SelectionError(
        f"no error weight t >= 1 meets target {target_dfr:g} within {budget} trials")
