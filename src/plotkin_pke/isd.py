"""Non-asymptotic cost models for information-set decoding (ISD).

Three estimators for the cost of finding a weight-w word in an [n, k]
code (syndrome decoding), each returning log2 of the expected work:

* ``prange``: plain information-set decoding; an iteration is one Gaussian
  elimination and succeeds iff the information set misses every error bit.
* ``stern``:  allow p errors in each half of the information set plus an
  ell-bit zero window, meet the halves in the middle; parameters (p, ell)
  are grid-optimized.  The model prices independent restarts, each with a
  full elimination.  The concrete ``stern.stern_search`` chains its
  restarts by a few column swaps each: that keeps the expected hits per
  restart but clusters them, so on a single target the restarts per find
  rise while the time to find holds.
* ``bjmm2``:  depth-2 representation technique: weight p over the k+ell
  window built from two weight p/2+eps halves, with the representation
  surplus filtered on r1 = floor(log2 #representations) bits; parameters
  (p, eps, ell) are grid-optimized.

Cost accounting, fixed package-wide: one unit per row-level operation
(producing a list element, or testing one colliding pair), and a Gaussian
elimination charged at (n-k)^2 * n.  Binomials are evaluated through
log-gamma, so instances with n in the tens of thousands cost microseconds.

``isd_cost`` checks the instance and runs one model.  ``work_factor``
turns the reports of one attack's instance into its work factor for the
scheme: the cheapest model the attack counts, with a DOOM divisor set.
Quasi-cyclic codes hand the attacker r shifted targets for key recovery
(divide by r) and sqrt(r) equivalent instances for message recovery
(divide by sqrt(r)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .scheme import SchemeParams

ALGORITHMS = ("prange", "stern", "bjmm2")

_LN2 = math.log(2.0)


def log2_binom(n: int, k: int) -> float:
    """log2 C(n, k) via lgamma; -inf outside the valid range."""
    if k < 0 or n < 0 or k > n:
        return -math.inf
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / _LN2


def _log2_sum(*terms: float) -> float:
    live = [t for t in terms if t != -math.inf]
    if not live:
        return -math.inf
    m = max(live)
    return m + math.log2(sum(2.0 ** (t - m) for t in live))


def _log2_gauss(n: int, k: int) -> float:
    return math.log2(float(n - k) ** 2 * n)


def _scan_window(cost_at, lmax: int) -> tuple[float, int]:
    """Minimize cost_at(l) over 0..lmax: coarse grid, then refine to step 1."""
    if lmax <= 512:
        candidates = range(lmax + 1)
    else:
        step = max(1, lmax // 256)
        coarse = min(range(0, lmax + 1, step), key=cost_at)
        lo = max(0, coarse - 2 * step)
        hi = min(lmax, coarse + 2 * step)
        candidates = range(lo, hi + 1)
    best_l = min(candidates, key=cost_at)
    return cost_at(best_l), best_l


def _prange_cost(n: int, k: int, w: int) -> tuple[float, dict]:
    # +inf when the w errors cannot all miss an information set
    iters = log2_binom(n, w) - log2_binom(n - k, w)
    return iters + _log2_gauss(n, k), {}


def _stern_cost(n: int, k: int, w: int) -> tuple[float, dict]:
    gauss = _log2_gauss(n, k)
    half_a, half_b = (k + 1) // 2, k // 2
    log_cnw = log2_binom(n, w)
    best = (math.inf, {})
    for p in range(0, min(w // 2, 12) + 1):
        l_list_a = log2_binom(half_a, p)
        l_list_b = log2_binom(half_b, p)

        def cost_at(l):
            succ = l_list_a + l_list_b + log2_binom(n - k - l, w - 2 * p) - log_cnw
            if succ == -math.inf:
                return math.inf
            per_iter = _log2_sum(gauss, _log2_sum(l_list_a, l_list_b), l_list_a + l_list_b - l)
            return per_iter - succ

        lmax = n - k - max(0, w - 2 * p)
        if lmax < 0:
            continue
        cost, l_opt = _scan_window(cost_at, lmax)
        if cost < best[0]:
            best = (cost, {"p": p, "l": l_opt})
    return best


def _bjmm2_cost(n: int, k: int, w: int) -> tuple[float, dict]:
    gauss = _log2_gauss(n, k)
    log_cnw = log2_binom(n, w)
    best = (math.inf, {})
    for p in range(0, min(w, 30) + 1, 2):
        for eps in range(0, 9):
            p1 = p // 2 + eps
            if p1 == 0 and p > 0:
                continue

            def filtered_bits(l):
                # r1 = floor(log2 #representations) capped to [0, l]; None if none
                reps = log2_binom(p, p // 2) + log2_binom(k + l - p, eps)
                return None if reps == -math.inf else max(0, min(int(reps), l))

            def cost_at(l):
                r1 = filtered_bits(l)  # also None when p1 > k + l
                if r1 is None:
                    return math.inf
                base = log2_binom(k + l, p1) / 2  # meet-in-the-middle halves
                merged = log2_binom(k + l, p1) - r1
                final = 2 * merged - (l - r1)
                succ = log2_binom(k + l, p) + log2_binom(n - k - l, w - p) - log_cnw
                if succ == -math.inf:
                    return math.inf
                per_iter = _log2_sum(gauss, 2 + base, 1 + merged, final)
                return per_iter - succ

            lmax = n - k - max(0, w - p)
            if lmax < 0:
                continue
            cost, l_opt = _scan_window(cost_at, lmax)
            if cost < best[0]:
                best = (cost, {"p": p, "eps": eps, "l": l_opt, "r1": filtered_bits(l_opt)})
    return best


_COST_FUNCTIONS = {
    "prange": _prange_cost,
    "stern": _stern_cost,
    "bjmm2": _bjmm2_cost,
}


@dataclass(frozen=True)
class IsdCostReport:
    algorithm: str
    n: int
    k: int
    w: int
    log2_cost: float  # raw model cost, before any quasi-cyclic speedup
    doom_divisor_log2: float = 0.0
    params: dict = field(default_factory=dict)

    @property
    def log2_work_factor(self) -> float:
        return self.log2_cost - self.doom_divisor_log2

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "k": self.k,
            "w": self.w,
            "log2WorkFactor": self.log2_work_factor,
            "params": self.params,
            "doomDivisorLog2": self.doom_divisor_log2,
        }


def isd_cost(algorithm: str, n: int, k: int, w: int) -> IsdCostReport:
    """Raw model cost of finding a weight-w word in an [n, k] code."""
    if algorithm not in _COST_FUNCTIONS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}")
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    if not 0 <= w <= n:
        raise ValueError("need 0 <= w <= n")
    cost, params = _COST_FUNCTIONS[algorithm](n, k, w)
    return IsdCostReport(algorithm=algorithm, n=n, k=k, w=w, log2_cost=cost, params=params)


# Per attack: the models whose cheapest report counts, and log2 of the
# quasi-cyclic (DOOM) divisor as a multiple of log2 r.  Every blockwise
# rotation of a dual row is another key-recovery target (divide by r); the
# rotated copies of one syndrome are sqrt(r) equivalent message-recovery
# instances (divide by sqrt(r)).
_ATTACKS = {
    "keyRecovery": (ALGORITHMS, 1.0),
    "messageRecovery": (("bjmm2",), 0.5),
}


def work_factor(attack: str, reports: dict[str, IsdCostReport], r: int) -> IsdCostReport:
    """The cheapest of the models ``attack`` counts among ``reports`` (the
    raw reports of its instance, by algorithm), with its DOOM divisor."""
    models, exponent = _ATTACKS[attack]
    best = min((reports[alg] for alg in models), key=lambda rep: rep.log2_cost)
    return replace(best, doom_divisor_log2=exponent * math.log2(r))


def keyrec_workfactor(params: SchemeParams) -> IsdCostReport:
    """Cheapest of the three models for finding one weight-w2 dual row."""
    reports = {alg: isd_cost(alg, params.n, params.k, params.w2) for alg in ALGORITHMS}
    return work_factor("keyRecovery", reports, params.r)


def msgrec_workfactor(params: SchemeParams) -> IsdCostReport:
    """Depth-2 representation ISD on the weight-t1 decoding instance."""
    report = isd_cost("bjmm2", params.n, params.k, params.t1)
    return work_factor("messageRecovery", {"bjmm2": report}, params.r)
