"""Bit-flipping decoders for quasi-cyclic codes, plus a DFR laboratory.

Decoding works on the unsatisfied-parity-check (upc) counts.  The decoder
tracks an error estimate e; with s = H (y + e)^T the syndrome of the received
word y corrected by e, bit j sits in colWeight checks and upc[j] of them are
unsatisfied.  Bits whose count clears a threshold get flipped in e, and s
moves by the flipped bits' own syndrome (H is linear).  Two variants:

* ``classic-bf``: flip all selected bits simultaneously each iteration.
* ``backflip``:   same selection, but every flip carries a time-to-live;
                  when the ttl runs out while the bit's checks are still
                  partly unsatisfied, the flip is undone.  Bad flips thus
                  heal instead of cascading, which lets the decoder run many
                  more iterations productively.

Threshold rules: ``majority`` (ceil((colWeight+1)/2), per block) and
``max-upc-delta`` (flip everything within delta of the current maximum count).

Failure is reported in-band through ``DecodeOutcome.success``; decoding is
fully deterministic given (H, y, config).

The second half of the module estimates decoding failure rates (DFR) by
Monte Carlo: fresh code and fresh weight-t error per trial, with exact
Clopper-Pearson 95% intervals, and a scan that picks the largest error
weight meeting a target DFR.  A trial decodes the error alone rather than
codeword + error: every decision above depends only on the syndrome, and
H (c + e)^T = H e^T, so both words take the same steps and fail together.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
from scipy.stats import beta as _beta

from .gf2 import BitVector, _block_dot, sample_fixed_weight
from .qc import QcParams, QcParityCheck, _transposed_rows, sample_parity_check, syndrome
from .rng import RandomStream, derive_substream_seed, substream

VARIANTS = ("classic-bf", "backflip")
THRESHOLD_RULES = ("majority", "max-upc-delta")
# Backflip ttl cap and slope numerator.  8 rather than the conventional 5:
# with the majority threshold the ttl slope TTL_SATURATION/colWeight needs
# the larger numerator, or expiry churn swamps convergence right where the
# mdpc decoder has to work (measured at r=523, w=30: t=18 fails 6.5% with 5,
# 0.1% with 8)
TTL_SATURATION = 8


class SelectionError(ValueError):
    """No error weight t >= 1 meets the requested DFR target."""


@dataclass(frozen=True)
class DecoderConfig:
    variant: str = "classic-bf"
    threshold: str = "majority"
    max_iters: int = 50
    delta: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.threshold not in THRESHOLD_RULES:
            raise ValueError(f"threshold must be one of {THRESHOLD_RULES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def classic_bf_config(threshold: str = "majority", max_iters: int = 50, **kw) -> DecoderConfig:
    return DecoderConfig(variant="classic-bf", threshold=threshold, max_iters=max_iters, **kw)


def backflip_config(threshold: str = "majority", max_iters: int = 100, **kw) -> DecoderConfig:
    return DecoderConfig(variant="backflip", threshold=threshold, max_iters=max_iters, **kw)


@dataclass(frozen=True)
class DecodeOutcome:
    success: bool
    iterations: int
    codeword: BitVector | None
    error_vector: BitVector | None


def _upc(s: int, supports: list[tuple[int, ...]], r: int) -> np.ndarray:
    """upc count of every bit from syndrome s and the row supports of H.

    Bit j of block i sits in the checks (j - u) mod r, u in supp(h_i), so
    its count adds one slice of the doubled syndrome s2 = [s | s] per u,
    where s2[r - u + j] == s[(j - u) mod r].  An empty block counts 0.
    """
    raw = (s | (s << r)).to_bytes((2 * r + 7) // 8, "little")
    s2 = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    s2 = s2[:2 * r].astype(np.int32)
    upc = np.zeros((len(supports), r), dtype=np.int32)
    for acc, supp in zip(upc, supports):
        for u in supp:
            acc += s2[r - u:2 * r - u]
    return upc.ravel()


def upc_profile(h: QcParityCheck, word: BitVector) -> np.ndarray:
    """Unsatisfied-check count for every bit position, as an int array."""
    return _upc(syndrome(h, word).value, [b.row0.support() for b in h.blocks], h.params.r)


def decode(h: QcParityCheck, word: BitVector, cfg: DecoderConfig) -> DecodeOutcome:
    """Deterministic bit-flipping decode of ``word`` against parity check ``h``:
    the state is the error estimate e, one packed n-bit int, and the syndrome
    s of word + e, which every flip moves by the flipped bits' own syndrome."""
    r, n = h.params.r, h.params.n
    h_t_rows = _transposed_rows(h)
    supports = [b.row0.support() for b in h.blocks]
    col_weights = np.repeat(h.block_weights, r).astype(np.int32)
    majority = (col_weights + 2) // 2  # ceil((colWeight + 1) / 2)
    s = syndrome(h, word).value
    e = 0

    def toggle(positions: np.ndarray) -> bool:
        """Flip all selected bits of e at once; True once s is zero."""
        nonlocal e, s
        bitmap = np.zeros(n, dtype=np.uint8)
        bitmap[positions] = 1
        delta = int.from_bytes(np.packbits(bitmap, bitorder="little").tobytes(), "little")
        e ^= delta
        s ^= _block_dot(delta, h_t_rows, r)
        return s == 0

    def success(iterations: int) -> DecodeOutcome:
        error = BitVector(n, e)
        return DecodeOutcome(True, iterations, word ^ error, error)

    if s == 0:
        return success(0)

    backflip = cfg.variant == "backflip"
    ttl = np.zeros(n, dtype=np.int32) if backflip else None  # 0 = not pending
    for iteration in range(1, cfg.max_iters + 1):
        upc = _upc(s, supports, r)
        has_pending = backflip and bool(ttl.any())
        if has_pending:
            active = ttl > 0
            ttl[active] -= 1
            # expired, and its support still unsatisfied
            undo = np.nonzero(active & (ttl == 0) & (upc > 0))[0]
            if undo.size:
                if toggle(undo):
                    return success(iteration)
                upc = _upc(s, supports, r)
            has_pending = bool(ttl.any())

        if cfg.threshold == "majority":
            thresholds = majority
        else:  # max-upc-delta; clamp so zero-count bits never qualify
            thresholds = max(int(upc.max()) - cfg.delta, 1)
        flips = np.nonzero(upc >= thresholds)[0]

        if flips.size == 0 and not has_pending:
            return DecodeOutcome(False, iteration, None, None)  # stalled: nothing can change

        if flips.size:
            if backflip:
                fresh = flips[ttl[flips] == 0]  # the rest: undo a pending flip early
                margin = (upc - thresholds)[fresh]
                ttl[flips] = 0
                ttl[fresh] = np.minimum(
                    TTL_SATURATION, 1 + (margin * TTL_SATURATION) // col_weights[fresh],
                )
            if toggle(flips):
                return success(iteration)

    return DecodeOutcome(False, cfg.max_iters, None, None)


# ---------------------------------------------------------------------------
# DFR estimation


def clopper_pearson(failures: int, trials: int) -> tuple[float, float]:
    """Exact 95% binomial confidence interval for a failure count."""
    if not 0 <= failures <= trials or trials < 1:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    alpha = 1.0 - 0.95  # not the float 0.05, which differs in the last bit
    lo = 0.0 if failures == 0 else float(_beta.ppf(alpha / 2, failures, trials - failures + 1))
    hi = 1.0 if failures == trials else float(_beta.ppf(1 - alpha / 2, failures + 1, trials - failures))
    return lo, hi


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
        return {
            "params": {
                "n0": self.params.n0,
                "r": self.params.r,
                "w": self.params.w,
                "flavor": self.params.flavor,
            },
            "t": self.t,
            "variant": self.variant,
            "trials": self.trials,
            "failures": self.failures,
            "dfr": self.dfr,
            "ciLow": self.ci_low,
            "ciHigh": self.ci_high,
            "seed": self.seed,
        }

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


def _dfr_range(params: QcParams, t: int, cfg: DecoderConfig, seed: bytes,
               lo: int, hi: int, stop_at: int | None = None) -> int:
    """Failures over trials lo..hi-1; stops early once they reach stop_at."""
    failures = 0
    for i in range(lo, hi):
        failures += _dfr_trial(params, t, cfg, substream(seed, i))
        if failures == stop_at:
            break
    return failures


def estimate_dfr(params: QcParams, t: int, cfg: DecoderConfig, trials: int,
                 rng: RandomStream, workers: int = 1) -> DfrReport:
    """Monte-Carlo DFR estimate with a 95% Clopper-Pearson interval.

    Trial i draws everything from the independent substream
    derive(seed, i) of the master seed, so the report is bit-for-bit
    reproducible and does not depend on how trials are split across
    workers.  Worker results are merged in worker order.  ``workers`` is
    capped at the trial count and the CPU count.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    workers = min(workers, trials, os.cpu_count() or 1)
    seed = rng.seed
    job = partial(_dfr_range, params, t, cfg, seed)
    if workers <= 1:
        failures = job(0, trials)
    else:
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
        t_seed = derive_substream_seed(seed, t)
        return _dfr_range(params, t, cfg, t_seed, 0, budget, stop_at) < stop_at

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
