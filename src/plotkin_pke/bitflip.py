"""Bit-flipping decoders for quasi-cyclic codes.

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

Threshold rules, each chosen once per decode:

* ``majority``:      ceil((colWeight+1)/2), per block, the same every pass.
* ``max-upc-delta``: flip everything within delta of the current maximum
                     count, per lane and pass.
* ``syndrome``:      the threshold of Sendrier and Vasseur, "On the decoding
                     failure rate of QC-MDPC bit-flipping decoders" (PQCrypto
                     2019), as the BIKE specification computes it: per lane,
                     pass and block, from the syndrome weight |s|, the block's
                     column weight d and the design error weight t carried
                     on the config (``_syndrome_threshold``).  With classic-bf
                     it decodes both stages of every full-size preset
                     (``scheme.stage_decoder_config``): a cca128 mdpc decode
                     takes 2-3 passes where backflip takes 3-6, and over
                     ``estimate_dfr`` at seed 5a..5a the cca128 ldpc stage
                     failed 3 of 20 000 trials against classic-bf majority's
                     124.  At the lab's r = 101 it loses to backflip.

Failure is reported in-band through ``DecodeOutcome.success``; decoding is
fully deterministic given (H, y, config).

All decoder state is packed ints, and an iteration calls no numpy: e is an
n-bit int, s an r-bit int, the upc counts are bit planes (bit j of plane k
is bit k of the count at position j), and backflip's ttl is an expiry
schedule, one int per coming pass holding the flips due then.  The counts
are summed bit-sliced over rotations of s (Drucker-Gueron, "A toolbox for
software optimization of QC-MDPC code-based cryptosystems", J. Cryptogr.
Eng. 2019).  The rotations follow a plan built once per parity check, on
its first decode, and kept on it (``_count_plan``, ``_kept_plan``); a
decode builds only its lanes' masks.  Count word m ORs the m-th rotation
into every block, and a bit's count is the number of words holding it.  A
carry-save tree sums the words into planes: each full adder takes three
words and returns a sum and a carry, a fixed five word operations.  It is
carry-save rather than a ripple counter because at large r some bit
carries on every add, so a ripple counter walks every plane each time: at
r = 11779 and block weight 71, on a 2-vCPU x86 machine, it took 363 us per
count against 207 us for the tree.  The tree runs once per pass.
Backflip's undo test needs only "count > 0", which is the OR of the words,
so a pass that undoes flips builds the words again for the moved syndrome
and sums only those.
Thresholds become a bit-sliced ``count >= bound`` comparator, the maximum
count a scan from the top plane down, and the flip set an int.  A flip or
undo moves s by its product with the rows of H^T, whose supports the plan's
walk also reads: a block of flips heavier than its row is shifted by each
index of the row's support, and a lighter one is walked by its own bits
(``gf2._block_dot``).

``decode_many`` decodes several words against one H in a single pass, one
word per lane: word l's e, flips, upc planes and expiry slots take bits
l n to l n + n - 1 of the same ints, and its syndrome bit l n up.  As
n >= 2r, a lane's doubled syndrome s | s << r stays inside the lane, so
the rotations, the carry-save tree, the comparators and the ttl logic run on
all lanes at once, unchanged.  At r = 101 an iteration is mostly
interpreter overhead on ints of a few hundred bits, so a second lane
costs little.  Only three things are per lane: the r-bit block masks of
the upc rotations and of the syndrome fold (``gf2._block_dot``); the stop
test at the top of every iteration, where a lane whose syndrome is zero or
that stalls leaves the pass and takes no more flips; and the thresholds of
the per-pass rules, from max-upc-delta's maximum count or the syndrome
rule's |s|.  The outcomes are built from e once, after the pass.
``decode`` is the one-lane case.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, comb, log
from typing import NamedTuple, Sequence

import numpy as np

from .gf2 import BitVector, _block_dot
from .qc import QcParityCheck, syndrome

VARIANTS = ("classic-bf", "backflip")
THRESHOLD_RULES = ("majority", "max-upc-delta", "syndrome")
# Backflip ttl cap and slope numerator.  8 rather than the conventional 5:
# with the majority threshold the ttl slope TTL_SATURATION/colWeight needs
# the larger numerator, or expiry churn swamps convergence right where the
# mdpc decoder has to work (measured at r=523, w=30: t=18 fails 6.5% with 5,
# 0.1% with 8)
TTL_SATURATION = 8


@dataclass(frozen=True)
class DecoderConfig:
    variant: str = "classic-bf"
    threshold: str = "majority"
    max_iters: int = 50
    delta: int = 0
    t: int = 0  # the design error weight the syndrome rule is computed for; unused by the others

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.threshold not in THRESHOLD_RULES:
            raise ValueError(f"threshold must be one of {THRESHOLD_RULES}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.threshold == "syndrome" and self.t < 1:
            raise ValueError("the syndrome rule needs a design error weight t >= 1")


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


class _CountPlan(NamedTuple):
    """What a decode reads of H whatever its lanes: built once per parity
    check (``_count_plan``) and kept on it (``_kept_plan``)."""

    r: int
    weights: tuple[int, ...]  # the column weight of each block
    # per count word that block 1 reaches: the right shift onto block 0 and
    # the left shift onto block 1
    pairs: list[tuple[int, int]]
    heads: list[int]  # the right shifts onto block 0 of the words past block 1's
    others: list[list[int]]  # left shifts onto block i, i >= 2
    h_t_rows: list[int]  # first row of each H_i^T, packed
    h_t_supports: list[list[int]]  # their supports, r standing for 0


def _count_plan(h: QcParityCheck) -> _CountPlan:
    """The rotations of the upc count and the rows of H^T with their
    supports: everything a decode reads of H but its lanes' masks.

    Row i of H^T has support t = r - u mod r, u in supp(h_i) (the syndrome
    fold takes x^r to 1).  Bit j of block i sits in the checks j + t mod r,
    so its count adds one rotation of s per t: bits t to t + r - 1 of the
    doubled syndrome s2 = s | s << r, moved onto block i, that is shifted
    right by t (block 0) or left by i r - t (the other blocks) and masked
    to the block.  The plan holds those shifts, so no shift is left to work
    out per pass, and ``_block_masks`` the masks.  There are as many count
    words as the heaviest block has rotations, and word m takes the m-th
    rotation of every block (see ``_count_words``).  Block 0 is padded to
    that many by a right shift past every lane, which gives 0.  The packed
    rows of H^T are those ``qc.syndrome`` reads (``QcParityCheck._h_t_rows``);
    the syndrome updates walk their supports (``gf2._block_dot``).
    """
    r = h.params.r
    h_t_supports = [[r - u for u in block.row0.support()] for block in h.blocks]
    weights = tuple(map(len, h_t_supports))
    heads = h_t_supports[0] + [sys.maxsize] * (max(weights) - weights[0])
    pairs = [*zip(heads, [r - t for t in h_t_supports[1]])]
    others = [[i * r - t for t in t_supp] for i, t_supp in enumerate(h_t_supports[2:], 2)]
    return _CountPlan(r, weights, pairs, heads[len(pairs):], others, h._h_t_rows, h_t_supports)


def _kept_plan(h: QcParityCheck) -> _CountPlan:
    """h's ``_count_plan``, built on the first decode against h and kept in
    h's own dict as a ``cached_property`` keeps its value, so it lives as
    long as h; ``QcParityCheck`` leaves it out of equality, hashing and
    pickles."""
    kept = vars(h)
    plan = kept.get("_count_plan")
    if plan is None:
        plan = kept["_count_plan"] = _count_plan(h)
    return plan


_BlockMasks = tuple[int, int, list[tuple[int, list[int]]]]


def _block_masks(plan: _CountPlan, blocks: int) -> _BlockMasks:
    """The masks of a pass's count words: block 0's, the r-bit mask at the
    foot of every lane (``blocks``, see the module docstring), block 1's,
    and each later block's with its ``_count_plan`` shifts, block i's mask
    being ``blocks`` shifted up by i r.  A lane is n >= 2r bits wide, so no
    rotation reaches the next."""
    r = plan.r
    others = [(blocks << i * r, shifts) for i, shifts in enumerate(plan.others, 2)]
    return blocks, blocks << r, others


def _count_words(s: int, plan: _CountPlan, masks: _BlockMasks) -> list[int]:
    """The count words of syndrome s: word m ORs the m-th ``_count_plan``
    rotation of every block, masked by its ``_block_masks``.  Each bit's upc
    count is the number of words holding it, and the bits whose count is
    nonzero are the OR of the words."""
    s2 = s | s << plan.r
    blocks, mask, others = masks
    words = [s2 >> a & blocks | s2 << b & mask for a, b in plan.pairs]
    if plan.heads:
        words += [s2 >> a & blocks for a in plan.heads]
    for mask, shifts in others:
        words[:len(shifts)] = [word | s2 << shift & mask for word, shift in zip(words, shifts)]
    return words


def _carry_save(words: list[int]) -> list[int]:
    """The upc counts as bit planes, bit j of plane k being bit k of the
    count at position j, summed from the count words by a carry-save tree:
    each full adder takes three words and returns a sum and a carry."""
    planes = []
    while words:  # every word weighs 2 ** len(planes)
        total, carries = words[0], []
        i, last = 1, len(words) - 1
        while i < last:  # full adder: sum stays, carry moves up
            a, b = words[i], words[i + 1]
            x = total ^ a
            carries.append((total & a) | (x & b))
            total = x ^ b
            i += 2
        if i == last:  # half adder for the last word
            carries.append(total & words[last])
            total ^= words[last]
        planes.append(total)
        words = carries
    return planes


def _spread(values: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Bit planes of one value per block: bit j of plane k is bit k of
    values[j // r]."""
    mask = (1 << r) - 1
    return tuple(sum(mask << i * r for i, v in enumerate(values) if v >> k & 1)
                 for k in range(max(values).bit_length()))


def _at_least(planes: list[int], bounds: tuple[int, ...], within: int) -> int:
    """Bit-sliced comparator: the bits of ``within`` whose count is at least
    their bound, both given as bit planes.  It scans from the top plane
    down, keeping the bits already greater (gt) and those equal so far (eq).
    Above the shorter side's top plane that side is 0, so those planes come
    first and take one operation each: a count plane only adds the bits of
    eq it holds to gt (eq need not drop them, as a bit of gt is in the
    result whatever eq holds), and a bound plane only clears its bits from
    eq.  No ``~``: on a long int that costs a two's-complement round trip."""
    gt, eq = 0, within
    i, k = len(planes), len(bounds)
    while i > k:
        i -= 1
        gt |= eq & planes[i]
    while k > i:
        k -= 1
        eq ^= eq & bounds[k]
    while i:
        i -= 1
        c = planes[i]
        differ = eq & (c ^ bounds[i])
        gt |= differ & c
        eq ^= differ
    return gt | eq


def _max_count(planes: list[int], within: int) -> int:
    """Largest count among the bits of ``within``, read top plane down: keep
    the bits that have each bit."""
    alive, top = within, 0
    for k in reversed(range(len(planes))):
        if alive & planes[k]:
            alive &= planes[k]
            top |= 1 << k
    return top


def _any(planes: list[int]) -> int:
    """The bits whose count is nonzero: the OR of its bit planes, or as
    well of its count words."""
    out = 0
    for p in planes:
        out |= p
    return out


def _level_bounds(thresholds: tuple[int, ...], weights: tuple[int, ...], r: int,
                  levels: int) -> tuple[tuple[int, ...], ...]:
    """Bit planes of the least count whose flip gets ttl >= v, for v = 1..levels.

    A fresh flip of count c over threshold t, in a block of column weight
    cw, gets ttl = min(TTL_SATURATION, 1 + (c - t) * TTL_SATURATION // cw),
    which is at least v exactly where c >= t + ceil((v - 1) cw / TTL_SATURATION).
    The bound for v = 1 is the threshold itself.
    """
    return tuple(_spread(tuple(t + -(-(v - 1) * w // TTL_SATURATION)
                               for t, w in zip(thresholds, weights)), r)
                 for v in range(1, levels + 1))


# ``_level_bounds`` memoized for the rules whose thresholds recur from pass to
# pass and decode to decode: majority's, and max-upc-delta's few tops.  Tuples
# keep a shared entry from changing.  The syndrome rule's thresholds move with
# |s|, so it calls ``_level_bounds`` itself and evicts nothing here.
_ttl_bounds = lru_cache(maxsize=8)(_level_bounds)


@lru_cache(maxsize=32)
def _syndrome_x(r: int, w: int, n: int, t: int) -> float:
    """Sendrier-Vasseur's X = sum over odd l of (l - 1) r C(w, l) C(n - w, t - l) / C(n, t),
    exactly: the expected number of error bits an unsatisfied check holds
    beyond its first, summed over the r checks of a length-n code of row
    weight w, for a uniform error of weight t (the l = 1 term is 0)."""
    total = sum((l - 1) * comb(w, l) * comb(n - w, t - l) for l in range(3, min(w, t) + 1, 2))
    return r * total / comb(n, t)


def _syndrome_threshold(weight: int, d: int, w: int, n: int, t: int, x: float) -> int:
    """The syndrome rule's threshold for a block of column weight d, given the
    syndrome weight |s| = ``weight`` of a word with t errors on a length-n code
    of row weight w, and X = ``_syndrome_x``.

    An error bit's checks are each unsatisfied with probability
    pi1 = (|s| + X) / (t d), a correct bit's with pi0 = ((w - 1)|s| - X) / ((n - t) d).
    T is the least count at which a bit is likelier in error than not:
    T = ceil((log((n - t)/t) + d L) / (log(pi1/pi0) + L)), L = log((1 - pi0)/(1 - pi1)).
    T is floored at the majority bound ceil((d + 1)/2) and capped at d.  Out
    of range the formula's own limits stand in: the floor where pi0 <= 0 (a
    small |s|), the cap where pi1 >= 1 or pi1 <= pi0 (a large one), so T
    never falls as |s| grows.
    """
    floor = (d + 2) // 2
    if (w - 1) * weight <= x:  # pi0 <= 0
        return floor
    if weight + x >= t * d:  # pi1 >= 1; also where d = 0, whose block never flips
        return max(d, floor)
    pi1, pi0 = (weight + x) / (t * d), ((w - 1) * weight - x) / ((n - t) * d)
    if pi1 <= pi0:
        return d
    odds = log((1 - pi0) / (1 - pi1))
    return max(floor, min(d, ceil((log((n - t) / t) + d * odds) / (log(pi1 / pi0) + odds))))


def _threshold_rule(cfg: DecoderConfig, plan: _CountPlan, n: int, masks: list[int],
                    levels: int):
    """cfg's threshold rule, chosen once per decode: the ``_level_bounds`` of a
    rule the same every pass and None, or None and the function giving a
    pass's bounds from its upc planes, syndrome s and running lanes."""
    r, weights = plan.r, plan.weights
    lane_weights = weights * len(masks)
    if cfg.threshold == "majority":  # ceil((colWeight + 1) / 2), the same every pass
        return _ttl_bounds(tuple((w + 2) // 2 for w in weights) * len(masks), lane_weights,
                           r, levels), None
    if cfg.threshold == "max-upc-delta":
        def per_pass(upc: list[int], s: int, within: int):
            # per lane; clamp so zero-count bits never qualify; an ended lane counts 0 here
            tops = (max(_max_count(upc, within & bits) - cfg.delta, 1) for bits in masks)
            return _ttl_bounds(tuple(top for top in tops for _ in weights), lane_weights,
                               r, levels)
        return None, per_pass
    w, t = sum(weights), cfg.t
    if t >= n:
        raise ValueError("the design error weight t must be below the code length")
    x = _syndrome_x(r, w, n, t)

    def per_pass(upc: list[int], s: int, within: int):  # per lane and block, from |s|
        return _level_bounds(tuple(_syndrome_threshold((s & bits).bit_count(), d, w, n, t, x)
                                   for bits in masks for d in weights), lane_weights, r, levels)
    return None, per_pass


def _ttl_levels(upc: list[int], bounds: tuple[tuple[int, ...], ...], fresh: int,
                expiry: list[int], done: int) -> None:
    """Put the fresh flips of pass ``done`` into their ``expiry`` slots, a
    flip of ttl v into slot (done + v) % TTL_SATURATION.  One comparator per
    level reached gives the flips of ttl >= v + 1 from those of ttl >= v and
    the ``_ttl_bounds`` of level v + 1; level v is the difference, ORed into
    its slot as it is found."""
    ge, v = fresh, 1
    while ge:
        above = _at_least(upc, bounds[v], ge) if v < TTL_SATURATION else 0
        expiry[(done + v) % TTL_SATURATION] |= ge ^ above
        ge, v = above, v + 1


def upc_profile(h: QcParityCheck, word: BitVector) -> np.ndarray:
    """Unsatisfied-check count for every bit position, as an int array."""
    n, r = h.params.n, h.params.r
    plan, s = _kept_plan(h), syndrome(h, word).value
    planes = _carry_save(_count_words(s, plan, _block_masks(plan, (1 << r) - 1)))
    upc = np.zeros(n, dtype=np.int32)
    for k, plane in enumerate(planes):
        raw = np.frombuffer(plane.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
        upc += np.unpackbits(raw, count=n, bitorder="little").astype(np.int32) << k
    return upc


def decode(h: QcParityCheck, word: BitVector, cfg: DecoderConfig) -> DecodeOutcome:
    """Deterministic bit-flipping decode of ``word`` against parity check ``h``:
    ``decode_many`` with one lane."""
    return decode_many(h, (word,), cfg)[0]


def decode_many(h: QcParityCheck, words: Sequence[BitVector],
                cfg: DecoderConfig) -> tuple[DecodeOutcome, ...]:
    """Decode several words against one parity check in a single pass.

    Word l takes lane l, bits l n to l n + n - 1 of every packed int (see the
    module docstring): the error estimate e, the syndrome s of word + e,
    which every flip moves by the flipped bits' own syndrome, the upc
    counts as bit planes, and backflip's expiry schedule.  One stop test,
    at the top of every iteration, ends a lane whose syndrome is zero or
    that stalls; a lane still running after ``max_iters`` iterations
    fails.  Outcome l, built from e after the pass, is what a pass over
    word l alone gives.
    """
    r, n = h.params.r, h.params.n
    full = (1 << n) - 1
    y = 0
    for lane, word in enumerate(words):
        if word.length != n:
            raise ValueError("word length differs from code length")
        y |= word.value << lane * n
    lanes = len(words)
    masks = [full << lane * n for lane in range(lanes)]
    within = (1 << lanes * n) - 1  # the masks of the lanes still decoding
    blocks = within // full * ((1 << r) - 1)  # the r bits at the foot of every lane
    plan = _kept_plan(h)
    block_masks = _block_masks(plan, blocks)
    h_t_rows, h_t_supports = plan.h_t_rows, plan.h_t_supports
    s = _block_dot(y, h_t_rows, r, blocks, h_t_supports)
    e = 0
    spent = [cfg.max_iters] * lanes  # the iterations each lane took

    backflip = cfg.variant == "backflip"
    bounds, per_pass = _threshold_rule(cfg, plan, n, masks, TTL_SATURATION if backflip else 1)
    # expiry[i % TTL_SATURATION] holds the pending flips due at pass i.  A
    # pass empties its own slot before it fills any, so a ttl of
    # TTL_SATURATION falls due that many passes on.  The slots hold pending
    # bits only, so a pass with nothing pending has nothing to take.
    expiry = [0] * TTL_SATURATION
    pending = 0
    active = within  # nothing stalls before the first pass
    for done in range(cfg.max_iters + 1):
        for lane, bits in enumerate(masks):
            # decoded (zero syndrome), or stalled (nothing flipped or pending)
            if within & bits and not (s & bits and active & bits):
                spent[lane] = done
                within ^= bits
        if not within or done == cfg.max_iters:
            break
        count = _count_words(s, plan, block_masks)
        if pending:
            slot = done % TTL_SATURATION
            expired, expiry[slot] = expiry[slot], 0
            undo = expired & _any(count)  # expired, and its support still unsatisfied
            if undo:
                e ^= undo  # a lane whose s it clears counts 0, so takes no flips below
                s ^= _block_dot(undo, h_t_rows, r, blocks, h_t_supports)
                count = _count_words(s, plan, block_masks)
            pending ^= expired
        upc = _carry_save(count)

        if per_pass:
            bounds = per_pass(upc, s, within)
        flips = _at_least(upc, bounds[0], within)

        if flips:
            if backflip:
                again = flips & pending  # undoes a pending flip early: it leaves its slot
                if again:
                    expiry = [due ^ (due & again) for due in expiry]
                _ttl_levels(upc, bounds, flips ^ again, expiry, done)
                pending ^= flips
            e ^= flips  # all selected bits at once
            s ^= _block_dot(flips, h_t_rows, r, blocks, h_t_supports)
        active = flips | pending

    # e and s still hold what every ended lane's last pass left: its flips
    # are masked by within, and an undo needs an unsatisfied check, which a
    # decoded lane lacks, and a pending bit, which a stalled lane lacks.  So
    # a lane decoded exactly when its syndrome is zero now.
    outcomes = []
    for lane, (bits, iterations) in enumerate(zip(masks, spent)):
        if s & bits:
            outcomes.append(DecodeOutcome(False, iterations, None, None))
        else:
            error = BitVector(n, e >> lane * n & full)
            outcomes.append(DecodeOutcome(True, iterations, words[lane] ^ error, error))
    return tuple(outcomes)
