"""Bit-flipping decoders: oracle checks, invariants, DFR harness."""

import hashlib
import json
import os
import re
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.stats import beta

import oracle
from plotkin_pke import bitflip, dense, dfr
from plotkin_pke.attack import recover_dual_structure
from plotkin_pke.bitflip import (
    DecoderConfig,
    backflip_config,
    classic_bf_config,
    DecodeOutcome,
    decode,
    decode_many,
    upc_profile,
)
from plotkin_pke.dfr import SelectionError, clopper_pearson, estimate_dfr, select_t_for_dfr
from plotkin_pke.gf2 import BitVector, BlockMatrix, CirculantBlock, _block_dot, sample_fixed_weight
from plotkin_pke.qc import (
    QcParams,
    QcParityCheck,
    _transposed_rows,
    derive_generator,
    encode,
    sample_parity_check,
    syndrome,
)
from plotkin_pke.rng import RandomStream, substream
from plotkin_pke.scheme import SchemeParams, encrypt, keygen, ldpc_decoder_config

TOY_MDPC = QcParams(2, 523, 30, "mdpc")
TOY_LDPC = QcParams(2, 523, 8, "ldpc")


def _instance(make_rng, tag, params):
    rng = make_rng(tag)
    h = sample_parity_check(rng, params)
    return rng, h, derive_generator(h)


def _dense_upc(h, y):
    mat = dense.expand_block_matrix(BlockMatrix((h.blocks,)))  # one block row: r checks
    s = oracle.vec_mat_mul(dense.to_array(y), mat.T).astype(np.int64)
    return mat.T.astype(np.int64) @ s


# --- upc profile ----------------------------------------------------------


def test_upc_zero_on_codeword(make_rng):
    rng, h, gen = _instance(make_rng, 1, QcParams(2, 13, 6, "ldpc"))
    m = BitVector(13, rng.take_bits(13))
    assert not upc_profile(h, encode(gen, m)).any()


def _heavy_checks(rng):
    """Hand-built r = 523 checks whose counts need eight and nine bit planes:
    block weights (128, 255) and (256, 3), so a count carries into the top."""
    for weights in ((128, 255), (256, 3)):
        blocks = tuple(CirculantBlock(523, sample_fixed_weight(rng, 523, w)) for w in weights)
        yield QcParityCheck(TOY_MDPC, blocks)


def test_upc_single_error_hits_column_weight(make_rng):
    rng, h, gen = _instance(make_rng, 2, TOY_MDPC)
    m = BitVector(523, rng.take_bits(523))
    cw = encode(gen, m)
    for check, word in ((h, cw), *((heavy, BitVector(1046, 0)) for heavy in _heavy_checks(rng))):
        for pos in (0, 522, 523, 1045):
            y = word ^ BitVector.from_support(1046, (pos,))
            upc = upc_profile(check, y)
            col_weight = check.blocks[pos // 523].weight
            assert upc[pos] == col_weight


def test_upc_matches_dense_recomputation(make_rng):
    # the n0 = 3 ldpc supports reach the u = 0 and u = r - 1 slices of the
    # kernel; its copy with an empty first block is a check the attack
    # lab's rotations_parity_check can give
    rng, mdpc, _ = _instance(make_rng, 3, QcParams(2, 13, 6, "mdpc"))
    _, ldpc, _ = _instance(make_rng, 53, QcParams(3, 31, 9, "ldpc"))
    assert {0, 30} <= {u for b in ldpc.blocks for u in b.row0.support()}
    empty = CirculantBlock(31, BitVector(31, 0))
    holed = QcParityCheck(ldpc.params, (empty,) + ldpc.blocks[1:])
    for h in (mdpc, ldpc, holed):
        for _ in range(20):
            y = BitVector(h.params.n, rng.take_bits(h.params.n))
            assert upc_profile(h, y).tolist() == _dense_upc(h, y).tolist()
    for h in _heavy_checks(rng):
        for _ in range(3):
            y = BitVector(h.params.n, rng.take_bits(h.params.n))
            assert upc_profile(h, y).tolist() == _dense_upc(h, y).tolist()


# --- decode ----------------------------------------------------------------


def test_decode_clean_codeword_zero_iterations(make_rng):
    rng, h, gen = _instance(make_rng, 4, TOY_MDPC)
    cw = encode(gen, BitVector(523, rng.take_bits(523)))
    out = decode(h, cw, classic_bf_config())
    assert out.success and out.iterations == 0
    assert out.codeword == cw and out.error_vector.weight == 0


@pytest.mark.parametrize("cfg", [classic_bf_config(), backflip_config()])
def test_decode_single_error_always(make_rng, cfg):
    rng, h, gen = _instance(make_rng, 5, TOY_MDPC)
    for trial in range(10):
        cw = encode(gen, BitVector(523, rng.take_bits(523)))
        e = sample_fixed_weight(rng, 1046, 1)
        out = decode(h, cw ^ e, cfg)
        assert out.success
        assert out.error_vector == e
        assert out.codeword == cw


def test_decode_success_soundness(make_rng):
    rng, h, gen = _instance(make_rng, 6, TOY_LDPC)
    for t in (0, 1, 2, 3, 5, 40):
        for _ in range(5):
            cw = encode(gen, BitVector(523, rng.take_bits(523)))
            y = cw ^ sample_fixed_weight(rng, 1046, t)
            out = decode(h, y, classic_bf_config())
            if out.success:
                assert syndrome(h, out.codeword).value == 0
                assert out.error_vector == y ^ out.codeword


def test_decode_deterministic(make_rng):
    rng, h, gen = _instance(make_rng, 7, TOY_MDPC)
    cw = encode(gen, BitVector(523, rng.take_bits(523)))
    y = cw ^ sample_fixed_weight(rng, 1046, 18)
    for cfg in (classic_bf_config(), backflip_config()):
        a = decode(h, y, cfg)
        b = decode(h, y, cfg)
        assert a == b


def test_decode_quasi_cyclic_equivariance(make_rng):
    rng, h, gen = _instance(make_rng, 0x18, QcParams(2, 101, 10, "mdpc"))
    cw = encode(gen, BitVector(101, rng.take_bits(101)))
    y = cw ^ sample_fixed_weight(rng, 202, 3)
    base = decode(h, y, classic_bf_config())
    assert base.success
    zero = CirculantBlock.zero(101)
    for shift in (1, 17, 100):
        xs = CirculantBlock(101, BitVector(101, 1 << shift))  # x^shift
        rotate = BlockMatrix(((xs, zero), (zero, xs)))  # shifts each block
        out = decode(h, rotate.vec_mul(y), classic_bf_config())
        assert out.success
        assert out.codeword == rotate.vec_mul(base.codeword)


def test_decode_length_mismatch(make_rng):
    _, h, _ = _instance(make_rng, 9, QcParams(2, 13, 6, "ldpc"))
    short = BitVector(13, 0)
    with pytest.raises(ValueError):
        decode(h, short, classic_bf_config())
    with pytest.raises(ValueError):
        decode_many(h, (BitVector(26, 0), short), classic_bf_config())
    with pytest.raises(ValueError):
        syndrome(h, short)
    with pytest.raises(ValueError):
        upc_profile(h, short)


def test_decode_known_answer():
    # (success, iterations, error) of 500 decodes: seeded codeword + error
    # words under both variants and both threshold rules, so backflip undo
    # and expiry, stalls and max_iters all occur, and the hopeless words of
    # the r = 101 attack demo.  Classic majority stalls at toy ldpc t = 16;
    # backflip waits on pending flips at r = 101, t = 8
    configs = (
        backflip_config(),
        classic_bf_config(),
        classic_bf_config(threshold="max-upc-delta", delta=0),
        backflip_config(threshold="max-upc-delta", delta=1),
    )
    sets = (
        (TOY_MDPC, (18, 22, 26), 12),
        (TOY_LDPC, (1, 2, 4, 16), 12),
        (QcParams(2, 101, 6, "ldpc"), (8,), 36),
    )
    record = []
    stalled = exhausted = 0

    def run(h, y, cfg):
        nonlocal stalled, exhausted
        out = decode(h, y, cfg)
        error = out.error_vector.value if out.success else None
        record.append([out.success, out.iterations, error])
        if not out.success:
            stalled += out.iterations < cfg.max_iters
            exhausted += out.iterations == cfg.max_iters

    for params, weights, count in sets:
        for t in weights:
            for i in range(count):
                rng = substream(bytes([params.w, t]) * 16, i)
                h = sample_parity_check(rng, params)
                cw = encode(derive_generator(h), BitVector(params.k, rng.take_bits(params.k)))
                y = cw ^ sample_fixed_weight(rng, params.n, t)
                for cfg in configs:
                    run(h, y, cfg)
    lab = SchemeParams(2, 101, 14, 6, 4, 4)
    for i in range(10):
        rng = substream(b"\xa7" * 32, i)
        pk, _ = keygen(lab, rng)
        ct = encrypt(pk, BitVector(lab.plaintext_bits, rng.take_bits(lab.plaintext_bits)), rng)
        rec = recover_dual_structure(pk, rng, max_iterations=50)
        for word in ((ct.c2, ct.c1 ^ ct.c2) if rec else ()):
            run(rec.parity, word, ldpc_decoder_config(lab))
    assert len(record) == 500
    assert stalled >= 1 and exhausted >= 1  # both failure branches stay covered
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "20d47b3941d92b28588ff71cf07444918d4b5db3857920cb184556f20a707856"

    # Three checks the sets above miss, decoding bare error words.  An
    # n0 = 3 ldpc code with block weights 4, 3, 3, so the majority
    # thresholds differ per block (3, 2, 2), under all four configs, and its
    # copy with an empty first block.  Then backflip max-upc-delta with
    # delta = 20 on the toy mdpc code: the threshold clamps to 1, and an
    # error bit whose 15 checks are all unsatisfied gets the fresh ttl
    # min(8, 1 + 14 * 8 // 15) = TTL_SATURATION
    record.clear()
    ldpc3 = QcParams(3, 101, 10, "ldpc")
    empty = CirculantBlock(101, BitVector(101, 0))
    for i in range(8):
        rng = substream(b"\x3c" * 32, i)
        h = sample_parity_check(rng, ldpc3)
        holed = QcParityCheck(ldpc3, (empty,) + h.blocks[1:])
        for t in (2, 5, 10):
            y = sample_fixed_weight(rng, ldpc3.n, t)
            for check in (h, holed):
                for cfg in configs:
                    run(check, y, cfg)
    clamped = backflip_config(threshold="max-upc-delta", delta=20)
    for i in range(6):
        rng = substream(b"\x5e" * 32, i)
        h = sample_parity_check(rng, TOY_MDPC)
        for t in (1, 3):
            run(h, sample_fixed_weight(rng, TOY_MDPC.n, t), clamped)
    assert len(record) == 204
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "1f4d976582d6e1959a82ab910f4ffee90066866e8dae2969c83e9b72d548caa3"


def test_fresh_ttl_matches_formula(make_rng):
    # a fresh flip of count c over its block's threshold t and column weight
    # cw gets ttl = min(TTL_SATURATION, 1 + (c - t) * TTL_SATURATION // cw).
    # Decodes reach TTL_SATURATION only at thresholds of at most cw / 8,
    # where the known answer's decodes all end at max_iters whatever the
    # ttl, so the values are checked here, over counts of eight planes
    rng = make_rng(0x7E)
    r, weights, sat = 64, (255, 16, 3), bitflip.TTL_SATURATION
    seen = set()
    for thresholds in ((1, 1, 1), (128, 9, 2), (250, 16, 3)):
        counts = [oracle.randbelow(rng, w + 1) for w in weights for _ in range(r)]
        fresh = sum(1 << j for j, c in enumerate(counts)
                    if c >= thresholds[j // r] and oracle.randbelow(rng, 4))
        upc = [sum((c >> k & 1) << j for j, c in enumerate(counts)) for k in range(8)]
        bounds = bitflip._ttl_bounds(thresholds, weights, r, sat)
        expiry = [0] * sat  # a flip of ttl v, found at pass 0, goes into slot v % sat
        bitflip._ttl_levels(upc, bounds, fresh, expiry, 0)
        levels = expiry[1:] + expiry[:1]
        want = [min(sat, 1 + (c - thresholds[j // r]) * sat // weights[j // r])
                if fresh >> j & 1 else 0 for j, c in enumerate(counts)]
        for j, ttl in enumerate(want):  # a fresh bit sits in the level of its ttl only
            got = [v for v, level in enumerate(levels, 1) if level >> j & 1]
            assert got == ([ttl] if ttl else []), j
        seen.update(want)
    assert seen == set(range(sat + 1))


def test_ttl_bounds_entries_are_tuples():
    # the memo hands one entry to every decode that asks for it: a list
    # anywhere inside would let one caller change what the others read
    args = ((16, 16), (15, 15), 523, bitflip.TTL_SATURATION)
    bounds = bitflip._ttl_bounds(*args)
    assert isinstance(bounds, tuple) and len(bounds) == bitflip.TTL_SATURATION
    assert all(isinstance(level, tuple) for level in bounds)
    assert bitflip._ttl_bounds(*args) is bounds


def test_decode_cold_and_warm_memo_agree(make_rng):
    rng, h, gen = _instance(make_rng, 0x3C, TOY_MDPC)
    words = [encode(gen, BitVector(523, rng.take_bits(523))) ^ sample_fixed_weight(rng, 1046, t)
             for t in (5, 18, 24, 30)]
    cfgs = (classic_bf_config(), backflip_config(),
            DecoderConfig(variant="backflip", threshold="max-upc-delta", max_iters=30, delta=1))
    cold = []
    for cfg in cfgs:
        for y in words:
            bitflip._ttl_bounds.cache_clear()
            cold.append(decode(h, y, cfg))
    warm = [decode(h, y, cfg) for cfg in cfgs for y in words]
    assert warm == cold
    assert {out.success for out in cold} == {True, False}


def test_decode_max_upc_rule(make_rng):
    rng, h, gen = _instance(make_rng, 10, TOY_MDPC)
    cw = encode(gen, BitVector(523, rng.take_bits(523)))
    y = cw ^ sample_fixed_weight(rng, 1046, 5)
    maxupc = DecoderConfig(variant="classic-bf", threshold="max-upc-delta",
                           max_iters=30, delta=0)
    out = decode(h, y, maxupc)
    assert out.success and out.codeword == cw


# --- syndrome threshold rule --------------------------------------------------

# (r, column weights, t) of the stage codes at cca128 and cca256, the 192-bit
# ldpc code's unequal blocks, the toy and the lab
SYNDROME_POINTS = [(11779, (71, 71), 134), (11779, (7, 7), 134), (40597, (137, 137), 264),
                   (24821, (8, 7), 199), (523, (15, 15), 18), (101, (7, 7), 4)]


def test_syndrome_x_matches_exact_expectation():
    # X at cca128's mdpc code, as an exact expectation over the hypergeometric
    # law of the error bits a check holds: r E[(l - 1) [l odd]]
    r, w, t = 11779, 142, 134
    n = 2 * r
    law = [Fraction(comb(w, l) * comb(n - w, t - l), comb(n, t)) for l in range(t + 1)]
    assert sum(law) == 1
    exact = r * sum((l - 1) * p for l, p in enumerate(law) if l % 2)
    assert bitflip._syndrome_x(r, w, n, t) == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("r, weights, t", SYNDROME_POINTS)
def test_syndrome_threshold_floored_capped_and_monotone(r, weights, t):
    # between the majority bound and d at every |s|, from the one at |s| = 0 to
    # the other at |s| = r, and never falling as |s| grows
    n, w = 2 * r, sum(weights)
    x = bitflip._syndrome_x(r, w, n, t)
    for d in set(weights):
        ts = [bitflip._syndrome_threshold(weight, d, w, n, t, x) for weight in range(r + 1)]
        assert ts[0] == (d + 2) // 2 and ts[-1] == d
        assert all(a <= b for a, b in zip(ts, ts[1:]))


def test_syndrome_rule_needs_its_error_weight(make_rng):
    with pytest.raises(ValueError, match="design error weight"):
        classic_bf_config("syndrome")
    h = sample_parity_check(make_rng(0x3E), TOY_LDPC)
    with pytest.raises(ValueError, match="below the code length"):
        decode(h, BitVector(1046, 1), classic_bf_config("syndrome", t=1046))
    assert decode(h, BitVector(1046, 1), classic_bf_config("syndrome", t=1)).success


# --- decode_many --------------------------------------------------------------


def _fresh_ttl(upc, bounds, fresh):
    """ttl bit planes of the fresh flips, from their upc planes and the
    ``_ttl_bounds`` of every level: one comparator per level reached, then
    the thermometer code ge[v] (ttl >= v) read out in binary.  The oracle's
    own, so a fault in ``bitflip._ttl_levels`` shows as a mismatch."""
    sat = bitflip.TTL_SATURATION
    ge = [0, fresh]
    while len(ge) <= sat and ge[-1]:
        ge.append(bitflip._at_least(upc, bounds[len(ge) - 1], ge[-1]))
    ge += [0] * (2 * sat + 1 - len(ge))
    planes = []
    for k in range(sat.bit_length()):
        plane = 0
        for v in range(1 << k, sat + 1, 2 << k):  # bit k of v is set
            plane |= ge[v] ^ ge[v + (1 << k)]
        planes.append(plane)
    return planes


def reference_decode(h, word, cfg):
    """The one-word loop decode_many replaced, kept as its oracle: the
    outcome, and how the decode ended (clean, undo, flip, stall, max_iters)."""
    r, n = h.params.r, h.params.n
    h_t_rows = _transposed_rows(h)
    plan = bitflip._count_plan(h)
    masks = bitflip._block_masks(plan, (1 << r) - 1)
    weights = tuple(b.weight for b in h.blocks)
    full = (1 << n) - 1
    s = _block_dot(word.value, h_t_rows, r)
    e = 0

    def toggle(flips):
        nonlocal e, s
        e ^= flips
        s ^= _block_dot(flips, h_t_rows, r)
        return s == 0

    def success(iterations, ending):
        error = BitVector(n, e)
        return DecodeOutcome(True, iterations, word ^ error, error), ending

    if s == 0:
        return success(0, "clean")

    sat = bitflip.TTL_SATURATION
    levels = sat if cfg.variant == "backflip" else 1
    majority = tuple((w + 2) // 2 for w in weights)
    ttl = [0] * sat.bit_length()
    for iteration in range(1, cfg.max_iters + 1):
        upc = bitflip._carry_save(bitflip._count_words(s, plan, masks))
        pending = bitflip._any(ttl)
        if pending:
            borrow = pending
            for k, plane in enumerate(ttl):
                ttl[k] = plane ^ borrow
                borrow &= ttl[k]
            expired = pending ^ (pending & bitflip._any(ttl))
            undo = expired & bitflip._any(upc)
            if undo:
                if toggle(undo):
                    return success(iteration, "undo")
                upc = bitflip._carry_save(bitflip._count_words(s, plan, masks))
            pending ^= expired
        if cfg.threshold == "majority":
            thresholds = majority
        elif cfg.threshold == "syndrome":
            w = sum(weights)
            x = bitflip._syndrome_x(r, w, n, cfg.t)
            thresholds = tuple(bitflip._syndrome_threshold(s.bit_count(), d, w, n, cfg.t, x)
                               for d in weights)
        else:
            thresholds = (max(bitflip._max_count(upc, full) - cfg.delta, 1),) * len(weights)
        bounds = bitflip._ttl_bounds(thresholds, weights, r, levels)
        flips = bitflip._at_least(upc, bounds[0], full)
        if not flips and not pending:
            return DecodeOutcome(False, iteration, None, None), "stall"
        if flips:
            if cfg.variant == "backflip":
                fresh = flips ^ (flips & pending)
                fresh_ttl = _fresh_ttl(upc, bounds, fresh)
                ttl = [(plane ^ (plane & flips)) | f for plane, f in zip(ttl, fresh_ttl)]
            if toggle(flips):
                return success(iteration, "flip")
    return DecodeOutcome(False, cfg.max_iters, None, None), "max_iters"


LANE_CONFIGS = (
    backflip_config(),
    classic_bf_config(),
    classic_bf_config(threshold="max-upc-delta", delta=0),
    backflip_config(threshold="max-upc-delta", delta=1),
    classic_bf_config(threshold="syndrome", t=4),
)
LDPC3 = QcParams(3, 101, 10, "ldpc")  # block weights 4, 3, 3: majority thresholds 3, 2, 2


def _lane_checks(i):
    """Seeded checks at r = 101: n0 = 2, n0 = 3 and its copy with an empty
    first block, which rotations_parity_check can give."""
    rng = substream(b"\x4c" * 32, i)
    two = sample_parity_check(rng, QcParams(2, 101, 6, "ldpc"))
    three = sample_parity_check(rng, LDPC3)
    assert [b.weight for b in three.blocks] == [4, 3, 3]
    holed = QcParityCheck(LDPC3, (CirculantBlock(101, BitVector(101, 0)),) + three.blocks[1:])
    return rng, (two, three, holed)


@pytest.mark.parametrize("cfg", LANE_CONFIGS)
def test_decode_many_matches_reference(cfg):
    # twelve words from clean to hopeless, cut into passes of 1, 2, 3 and 5
    # lanes (the last pass short): every lane's outcome is its own decode's
    rng, checks = _lane_checks(0)
    for h in checks:
        words = [sample_fixed_weight(rng, h.params.n, t)
                 for t in (0, 1, 2, 3, 4, 5, 6, 8, 12, 20, 2, 0)]
        want = [reference_decode(h, y, cfg)[0] for y in words]
        assert {out.success for out in want} == {True, False}
        for lanes in (1, 2, 3, 5):
            got = []
            for k in range(0, len(words), lanes):
                got += decode_many(h, words[k:k + lanes], cfg)
            assert got == want, lanes


@pytest.mark.parametrize("cfg, endings", [
    (backflip_config(), ("max_iters", "clean", "undo", "stall", "flip")),
    (classic_bf_config(), ("max_iters", "clean", "stall", "flip")),
])
def test_decode_many_every_ending_in_one_pass(cfg, endings):
    # the first seeded word to end each way, all in one pass, so lanes
    # leave at iteration 0, on an undo, on a flip and by a stall while
    # their neighbours run on to max_iters
    rng = substream(b"\x4d" * 32, 0)
    h = sample_parity_check(rng, LDPC3)
    first = {}
    for j in range(60):
        y = sample_fixed_weight(rng, LDPC3.n, j % 8)
        out, ending = reference_decode(h, y, cfg)
        first.setdefault(ending, (y, out))
    assert set(first) == set(endings)
    words, want = zip(*(first[ending] for ending in endings))
    assert decode_many(h, words, cfg) == want
    assert decode_many(h, words[::-1], cfg) == want[::-1]


def test_decode_many_undoes_saturated_ttl():
    # Hand-built r = 523 checks of block weights 34 and 4 under backflip
    # max-upc-delta, delta = 30, one seeded weight-4 word each.  Pass 0 has
    # threshold 34 - 30 and flips an error bit whose 34 checks are all
    # unsatisfied, with ttl min(8, 1 + 30 * 8 // 34) = TTL_SATURATION.  The
    # other flips leave the decoder cycling while that flip waits; at pass 8
    # it expires with a check still unsatisfied and is undone, and the word
    # then decodes at iteration 11.  With seven slots, which expire it at
    # pass 1, none of the three words decodes
    cfg = backflip_config(threshold="max-upc-delta", delta=30)
    for i in (19, 32, 38):
        rng = substream(b"\x8b" * 32, i)
        blocks = tuple(CirculantBlock(523, sample_fixed_weight(rng, 523, w)) for w in (34, 4))
        h = QcParityCheck(TOY_MDPC, blocks)
        y = sample_fixed_weight(rng, TOY_MDPC.n, 4)
        want, _ = reference_decode(h, y, cfg)
        assert want.success and want.iterations == 11 and want.error_vector == y, i
        assert decode_many(h, (y, y), cfg) == (want, want), i


def test_plan_built_once_per_parity_check(monkeypatch):
    # the plan is kept on the parity check: passes of 1, 2 and 3 lanes
    # against one check build it once, and an equal but distinct check
    # builds its own, so no cache outside the check holds it.  Outcomes are
    # those against a freshly built check
    rng, (h, *_) = _lane_checks(2)
    words = [sample_fixed_weight(rng, h.params.n, t) for t in (0, 2, 4, 8, 20, 3)]
    cfg = backflip_config()
    want = decode_many(QcParityCheck(h.params, h.blocks), words, cfg)
    builds = []
    real = bitflip._count_plan
    monkeypatch.setattr(bitflip, "_count_plan", lambda check: builds.append(check) or real(check))
    got = sum((decode_many(h, words[a:b], cfg) for a, b in ((0, 1), (1, 3), (3, 6))), ())
    assert got == want and builds == [h]
    twin = QcParityCheck(h.params, h.blocks)
    assert twin == h and hash(twin) == hash(h)
    assert decode_many(twin, words, cfg) == want
    assert len(builds) == 2 and builds[1] is twin


def _record_calls(monkeypatch, events):
    """Append W for every count-word build, T for every carry-save tree and
    D for every syndrome product that the decoder makes, in call order."""
    for name, tag in (("_count_words", "W"), ("_carry_save", "T"), ("_block_dot", "D")):
        def recorded(*args, real=getattr(bitflip, name), tag=tag):
            events.append(tag)
            return real(*args)
        monkeypatch.setattr(bitflip, name, recorded)


@pytest.mark.parametrize("cfg, t", [(backflip_config(), 22), (classic_bf_config(), 10)])
def test_decode_pass_sums_one_count_tree(monkeypatch, cfg, t):
    # after the first syndrome (D), every pass builds the count words (W);
    # an undo moves s (D) and builds them again (W); the pass sums its
    # words once (T) and then moves s by its flips (D).  The toy t = 22
    # backflip word undoes flips in most of its passes
    rng = substream(b"\x16" * 32, 0)
    h = sample_parity_check(rng, TOY_MDPC)
    y = sample_fixed_weight(rng, TOY_MDPC.n, t)
    want = decode(h, y, cfg)
    assert want.success and want.iterations > 2
    events = []
    _record_calls(monkeypatch, events)
    assert decode(h, y, cfg) == want
    trace = "".join(events)
    assert re.fullmatch(r"D(W(DW)?TD?)*", trace), trace
    assert trace.count("T") == want.iterations  # one tree per pass
    undone = trace.count("WDW")
    assert undone >= 1 if cfg.variant == "backflip" else undone == 0


def _toy_and_lane_checks():
    """Toy ldpc (block weights 3 and 5), LDPC3 (4, 3, 3) and its copy with
    an empty first block: equal, unequal and empty blocks."""
    toy = sample_parity_check(substream(b"\x5d" * 32, 0), TOY_LDPC)
    assert [b.weight for b in toy.blocks] == [3, 5]
    return (toy, *_lane_checks(1)[1][1:])


def test_count_words_one_per_rotation_of_the_heaviest_block():
    # word m ORs the m-th rotation of every block, so there are as many
    # words as the heaviest block has rotations, whatever n0: 5 on toy
    # ldpc (3, 5), 4 on LDPC3 (4, 3, 3), 3 on its holed copy (0, 3, 3)
    for h, count in zip(_toy_and_lane_checks(), (5, 4, 3)):
        plan = bitflip._count_plan(h)
        masks = bitflip._block_masks(plan, (1 << h.params.r) - 1)
        s = sample_fixed_weight(substream(b"\x5e" * 32, count), h.params.r, 40).value
        assert len(bitflip._count_words(s, plan, masks)) == count


def test_syndrome_update_walks_transposed_support():
    # the decoder moves s by _block_dot over the H^T rows and supports of
    # _count_plan: a block of flips heavier than its row's support is
    # shifted by each index of it, a lighter one walked by its own bits.
    # Block weights either side of that switch, and a dense block, over
    # 1, 2 and 3 lanes, on equal, unequal and empty blocks
    rng = substream(b"\x5d" * 32, 1)
    for h in _toy_and_lane_checks():
        r, n = h.params.r, h.params.n
        rows = _transposed_rows(h)
        plan = bitflip._count_plan(h)
        assert plan.h_t_rows == rows
        # the supports the walk reads are those of the rows, r for 0
        assert [sum(1 << t % r for t in supp) for supp in plan.h_t_supports] == rows
        assert all(0 < t <= r for supp in plan.h_t_supports for t in supp)
        for lanes in (1, 2, 3):
            blocks = sum(((1 << r) - 1) << lane * n for lane in range(lanes))
            for pick in (lambda w: 0, lambda w: 1, lambda w: w - 1, lambda w: w,
                         lambda w: w + 1, lambda w: lanes * r // 2):
                for _ in range(3):
                    y = 0
                    for i, supp in enumerate(plan.h_t_supports):
                        flips = sample_fixed_weight(rng, lanes * r, max(pick(len(supp)), 0)).value
                        for lane in range(lanes):
                            y |= (flips >> lane * r & (1 << r) - 1) << lane * n + i * r
                    want = _block_dot(y, rows, r, blocks)
                    assert _block_dot(y, plan.h_t_rows, r, blocks, plan.h_t_supports) == want


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(variant="bitflop")
    with pytest.raises(ValueError):
        DecoderConfig(threshold="entropy")
    with pytest.raises(ValueError):
        DecoderConfig(max_iters=0)
    with pytest.raises(ValueError):
        DecoderConfig(delta=-1)


# --- Clopper-Pearson ---------------------------------------------------------


def test_clopper_pearson_edges_and_known_value():
    low, high = clopper_pearson(0, 100)
    assert low == 0.0
    assert high == pytest.approx(0.0362, abs=2e-4)  # the rule-of-three point
    low, high = clopper_pearson(100, 100)
    assert high == 1.0
    assert low == pytest.approx(1 - 0.0362, abs=2e-4)


def test_clopper_pearson_monotone_in_failures():
    lows, highs = zip(*(clopper_pearson(f, 500) for f in range(0, 501)))
    assert all(a < b for a, b in zip(lows, lows[1:]))
    assert all(a < b for a, b in zip(highs, highs[1:]))


def test_clopper_pearson_matches_scipy_beta_quantiles():
    grid = [(f, n) for n in range(1, 21) for f in range(n + 1)]
    for n in (500, 2000, 20_000, 10**6):
        grid += [(f, n) for f in sorted({0, 1, 2, 5, 124, n // 100, n // 3, n // 2, n - 1, n})]
    alpha = 1.0 - 0.95
    for f, n in grid:
        lo = 0.0 if f == 0 else beta.ppf(alpha / 2, f, n - f + 1)
        hi = 1.0 if f == n else beta.ppf(1 - alpha / 2, f + 1, n - f)
        assert clopper_pearson(f, n) == pytest.approx((lo, hi), rel=1e-10, abs=0), (f, n)


def test_clopper_pearson_fast_at_large_balanced_counts():
    # the continued fraction needs O(sqrt(max(a, b))) terms at a = b
    start = time.perf_counter()
    clopper_pearson(500_000, 10**6)
    assert time.perf_counter() - start < 0.05


# --- estimate_dfr --------------------------------------------------------------


def test_estimate_dfr_zero_weight_never_fails():
    rep = estimate_dfr(TOY_LDPC, 0, classic_bf_config(), 50, RandomStream(b"\x01" * 32))
    assert rep.failures == 0
    assert rep.ci_low == 0.0


def test_estimate_dfr_full_weight_always_fails():
    params = QcParams(2, 13, 6, "mdpc")
    cfg = classic_bf_config(max_iters=5)
    rep = estimate_dfr(params, 26, cfg, 50, RandomStream(b"\x02" * 32))
    assert rep.failures == 50


def test_estimate_dfr_reproducible():
    seed = RandomStream(b"\x03" * 32)
    a = estimate_dfr(TOY_LDPC, 2, classic_bf_config(), 200, RandomStream(b"\x03" * 32))
    b = estimate_dfr(TOY_LDPC, 2, classic_bf_config(), 200, RandomStream(b"\x03" * 32))
    assert a == b
    assert a.to_json() == b.to_json()


def test_estimate_dfr_worker_count_invariant():
    a = estimate_dfr(TOY_LDPC, 2, classic_bf_config(), 60, RandomStream(b"\x04" * 32), workers=1)
    b = estimate_dfr(TOY_LDPC, 2, classic_bf_config(), 60, RandomStream(b"\x04" * 32), workers=2)
    assert a == b


@pytest.fixture
def serial_pool(monkeypatch):
    """A serial stand-in for the pool: starts nothing, and records in the
    list it returns the size each pool asked for."""
    built = []

    class SerialPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    return built


def test_estimate_dfr_caps_workers(serial_pool):
    cfg = classic_bf_config()
    capped = estimate_dfr(TOY_LDPC, 2, cfg, 6, RandomStream(b"\x06" * 32), workers=10**6)
    assert all(w <= min(6, os.cpu_count() or 1) for w in serial_pool)
    assert serial_pool or (os.cpu_count() or 1) == 1  # the stand-in, not a real pool, ran
    assert capped == estimate_dfr(TOY_LDPC, 2, cfg, 6, RandomStream(b"\x06" * 32), workers=1)


@pytest.mark.parametrize("workers", [0, -5])
def test_estimate_dfr_rejects_nonpositive_workers(workers):
    with pytest.raises(ValueError, match="workers"):
        estimate_dfr(TOY_LDPC, 2, classic_bf_config(), 6, RandomStream(b"\x07" * 32),
                     workers=workers)


@pytest.mark.parametrize("t", [TOY_LDPC.n + 1, -1])
def test_estimate_dfr_rejects_out_of_range_weight(serial_pool, t):
    # refused before a pool is built or a parity check sampled
    with pytest.raises(ValueError, match=r"^t must lie in \[0, n\]"):
        estimate_dfr(TOY_LDPC, t, classic_bf_config(), 4, RandomStream(b"\x07" * 32), workers=2)
    assert serial_pool == []


class _StubTrial:
    """A trial that records the seed of each stream it takes and fails on
    the substreams of chosen trial indices."""

    def __init__(self, seed, failing):
        self.failing = {substream(seed, i).seed for i in failing}
        self.seen = []

    def __call__(self, stream):
        self.seen.append(stream.seed)
        return stream.seed in self.failing


def test_dfr_range_takes_its_trial():
    seed, lo, hi, failing = b"\x0a" * 32, 3, 40, (5, 9, 17, 30)
    walked = [substream(seed, i).seed for i in range(lo, hi)]
    trial = _StubTrial(seed, failing)
    assert dfr._dfr_range(trial, seed, lo, hi) == len(failing)
    assert trial.seen == walked  # trial i takes substream(seed, i), in order from lo
    # the k-th failure stops the loop; past the last failure it runs to hi
    for k, last in zip(range(1, len(failing) + 2), (*failing, hi - 1)):
        trial = _StubTrial(seed, failing)
        assert dfr._dfr_range(trial, seed, lo, hi, stop_at=k) == min(k, len(failing))
        assert trial.seen == walked[:last - lo + 1]
    # any cut splits the count exactly, as estimate_dfr's workers need
    for cut in range(lo, hi + 1):
        trial = _StubTrial(seed, failing)
        split = dfr._dfr_range(trial, seed, lo, cut) + dfr._dfr_range(trial, seed, cut, hi)
        assert split == len(failing)
        assert trial.seen == walked


def _codeword_trial_failures(params, t, cfg, trials, seed):
    # reference trial: decode codeword + e and compare codewords, where
    # estimate_dfr decodes e alone
    failures = 0
    for i in range(trials):
        stream = substream(seed, i)
        h = sample_parity_check(stream, params)
        gen = derive_generator(h)
        codeword = encode(gen, BitVector(params.k, stream.take_bits(params.k)))
        error = sample_fixed_weight(stream, params.n, t)
        out = decode(h, codeword ^ error, cfg)
        failures += not (out.success and out.codeword == codeword)
    return failures


def test_estimate_dfr_matches_codeword_trials():
    # t=22 sits on the toy mdpc waterfall, so both outcomes occur
    seed = b"\x2b" * 32
    rep = estimate_dfr(TOY_MDPC, 22, backflip_config(), 40, RandomStream(seed))
    assert 0 < rep.failures < 40
    assert rep.failures == _codeword_trial_failures(TOY_MDPC, 22, backflip_config(), 40, seed)


def test_dfr_report_json_fields():
    rep = estimate_dfr(TOY_LDPC, 1, classic_bf_config(), 20, RandomStream(b"\x05" * 32))
    record = rep.to_dict()
    assert record["params"] == {"n0": 2, "r": 523, "w": 8, "flavor": "ldpc"}
    for key in ("t", "variant", "trials", "failures", "dfr", "ciLow", "ciHigh", "seed"):
        assert key in record
    assert record["trials"] == 20


# --- regression baselines (recorded from pinned-seed runs) --------------------


def test_backflip_regression_523_30_18():
    # recorded baseline: 1/1000 failures, seed 0x21*32, majority, maxIters=50
    rep = estimate_dfr(TOY_MDPC, 18, backflip_config(max_iters=50), 1000,
                       RandomStream(b"\x21" * 32))
    assert 1 - rep.dfr >= 0.99
    assert rep.failures == 1


def test_backflip_point_estimate_below_target_523_30_18():
    # recorded baseline: 20/10000 failures, seed 0x20*32, backflip defaults
    rep = estimate_dfr(TOY_MDPC, 18, backflip_config(), 10000, RandomStream(b"\x20" * 32))
    assert rep.dfr < 1e-2
    assert rep.failures == 20


# --- select_t_for_dfr -----------------------------------------------------------


@pytest.fixture
def measured(monkeypatch):
    """The error weights select_t_for_dfr measures, in order."""
    weights = []
    measure = dfr._dfr_range

    def recording(trial, *args):
        weights.append(trial.args[1])  # partial(_dfr_trial, params, t, cfg)
        return measure(trial, *args)

    monkeypatch.setattr(dfr, "_dfr_range", recording)
    return weights


def test_select_t_trivial_target_accepts_bracket(measured):
    params = QcParams(2, 101, 6, "ldpc")
    t = select_t_for_dfr(params, 1.0, 20, classic_bf_config(), RandomStream(b"\x06" * 32))
    assert t == params.n
    assert measured == [1, 2, 4, 8, 16, 32, 64, 128, 202]
    measured.clear()
    # n = 26 is not a power of two: the doubling stops past n, the walk starts at n
    params = QcParams(2, 13, 6, "ldpc")
    assert select_t_for_dfr(params, 1.0, 20, classic_bf_config(), RandomStream(b"\x08" * 32)) == 26
    assert measured == [1, 2, 4, 8, 16, 26]


def test_select_t_budget_precondition():
    with pytest.raises(ValueError):
        select_t_for_dfr(TOY_LDPC, 1e-3, 100, classic_bf_config(), RandomStream(b"\x07" * 32))


def test_select_t_raises_when_nothing_qualifies():
    # delta = 100 clamps the threshold to 1, so one iteration flips every
    # bit on an unsatisfied check: a weight-1 error's 3 checks reach at
    # least 5 other bits, no trial recovers e, and not even t = 1 qualifies
    params = QcParams(2, 13, 6, "ldpc")
    stuck = DecoderConfig(variant="classic-bf", threshold="max-upc-delta",
                          max_iters=1, delta=100)
    with pytest.raises(SelectionError):
        select_t_for_dfr(params, 0.9, 12, stuck, RandomStream(b"\x09" * 32))


def test_select_t_monotone_in_target(measured):
    params = QcParams(2, 149, 10, "mdpc")
    loose = select_t_for_dfr(params, 0.5, 400, backflip_config(), RandomStream(b"\x08" * 32))
    assert measured == [1, 2, 4, 8, 16, 15, 14, 13, 12]
    measured.clear()
    tight = select_t_for_dfr(params, 0.05, 400, backflip_config(), RandomStream(b"\x08" * 32))
    assert measured == [1, 2, 4, 8, 7, 6, 5]
    assert loose >= tight
    assert tight >= 1


def test_select_t_walk_ends(measured):
    # the downward walk runs from below the first failing power of two to
    # just above the last qualifying one, which is returned if none between does
    t = select_t_for_dfr(TOY_MDPC, 0.05, 400, backflip_config(), RandomStream(b"\x08" * 32))
    assert t == 19
    assert measured == [1, 2, 4, 8, 16, 32, *range(31, 18, -1)]
    measured.clear()
    t = select_t_for_dfr(TOY_LDPC, 0.025, 400, classic_bf_config(), RandomStream(b"\x08" * 32))
    assert t == 1
    assert measured == [1, 2]


def test_select_t_ldpc_width14_baseline():
    # recorded baseline: t=8 at target 1e-2, budget 2000, seed derive(0x0a*32, 7)
    params = QcParams(2, 523, 14, "ldpc")
    t = select_t_for_dfr(params, 1e-2, 2000, classic_bf_config(), substream(b"\x0a" * 32, 7))
    assert t == 8
