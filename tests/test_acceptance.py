"""Acceptance gate: the eight externally checkable claims this package makes.

Each test prints a one-line summary with the measured numbers so a release
run documents itself; the assertions are the actual gate.
"""

import os
import time

import numpy as np
import pytest

import oracle
from plotkin_pke import dense, preset
from plotkin_pke.attack import (
    recover_dual_structure,
    weak_key_attack_demo,
)
from plotkin_pke.bitflip import backflip_config, decode
from plotkin_pke.dfr import estimate_dfr
from plotkin_pke.gf2 import (
    BitVector,
    BlockMatrix,
    CirculantBlock,
    NotInvertibleError,
    sample_fixed_weight,
)
from plotkin_pke.isd import msgrec_workfactor
from plotkin_pke.presets import LAB
from plotkin_pke.qc import QcParams, derive_generator, encode, sample_parity_check, syndrome
from plotkin_pke.rng import RandomStream, substream
from plotkin_pke.scheme import (
    DecryptionFailure,
    SchemeParams,
    cca2_variant_public_bits,
    decrypt,
    encrypt,
    hash_mask,
    keygen,
    public_key_bits,
)

TOY = preset("toy")

# pinned-seed regression baselines for the two stage decoders at the toy
# preset: 95% upper confidence bounds from 10^4-trial runs
#   mdpc r=523 w=30 t=18 backflip, seed 0x20*32: 20 failures
#   ldpc r=523 w=8  t=1  classic,  seed 0x22*32: 51 failures
MDPC_DFR_BOUND = 0.0030871559892162925
LDPC_DFR_BOUND = 0.006700171347371622


def _desk_params(r):
    w1, w2 = {13: (5, 3), 29: (7, 3), 31: (7, 5)}[r]
    return SchemeParams(2, r, w1, w2, 1, 1)


def _dense_gprime(pk):
    sg1 = dense.expand_block_matrix(pk.sg1)
    sg2 = dense.expand_block_matrix(pk.sg2)
    top = np.concatenate([sg1, sg1], axis=1)
    bottom = np.concatenate([np.zeros_like(sg2), sg2], axis=1)
    return np.concatenate([top, bottom], axis=0)


def _dense_hprime(pk):
    """Parity check of the published code, built only from public data:
    systematic forms [I | Ai] give Hi = [Ai^T | I]; the blocks stack as
    [[H1, 0], [H2, H2]]."""
    k = pk.params.k
    hs = []
    for grid in (pk.sg1, pk.sg2):
        gen_sys = dense.systematic_form(dense.expand_block_matrix(grid))
        a = gen_sys[:, k:]
        hs.append(np.concatenate([a.T, np.eye(pk.params.r, dtype=np.uint8)], axis=1))
    h1, h2 = hs
    top = np.concatenate([h1, np.zeros_like(h1)], axis=1)
    bottom = np.concatenate([h2, h2], axis=1)
    return np.concatenate([top, bottom], axis=0)


def test_criterion_1_derived_parity_annihilates_published_generator():
    start = time.time()
    radii = [13, 29, 31]
    for i in range(50):
        params = _desk_params(radii[i % 3])
        pk, _ = keygen(params, substream(b"\x01" * 32, i))
        product = oracle.mat_mul(_dense_gprime(pk), _dense_hprime(pk).T)
        assert not product.any()
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"criterion 1: 50 keypairs, G'H'^T = 0 exactly, {elapsed:.1f}s")


def test_criterion_2_roundtrip_failure_rate_within_measured_bound():
    start = time.time()
    bound = MDPC_DFR_BOUND + LDPC_DFR_BOUND
    cycles = 1000
    failures = 0
    for i in range(cycles):
        rng = substream(b"\x2b" * 32, i)
        pk, sk = keygen(TOY, rng)
        m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
        ct = encrypt(pk, m, rng)
        try:
            assert decrypt(sk, ct) == m  # success must be exact
        except DecryptionFailure:
            failures += 1
    elapsed = time.time() - start
    assert failures <= bound * cycles
    assert elapsed < 120
    print(
        f"criterion 2: {failures}/{cycles} failures "
        f"(bound {bound * cycles:.1f}), {elapsed:.1f}s"
    )


def test_criterion_3_key_size_arithmetic_exact():
    params = preset("cca128")
    assert (params.n0, params.r) == (2, 11779)
    assert public_key_bits(params) == 47116
    assert cca2_variant_public_bits(params) == 23558
    assert round(23558 / 8 / 1024, 3) == 2.876
    print("criterion 3: 47116 public bits, 23558 compact-variant bits, exact")


def test_criterion_4_message_recovery_workfactors():
    start = time.time()
    wf128 = msgrec_workfactor(preset("cca128")).log2_work_factor
    wf192 = msgrec_workfactor(preset("cca192")).log2_work_factor
    wf256 = msgrec_workfactor(preset("cca256")).log2_work_factor
    assert 128.9 - 3.0 <= wf128 <= 128.9 + 3.0
    assert wf192 >= 189
    assert wf256 >= 253
    elapsed = time.time() - start
    assert elapsed < 60
    print(
        f"criterion 4: WF 128/192/256 = {wf128:.2f}/{wf192:.2f}/{wf256:.2f} bits, "
        f"{elapsed:.1f}s"
    )


def test_criterion_5_structure_recovery_fast_but_useless():
    times = []
    recovered = None
    pk = None
    for i in range(10):
        rng = substream(b"\x05" * 32, i)
        pk_i, _ = keygen(LAB, rng)
        t0 = time.time()
        rec = recover_dual_structure(pk_i, rng, max_iterations=2000)
        times.append(time.time() - t0)
        assert rec is not None
        assert rec.row.weight <= LAB.w2
        recovered, pk = rec, pk_i
    times.sort()
    median = times[5]
    assert median < 60

    n = LAB.n
    ct_rng = substream(b"\x05" * 32, 1000)
    in_band = 0
    not_recovered = 0
    for _ in range(100):
        m = BitVector(LAB.plaintext_bits, ct_rng.take_bits(LAB.plaintext_bits))
        ct = encrypt(pk, m, ct_rng)
        report = weak_key_attack_demo(pk, ct, m, ct_rng, recovered=recovered)
        if 0.4 * n <= report.residual_weight <= 0.6 * n:
            in_band += 1
        if not report.attack_succeeded:
            not_recovered += 1
    assert in_band >= 95
    assert not_recovered >= 99
    print(
        f"criterion 5: median recovery {median:.2f}s, residual in band "
        f"{in_band}/100, recovery failed {not_recovered}/100"
    )


def test_criterion_6_packed_and_dense_arithmetic_agree():
    rng = RandomStream(b"\x06" * 32)
    radii = (13, 17, 21, 25, 29, 31)

    def random_block(r):
        return CirculantBlock(r, BitVector(r, rng.take_bits(r)))

    checked = {"mul": 0, "add": 0, "transpose": 0, "vec": 0, "inverse": 0}
    for _ in range(1000):
        r = radii[oracle.randbelow(rng, len(radii))]
        a, b = random_block(r), random_block(r)
        da, db = dense.expand_block(a), dense.expand_block(b)
        assert (dense.expand_block(a * b) == oracle.mat_mul(da, db)).all()
        assert (dense.expand_block(a + b) == (da ^ db)).all()
        assert (dense.expand_block(a.transpose()) == da.T).all()
        v = BitVector(r, rng.take_bits(r))
        got = dense.to_array(BlockMatrix(((a,),)).vec_mul(v))
        assert (got == oracle.vec_mat_mul(dense.to_array(v), da)).all()
        checked["mul"] += 1
        checked["add"] += 1
        checked["transpose"] += 1
        checked["vec"] += 1

    for _ in range(1000):
        r = radii[oracle.randbelow(rng, len(radii))]
        a = random_block(r)
        da = dense.expand_block(a)
        try:
            inv = a.inverse()
        except NotInvertibleError:
            with pytest.raises(ValueError):
                oracle.inverse(da)
        else:
            assert (dense.expand_block(inv) == oracle.inverse(da)).all()
        checked["inverse"] += 1

    qc_checked = 0
    for i in range(1000):
        r = radii[oracle.randbelow(rng, len(radii))]
        n0 = 2 + oracle.randbelow(rng, 2)
        w = {2: 6, 3: 7}[n0]
        params = QcParams(n0, r, w, "ldpc" if rng.take_bits(1) else "mdpc")
        h = sample_parity_check(substream(b"\x16" * 32, i), params)
        gen = derive_generator(h)
        hd = dense.expand_block_matrix(BlockMatrix((h.blocks,)))
        m = BitVector(params.k, rng.take_bits(params.k))
        cw = encode(gen, m)
        assert not oracle.vec_mat_mul(dense.to_array(cw), hd.T).any()
        y = BitVector(params.n, rng.take_bits(params.n))
        assert (dense.to_array(syndrome(h, y))
                == oracle.vec_mat_mul(dense.to_array(y), hd.T)).all()
        qc_checked += 1

    assert min(checked.values()) == 1000 and qc_checked == 1000
    print(f"criterion 6: {checked} block ops and {qc_checked} code ops agree with dense")


def test_criterion_7a_dfr_report_reproducible():
    params = QcParams(2, 523, 30, "mdpc")
    cfg = backflip_config()
    a = estimate_dfr(params, 18, cfg, 300, RandomStream(b"\x77" * 32))
    b = estimate_dfr(params, 18, cfg, 300, RandomStream(b"\x77" * 32))
    assert a == b and a.to_json() == b.to_json()
    print(f"criterion 7a: identical reports, {a.failures}/300 failures")


def test_criterion_7b_dfr_monotone_in_error_weight():
    params = QcParams(2, 523, 30, "mdpc")
    cfg = backflip_config(max_iters=30)
    counts = []
    start = time.time()
    # the counts do not depend on the worker count
    for t in (5, 10, 15, 20, 25):
        rep = estimate_dfr(params, t, cfg, 10_000, RandomStream(b"\x70" * 32),
                           workers=os.cpu_count() or 1)
        counts.append(rep.failures)
    assert counts == [0, 0, 0, 820, 9825]
    print(f"criterion 7b: failures {counts} over t=(5,10,15,20,25), "
          f"{time.time() - start:.0f}s")


def test_criterion_7c_success_soundness_every_trial():
    params = QcParams(2, 523, 30, "mdpc")
    cfg = backflip_config(max_iters=30)
    rng = RandomStream(b"\x7c" * 32)
    sound = 0
    for i in range(1000):
        t = (5, 15, 25)[i % 3]
        h = sample_parity_check(rng, params)
        gen = derive_generator(h)
        cw = encode(gen, BitVector(params.k, rng.take_bits(params.k)))
        y = cw ^ sample_fixed_weight(rng, params.n, t)
        out = decode(h, y, cfg)
        if out.success:
            assert syndrome(h, out.codeword).value == 0
            assert out.error_vector == y ^ out.codeword
            sound += 1
    print(f"criterion 7c: soundness held on all {sound} successful decodes of 1000")


def test_criterion_8_mask_known_answer(request):
    stored = bytes.fromhex(
        (request.config.rootpath / "tests" / "data" / "hash_mask_23558.hex")
        .read_text()
        .strip()
    )
    n = 23558
    mask = hash_mask(BitVector(n, 0), n)
    assert mask.to_bytes() == stored
    print("criterion 8: 23558-bit mask of the zero vector matches the stored vector")
