"""Key generation, the two-stage encrypt/decrypt pipeline, and the mask."""

import dataclasses

import numpy as np
import pytest

import oracle
from plotkin_pke import dense, preset, wire
from plotkin_pke.attack import systematic_public_generator
from plotkin_pke.bitflip import backflip_config, classic_bf_config
from plotkin_pke.gf2 import BitVector, BlockMatrix, sample_fixed_weight
from plotkin_pke.presets import LAB, PRESETS
from plotkin_pke.qc import derive_generator
from plotkin_pke.rng import RandomStream, substream
from plotkin_pke.scheme import (
    SYNDROME_RULE_MIN_R,
    Ciphertext,
    DecryptionFailure,
    SchemeParams,
    _sample_scrambler,
    cca2_variant_public_bits,
    decrypt,
    encrypt,
    encrypt_with,
    hash_mask,
    keygen,
    ldpc_decoder_config,
    mdpc_decoder_config,
    public_key_bits,
)

DESK = SchemeParams(2, 13, 5, 3, 1, 1)
TOY = preset("toy")


def _zero(n):
    return BitVector(n, 0)


# --- parameters and sizes ---------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(2, 14, 5, 3, 1, 1)  # even r
    with pytest.raises(ValueError):
        SchemeParams(2, 13, 5, 3, 27, 1)  # t1 > n
    with pytest.raises(ValueError):
        SchemeParams(2, 13, 5, 3, 1, -1)


def test_dimension_properties():
    assert DESK.n == 26 and DESK.k == 13 and DESK.k0 == 1
    assert DESK.plaintext_bits == 26
    assert DESK.ciphertext_bits == 52


def test_public_key_bit_counts():
    assert public_key_bits(TOY) == 2092
    assert cca2_variant_public_bits(TOY) == 1046
    cca128 = preset("cca128")
    assert public_key_bits(cca128) == 47116
    assert cca2_variant_public_bits(cca128) == 23558


def test_stage_decoder_configs():
    # every full preset decodes both stages with classic-bf and the syndrome
    # rule at its own t1 and t2; the toy and the lab keep backflip and majority
    full = [params for params in PRESETS.values() if params.r >= SYNDROME_RULE_MIN_R]
    assert len(full) == 6 and max(TOY.r, LAB.r) < SYNDROME_RULE_MIN_R
    for params in full + [dataclasses.replace(preset("cca128"), t1=120, t2=100)]:
        assert mdpc_decoder_config(params) == classic_bf_config("syndrome", max_iters=100,
                                                                t=params.t1)
        assert ldpc_decoder_config(params) == classic_bf_config("syndrome", max_iters=100,
                                                                t=params.t2)
    for params in (TOY, LAB):
        assert mdpc_decoder_config(params) == backflip_config()
        assert ldpc_decoder_config(params) == classic_bf_config()


# --- keygen -------------------------------------------------------------------


def test_keygen_deterministic(make_rng):
    a = keygen(DESK, make_rng(0x30))[0]
    b = keygen(DESK, make_rng(0x30))[0]
    assert a == b


def test_scrambler_density_and_inverse(make_rng):
    pk, sk = keygen(TOY, make_rng(0x31))
    r = TOY.r
    for row in sk.s.blocks:
        for block in row:
            assert 0.4 * r <= block.weight <= 0.6 * r
    ident = (sk.s @ sk.s_inv).blocks[0][0]
    assert ident.row0 == BitVector.from_support(r, (0,))


def test_scrambled_generator_rows_stay_in_code(make_rng):
    from plotkin_pke.qc import syndrome

    pk, sk = keygen(DESK, make_rng(0x32))
    for bm, h in ((pk.sg1, sk.h1), (pk.sg2, sk.h2)):
        mat = dense.expand_block_matrix(bm)
        for row in mat:
            assert syndrome(h, oracle.from_array(row)).value == 0


def test_scrambler_resamples_past_singular_candidate():
    # find a stream whose first candidate block has even weight inside the
    # density band: it passes the band check but cannot be inverted
    r = DESK.r
    for tag in range(256):
        rng = RandomStream(bytes([tag]) * 32)
        first = BitVector(r, rng.take_bits(r))
        if first.weight == 6:
            s, s_inv = _sample_scrambler(RandomStream(bytes([tag]) * 32), DESK)
            assert s.blocks[0][0].weight % 2 == 1
            return
    pytest.fail("no seed with an even-weight first candidate in 256 tries")


# --- encrypt ---------------------------------------------------------------


def test_encrypt_zero_message_zero_noise(make_rng):
    pk, _ = keygen(DESK, make_rng(0x33))
    n = DESK.n
    ct = encrypt_with(pk, _zero(DESK.plaintext_bits), _zero(n), _zero(n))
    assert ct.c1 == _zero(n)
    assert ct.c2 == hash_mask(_zero(n), n)


def test_encrypt_linear_part_matches_dense_generator(make_rng):
    rng = make_rng(0x34)
    pk, _ = keygen(DESK, rng)
    sg1 = dense.expand_block_matrix(pk.sg1)
    sg2 = dense.expand_block_matrix(pk.sg2)
    top = np.concatenate([sg1, sg1], axis=1)
    bottom = np.concatenate([np.zeros_like(sg2), sg2], axis=1)
    gprime = np.concatenate([top, bottom], axis=0)
    n = DESK.n
    for _ in range(10):
        m = BitVector(DESK.plaintext_bits, rng.take_bits(DESK.plaintext_bits))
        ct = encrypt_with(pk, m, _zero(n), _zero(n))
        linear = oracle.vec_mat_mul(dense.to_array(m), gprime)
        assert oracle.from_array(linear) == ct.c1.concat(ct.c2 ^ hash_mask(_zero(n), n))


def test_encrypt_noise_weight_exact(make_rng):
    rng = make_rng(0x35)
    pk, _ = keygen(TOY, rng)
    m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
    m1 = m.slice(0, TOY.k)
    u = pk.sg1.vec_mul(m1)
    for _ in range(10):
        ct = encrypt(pk, m, rng)
        assert (ct.c1 ^ u).weight == TOY.t1


def test_encrypt_input_validation(make_rng):
    pk, _ = keygen(DESK, make_rng(0x36))
    n = DESK.n
    with pytest.raises(ValueError):
        encrypt_with(pk, _zero(DESK.plaintext_bits - 1), _zero(n), _zero(n))
    with pytest.raises(ValueError):
        encrypt_with(pk, _zero(DESK.plaintext_bits), _zero(n - 1), _zero(n))
    with pytest.raises(ValueError):
        Ciphertext(DESK, _zero(n - 1), _zero(n))


# --- decrypt --------------------------------------------------------------------


def test_roundtrip_toy(make_rng):
    rng = make_rng(0x37)
    pk, sk = keygen(TOY, rng)
    for _ in range(5):
        m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
        assert decrypt(sk, encrypt(pk, m, rng)) == m


def test_roundtrip_cca128(make_rng):
    # the full-size stage decoders return every plaintext of a seeded batch
    params = preset("cca128")
    rng = make_rng(0x3B)
    pk, sk = keygen(params, rng)
    for _ in range(12):
        m = BitVector(params.plaintext_bits, rng.take_bits(params.plaintext_bits))
        assert decrypt(sk, encrypt(pk, m, rng)) == m


def test_roundtrip_zero_noise_parameters(make_rng):
    rng = make_rng(0x38)
    params = SchemeParams(2, 523, 30, 8, 0, 0)
    pk, sk = keygen(params, rng)
    for _ in range(3):
        m = BitVector(params.plaintext_bits, rng.take_bits(params.plaintext_bits))
        assert decrypt(sk, encrypt(pk, m, rng)) == m
    assert decrypt(sk, encrypt(pk, _zero(params.plaintext_bits), rng)) \
        == _zero(params.plaintext_bits)


def test_tampered_c1_fails_at_mdpc_stage(make_rng):
    # far past the decoding radius, and one bit, which the decoder turns
    # into an error of weight t1 + 1
    for extra in (TOY.t1 + -(-TOY.w1 // 2) + 100, 1):
        rng = make_rng(0x39)
        pk, sk = keygen(TOY, rng)
        for _ in range(5):
            m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
            ct = encrypt(pk, m, rng)
            bad = Ciphertext(TOY, ct.c1 ^ sample_fixed_weight(rng, TOY.n, extra), ct.c2)
            with pytest.raises(DecryptionFailure) as info:
                decrypt(sk, bad)
            assert info.value.stage == "mdpc"


def test_tampered_c2_fails_at_ldpc_stage(make_rng):
    # one flipped bit decodes into an error of weight t2 + 1 that carries
    # the original plaintext
    for flips in (200, 1):
        rng = make_rng(0x3A)
        pk, sk = keygen(TOY, rng)
        m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
        ct = encrypt(pk, m, rng)
        bad = Ciphertext(TOY, ct.c1, ct.c2 ^ sample_fixed_weight(rng, TOY.n, flips))
        with pytest.raises(DecryptionFailure) as info:
            decrypt(sk, bad)
        assert info.value.stage == "ldpc"


def test_ciphertext_for_other_params_rejected(make_rng):
    rng = make_rng(0x3C)
    pk, sk = keygen(TOY, rng)
    m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
    ct = encrypt(pk, m, rng)
    assert decrypt(sk, ct) == m
    # the matching key under a header of the same shape (it would decrypt
    # correctly without the check), and a key of another shape altogether
    relabelled = dataclasses.replace(sk, params=dataclasses.replace(TOY, t1=TOY.t1 - 1))
    other = keygen(DESK, rng)[1]
    for key in (relabelled, other):
        with pytest.raises(ValueError, match="different parameters"):
            decrypt(key, ct)


def test_wire_loaded_ciphertext_and_key_cross_decrypt(make_rng):
    # params read back from the wire header must equal the preset's, so a
    # wire-loaded ciphertext meets an in-memory key and the other way round
    rng = make_rng(0x3D)
    pk, sk = keygen(TOY, rng)
    m = BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
    ct = encrypt(pk, m, rng)
    wire_ct = wire.deserialize_ciphertext(wire.serialize_ciphertext(ct))
    wire_sk = wire.deserialize_secret(wire.serialize_secret(sk))
    assert wire_ct.params == TOY
    assert decrypt(sk, wire_ct) == m
    assert decrypt(wire_sk, ct) == m


def test_s_scrambling_transparency(make_rng):
    rng = make_rng(0x3B)
    pk, sk = keygen(TOY, rng)
    m1 = BitVector(TOY.k, rng.take_bits(TOY.k))
    codeword = pk.sg1.vec_mul(m1)
    assert codeword.slice(0, TOY.k) == sk.s.vec_mul(m1)
    assert sk.s_inv.vec_mul(codeword.slice(0, TOY.k)) == m1


# --- what the public scrambler shows -----------------------------------------


def _public_scrambler(sg: BlockMatrix, params: SchemeParams) -> BlockMatrix:
    return BlockMatrix(tuple(row[:params.k0] for row in sg.blocks))


def test_public_key_shows_the_scrambler_and_the_ldpc_code():
    # SG = [S | S A] with the systematic generator [I | A], so the left
    # k0 x k0 blocks of both public generators are S itself, and S^-1 SG2
    # is the secret ldpc code's own generator
    for i in range(3):
        pk, sk = keygen(TOY, substream(b"\x3f" * 32, i))
        assert _public_scrambler(pk.sg1, TOY) == sk.s
        assert _public_scrambler(pk.sg2, TOY) == sk.s
        expect = dense.expand_block_matrix(derive_generator(sk.h2))
        assert np.array_equal(systematic_public_generator(pk), expect)


def test_public_scrambler_tells_which_plaintext_was_encrypted():
    # c1's first k bits are m1 S + z1's first k bits: the plaintext that
    # was encrypted lies within t1 of them, any other about k / 2 away,
    # so the scheme is not IND-CPA (nor is textbook McEliece)
    for i in range(3):
        rng = substream(b"\x40" * 32, i)
        pk, _ = keygen(TOY, rng)
        s = _public_scrambler(pk.sg1, TOY)
        for _ in range(20):
            right, wrong = (BitVector(TOY.plaintext_bits, rng.take_bits(TOY.plaintext_bits))
                            for _ in range(2))
            head = encrypt(pk, right, rng).c1.slice(0, TOY.k)
            right_distance, wrong_distance = (
                (s.vec_mul(m.slice(0, TOY.k)) ^ head).weight for m in (right, wrong))
            assert right_distance <= TOY.t1 < wrong_distance


# --- mask ------------------------------------------------------------------------


def test_hash_mask_deterministic(make_rng):
    rng = make_rng(0x3C)
    z = BitVector(1046, rng.take_bits(1046))
    assert hash_mask(z, 1046) == hash_mask(z, 1046)


def test_hash_mask_single_bit_sensitivity(make_rng):
    rng = make_rng(0x3D)
    n = 1046
    for _ in range(100):
        z = BitVector(n, rng.take_bits(n))
        flipped = z ^ BitVector.from_support(n, (oracle.randbelow(rng, n),))
        dist = (hash_mask(z, n) ^ hash_mask(flipped, n)).weight
        assert 0.4 * n <= dist <= 0.6 * n


def test_second_coordinate_offset_is_heavy(make_rng):
    # c2 ^ c1 = m2 SG2 ^ (z2 ^ z1 ^ mask(z1)); the parenthesized offset is
    # what defeats recovery of m2 from the ldpc structure alone
    rng = make_rng(0x3E)
    n = TOY.n
    for _ in range(1000):
        z1 = sample_fixed_weight(rng, n, TOY.t1)
        z2 = sample_fixed_weight(rng, n, TOY.t2)
        assert (z1 ^ z2 ^ hash_mask(z1, n)).weight >= 0.4 * n
