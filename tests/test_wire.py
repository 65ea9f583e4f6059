"""Serialization: lossless round trips and strict rejection of bad bytes."""

import hashlib
from dataclasses import replace

import pytest

from plotkin_pke import preset
from plotkin_pke.gf2 import BitVector, BlockMatrix, CirculantBlock
from plotkin_pke.rng import RandomStream
from plotkin_pke.scheme import SchemeParams, encrypt, keygen
from plotkin_pke.wire import (
    HEADER_BYTES,
    MalformedHeaderError,
    PayloadLengthError,
    TruncatedPayloadError,
    WireFormatError,
    deserialize_ciphertext,
    deserialize_public,
    deserialize_secret,
    pack_plaintext,
    parse_header,
    serialize_ciphertext,
    serialize_public,
    serialize_secret,
    unpack_plaintext,
)

DESK = SchemeParams(2, 13, 5, 3, 1, 1)


@pytest.fixture
def material(make_rng):
    rng = make_rng(0x40)
    pk, sk = keygen(DESK, rng)
    m = BitVector(DESK.plaintext_bits, rng.take_bits(DESK.plaintext_bits))
    ct = encrypt(pk, m, rng)
    return pk, sk, m, ct


def test_roundtrips(material, make_rng):
    pk, sk, m, ct = material
    assert deserialize_public(serialize_public(pk)) == pk
    assert deserialize_ciphertext(serialize_ciphertext(ct)) == ct
    sk2 = deserialize_secret(serialize_secret(sk))
    assert (sk2.params, sk2.h1, sk2.h2, sk2.s) == (sk.params, sk.h1, sk.h2, sk.s)
    assert sk2.s_inv == sk.s_inv  # recomputed, must agree
    assert unpack_plaintext(pack_plaintext(m), DESK) == m


def test_roundtrips_many_keys(make_rng):
    rng = make_rng(0x41)
    for _ in range(20):
        pk, sk = keygen(DESK, rng)
        assert deserialize_public(serialize_public(pk)) == pk
        assert deserialize_secret(serialize_secret(sk)).s == sk.s


@pytest.mark.parametrize(
    "name, digest",
    [
        ("toy", "5a62a921789f388a03e159f17540689207d3dc8d6983390e2f6aa067ccb10346"),
        ("cca128", "e0050ab6339b66a2ba8083bc059d23a67c65ad737e86ff5921770c83c303b321"),
    ],
)
def test_wire_bytes_known_answer(name, digest):
    params = preset(name)
    pk, sk = keygen(params, RandomStream(b"\x11" * 32))
    bits = params.plaintext_bits
    m = BitVector(bits, RandomStream(b"\x33" * 32).take_bits(bits))
    ct = encrypt(pk, m, RandomStream(b"\x22" * 32))
    blob = serialize_public(pk) + serialize_secret(sk) + serialize_ciphertext(ct)
    assert hashlib.sha256(blob).hexdigest() == digest


def test_public_payload_size():
    params = SchemeParams(2, 11779, 142, 8, 134, 8)
    rows = 2 * (params.n0 - 1) * params.n0  # 4 circulant first rows
    payload_bytes = (rows * params.r + 7) // 8
    assert payload_bytes == 5890
    # spot-check against a real serialization at desk scale
    from plotkin_pke.rng import RandomStream

    pk, _ = keygen(DESK, RandomStream(b"\x42" * 32))
    blob = serialize_public(pk)
    assert len(blob) == HEADER_BYTES + (4 * 13 + 7) // 8


def test_header_fields_roundtrip(material):
    pk, _, _, _ = material
    params, payload = parse_header(serialize_public(pk))
    assert params == DESK


def test_corrupt_magic(material):
    pk, _, _, _ = material
    blob = bytearray(serialize_public(pk))
    blob[0] ^= 0xFF
    with pytest.raises(MalformedHeaderError):
        deserialize_public(bytes(blob))


def test_unsupported_version(material):
    pk, _, _, _ = material
    blob = bytearray(serialize_public(pk))
    blob[4] = 0x02
    with pytest.raises(MalformedHeaderError):
        deserialize_public(bytes(blob))


def test_insane_header_parameters(material):
    pk, _, _, _ = material
    blob = bytearray(serialize_public(pk))
    blob[6:10] = (14).to_bytes(4, "little")  # even r
    with pytest.raises(MalformedHeaderError):
        deserialize_public(bytes(blob))


def test_truncated_payload(material):
    pk, _, _, ct = material
    with pytest.raises(TruncatedPayloadError):
        deserialize_public(serialize_public(pk)[:-1])
    with pytest.raises(TruncatedPayloadError):
        deserialize_ciphertext(serialize_ciphertext(ct)[:HEADER_BYTES])
    with pytest.raises(TruncatedPayloadError):
        parse_header(b"PQUV")


def test_overlong_payload(material):
    pk, _, _, _ = material
    with pytest.raises(PayloadLengthError):
        deserialize_public(serialize_public(pk) + b"\x00")


def test_nonzero_padding_bits(material):
    pk, _, _, _ = material
    blob = bytearray(serialize_public(pk))
    # 52 payload bits -> 7 bytes; bits 52..55 of the last byte are padding
    blob[-1] |= 0x80
    with pytest.raises(PayloadLengthError):
        deserialize_public(bytes(blob))


def test_public_key_with_two_scramblers_rejected():
    params = preset("toy")
    pk, _ = keygen(params, RandomStream(b"\x11" * 32))
    blob = bytearray(serialize_public(pk))
    bit = 2 * params.r  # bit 0 of SG2's first block, its copy of S
    blob[HEADER_BYTES + bit // 8] ^= 1 << (bit % 8)
    with pytest.raises(WireFormatError, match="scramblers"):
        deserialize_public(bytes(blob))


@pytest.mark.parametrize("scrambler", ["even weight", "all ones"])
def test_full_size_secret_with_singular_scrambler_rejected(scrambler):
    # S^-1 at cca128 takes the norm route of gf2._inverse_mod, which the
    # toy-size keys above never reach: x + 1 divides an even-weight row, and
    # the all-ones row is Phi_r itself
    params = preset("cca128")
    _, sk = keygen(params, RandomStream(b"\x11" * 32))
    r = params.r
    row = sk.s.blocks[0][0].row0.value ^ 1 if scrambler == "even weight" else (1 << r) - 1
    bad = replace(sk, s=BlockMatrix(((CirculantBlock(r, BitVector(r, row)),),)))
    with pytest.raises(WireFormatError, match="does not invert"):
        deserialize_secret(serialize_secret(bad))


def test_secret_weight_mismatch(material):
    _, sk, _, _ = material
    blob = bytearray(serialize_secret(sk))
    first_set = next(
        i for i in range(HEADER_BYTES, len(blob)) if blob[i]
    )
    blob[first_set] ^= blob[first_set] & (-blob[first_set])  # clear lowest set bit
    with pytest.raises(WireFormatError):
        deserialize_secret(bytes(blob))


def test_plaintext_length_checks():
    n = (DESK.plaintext_bits + 7) // 8
    with pytest.raises(TruncatedPayloadError):
        unpack_plaintext(b"\x00" * (n - 1), DESK)
    with pytest.raises(PayloadLengthError):
        unpack_plaintext(b"\x00" * (n + 1), DESK)


def test_plaintext_padding_check():
    # 26 bits -> 4 bytes; the top 6 bits of byte 3 must be zero
    data = bytearray((DESK.plaintext_bits + 7) // 8)
    data[3] = 0xFF
    with pytest.raises(WireFormatError):
        unpack_plaintext(bytes(data), DESK)
