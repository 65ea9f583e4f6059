"""Byte-level formats for keys, ciphertexts and plaintexts.

Every file starts with an 18-byte header:

    magic "PQUV" | version 0x01 | n0 (1 byte) | r (4 bytes LE)
    | w1 | w2 | t1 | t2 (2 bytes LE each)

followed by a bit-packed payload (bit j at bit j%8 of byte j//8, rows
concatenated with no per-row padding, the whole payload padded with zero
bits to a byte boundary):

* public key:  first rows of all SG1 blocks row-major, then all SG2 blocks;
               2 (n0-1) n0 r bits total.  Both start with the same
               scrambler S, and loading checks that they do.
* secret key:  first rows of H1 blocks, H2 blocks, then the scrambler S
               blocks row-major; S^-1 is recomputed on load.
* ciphertext:  c1 then c2; 2 n0 r bits.

Deserialization checks the magic, the version, parameter sanity, and the
exact payload length (including that padding bits are zero) before
touching any content.
"""

from __future__ import annotations

import struct

from .gf2 import BitVector, BlockMatrix, CirculantBlock, NotInvertibleError
from .qc import QcParityCheck
from .scheme import Ciphertext, PublicKey, SchemeParams, SecretKey

MAGIC = b"PQUV"
VERSION = 1
_HEADER = struct.Struct("<4sBBIHHHH")
HEADER_BYTES = _HEADER.size  # 18


class WireFormatError(ValueError):
    """Base class for parse failures."""


class MalformedHeaderError(WireFormatError):
    """Bad magic, unsupported version, or insane parameters."""


class TruncatedPayloadError(WireFormatError):
    """Fewer bytes than the header-implied payload requires."""


class PayloadLengthError(WireFormatError):
    """More bytes than expected, or set bits in the final padding."""


def _pack_rows(rows: list[BitVector]) -> bytes:
    acc = 0
    pos = 0
    for row in rows:
        acc |= row.value << pos
        pos += row.length
    return acc.to_bytes((pos + 7) // 8, "little")


def _unpack(data: bytes, nbits: int) -> BitVector:
    """The ``nbits``-bit payload packed in ``data``, which must be exactly
    its bytes with zero padding."""
    if len(data) < (nbits + 7) // 8:
        raise TruncatedPayloadError(f"payload of {len(data)} bytes is too short for {nbits} bits")
    try:
        return BitVector.from_bytes(data, nbits)
    except ValueError as exc:  # too long, or padding bits set
        raise PayloadLengthError(f"payload of {len(data)} bytes for {nbits} bits: {exc}") from exc


def header_bytes(params: SchemeParams) -> bytes:
    """The file header for ``params``; WireFormatError if a field overflows."""
    try:
        return _HEADER.pack(
            MAGIC, VERSION, params.n0, params.r, params.w1, params.w2, params.t1, params.t2
        )
    except struct.error as exc:
        raise WireFormatError(f"parameters do not fit the file header: {exc}") from exc


def parse_header(data: bytes) -> tuple[SchemeParams, bytes]:
    """Split ``data`` into validated parameters and the raw payload."""
    if len(data) < HEADER_BYTES:
        raise TruncatedPayloadError("shorter than the fixed header")
    magic, version, n0, r, w1, w2, t1, t2 = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedHeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise MalformedHeaderError(f"unsupported version {version}")
    try:
        params = SchemeParams(n0=n0, r=r, w1=w1, w2=w2, t1=t1, t2=t2)
    except ValueError as exc:
        raise MalformedHeaderError(f"insane parameters: {exc}") from exc
    return params, data[HEADER_BYTES:]


def _grid_rows(bm: BlockMatrix) -> list[BitVector]:
    return [b.row0 for row in bm.blocks for b in row]


def _grid_from_rows(rows: list[BitVector], r: int, nrows: int, ncols: int) -> BlockMatrix:
    it = iter(rows)
    return BlockMatrix(
        tuple(
            tuple(CirculantBlock(r, next(it)) for _ in range(ncols))
            for _ in range(nrows)
        )
    )


def serialize_public(pk: PublicKey) -> bytes:
    return header_bytes(pk.params) + _pack_rows(
        _grid_rows(pk.sg1) + _grid_rows(pk.sg2)
    )


def deserialize_public(data: bytes) -> PublicKey:
    params, payload = parse_header(data)
    k0, n0, r = params.k0, params.n0, params.r
    rows = _unpack(payload, 2 * k0 * n0 * r).chunks(r)
    half = k0 * n0
    sg1 = _grid_from_rows(rows[:half], r, k0, n0)
    sg2 = _grid_from_rows(rows[half:], r, k0, n0)
    # SG1 = [S | S A1] and SG2 = [S | S A2] publish one scrambler twice
    if [row[:k0] for row in sg1.blocks] != [row[:k0] for row in sg2.blocks]:
        raise WireFormatError("the two public generators carry different scramblers")
    return PublicKey(params=params, sg1=sg1, sg2=sg2)


def serialize_secret(sk: SecretKey) -> bytes:
    rows = (
        [b.row0 for b in sk.h1.blocks]
        + [b.row0 for b in sk.h2.blocks]
        + _grid_rows(sk.s)
    )
    return header_bytes(sk.params) + _pack_rows(rows)


def deserialize_secret(data: bytes) -> SecretKey:
    params, payload = parse_header(data)
    n0, k0, r = params.n0, params.k0, params.r
    rows = _unpack(payload, (2 * n0 + k0 * k0) * r).chunks(r)
    h1_rows, h2_rows, s_rows = rows[:n0], rows[n0 : 2 * n0], rows[2 * n0 :]
    for got, want, which in (
        (sum(v.weight for v in h1_rows), params.w1, "mdpc"),
        (sum(v.weight for v in h2_rows), params.w2, "ldpc"),
    ):
        if got != want:
            raise WireFormatError(f"{which} parity rows have weight {got}, header says {want}")
    h1 = QcParityCheck(params.mdpc_params(), tuple(CirculantBlock(r, v) for v in h1_rows))
    h2 = QcParityCheck(params.ldpc_params(), tuple(CirculantBlock(r, v) for v in h2_rows))
    s = _grid_from_rows(s_rows, r, k0, k0)
    try:
        s_inv = s.inverse()
    except NotInvertibleError as exc:
        raise WireFormatError("stored scrambler does not invert") from exc
    return SecretKey(params=params, h1=h1, h2=h2, s=s, s_inv=s_inv)


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    return header_bytes(ct.params) + _pack_rows([ct.c1, ct.c2])


def deserialize_ciphertext(data: bytes) -> Ciphertext:
    params, payload = parse_header(data)
    c1, c2 = _unpack(payload, 2 * params.n).chunks(params.n)
    return Ciphertext(params, c1, c2)


def pack_plaintext(message: BitVector) -> bytes:
    return message.to_bytes()


def unpack_plaintext(data: bytes, params: SchemeParams) -> BitVector:
    return _unpack(data, params.plaintext_bits)
