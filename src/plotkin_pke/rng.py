"""Deterministic random bit streams backed by the SHAKE-256 XOF.

Every randomized operation in this package draws from a ``RandomStream``:
the output of SHAKE-256 applied to a 32-byte seed, consumed left to right
as a bit stream.  Bit ``j`` of the stream is bit ``j mod 8`` of output
byte ``j // 8`` (little-endian within each byte), matching the bit-packing
convention used everywhere else in the package.

Two streams with the same seed produce identical draws on every platform,
which is what makes key generation, encryption, decoding experiments and
attack demos reproducible from a single hex seed.

``draws`` is the one bit reader: it yields fixed-width values, reading a
block of them from the buffer at a time, for loops that reject and redraw
(fixed-weight sampling, the shuffle).  ``take_bits`` reads one value as the
first value of ``draws(nbits, 1)``, so a read mixes freely with ``draws``
iterators as long as each iterator is dropped before the next other read.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

SEED_BYTES = 32
_SHUFFLE_BLOCK = 32  # candidates per read in shuffle


class RandomStream:
    """Sequential bit reader over the SHAKE-256 output of a 32-byte seed."""

    def __init__(self, seed: bytes):
        if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be exactly {SEED_BYTES} bytes")
        self.seed = bytes(seed)
        self._buf = b""
        self._pos = 0  # bits consumed so far

    def _ensure_bits(self, nbits: int) -> None:
        need = (self._pos + nbits + 7) // 8
        if need > len(self._buf):
            # SHAKE output is prefix-stable, so re-squeezing a longer digest
            # keeps all previously consumed bits identical.  Grow
            # geometrically to keep total work linear in bits consumed.
            self._buf = hashlib.shake_256(self.seed).digest(max(64, 2 * need))

    def take_bits(self, nbits: int) -> int:
        """Return the next ``nbits`` bits as an int (bit i at weight 2**i)."""
        return next(self.draws(nbits, 1))

    def draws(self, nbits: int, block: int) -> Iterator[int]:
        """Yield the stream's successive ``nbits``-bit values, reading
        ``block`` of them from the buffer at a time.

        This is the stream's one bit reader: ``take_bits(nbits)`` is the
        first value of ``draws(nbits, 1)``, so each value equals what
        ``take_bits(nbits)`` would return in its place.  The stream
        position moves past a value as it is yielded, so stopping after any
        value leaves the stream exactly there.  The iterator is endless and
        stays valid only until the stream's next read by any other method or
        iterator; drop it then.  Bad arguments raise ``ValueError`` on the
        first ``next``.
        """
        if nbits < 0 or block < 1:
            raise ValueError("need nbits >= 0 and block >= 1")
        mask = (1 << nbits) - 1
        while True:
            self._ensure_bits(nbits * block)
            start = self._pos
            chunk = int.from_bytes(
                self._buf[start // 8 : (start + nbits * block + 7) // 8], "little"
            ) >> (start % 8)
            for _ in range(block):
                self._pos += nbits
                yield chunk & mask
                chunk >>= nbits

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream.

        For i from the top down, swaps items[i] with items[j], where j is
        the first i.bit_length()-bit candidate of at most i: larger ones are
        rejected.  The candidates come through ``draws``, one iterator per
        candidate width, as i.bit_length() falls.
        """
        nbits = 0
        for i in range(len(items) - 1, 0, -1):
            if i.bit_length() != nbits:
                nbits = i.bit_length()
                candidates = self.draws(nbits, _SHUFFLE_BLOCK)
            j = next(candidates)
            while j > i:
                j = next(candidates)
            items[i], items[j] = items[j], items[i]


def derive_substream_seed(seed: bytes, index: int) -> bytes:
    """Seed for independent sub-stream ``index`` of a master seed.

    Defined as SHAKE-256(seed || index as 8-byte little-endian), 32 bytes.
    Work units (e.g. Monte-Carlo trials) seeded this way are independent of
    how they are batched across processes.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be exactly {SEED_BYTES} bytes")
    if index < 0:
        raise ValueError("index must be nonnegative")
    return hashlib.shake_256(seed + index.to_bytes(8, "little")).digest(SEED_BYTES)


def substream(seed: bytes, index: int) -> RandomStream:
    return RandomStream(derive_substream_seed(seed, index))
