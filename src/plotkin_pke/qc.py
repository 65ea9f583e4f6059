"""Quasi-cyclic code construction: parity checks, generators, syndromes.

A quasi-cyclic code here is an [n0*r, (n0-1)*r] code whose parity-check
matrix is a single row of n0 circulant blocks H = [H_0 | ... | H_{n0-1}]
with H_{n0-1} invertible.  The corresponding systematic generator is
G = [I_k | Q] with block column Q_i = (H_{n0-1}^{-1} H_i)^T, so that every
codeword is [message | parity] and H c^T = 0; ``derive_generator`` returns
it as an (n0-1) x n0 ``BlockMatrix``.

Two sparsity regimes are supported: "mdpc" rows (total weight on the order
of sqrt(n)) decode with bit-flipping at moderate error weights, and "ldpc"
rows (total weight <= 32) decode at much higher error weights but leak
structure; the public-key scheme uses one of each, and the attack lab
exploits the ldpc side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

from .gf2 import (
    BitVector,
    BlockMatrix,
    CirculantBlock,
    NotInvertibleError,
    _block_dot,
    _transpose_row,
    sample_fixed_weight,
)
from .rng import RandomStream

FLAVORS = ("mdpc", "ldpc")
LDPC_MAX_WEIGHT = 32
SAMPLE_ATTEMPTS = 100


class GenerationError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class QcParams:
    """Shape of one quasi-cyclic code: n0 blocks of size r, row weight w."""

    n0: int
    r: int
    w: int
    flavor: str

    def __post_init__(self):
        if self.n0 < 2:
            raise ValueError("n0 must be at least 2")
        if self.r < 1 or self.r % 2 == 0:
            raise ValueError("r must be odd and positive")
        if self.w < 1 or self.w > self.n0 * self.r:
            raise ValueError("row weight out of range")
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        n = self.n0 * self.r
        if self.flavor == "mdpc":
            if not math.sqrt(n) / 2 <= self.w <= 4 * math.sqrt(n):
                raise ValueError("mdpc weight must be on the order of sqrt(n)")
        else:
            if self.w > LDPC_MAX_WEIGHT:
                raise ValueError(f"ldpc weight must be <= {LDPC_MAX_WEIGHT}")

    @property
    def n(self) -> int:
        return self.n0 * self.r

    @property
    def k(self) -> int:
        return (self.n0 - 1) * self.r

    def block_weights(self) -> tuple[int, ...]:
        """Per-block row weights: as even a split as possible, except that
        the last block must end up odd (an even row is never invertible).
        When the even split leaves the last share even, one unit moves from
        block 0 to the last block."""
        base, rem = divmod(self.w, self.n0)
        weights = [base + 1 if i < rem else base for i in range(self.n0)]
        if weights[-1] % 2 == 0:
            weights[0] -= 1
            weights[-1] += 1
        return tuple(weights)


@dataclass(frozen=True)
class QcParityCheck:
    params: QcParams
    blocks: tuple[CirculantBlock, ...]

    def __post_init__(self):
        if len(self.blocks) != self.params.n0:
            raise ValueError("block count differs from n0")
        for b in self.blocks:
            if b.r != self.params.r:
                raise ValueError("block size differs from r")

    @cached_property
    def _h_t_rows(self) -> list[int]:
        """The ``_transposed_rows``, which ``syndrome`` and every decode read.
        Made on first use and kept, since blocks never change, as is the
        decoder's plan (``bitflip._kept_plan``); equality, hashing and
        pickles read only the fields."""
        return _transposed_rows(self)

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@lru_cache(maxsize=16)
def _two_generates(r: int) -> bool:
    """True when 2 has order r - 1 modulo r (Lucas test; r is then prime).

    For such r, x^r - 1 = (x + 1) Phi_r over GF(2) with Phi_r = 1 + x + ...
    + x^(r-1) irreducible, so a row inverts iff its weight is odd and below r.
    Memoized, as every sample at one r asks it again.
    """
    if r <= 2 or pow(2, r - 1, r) != 1:
        return False
    m, q = r - 1, 2  # trial division of r - 1 by each prime q
    while q * q <= m:
        if m % q == 0:
            if pow(2, (r - 1) // q, r) == 1:
                return False
            while m % q == 0:
                m //= q
        q += 1
    return m == 1 or pow(2, (r - 1) // m, r) != 1  # m > 1 is the last prime


def sample_parity_check(rng: RandomStream, params: QcParams) -> QcParityCheck:
    """Sample block rows at the prescribed weights; the last block is
    resampled (up to a fixed attempt budget) until it inverts.

    ``block_weights`` makes the last block odd, so when 2 has order r - 1
    modulo r (``_two_generates``, the BIKE rule) a weight below r already
    proves it invertible and no inversion is run; at other r each draw is
    tested by inverting it.  Both tests accept exactly the same rows.
    """
    weights = params.block_weights()
    blocks = [
        CirculantBlock(params.r, sample_fixed_weight(rng, params.r, weights[i]))
        for i in range(params.n0 - 1)
    ]
    weight_decides = _two_generates(params.r)
    for _ in range(SAMPLE_ATTEMPTS):
        last = CirculantBlock(params.r, sample_fixed_weight(rng, params.r, weights[-1]))
        if not (weight_decides and last.weight < params.r):
            try:
                last.inverse()
            except NotInvertibleError:
                continue
        blocks.append(last)
        return QcParityCheck(params, tuple(blocks))
    raise GenerationError(
        f"no invertible final block after {SAMPLE_ATTEMPTS} attempts"
    )


def derive_generator(h: QcParityCheck) -> BlockMatrix:
    """Systematic generator [I_k | Q] as an (n0-1) x n0 block matrix: block
    row i of the identity I_k, extended by Q_i = (H_{n0-1}^{-1} H_i)^T."""
    inv = h.blocks[-1].inverse()
    eye = BlockMatrix.identity(h.params.n0 - 1, h.params.r)
    return BlockMatrix(tuple(
        row + ((inv * h_i).transpose(),) for row, h_i in zip(eye.blocks, h.blocks[:-1])
    ))


def encode(gen: BlockMatrix, message: BitVector) -> BitVector:
    """Systematic encoding: message times [I_k | Q] is [message | parity]."""
    return gen.vec_mul(message)


def _transposed_rows(h: QcParityCheck) -> list[int]:
    """First row of each transposed block H_i^T, packed."""
    return [_transpose_row(b.row0.value, h.params.r) for b in h.blocks]


def syndrome(h: QcParityCheck, word: BitVector) -> BitVector:
    """H x^T as a length-r vector; zero exactly on codewords.  It is the sum
    of the blocks x_i(x) times the rows H_i^T, through ``gf2._block_dot``."""
    if word.length != h.params.n:
        raise ValueError("word length differs from code length")
    r = h.params.r
    return BitVector(r, _block_dot(word.value, h._h_t_rows, r))
