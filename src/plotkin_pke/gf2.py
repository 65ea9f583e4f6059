"""Binary circulant arithmetic via the polynomial ring GF(2)[x]/(x^r - 1).

An r x r binary circulant matrix is determined by its first row: row i is
the right cyclic shift of row 0 by i positions.  Under that convention the
map sending a circulant to the polynomial a(x) = sum_{j in support(row0)} x^j
is a ring isomorphism, so circulant add/multiply/invert reduce to polynomial
arithmetic modulo x^r - 1.  This module keeps rows as plain Python ints
(bit j of the int is entry j of the row) and implements:

* ``BitVector``       -- fixed-length immutable bit vectors,
* ``CirculantBlock``  -- one circulant, with +, *, transpose, inverse,
* ``BlockMatrix``     -- matrices of circulant blocks: the scrambler and
                         every generator, systematic or scrambled,
* ``sample_fixed_weight`` -- uniform fixed-weight vectors from a RandomStream,
                         by rejection on a block of candidates at a time.

Useful facts used throughout: transposing a circulant reverses the index of
every nonzero coefficient (j -> -j mod r); a circulant is invertible iff
gcd(a(x), x^r - 1) = 1, which requires odd row weight, and Euclid run one
leading term per step (``_xgcd``) finds the inverse; for odd r from
``_NORM_MIN_R`` = 2000 to ``_layout``'s 65533, ``_inverse_mod`` runs that
Euclid at half length, on the norm a(x) a(x^-1), a polynomial in
y = x + x^-1 of degree at most (r - 1)/2, and two products take its
inverse back (0.43 of the time of ``_xgcd`` at r = 11779, 0.38 at 40597);
when 2 has order r - 1 modulo r, x^r - 1 = (x + 1) Phi_r with
Phi_r = 1 + x + ... + x^(r-1) irreducible, so odd weight below r is also
sufficient (the all-ones row is Phi_r itself), which lets
``qc.sample_parity_check`` skip the inversion; and a row vector times a
circulant is again a polynomial product, so a row vector times a column of
circulants is a sum of them (``_block_dot``, shared by
``BlockMatrix.vec_mul``, the syndrome and the decoder).

Every product takes one of two routes, chosen on the weight of the lighter
operand against ``_SPARSE_MAX_WEIGHT``.  Up to it (the rows of H) the
product is one shift-xor per set bit of that operand, always in
``_block_dot``: the syndrome, the decoder's updates, and the light pairs
of ``BlockMatrix.vec_mul``.  Above it (S, S^-1, the public generator, the
plaintext) it is a real FFT convolution with two coefficients to a point
(Kronecker substitution, ``_layout``), so the transform is about r long,
not 2r: each operand's ``_spectrum``, and ``_pack`` to round the inverse
transform of the spectra's product, read the coefficients' parities out
of its digits and fold them mod x^r - 1.  ``vec_mul`` decides for both
callers, ``A @ B`` (block row i is ``B.vec_mul`` of A's row i) and
``CirculantBlock.__mul__`` (a 1 x 1 matrix of the lighter block).  It
keeps a matrix's dense spectra from first use, so a loaded key's blocks
are transformed once, and takes one inverse transform per spectral
product: an encrypt takes 2 forward and 4 inverse transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .rng import RandomStream


class NotInvertibleError(ValueError):
    """Raised when a circulant block or block matrix has no inverse."""


# ---------------------------------------------------------------------------
# bit vectors


@dataclass(frozen=True)
class BitVector:
    """Immutable bit vector of fixed length, stored as an int.

    Bit j of ``value`` is coordinate j.  Packed byte form puts bit j at
    bit (j mod 8) of byte j // 8, i.e. little-endian within each byte,
    which is exactly ``int.to_bytes(..., "little")``.
    """

    length: int
    value: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.value < 0 or self.value >> self.length:
            raise ValueError("value has bits beyond the declared length")

    @classmethod
    def from_support(cls, length: int, positions) -> "BitVector":
        value = 0
        for p in positions:
            if not 0 <= p < length:
                raise ValueError(f"position {p} out of range for length {length}")
            value |= 1 << p
        return cls(length, value)

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitVector":
        if len(data) != (length + 7) // 8:
            raise ValueError("byte string does not match declared bit length")
        value = int.from_bytes(data, "little")
        if value >> length:
            raise ValueError("padding bits beyond the declared length are set")
        return cls(length, value)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.length + 7) // 8, "little")

    @property
    def weight(self) -> int:
        return self.value.bit_count()

    def support(self) -> tuple[int, ...]:
        """Indices of the set bits, ascending."""
        out = []
        v = self.value
        while v:  # from the top bit: v & -v would negate the whole long int
            top = v.bit_length() - 1
            out.append(top)
            v ^= 1 << top
        return tuple(reversed(out))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ValueError("length mismatch")
        return BitVector(self.length, self.value ^ other.value)

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(
            self.length + other.length, self.value | (other.value << self.length)
        )

    def slice(self, start: int, size: int) -> "BitVector":
        if start < 0 or size < 0 or start + size > self.length:
            raise ValueError("slice out of range")
        return BitVector(size, (self.value >> start) & ((1 << size) - 1))

    def chunks(self, size: int) -> tuple["BitVector", ...]:
        if size <= 0 or self.length % size:
            raise ValueError("length is not a multiple of chunk size")
        return tuple(
            self.slice(i, size) for i in range(0, self.length, size)
        )


# ---------------------------------------------------------------------------
# polynomial helpers on raw ints (coefficients of GF(2)[x])


# A lighter operand up to this weight takes ``_block_dot``'s set-bit loop, a
# heavier one the spectral product of ``BlockMatrix.vec_mul`` (and its
# ``_spectra``), which ``CirculantBlock.__mul__`` takes too, so every row of H
# (block weight at most 137 at any preset) stays on the loop.  The bound sits
# below every crossover: at r = 523 the loop takes 0.065 ms at w = 192 and
# ties kept spectra near w = 224 (0.075 ms), and a product transforming both
# operands (0.095 ms) never wins, as the lighter weighs at most about r/2; at
# r = 11779 the loop takes 0.38 ms and ties kept spectra near w = 300 (0.58
# ms; 250 to 390 over four runs), both transformed near w = 400 (0.77 ms).
# Medians of 101 calls, taken in turn against a random row, 2-vCPU VM.
_SPARSE_MAX_WEIGHT = 192


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's FFT runs fast: at a
    length with a large prime factor, as r and 2r for every preset r, it falls
    back to Bluestein's algorithm, 20 to 30 times slower."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=16)
def _layout(r: int) -> tuple[int, int, np.ndarray]:
    """(size, b, digits): how a product mod x^r - 1 is transformed.

    Kronecker substitution puts two coefficients in one real FFT point:
    point p of an operand is the digit a_2p + B a_2p+1, with B = 2^b, so
    the operands' ceil(r/2) points convolve at ``size``, the ``_fft_size``
    of 2 ceil(r/2) - 1.  Point k of that convolution is d0 + B d1 + B^2 d2:
    d0 and d2 sum the even-even and odd-odd bit products of coefficients 2k
    and 2k + 2, at most ceil(r/2) each, and the cross digit d1 those of
    coefficient 2k + 1, at most 2 ceil(r/2).  B is the least power of two
    above that (at least 8, for ``_pack``), so no digit carries into the
    next.  The bound holds for one product, so each product of spectra
    takes an inverse transform of its own: a sum of two would need B above
    2r + 2, and at r = 40597 (b = 17) its rounding error reaches 1/2.
    ``digits[byte]`` holds the four points of one byte of coefficients.
    """
    half = (r + 1) // 2
    b = max((2 * half).bit_length(), 3)
    if b > 16:  # at b = 17 the rounding error reaches 1/2 (``_pack``)
        raise ValueError(f"r = {r}: two coefficients per float64 point need r <= 65533")
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
    digits = bits[:, 0::2] + bits[:, 1::2] * float(1 << b)
    digits.flags.writeable = False  # shared by every caller at this r
    return _fft_size(2 * half - 1), b, digits


def _spectrum(a: int, r: int) -> np.ndarray:
    """Real FFT of a's points (``_layout``), zero-padded to its size."""
    size, _, digits = _layout(r)
    data = np.frombuffer(a.to_bytes((a.bit_length() + 7) // 8, "little"), np.uint8)
    return np.fft.rfft(digits[data].ravel(), size)


# times a little-endian word of four 2-bit codes, one per byte, this puts
# code i at bits 24 + 2i and every cross term below bit 24 or above bit 31
_GATHER = np.uint32(1 << 24 | 1 << 18 | 1 << 12 | 1 << 6)


def _pack(spectrum: np.ndarray, r: int) -> int:
    """The product mod x^r - 1 whose real FFT (``_layout``) is ``spectrum``.

    The inverse transform is the points' integer convolution, computed in
    float64 and rounded.  Bits 0, b and 2b of point k are the parities of
    coefficients 2k, 2k + 1 and 2k + 2: masked, one multiply moves them to
    bits p, p + 1 and p + 2 (p = 2b - 2; for b >= 3 every cross term lands
    on a bit of its own), bit 2b is XORed into bit 0 of point k + 1, and
    the 2-bit codes are packed four to a byte and folded mod x^r - 1.

    Rounding is exact while the error stays below 1/2.  All-ones times
    all-ones has the largest points, and max |c - rint(c)| reads 6.0e-8 at
    r = 523, 4.9e-4 at 11779, 7.8e-3 at 24821 and 0.047 at 40597.
    Percival's bound (Math. Comp. 2003, Thm. 5.1: for a radix-2 transform
    of length 2^n >= size, ||x|| ||y|| ((1+e)^3n (1+e sqrt 5)^(3n+1)
    (1+e)^3n - 1), e = 2^-53 also bounding the twiddle error) gives
    3.9e-6, 0.032, 0.29 and 1.99 there.  It is loose, 29 to 66 times the
    measured error at 523 and every preset r, as it adds every rounding
    error at full size where they mostly cancel.  So it proves the rounding
    exact at every preset r up to 32749 (0.38), but not at 40597, where
    exactness rests on the measured margin.  At r = 65533, the last r that
    ``_layout`` takes, the error reads 0.047; at b = 17 it read 0.32 at
    r = 65537 and 0.5, with wrong parities, at 100003.
    """
    size, b, _ = _layout(r)
    c = np.fft.irfft(spectrum, size)
    m = (r + 1) // 2 * 2 - 1  # points of the convolution
    n = np.zeros((m + 4) // 4 * 4, np.int64)  # a point to spare, whole words of codes
    np.add(c[:m], 0.5, out=n[:m], casting="unsafe")  # rounds, as c > -1/2
    p = 2 * b - 2
    n &= 1 | 1 << b | 1 << 2 * b
    n *= 1 << p | 1 << p + 1 - b | 1 << p + 2 - 2 * b  # wraps mod 2^64 above bit p + 2
    n >>= p
    low = n.astype(np.uint8)
    codes = low & 3
    codes[1:] ^= low[:-1] >> 2 & 1
    packed = (codes.view("<u4") * _GATHER >> 24).astype(np.uint8)
    x = int.from_bytes(packed.tobytes(), "little")
    return (x & (1 << r) - 1) ^ (x >> r)


def _block_dot(y: int, rows: list[int], r: int, blocks: int | None = None,
               supports: list[list[int]] | None = None) -> int:
    """sum_i y_i(x) * rows[i](x) mod (x^r - 1) over the r-bit blocks y_i of
    the packed word y: a row vector times one column of circulants.

    Each product is one shift-xor per set bit of its lighter operand, for
    the syndrome, the decoder and the light pairs ``vec_mul`` sends here.
    y may pack several words of n >= 2r bits, word l at bit l n; ``blocks``
    is then the r-bit mask at the foot of every word, and the result holds
    word l's sum at bit l n.  Block i of every word is multiplied at once,
    each product staying inside its word, and the unreduced products are
    summed and folded once: folding is linear, so the sum is the same as
    folding every product.  ``supports``, when given, holds the supports
    of the rows, an index r standing for 0 (the decoder's H^T, read once
    per decode): a y_i heavier than its row's support is shifted by each
    index of it, with no scan for set bits.
    """
    mask = (1 << r) - 1 if blocks is None else blocks
    acc = 0
    for i, row in enumerate(rows):
        y_i = (y >> i * r) & mask
        if supports and y_i.bit_count() > len(supports[i]):
            for u in supports[i]:
                acc ^= y_i << u
            continue
        a, b = y_i, row
        if a.bit_count() > b.bit_count():
            a, b = b, a
        while a:  # from the top bit: a & -a would negate the whole long int
            top = a.bit_length() - 1
            acc ^= b << top
            a ^= 1 << top
    return (acc & mask) ^ (acc >> r & mask)


# _REV8[i] is the byte i with its bit order reversed
_REV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _transpose_row(v: int, r: int) -> int:
    """First row of the transposed circulant: bit j moves to (r - j) mod r."""
    nb = (r + 7) // 8
    rev = int.from_bytes(v.to_bytes(nb, "little").translate(_REV8), "big") >> (8 * nb - r)
    return ((rev << 1) | (rev >> (r - 1))) & ((1 << r) - 1)  # j -> r - 1 - j -> j + 1


def _xgcd(a: int, b: int) -> tuple[int, int]:
    """(g, u) with g = gcd(a(x), b(x)) and u a = g mod b, for b != 0.

    Euclid one leading term per step: the lower-degree remainder, shifted
    by the degree gap, is XORed into the higher one, and likewise for the
    cofactors, so no quotient is built.  The pair swaps exactly when a long
    division would end, so u is the classical cofactor, of degree below
    deg b - deg g when deg a < deg b.  The bit lengths of the remainders
    are carried along, so a step measures only the one it changed.
    """
    r0, u0, r1, u1 = a, 1, b, 0  # invariant: r_i = u_i a mod b
    n0, n1 = a.bit_length(), b.bit_length()
    while r0:
        if n0 < n1:
            r0, u0, n0, r1, u1, n1 = r1, u1, n1, r0, u0, n0
        r0 ^= r1 << (n0 - n1)
        u0 ^= u1 << (n0 - n1)
        n0 = r0.bit_length()
    return r1, u1


def _change_basis(c: int, h: int, inverse: bool = False) -> int:
    """Coordinates c_0, c_1, ... in the basis 1, x^k + x^-k (k >= 1) of
    degree at most h, rewritten in the powers of y = x + x^-1, or back.

    For m a power of two, x^(m+j) + x^-(m+j) = y^m (x^j + x^-j) + x^(m-j)
    + x^-(m-j), as y^m = x^m + x^-m in characteristic 2.  So, padded to a
    power of two P, a level m = P/2, P/4, ..., 2 XORs coordinates m+1..2m-1
    of every block of 2m, reversed, into 1..m-1; what stays at m + j is then
    y^m times coordinate j.  Each level undoes itself, so the inverse runs
    them from m = 2 up.
    """
    size = 1 << h.bit_length()
    bits = np.unpackbits(np.frombuffer(c.to_bytes((size + 7) // 8, "little"), np.uint8),
                         count=size, bitorder="little")
    levels = [size >> k for k in range(1, size.bit_length() - 1)]
    for m in reversed(levels) if inverse else levels:
        block = bits.reshape(-1, 2 * m)
        block[:, 1:m] ^= block[:, :m:-1]
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=16)
def _norm_modulus(r: int) -> int:
    """M(y) of degree h = (r - 1)/2 with x^h M(x + x^-1) = Phi_r, the all-ones
    row: x^-h Phi_r has every coordinate 1 in the basis 1, x^k + x^-k."""
    h = (r - 1) // 2
    return _change_basis((1 << h + 1) - 1, h)


# From this r (odd, up to ``_layout``'s 65533) ``_inverse_mod`` inverts
# through the norm, whose Euclid runs at half length; below it the two
# products and the basis change cost more than the Euclid saves.  Against
# ``_xgcd`` on a dense odd row the route took 1.94 of its time at r = 523,
# 1.27 at 1031, 1.12 at 1543, 1.03 at 1801, 0.98 at 2053, 0.73 at 4099,
# 0.43 at 11779 and 0.38 at 40597, and on a row of weight 71 0.75 at 2053
# and 0.36 at 11779 (medians of 21 calls taken in turn, 7 at r > 20000,
# 2-vCPU VM).
_NORM_MIN_R = 2000


def _inverse_mod(a: int, r: int) -> int:
    """Inverse of a(x) modulo x^r - 1, of degree < r.

    Below ``_NORM_MIN_R``, for even r and for r above 65533 it is the
    ``_xgcd`` cofactor against x^r - 1.  Otherwise it goes through the
    norm N = a sigma(a) to the subring fixed by sigma: x -> x^-1
    (``_transpose_row``).  N is sigma-invariant, so its low h + 1 bits,
    h = (r - 1)/2, are its coordinates in the basis 1, x^k + x^-k, and
    ``_change_basis`` writes it as Q(y), y = x + x^-1.  Modulo Phi_r the
    subring is GF(2)[y]/M (``_norm_modulus``), so ``_xgcd`` of Q against M,
    both of degree at most h, gives the inverse of N mod Phi_r as the
    cofactor U, mapped back to sigma-invariant bits V.  Mod x + 1 the
    inverse of N is 1, and adding Phi_r (the all-ones row, 1 at x = 1) to
    an even-weight V makes it so.  Then a^-1 = sigma(a) N^-1.  Inverses
    are unique, so both routes return the same bits.  Both products go
    through one 1 x 1 ``BlockMatrix`` of sigma(a), which transforms it once
    when it is dense and keeps the set-bit route for a sparse row of H.

    Raises NotInvertibleError when gcd(a, x^r - 1) != 1, as for a = 0 and
    for every even-weight row, which x + 1 divides.
    """
    norm_route = r % 2 and _NORM_MIN_R <= r <= 65533
    if not norm_route:
        g, u = _xgcd(a, (1 << r) | 1)  # x^r + 1 == x^r - 1 over GF(2)
    elif a.bit_count() % 2:
        h = (r - 1) // 2
        conj = BlockMatrix(((CirculantBlock(r, BitVector(r, _transpose_row(a, r))),),))
        norm = conj.vec_mul(BitVector(r, a)).value
        g, u = _xgcd(_change_basis(norm & (1 << h + 1) - 1, h), _norm_modulus(r))
    else:  # x + 1 divides a
        g = 0
    if g != 1:
        raise NotInvertibleError("row polynomial shares a factor with x^r - 1")
    if norm_route:
        c = _change_basis(u, h, inverse=True)
        v = c ^ _transpose_row(c & ~1, r)
        if not v.bit_count() % 2:
            v ^= (1 << r) - 1
        u = conj.vec_mul(BitVector(r, v)).value
    return u


# ---------------------------------------------------------------------------
# circulant blocks


@dataclass(frozen=True)
class CirculantBlock:
    """An r x r binary circulant identified with its first row."""

    r: int
    row0: BitVector

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be positive")
        if self.row0.length != self.r:
            raise ValueError("row length differs from block size")

    @classmethod
    def zero(cls, r: int) -> "CirculantBlock":
        return cls(r, BitVector(r, 0))

    @classmethod
    def identity(cls, r: int) -> "CirculantBlock":
        return cls(r, BitVector(r, 1))

    @property
    def weight(self) -> int:
        return self.row0.weight

    def is_zero(self) -> bool:
        return self.row0.value == 0

    def __add__(self, other: "CirculantBlock") -> "CirculantBlock":
        if self.r != other.r:
            raise ValueError("block size mismatch")
        return CirculantBlock(self.r, self.row0 ^ other.row0)

    def __mul__(self, other: "CirculantBlock") -> "CirculantBlock":
        """The heavier block times the lighter as a 1 x 1 matrix (``vec_mul``)."""
        if self.r != other.r:
            raise ValueError("block size mismatch")
        light, heavy = sorted((self, other), key=lambda b: b.weight)
        return CirculantBlock(self.r, BlockMatrix(((light,),)).vec_mul(heavy.row0))

    def transpose(self) -> "CirculantBlock":
        return CirculantBlock(
            self.r, BitVector(self.r, _transpose_row(self.row0.value, self.r))
        )

    def inverse(self) -> "CirculantBlock":
        return CirculantBlock(
            self.r, BitVector(self.r, _inverse_mod(self.row0.value, self.r))
        )


# ---------------------------------------------------------------------------
# block matrices


@dataclass(frozen=True)
class BlockMatrix:
    """Matrix of circulant blocks, all of the same size r."""

    blocks: tuple[tuple[CirculantBlock, ...], ...]

    def __post_init__(self):
        if not self.blocks or not self.blocks[0]:
            raise ValueError("block matrix must be nonempty")
        cols = len(self.blocks[0])
        r = self.blocks[0][0].r
        for row in self.blocks:
            if len(row) != cols:
                raise ValueError("ragged block rows")
            for b in row:
                if b.r != r:
                    raise ValueError("mixed block sizes")

    @property
    def block_rows(self) -> int:
        return len(self.blocks)

    @property
    def block_cols(self) -> int:
        return len(self.blocks[0])

    @property
    def r(self) -> int:
        return self.blocks[0][0].r

    @classmethod
    def identity(cls, size: int, r: int) -> "BlockMatrix":
        return cls(
            tuple(
                tuple(
                    CirculantBlock.identity(r) if i == j else CirculantBlock.zero(r)
                    for j in range(size)
                )
                for i in range(size)
            )
        )

    def __matmul__(self, other: "BlockMatrix") -> "BlockMatrix":
        """Block row i of the product is ``other.vec_mul`` of block row i,
        its first rows packed into one vector."""
        if self.block_cols != other.block_rows or self.r != other.r:
            raise ValueError("block shape mismatch")
        r = self.r
        rows = []
        for row in self.blocks:
            v = BitVector(self.block_cols * r, sum(b.row0.value << t * r for t, b in enumerate(row)))
            rows.append(tuple(CirculantBlock(r, part) for part in other.vec_mul(v).chunks(r)))
        return BlockMatrix(tuple(rows))

    @cached_property
    def _spectra(self) -> dict[tuple[int, int], np.ndarray]:
        """The ``_spectrum`` of every block (i, j) heavier than
        ``_SPARSE_MAX_WEIGHT``.  Made on the first ``vec_mul`` and kept, since
        blocks never change; equality, hashing and pickles ignore it."""
        return {
            (i, j): _spectrum(b.row0.value, self.r)
            for i, row in enumerate(self.blocks)
            for j, b in enumerate(row)
            if b.weight > _SPARSE_MAX_WEIGHT
        }

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "_spectra"}

    def vec_mul(self, v: BitVector) -> BitVector:
        """Row vector (block_rows * r bits) times this matrix.

        Output block j sums the products of v's blocks with block column j.
        Every block product's route is chosen here, ``CirculantBlock.__mul__``'s
        too: two blocks heavier than ``_SPARSE_MAX_WEIGHT`` multiply as
        spectra, this matrix's transformed once in its life (``_spectra``),
        a block of v once per call if its row keeps one, and each product
        takes one inverse transform (``_pack``).  Others go to ``_block_dot``.
        """
        r = self.r
        if v.length != self.block_rows * r:
            raise ValueError("vector length mismatch")
        mask = (1 << r) - 1
        parts = [v.value >> i * r & mask for i in range(self.block_rows)]
        spectra = self._spectra
        kept = {i for i, _ in spectra}
        transformed = {i: _spectrum(y, r) for i, y in enumerate(parts)
                       if i in kept and y.bit_count() > _SPARSE_MAX_WEIGHT}
        out = 0
        for j in range(self.block_cols):
            rest, word = v.value, 0
            for i, f in transformed.items():
                if (i, j) in spectra:
                    word ^= _pack(f * spectra[i, j], r)
                    rest ^= parts[i] << i * r
            word ^= _block_dot(rest, [row[j].row0.value for row in self.blocks], r)
            out |= word << j * r
        return BitVector(self.block_cols * r, out)

    def inverse(self) -> "BlockMatrix":
        """Block Gauss-Jordan over the circulant ring.

        Pivots must themselves be invertible circulants; rows are swapped to
        find one, and the matrix is rejected if no candidate pivot in the
        column inverts.  That is slightly stricter than GF(2) invertibility
        of the expanded matrix, which callers handle by resampling.  Only
        ``work`` columns right of the pivot are updated, as no later step
        reads the others: a 1 x 1 matrix costs one inversion, no dense product.
        """
        if self.block_rows != self.block_cols:
            raise NotInvertibleError("only square block matrices invert")
        size, r = self.block_rows, self.r
        work = [list(row) for row in self.blocks]
        out = [list(row) for row in BlockMatrix.identity(size, r).blocks]
        for col in range(size):
            pivot_inv = None
            for i in range(col, size):
                try:
                    pivot_inv = work[i][col].inverse()
                except NotInvertibleError:
                    continue
                work[col], work[i] = work[i], work[col]
                out[col], out[i] = out[i], out[col]
                break
            if pivot_inv is None:
                raise NotInvertibleError("no invertible pivot block in column")
            right = [pivot_inv * b for b in work[col][col + 1 :]]
            work[col][col + 1 :] = right
            out[col] = [pivot_inv * b for b in out[col]]
            for i in range(size):
                f = work[i][col]
                if i == col or f.is_zero():
                    continue
                work[i][col + 1 :] = [a + f * b for a, b in zip(work[i][col + 1 :], right)]
                out[i] = [a + f * b for a, b in zip(out[i], out[col])]
        return BlockMatrix(tuple(tuple(row) for row in out))


# ---------------------------------------------------------------------------
# sampling


def sample_fixed_weight(rng: RandomStream, n: int, t: int) -> BitVector:
    """Uniform weight-t vector of length n.

    Reads (n - 1).bit_length()-bit candidates through ``rng.draws``, about
    2t + 8 to a block, rejecting those of n or more and skipping repeats
    until t distinct positions are chosen.  The stream stops right after
    the candidate that completes the vector.  With t = 0 no bits are
    consumed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= t <= n:
        raise ValueError("weight must lie in [0, n]")
    chosen = bytearray((n + 7) // 8)
    remaining = t
    if t:
        for p in rng.draws((n - 1).bit_length(), 2 * t + 8):
            if p < n:
                byte, bit = p >> 3, 1 << (p & 7)
                if not chosen[byte] & bit:
                    chosen[byte] |= bit
                    remaining -= 1
                    if not remaining:
                        break
    return BitVector(n, int.from_bytes(chosen, "little"))
