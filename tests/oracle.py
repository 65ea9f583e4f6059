"""Independent references that only tests call.

A deliberately separate second route to the same objects as the package:
dense matrices are explicit 0/1 ``uint8`` arrays whose products are integer
matrix multiplications reduced mod 2, with no code shared with the packed
polynomial representation of ``gf2``; Stern's first reduction is a plain
Gauss-Jordan of the permuted dual, pivot by pivot; a product in GF(2)[x]
shifts by each binary digit, and Euclid reads each degree afresh from its
remainder; uniform draws take one candidate per ``take_bits`` call; and the
SHAKE-256 stream is read straight from ``hashlib``, with no buffer shared
with ``RandomStream``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from plotkin_pke.dense import pivot, rref
from plotkin_pke.gf2 import BitVector
from plotkin_pke.rng import RandomStream

# --- dense GF(2) matrices -----------------------------------------------------


def from_array(arr: np.ndarray) -> BitVector:
    arr = np.asarray(arr, dtype=np.uint8) & 1
    if arr.size == 0:
        return BitVector(0, 0)
    packed = np.packbits(arr, bitorder="little").tobytes()
    return BitVector.from_bytes(packed, arr.size)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a.astype(np.int64) @ b.astype(np.int64)
    return (prod & 1).astype(np.uint8)


def vec_mat_mul(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    prod = v.astype(np.int64) @ m.astype(np.int64)
    return (prod & 1).astype(np.uint8)


def rank(a: np.ndarray) -> int:
    return len(rref(a)[1])


def inverse(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a square GF(2) matrix; ValueError if singular."""
    a = np.asarray(a, dtype=np.uint8) & 1
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate([a.copy(), np.eye(n, dtype=np.uint8)], axis=1)
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(2)")
    return red[:, n:]


def reduce_onto_information_set(
    rows: np.ndarray, perm: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan the permuted rows, of full rank d, to [I_d | B]; columns
    that fail to yield a pivot are swapped behind the information set.

    When column col yields no pivot, a tail column with a one in rows
    col..d-1 always exists: those rows have rank d - col and are zero in
    columns < col and in column col itself, so with a zero tail they would
    fit in the d - col - 1 columns col+1..d-1.  ``_dual_generator``'s
    [A^T | I] always has rank d.
    """
    d, n = rows.shape
    m = rows[:, perm].copy()
    order = list(perm)
    for col in range(d):
        if pivot(m, col, col):
            continue
        # pull in the first later column that has a one below the diagonal
        swap = d + int(np.flatnonzero(m[col:, d:].any(axis=0))[0])
        m[:, [col, swap]] = m[:, [swap, col]]
        order[col], order[swap] = order[swap], order[col]
        pivot(m, col, col)
    return m, order


# --- polynomials over GF(2) ---------------------------------------------------


def poly_mul(a: int, b: int) -> int:
    """The unreduced product a(x) * b(x): one shift of b per set bit of a,
    read from a's binary digits."""
    acc = 0
    for j, bit in enumerate(reversed(bin(a)[2:])):
        if bit == "1":
            acc ^= b << j
    return acc


def xgcd(a: int, b: int) -> tuple[int, int]:
    """(g, u) with g = gcd(a(x), b(x)) and u a = g mod b, for b != 0: Euclid
    one leading term per step, each degree read afresh from the remainders."""
    r0, u0, r1, u1 = a, 1, b, 0  # invariant: r_i = u_i a mod b
    while r0:
        if r0.bit_length() < r1.bit_length():
            r0, u0, r1, u1 = r1, u1, r0, u0
        shift = r0.bit_length() - r1.bit_length()
        r0 ^= r1 << shift
        u0 ^= u1 << shift
    return r1, u1


# --- random streams -----------------------------------------------------------


def randbelow(rng: RandomStream, bound: int) -> int:
    """Uniform draw from [0, bound) by rejection on bit_length-sized candidates."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    nbits = (bound - 1).bit_length()
    while True:
        candidate = rng.take_bits(nbits)
        if candidate < bound:
            return candidate


def stream_bits(seed: bytes, start: int, nbits: int) -> int:
    """Bits start..start + nbits - 1 of the stream of ``seed``, bit start at
    weight 1: stream bit j is bit j % 8 of byte j // 8 of SHAKE-256(seed)."""
    digest = hashlib.shake_256(seed).digest((start + nbits + 7) // 8)
    return sum((digest[j // 8] >> j % 8 & 1) << (j - start) for j in range(start, start + nbits))


def substream_seed(seed: bytes, index: int) -> bytes:
    """SHAKE-256(seed || index as 8 bytes little-endian), 32 bytes."""
    return hashlib.shake_256(seed + index.to_bytes(8, "little")).digest(32)
