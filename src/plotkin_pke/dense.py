"""Dense GF(2) linear algebra on numpy arrays.

A deliberately independent second route to the same objects as ``gf2``:
matrices are explicit 0/1 ``uint8`` arrays and products are integer matrix
multiplications reduced mod 2, with no shared code with the packed
polynomial representation.  Tests cross-check every circulant operation
against this module, and the concrete attack code works on these arrays
directly at desk scale.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitVector, BlockMatrix, CirculantBlock


def to_array(v: BitVector) -> np.ndarray:
    """BitVector -> 1-D 0/1 uint8 array, coordinate j at index j."""
    if v.length == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(v.to_bytes(), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: v.length].copy()


def from_array(arr: np.ndarray) -> BitVector:
    arr = np.asarray(arr, dtype=np.uint8) & 1
    if arr.size == 0:
        return BitVector(0, 0)
    packed = np.packbits(arr, bitorder="little").tobytes()
    return BitVector.from_bytes(packed, arr.size)


def circulant(row0: np.ndarray) -> np.ndarray:
    """Expand a first row: matrix row i is the right cyclic shift by i."""
    row0 = np.asarray(row0, dtype=np.uint8) & 1
    r = row0.size
    # window k of row0 row0 is row0 rolled left by k, i.e. right by r - k
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([row0, row0]), r)
    return windows[r - np.arange(r)]


def expand_block(block: CirculantBlock) -> np.ndarray:
    return circulant(to_array(block.row0))


def expand_block_matrix(bm: BlockMatrix) -> np.ndarray:
    rows = [
        np.concatenate([expand_block(b) for b in row], axis=1) for row in bm.blocks
    ]
    return np.concatenate(rows, axis=0)


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    prod = a.astype(np.int64) @ b.astype(np.int64)
    return (prod & 1).astype(np.uint8)


def vec_mat_mul(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    prod = v.astype(np.int64) @ m.astype(np.int64)
    return (prod & 1).astype(np.uint8)


def pivot(m: np.ndarray, row: int, col: int) -> bool:
    """One in-place Gauss-Jordan step over GF(2).

    Moves the first row at or below ``row`` with a 1 in ``col`` up to
    ``row``, then clears ``col`` in every other row.  Returns False, with
    ``m`` untouched, when no such row exists.
    """
    hits = np.flatnonzero(m[row:, col])
    if hits.size == 0:
        return False
    src = row + hits[0]
    if src != row:
        m[[row, src]] = m[[src, row]]
    others = np.flatnonzero(m[:, col])
    m[others[others != row]] ^= m[row]
    return True


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (R, pivot columns)."""
    m = (np.asarray(a, dtype=np.uint8) & 1).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    for col in range(cols):
        if len(pivots) == rows:
            break
        if pivot(m, len(pivots), col):
            pivots.append(col)
    return m, pivots


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


def systematic_form(gen: np.ndarray) -> np.ndarray:
    """Row-reduce a full-rank k x n generator to [I_k | A].

    Requires the first k columns to be invertible (no column permutation is
    attempted); that always holds for the public generators handled here.
    """
    gen = np.asarray(gen, dtype=np.uint8) & 1
    k = gen.shape[0]
    red, pivots = rref(gen)
    if pivots != list(range(k)):
        raise ValueError("leading k columns are not independent")
    return red
