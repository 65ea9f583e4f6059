"""Dense GF(2) matrices as explicit 0/1 ``uint8`` numpy arrays.

What the attack lab runs at desk scale: ``expand_block_matrix`` (with
``to_array``, ``circulant`` and ``expand_block`` under it) turns the
systematic public generator into the array that ``attack`` hands to Stern,
and ``pivot`` is the one elimination step: ``stern`` pivots with it each
column that enters an information set, on a row that already has a one
there, and ``rref`` searches for its pivot rows through it.  ``rref`` and
``systematic_form`` have no program caller but the perfbench probe
``dense.systematic_form_ms``; they stay until the benchmark drops that
probe.  The dense oracle that tests check ``gf2`` against (products,
rank, inverse), and the plain Gauss-Jordan that ``stern``'s first restart
is checked against, live in ``tests/oracle.py``.
"""

from __future__ import annotations

import numpy as np

from .gf2 import BitVector, BlockMatrix, CirculantBlock


def to_array(v: BitVector) -> np.ndarray:
    """BitVector -> 1-D 0/1 uint8 array, coordinate j at index j."""
    raw = np.frombuffer(v.to_bytes(), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[: v.length].copy()


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


def pivot(m: np.ndarray, row: int, col: int) -> bool:
    """One in-place Gauss-Jordan step over GF(2).

    Moves the first row at or below ``row`` with a 1 in ``col`` up to
    ``row``, then clears ``col`` in every other row.  Returns False, with
    ``m`` untouched, when no such row exists.
    """
    if not m[row, col]:
        hits = np.flatnonzero(m[row:, col])
        if hits.size == 0:
            return False
        src = row + hits[0]
        m[[row, src]] = m[[src, row]]
    others = m[:, col].astype(bool)
    others[row] = False
    m[others] ^= m[row]
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
