"""A concrete (desk-scale) Stern search for low-weight dual codewords.

Given a systematic generator [I_k | A] of an [n, k] code, the dual code is
generated by H = [A^T | I_{n-k}].  Each restart permutes the columns,
row-reduces H onto a fresh information set, splits the reduced rows into
two halves, and meets pairs of rows (Stern's p = 2) from each half in the
middle on an ell-bit window; colliding pairs whose combined row has total
weight <= the target are returned as dual codewords.

This is the runnable counterpart of the ``stern`` cost model in ``isd``:
the estimators say how big the numbers get at cryptographic sizes, this
module actually finds sparse parity rows at lab sizes (n of a few hundred
to a few thousand) in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dense import pivot
from .gf2 import BitVector
from .isd import log2_binom
from .rng import RandomStream

P = 2  # rows taken from each half; the pair loops below unpack exactly two


@dataclass(frozen=True)
class SternResult:
    found: BitVector | None  # dual codeword of weight <= target, or None
    iterations: int  # restarts actually spent


def _dual_generator(gen_sys: np.ndarray) -> np.ndarray:
    k, n = gen_sys.shape
    a = gen_sys[:, k:]
    return np.concatenate([a.T, np.eye(n - k, dtype=np.uint8)], axis=1)


def _reduce_onto_information_set(
    rows: np.ndarray, perm: list[int]
) -> tuple[np.ndarray, list[int]] | None:
    """Gauss-Jordan the permuted rows to [I_d | B]; columns that fail to
    yield a pivot are swapped behind the information set."""
    d, n = rows.shape
    m = rows[:, perm].copy()
    order = list(perm)
    for col in range(d):
        if pivot(m, col, col):
            continue
        # pull in the first later column that has a one below the diagonal
        later = np.flatnonzero(m[col:, d:].any(axis=0))
        if later.size == 0:
            return None  # rank-deficient; caller restarts
        swap = d + int(later[0])
        m[:, [col, swap]] = m[:, [swap, col]]
        order[col], order[swap] = order[swap], order[col]
        pivot(m, col, col)
    return m, order


def stern_search(
    gen_sys: np.ndarray,
    target_weight: int,
    rng: RandomStream,
    max_iterations: int = 500,
) -> SternResult:
    """Search the dual of the code generated by ``gen_sys`` (shape k x n,
    systematic [I|A] form, 0/1 entries) for a word of weight <= target.

    Every returned word v satisfies v G^T = 0.  ``max_iterations`` bounds
    the number of information-set restarts; the search is deterministic
    given the stream.
    """
    gen_sys = np.asarray(gen_sys, dtype=np.uint8) & 1
    k, n = gen_sys.shape
    if not 0 < k < n:
        raise ValueError("generator must be k x n with 0 < k < n")
    if target_weight < 1:
        raise ValueError("target weight must be positive")
    dual = _dual_generator(gen_sys)
    d = n - k
    if 2 * P > d:
        raise ValueError("dual dimension too small for two pairs of rows")
    half = d // 2
    window = max(1, min(n - d, int(max(2.0, log2_binom(half, P)))))
    win_mask = (1 << window) - 1

    for iteration in range(1, max_iterations + 1):
        perm = list(range(n))
        rng.shuffle(perm)
        reduced = _reduce_onto_information_set(dual, perm)
        if reduced is None:
            continue
        m, order = reduced
        packed = np.packbits(m[:, d:], axis=1, bitorder="little")  # the B part
        tail_ints = [int.from_bytes(row.tobytes(), "little") for row in packed]

        # each half maps a window value to the (row sum, pair) that give it
        lists: list[dict[int, list[tuple[int, tuple[int, int]]]]] = [{}, {}]
        for side, rows_idx in enumerate((range(0, half), range(half, d))):
            for i, j in combinations(rows_idx, P):
                acc = tail_ints[i] ^ tail_ints[j]
                lists[side].setdefault(acc & win_mask, []).append((acc, (i, j)))

        for key, left in lists[0].items():
            for left_acc, lc in left:
                for right_acc, rc in lists[1].get(key, ()):
                    acc = left_acc ^ right_acc
                    if 2 * P + acc.bit_count() > target_weight:
                        continue
                    support = [order[i] for i in lc + rc]
                    support += [order[d + j] for j in BitVector(n - d, acc).support()]
                    found = BitVector.from_support(n, support)
                    return SternResult(found=found, iterations=iteration)

    return SternResult(found=None, iterations=max_iterations)
