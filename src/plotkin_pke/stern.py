"""A concrete (desk-scale) Stern search for low-weight dual codewords.

Given a systematic generator [I_k | A] of an [n, k] code, the dual code is
generated by H = [A^T | I_{n-k}].  Each restart permutes the columns,
row-reduces H onto a fresh information set, splits the reduced rows into
two halves, and meets weight-p row combinations from each half in the
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


@dataclass(frozen=True)
class SternResult:
    found: BitVector | None  # dual codeword of weight <= target, or None
    weight: int | None
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
        # pull in a later column that has a one below the diagonal
        for swap in range(d, n):
            if np.any(m[col:, swap]):
                m[:, [col, swap]] = m[:, [swap, col]]
                order[col], order[swap] = order[swap], order[col]
                pivot(m, col, col)
                break
        else:
            return None  # rank-deficient; caller restarts
    return m, order


def stern_search(
    gen_sys: np.ndarray,
    target_weight: int,
    rng: RandomStream,
    max_iterations: int = 500,
    p: int = 2,
    window: int | None = None,
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
    if p < 1 or 2 * p > d:
        raise ValueError("p out of range for the dual dimension")
    half = d // 2
    if window is None:
        pairs = max(2.0, float(log2_binom(half, p)))
        window = max(1, min(n - d, int(pairs)))
    if not 1 <= window <= n - d:
        raise ValueError("window must fit inside the redundancy part")

    win_mask = (1 << window) - 1

    for iteration in range(1, max_iterations + 1):
        perm = list(range(n))
        rng.shuffle(perm)
        reduced = _reduce_onto_information_set(dual, perm)
        if reduced is None:
            continue
        m, order = reduced
        tail = m[:, d:]  # the B part, d x (n - d)
        tail_ints = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                     for row in tail]

        lists: list[dict[int, list[tuple[int, ...]]]] = [{}, {}]
        for side, rows_idx in enumerate((range(0, half), range(half, d))):
            for combo in combinations(rows_idx, p):
                acc = 0
                for i in combo:
                    acc ^= tail_ints[i]
                lists[side].setdefault(acc & win_mask, []).append(combo)

        for key, left_combos in lists[0].items():
            right_combos = lists[1].get(key)
            if not right_combos:
                continue
            for lc in left_combos:
                left_acc = 0
                for i in lc:
                    left_acc ^= tail_ints[i]
                for rc in right_combos:
                    acc = left_acc
                    for i in rc:
                        acc ^= tail_ints[i]
                    weight = 2 * p + acc.bit_count()
                    if weight > target_weight:
                        continue
                    support = [order[i] for i in lc + rc]
                    rest = acc
                    while rest:
                        low = rest & -rest
                        support.append(order[d + low.bit_length() - 1])
                        rest ^= low
                    found = BitVector.from_support(n, support)
                    return SternResult(found=found, weight=weight, iterations=iteration)

    return SternResult(found=None, weight=None, iterations=max_iterations)
