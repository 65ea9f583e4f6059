"""A concrete (desk-scale) Stern search for low-weight dual codewords.

Given a systematic generator [I_k | A] of an [n, k] code, the dual code is
generated by H = [A^T | I_{n-k}].  Each restart draws a column permutation,
brings H to a reduced form [I_d | B] on an information set, splits the
reduced rows into two halves, and meets pairs of rows (Stern's p = 2) from
each half in the middle on an ell-bit window; colliding pairs whose combined
row has total weight <= the target are returned as dual codewords.

Restart 1 starts from H's identity columns as its basis.  In permutation
order it takes each information-set column already in the basis as it is
and pivots in only the others, about d/2 of them at n0 = 2, each on the
free row whose basis column comes last in the permutation; the result is
the [I_d | B] of a plain Gauss-Jordan of the permuted H.  Later restarts
are chained, as in Canteaut-Chabaud (IEEE-IT 1998) and Bernstein-Lange-
Peters (PQCrypto 2008): they keep the previous reduction and pivot only
``_CHAIN_SWAPS`` columns into the information set, by the same row rule.
The reduction is held over H's own columns with the information column of
each row, so no restart moves a column; each sorts the rows and the tail
by its permutation, so the halves and the window are drawn afresh, and
gathers the tail B for the join.  The shuffle is a restart's only draw
from the stream, so a search that ends on restart 1 finds what a search
of full reductions finds.  Chained restarts keep the expected hits per
restart but cluster them, since neighbouring information sets overlap.

The meet in the middle is one numpy join per restart, a counting sort on
the window keys.  The reduced tails are packed into uint64 words, each
half's pair sums are built at once from ``np.triu_indices`` tables, and
their ell-bit window keys are held in the smallest unsigned type that fits.
The right half is stably sorted by key, and the counts of its keys give
every left sum the run of right sums it collides with.  ``np.bitwise_count``
weighs a colliding pair on its first word, tail columns 0-63 with the
window among them, and on the rest only if that word keeps it within
budget: the exact early abort of Bernstein-Lange-Peters.  Since
ell = floor(log2 C(d/2, 2)), the 2^ell counts never outnumber the pairs.
Of the hits, the search returns the first in a fixed order: left window
keys by first appearance, then left pair, then right pair, with pairs in
``itertools.combinations`` order.

This is the runnable counterpart of the ``stern`` cost model in ``isd``:
the estimators say how big the numbers get at cryptographic sizes, this
module actually finds sparse parity rows at lab sizes (n of a few hundred
to a few thousand).  At r = 101 on a 2-vCPU VM restart 1 takes about
1.5-1.7 ms and a chained restart about 0.55-0.8 ms, of which the join is
about 0.35 ms and 0.2 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dense import pivot
from .gf2 import BitVector
from .isd import log2_binom
from .rng import RandomStream

P = 2  # rows taken from each half; the pair tables below hold exactly two
_JOIN_CHUNK = 1 << 13  # colliding pairs weighed at once; their arrays stay in cache
_CHAIN_SWAPS = 8  # tail columns a chained restart brings into the information set


@dataclass(frozen=True)
class SternResult:
    found: BitVector | None  # dual codeword of weight <= target, or None
    iterations: int  # restarts actually spent


def _dual_generator(gen_sys: np.ndarray) -> np.ndarray:
    k, n = gen_sys.shape
    a = gen_sys[:, k:]
    return np.concatenate([a.T, np.eye(n - k, dtype=np.uint8)], axis=1)


def _reduce_onto_information_set(
    dual: np.ndarray, perm: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Row-reduce ``_dual_generator``'s [A^T | I_d] onto the first d columns
    of ``perm`` that form an information set.

    Returns m over the dual's own columns, with row i reduced onto column
    order[i], so m[:, order] is [I_d | B].  The identity columns are the
    starting basis.  In ``perm`` order, a column in the basis is taken as it
    is, and any other pivots in on the free row whose basis column comes
    last in ``perm``.  A column in the span of those taken before it is zero
    on every free row; the first tail column that is not takes its place,
    and it takes the tail column's.  Such a column exists, since the free
    rows are independent and zero on the taken columns.
    """
    d, n = dual.shape
    base = n - d  # row j's basis column is base + j until the row is taken
    m = dual.copy()
    place = np.empty(n, dtype=np.intp)
    place[perm] = np.arange(n)
    rank = place[base:] + 1  # 1 + place of each free row's basis column; 0 once taken
    taken = np.empty(d, dtype=np.intp)  # the row that column order[i] took
    order = list(perm)
    for i in range(d):
        row = order[i] - base
        if row < 0 or not rank[row]:  # order[i] is no free row's basis column
            score = m[:, order[i]] * rank
            if not score.any():  # order[i] is in the span of the columns taken
                swap = d + int(np.flatnonzero(m[rank > 0][:, order[d:]].any(axis=0))[0])
                order[i], order[swap] = order[swap], order[i]
                row = order[i] - base
                score = m[:, order[i]] * rank
            if row < 0 or not rank[row]:
                row = int(score.argmax())
                pivot(m, row, order[i])
        rank[row] = 0
        taken[i] = row
    return m[taken], order


def _chain_information_set(
    m: np.ndarray, order: list[int], perm: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Move a reduction (m, order) of ``_reduce_onto_information_set``'s
    form toward ``perm``.

    The ``_CHAIN_SWAPS`` tail columns that come first in ``perm`` enter the
    information set, each with one pivot on the row with a one there whose
    information column comes last in ``perm``.  Then the rows and the tail
    of the order are sorted by their place in ``perm``.  ``m`` is updated
    in place on the way; the results are fresh.
    """
    d, n = m.shape
    place = np.empty(n, dtype=np.intp)
    place[perm] = np.arange(n)
    cols = np.array(order)
    for j in d + np.argsort(place[cols[d:]])[:_CHAIN_SWAPS]:
        rows = np.flatnonzero(m[:, cols[j]])
        if rows.size == 0:
            continue  # a zero column cannot enter
        row = rows[np.argmax(place[cols[rows]])]
        pivot(m, row, cols[j])
        cols[[row, j]] = cols[[j, row]]
    rows = np.argsort(place[cols[:d]])
    tail = d + np.argsort(place[cols[d:]])
    return m[rows], [*cols[rows].tolist(), *cols[tail].tolist()]


@lru_cache(maxsize=8)
def _pair_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of the left half (rows < d // 2) and of the right half,
    each as a (2, m) index array in ``combinations`` order.  Built once per
    d and read-only, as every search at d shares them."""
    half = d // 2
    tables = tuple(
        np.array(np.triu_indices(stop - start, 1)) + start
        for start, stop in ((0, half), (half, d))
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _hits(
    tail: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], window: int, budget: int
) -> np.ndarray:
    """Every left pair and right pair of ``pairs`` whose sums of the 0/1
    ``tail`` rows agree on the low ``window`` columns and together weigh at
    most ``budget``, as rows (i, j, k, l) in the order the search takes
    them: left window keys by first appearance, then left pair, then right
    pair."""
    rows, width = tail.shape
    words = np.zeros((rows, -(-width // 64)), dtype="<u8")
    words.view(np.uint8)[:, : -(-width // 8)] = np.packbits(tail, axis=1, bitorder="little")
    words = np.ascontiguousarray(words.T)  # bit c of row i is bit c % 64 of words[c // 64, i]
    left, right = pairs
    lsum = words.take(left[0], axis=1) ^ words.take(left[1], axis=1)
    rsum = words.take(right[0], axis=1) ^ words.take(right[1], axis=1)
    mask = (1 << window) - 1
    key = np.min_scalar_type(mask)  # uint8 or uint16 keys sort by radix
    lkey, rkey = (lsum[0] & mask).astype(key), (rsum[0] & mask).astype(key)

    # join by counting sort: each left sum meets the run of its key among the
    # right sums stably sorted by key, located from the right key counts
    rorder = np.argsort(rkey, kind="stable")
    rcount = np.bincount(rkey, minlength=mask + 1)
    counts = rcount[lkey]
    lo = (np.cumsum(rcount) - rcount)[lkey]
    ends = np.cumsum(counts)
    # left pairs go in runs of about _JOIN_CHUNK collisions, so memory stays
    # bounded however unevenly the window keys fall
    cuts = [0, *np.searchsorted(ends, np.arange(_JOIN_CHUNK, ends[-1], _JOIN_CHUNK), "right")]
    # a pair weighs at least its first word: only pairs it keeps in budget weigh the rest
    found = []
    for a, b in zip(cuts, cuts[1:] + [len(lkey)]):
        c = counts[a:b]
        li = np.repeat(np.arange(a, b), c)
        # the chunk's collision q meets rorder[lo + q - q0], q0 the first of its run
        ri = rorder[np.repeat(lo[a:b] - (np.cumsum(c) - c), c) + np.arange(len(li))]
        weight = np.bitwise_count(lsum[0].take(li) ^ rsum[0].take(ri))
        keep = np.flatnonzero(weight <= budget)
        li, ri, weight = li[keep], ri[keep], weight[keep]
        both = lsum[1:].take(li, axis=1) ^ rsum[1:].take(ri, axis=1)
        hit = weight + np.bitwise_count(both).sum(axis=0, dtype=np.int64) <= budget
        found.append((li[hit], ri[hit]))
    li, ri = (np.concatenate(side) for side in zip(*found))
    if li.size == 0:
        return np.empty((0, 2 * P), dtype=np.intp)
    # the hits run in (left pair, right pair) order; rank them stably by the
    # first left pair with their key, which heads its run in a stable sort
    lorder = np.argsort(lkey, kind="stable")
    rank = np.argsort(lorder[np.searchsorted(lkey[lorder], lkey[li])], kind="stable")
    return np.concatenate([left[:, li], right[:, ri]]).T[rank]


def stern_search(
    gen_sys: np.ndarray,
    target_weight: int,
    rng: RandomStream,
    max_iterations: int = 500,
) -> SternResult:
    """Search the dual of the code generated by ``gen_sys`` (shape k x n,
    systematic [I|A] form, 0/1 entries) for a word of weight <= target.

    Every returned word v satisfies v G^T = 0.  ``max_iterations`` bounds
    the number of information-set restarts.  Each restart draws one
    shuffle from the stream and nothing else; restart 1 is a full
    reduction and later ones are chained from it, so the search is
    deterministic given the stream.
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
    window = max(1, min(n - d, int(max(2.0, log2_binom(d // 2, P)))))
    pairs = _pair_tables(d)

    reduced = None
    for iteration in range(1, max_iterations + 1):
        perm = list(range(n))
        rng.shuffle(perm)
        if reduced is None:
            reduced = _reduce_onto_information_set(dual, perm)
        else:
            reduced = _chain_information_set(*reduced, perm)
        m, order = reduced
        hits = _hits(m[:, order[d:]], pairs, window, target_weight - 2 * P)
        if len(hits):
            word = np.bitwise_xor.reduce(m[hits[0]], axis=0)
            found = BitVector.from_support(n, np.flatnonzero(word).tolist())
            return SternResult(found=found, iterations=iteration)

    return SternResult(found=None, iterations=max_iterations)
