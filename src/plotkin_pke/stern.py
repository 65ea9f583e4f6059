"""A concrete (desk-scale) Stern search for low-weight dual codewords.

Given a systematic generator [I_k | A] of an [n, k] code, the dual code is
generated by H = [A^T | I_{n-k}].  Each restart draws a column permutation,
brings H to a reduced form [I_d | B] on an information set, splits the
reduced rows into two halves, and meets pairs of rows (Stern's p = 2) from
each half in the middle on an ell-bit window; colliding pairs whose combined
row has total weight <= the target are returned as dual codewords.

Restart 1 row-reduces H in full onto its permutation.  Later restarts are
chained, as in Canteaut-Chabaud (IEEE-IT 1998) and Bernstein-Lange-Peters
(PQCrypto 2008): they keep the previous [I_d | B] and swap only
``_CHAIN_SWAPS`` columns into the information set, one pivot each, then sort
the rows and tail columns by the new permutation so the halves and the
window are drawn afresh.  The shuffle is a restart's only draw from the
stream, so a search that ends on restart 1 finds what a search of full
reductions finds.  Chained restarts keep the expected hits per restart
but cluster them, since neighbouring information sets overlap.

The meet in the middle is one numpy join per restart, a counting sort on
the window keys.  The reduced tails are packed into uint64 words, each
half's pair sums are built at once from ``np.triu_indices`` tables, and
their ell-bit window keys are held in the smallest unsigned type that fits.
The right half is stably sorted by key, and the counts of its keys give
every left sum the run of right sums it collides with, which
``np.bitwise_count`` weighs together.  Since ell = floor(log2 C(d/2, 2)),
the 2^ell counts never outnumber the pairs.  Of the hits, the search
returns the first in a fixed order: left window keys by first appearance,
then left pair, then right pair, with pairs in ``itertools.combinations``
order.

This is the runnable counterpart of the ``stern`` cost model in ``isd``:
the estimators say how big the numbers get at cryptographic sizes, this
module actually finds sparse parity rows at lab sizes (n of a few hundred
to a few thousand).  At r = 101 on a 2-vCPU VM a full restart takes about
2.1 ms and a chained one about 0.8 ms, of which the join is about 0.3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import pivot
from .gf2 import BitVector
from .isd import log2_binom
from .rng import RandomStream

P = 2  # rows taken from each half; the pair tables below hold exactly two
_JOIN_CHUNK = 1 << 12  # colliding pairs weighed at once; their arrays stay in cache
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


def _chain_information_set(
    m: np.ndarray, order: list[int], perm: list[int]
) -> tuple[np.ndarray, list[int]]:
    """Move a reduced [I_d | B] over the columns ``order`` toward ``perm``.

    The ``_CHAIN_SWAPS`` tail columns that come first in ``perm`` enter the
    information set, each with one pivot on the row with a one there whose
    information column comes last in ``perm``.  Then the rows and the tail
    columns are sorted by their place in ``perm``.  ``m`` and ``order`` are
    updated in place on the way; the results are fresh.
    """
    d, n = m.shape
    place = np.empty(n, dtype=np.intp)
    place[perm] = np.arange(n)
    place = place[order]  # where each column of m falls in perm
    for col in d + np.argsort(place[d:])[:_CHAIN_SWAPS]:
        rows = np.flatnonzero(m[:, col])
        if rows.size == 0:
            continue  # a zero column cannot enter
        row = int(rows[np.argmax(place[rows])])
        pivot(m, row, col)
        m[:, [row, col]] = m[:, [col, row]]
        place[[row, col]] = place[[col, row]]
        order[row], order[col] = order[col], order[row]
    rows = np.argsort(place[:d])
    cols = np.concatenate([rows, d + np.argsort(place[d:])])
    return m[rows][:, cols], [order[j] for j in cols]


def _pair_tables(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of the left half (rows < d // 2) and of the right half,
    each as a (2, m) index array in ``combinations`` order."""
    half = d // 2
    return tuple(
        np.array(np.triu_indices(stop - start, 1)) + start
        for start, stop in ((0, half), (half, d))
    )


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
    lsum = words[:, left[0]] ^ words[:, left[1]]
    rsum = words[:, right[0]] ^ words[:, right[1]]
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
    found = []
    for a, b in zip(cuts, cuts[1:] + [len(lkey)]):
        c = counts[a:b]
        li = np.repeat(np.arange(a, b), c)
        within = np.arange(len(li)) - np.repeat(np.cumsum(c) - c, c)
        ri = rorder[np.repeat(lo[a:b], c) + within]
        both = lsum.take(li, axis=1) ^ rsum.take(ri, axis=1)
        hit = np.bitwise_count(both).sum(axis=0, dtype=np.int64) <= budget
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
        hits = _hits(m[:, d:], pairs, window, target_weight - 2 * P)
        if len(hits):
            rows = hits[0]
            tail = np.bitwise_xor.reduce(m[rows, d:], axis=0)
            support = [order[i] for i in rows]
            support += [order[d + j] for j in np.flatnonzero(tail)]
            found = BitVector.from_support(n, support)
            return SternResult(found=found, iterations=iteration)

    return SternResult(found=None, iterations=max_iterations)
