"""Concrete Stern search and the second-coordinate recovery demo."""

import hashlib
import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.stats import chi2

import oracle
from plotkin_pke import attack, dense, stern
from plotkin_pke.attack import (
    _rotations_complete,
    recover_dual_structure,
    rotations_parity_check,
    systematic_public_generator,
    weak_key_attack_demo,
)
from plotkin_pke.bitflip import decode
from plotkin_pke.gf2 import (
    BitVector,
    BlockMatrix,
    CirculantBlock,
    NotInvertibleError,
    sample_fixed_weight,
)
from plotkin_pke.isd import log2_binom
from plotkin_pke.presets import LAB
from plotkin_pke.rng import substream
from plotkin_pke.scheme import (
    PublicKey,
    SchemeParams,
    encrypt,
    keygen,
    ldpc_decoder_config,
)
from plotkin_pke.stern import (
    _chain_information_set,
    _dual_generator,
    _hits,
    _pair_tables,
    _reduce_onto_information_set,
    stern_search,
)

# Stern and structure recovery run on their own r = 101 keys: they test
# Stern, not the lab set, and keep these keys when presets.LAB moves
R101 = SchemeParams(2, 101, 14, 6, 4, 4)


def _planted_instance(rng, n=202, d=60, weight=6):
    """Generator [I_k | M^T] of a code whose dual rowspace [M | I_d]
    contains a planted sparse row v: fix one row of M so that
    v_tail . M = v_head."""
    k = n - d
    head = sorted(oracle.randbelow(rng, k) for _ in range(weight // 2))
    tail = sorted(oracle.randbelow(rng, d) for _ in range(weight - weight // 2))
    while len(set(head)) < weight // 2 or len(set(tail)) < weight - weight // 2:
        head = sorted(oracle.randbelow(rng, k) for _ in range(weight // 2))
        tail = sorted(oracle.randbelow(rng, d) for _ in range(weight - weight // 2))
    v_head = np.zeros(k, dtype=np.uint8)
    v_head[head] = 1
    v_tail = np.zeros(d, dtype=np.uint8)
    v_tail[tail] = 1
    m = np.array(
        [[rng.take_bits(1) for _ in range(k)] for _ in range(d)], dtype=np.uint8
    )
    j = tail[0]
    partial = (v_tail.astype(np.int64) @ m.astype(np.int64) - m[j]) & 1
    m[j] = v_head ^ partial.astype(np.uint8)
    gen = np.concatenate([np.eye(k, dtype=np.uint8), m.T], axis=1)
    v = np.concatenate([v_head, v_tail])
    assert not (gen.astype(np.int64) @ v.astype(np.int64) & 1).any()
    return gen, oracle.from_array(v)


def test_stern_finds_planted_row(make_rng):
    rng = make_rng(0x50)
    gen, v = _planted_instance(rng)
    result = stern_search(gen, 6, rng, max_iterations=500)
    assert result.found is not None
    assert result.found.weight <= 6
    prod = oracle.vec_mat_mul(dense.to_array(result.found), gen.T)
    assert not prod.any()
    assert result.found == v  # the plant is the only sparse dual word


def _row_space(m):
    """Every GF(2) combination of the rows, as packed ints."""
    span = {0}
    for row in m:
        v = int("".join(str(b) for b in row[::-1]) or "0", 2)
        span |= {s ^ v for s in span}
    return span


def test_eliminations_match_row_space_oracle():
    g = np.random.default_rng(0xE1)
    for _ in range(60):
        rows, cols = g.integers(1, 9), g.integers(1, 15)
        a = g.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        red, pivots = dense.rref(a)
        assert pivots == sorted(set(pivots))
        for i, col in enumerate(pivots):
            assert red[i, :col].sum() == 0
            assert red[:, col].tolist() == [int(j == i) for j in range(rows)]
        assert not red[len(pivots):].any()
        assert _row_space(red) == _row_space(a)

        # Stern reduces _dual_generator's [A^T | I], of full row rank
        dual = np.concatenate([a, np.eye(rows, dtype=np.uint8)], axis=1)
        perm = [int(j) for j in g.permutation(cols + rows)]
        m, order = _reduce_onto_information_set(dual, perm)
        assert sorted(order) == list(range(cols + rows))
        assert (m[:, order[:rows]] == np.eye(rows, dtype=np.uint8)).all()
        assert _row_space(m) == _row_space(dual)


def _lab_duals(params, keys, tag):
    for i in range(keys):
        rng = substream(tag * 32, i)
        pk, _ = keygen(params, rng)
        yield _dual_generator(systematic_public_generator(pk)), rng


def _degenerate_lab_dual():
    """The dual of the degenerate attack-lab key (perfbench seed 1, demo
    10): its ldpc block row has h0 = x^67 h1, so A^T is a permutation."""
    master = hashlib.sha256(b"perfbench/attack-lab/1").digest()
    seed = hashlib.sha256(master + b"demo" + (10).to_bytes(8, "little")).digest()
    pk, _ = keygen(R101, substream(seed, 0))
    dual = _dual_generator(systematic_public_generator(pk))
    assert (dual[:, :R101.r].sum(axis=0) == 1).all()
    return dual


def _dependent_duals(count):
    """Seeded small [X | I] duals whose X has low rank, so that many
    information-set columns lie in the span of those before them."""
    g = np.random.default_rng(0xD3)
    for _ in range(count):
        d, k, rank = g.integers(3, 9), g.integers(2, 12), g.integers(1, 3)
        x = (g.integers(0, 2, size=(d, rank)) @ g.integers(0, 2, size=(rank, k))) & 1
        yield np.concatenate([x.astype(np.uint8), np.eye(d, dtype=np.uint8)], axis=1)


def _pivot_spy(monkeypatch):
    """Record each elimination step stern makes as (row, column)."""
    steps = []

    def spy(m, row, col):
        steps.append((row, int(col)))
        return dense.pivot(m, row, col)

    monkeypatch.setattr(stern, "pivot", spy)
    return steps


def test_restart_one_matches_gauss_jordan_oracle(make_rng, monkeypatch):
    # restart 1 starts from the dual's identity columns, yet returns the
    # [I_d | B] and the column order of a plain Gauss-Jordan bit for bit
    steps = _pivot_spy(monkeypatch)
    replaced = {"pivot": 0, "identity": 0}
    duals = [(dual, 10) for dual, _ in _lab_duals(R101, 3, b"\x7d")]
    duals.append((_degenerate_lab_dual(), 10))
    duals += [(dual, 2) for dual, _ in _lab_duals(SchemeParams(2, 211, 14, 6, 4, 4), 1, b"\x7e")]
    duals.append((_dual_generator(_planted_instance(make_rng(0x5e))[0]), 10))
    duals += [(dual, 6) for dual in _dependent_duals(80)]
    rng = substream(b"\x7c" * 32, 0)
    for dual, perms in duals:
        d, n = dual.shape
        for _ in range(perms):
            perm = list(range(n))
            rng.shuffle(perm)
            steps.clear()
            m, order = _reduce_onto_information_set(dual, perm)
            expect, expect_order = oracle.reduce_onto_information_set(dual, perm)
            assert order == expect_order
            assert (m[:, order] == expect).all()
            pivoted = {col for _, col in steps}
            for col in set(order[:d]) - set(perm[:d]):  # a tail column took a head place
                replaced["pivot" if col in pivoted else "identity"] += 1
    # both kinds of replacement happen: a tail column that pivots in, and
    # an identity column still in the basis that is taken as it is
    assert replaced["pivot"] > 0 and replaced["identity"] > 0


def test_restart_one_pivots_only_entering_columns(monkeypatch):
    # no elimination step when perm puts the identity columns first, and
    # otherwise one per information column that enters from outside the
    # current basis
    steps = _pivot_spy(monkeypatch)
    cases = [(dual, rng) for dual, rng in _lab_duals(R101, 2, b"\x7f")]
    cases.append((_degenerate_lab_dual(), substream(b"\x7f" * 32, 9)))
    for dual, rng in cases:
        d, n = dual.shape
        k = n - d
        identity = list(range(k, n))
        rng.shuffle(identity)
        rest = list(range(k))
        rng.shuffle(rest)
        steps.clear()
        m, order = _reduce_onto_information_set(dual, identity + rest)
        assert steps == [] and order == identity + rest
        assert (m == dual[[c - k for c in identity]]).all()  # the dual's rows, sorted
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            steps.clear()
            m, order = _reduce_onto_information_set(dual, perm)
            basis = list(range(k, n))  # row i starts reduced onto identity column k + i
            for row, col in steps:
                assert col not in basis
                basis[row] = col
            assert len(steps) > 0 and sorted(basis) == sorted(order[:d])


def test_chained_restarts_match_row_space_oracle(make_rng, monkeypatch):
    # after every chained restart m is still reduced onto the information
    # columns of its order, over the dual's own columns, and spans the dual
    # rows; rows and tail columns follow the drawn permutation and at most
    # _CHAIN_SWAPS columns enter the information set, one step each
    steps = _pivot_spy(monkeypatch)
    duals = list(_lab_duals(R101, 2, b"\x7b"))
    rng = make_rng(0x5c)
    duals.append((_dual_generator(_planted_instance(rng)[0]), rng))
    for dual, rng in duals:
        d, n = dual.shape
        perm = list(range(n))
        rng.shuffle(perm)
        m, order = _reduce_onto_information_set(dual, perm)
        for _ in range(25):
            perm = list(range(n))
            rng.shuffle(perm)
            before = set(order[:d])
            steps.clear()
            m, order = _chain_information_set(m, order, perm)
            assert (m[:, order[:d]] == np.eye(d, dtype=np.uint8)).all()
            assert sorted(order) == list(range(n))
            assert oracle.rank(np.concatenate([m, dual])) == d
            place = [perm.index(c) for c in order]
            assert place[:d] == sorted(place[:d]) and place[d:] == sorted(place[d:])
            assert 0 < len(set(order[:d]) - before) <= stern._CHAIN_SWAPS
            assert len(steps) == len(set(order[:d]) - before)


def test_one_full_reduction_per_search(make_rng, monkeypatch):
    rng = make_rng(0x5d)
    gen, _ = _planted_instance(rng)
    calls = []
    reduce = stern._reduce_onto_information_set

    def counting(dual, perm):
        calls.append(perm)
        return reduce(dual, perm)

    monkeypatch.setattr(stern, "_reduce_onto_information_set", counting)
    for restarts in (1, 6):
        calls.clear()
        assert stern_search(gen, 1, rng, max_iterations=restarts).iterations == restarts
        assert len(calls) == 1


def test_stern_trivial_target_first_iteration(make_rng):
    rng = make_rng(0x51)
    gen, _ = _planted_instance(rng)
    result = stern_search(gen, 202, rng, max_iterations=500)
    assert result.found is not None
    assert result.iterations == 1


def test_stern_not_found_reports_iterations(make_rng):
    rng = make_rng(0x52)
    gen, _ = _planted_instance(rng)
    result = stern_search(gen, 1, rng, max_iterations=3)
    assert result.found is None
    assert result.iterations == 3


def test_stern_known_answer():
    # found rows, restart counts and information-set column orders on 12
    # attack-demo keys; the loose target takes the first of many hits, so
    # any change to the collision order or the swap column changes the digest
    record = []
    for i in range(12):
        rng = substream(b"\x5e" * 32, i)
        pk, _ = keygen(R101, rng)
        gen = systematic_public_generator(pk)
        hit = stern_search(gen, 6, rng, max_iterations=20)
        loose = stern_search(gen, 30, rng, max_iterations=20)
        miss = stern_search(gen, 1, rng, max_iterations=4)
        record.append([hit.found.value, hit.iterations, loose.found.value,
                       loose.iterations, miss.iterations])
        dual = _dual_generator(gen)
        for _ in range(30):
            perm = list(range(R101.n))
            rng.shuffle(perm)
            record.append(_reduce_onto_information_set(dual, perm)[1])
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "20cbfbf342a4c3e25c6b1b2bdd26e28ec799e3ddbc7f2932e01ae721ac8b03ae"


def _reduced_tails(params, keys, restarts):
    """The tails B of the reduced duals [I_d | B] that stern_search meets,
    over seeded restarts on seeded keys, with its window width."""
    d = params.n - params.k
    window = int(log2_binom(d // 2, 2))  # stern_search's rule at these sizes
    for i in range(keys):
        rng = substream(b"\x7a" * 32, i)
        pk, _ = keygen(params, rng)
        dual = _dual_generator(systematic_public_generator(pk))
        for _ in range(restarts):
            perm = list(range(params.n))
            rng.shuffle(perm)
            m, order = _reduce_onto_information_set(dual, perm)
            yield m[:, order[d:]], window


def _nested_loop_hits(tail, window, budget):
    """What ``_hits`` returns, from every (left pair, right pair) sum of the
    tail rows weighed one by one and put in the search's order."""
    d = len(tail)
    ints = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in tail]
    mask = (1 << window) - 1
    left = list(combinations(range(d // 2), 2))
    right = list(combinations(range(d // 2, d), 2))
    right_sums = [ints[k] ^ ints[l] for k, l in right]
    first_seen = {}
    expect = []
    for a, (i, j) in enumerate(left):
        left_sum = ints[i] ^ ints[j]
        rank = first_seen.setdefault(left_sum & mask, a)
        for b, right_sum in enumerate(right_sums):
            acc = left_sum ^ right_sum
            if acc & mask == 0 and acc.bit_count() <= budget:
                expect.append((rank, a, b, (i, j) + right[b]))
    return [hit for *_, hit in sorted(expect)]


def test_hits_match_nested_loop_in_search_order(monkeypatch):
    # a loose target, where a restart has hundreds of hits to put in order;
    # the small chunk splits each join into dozens of runs
    d = R101.n - R101.k
    budget = 30 - 4
    pairs = _pair_tables(d)
    for tail, window in _reduced_tails(R101, keys=3, restarts=1):
        expect = _nested_loop_hits(tail, window, budget)
        assert len(expect) > 100
        for chunk in (stern._JOIN_CHUNK, 1000):
            monkeypatch.setattr(stern, "_JOIN_CHUNK", chunk)
            got = [tuple(row) for row in _hits(tail, pairs, window, budget).tolist()]
            assert got == expect


@pytest.mark.parametrize("window", [1, 8, 9, 16, 17])
def test_hits_match_nested_loop_on_any_window(window, monkeypatch):
    # uint8, uint16 and uint32 window keys, tail widths on and off the 8-
    # and 64-bit grid, and one collision per chunk; the window columns are
    # sparse, so even a 17-bit window sees collisions; budgets 1 and 2 are
    # the lab's w2 - 2p, where the first word alone rules out most pairs
    monkeypatch.setattr(stern, "_JOIN_CHUNK", 1)
    g = np.random.default_rng(0x5100 + window)
    d = 20
    pairs = _pair_tables(d)
    for width in (37, 64, 65, 128, 130):
        tail = (g.random((d, width)) < 0.4).astype(np.uint8)
        tail[:, :window] = g.random((d, window)) < 0.05
        for budget in (-1, 0, 1, 2, width // 3, width):
            got = _hits(tail, pairs, window, budget)
            assert got.dtype == np.intp and got.shape[1:] == (4,)
            expect = _nested_loop_hits(tail, window, budget)
            assert [tuple(row) for row in got.tolist()] == expect
            if budget < 1:
                assert got.shape == (0, 4)
            elif budget == width:
                assert len(got) > 0


def _planted_tail(g, width, budget, columns, front):
    """A 12-row tail with a 4-bit window on which every row is zero, so all
    225 pair sums collide, and whose rows 0, 1, 6 and 7 sum to a word of
    weight ``budget`` on ``columns``; the other columns of word 0 have
    density ``front``, the later ones 0.3."""
    d, window = 12, 4
    tail = (g.random((d, width)) < 0.3).astype(np.uint8)
    tail[:, :64] = g.random((d, min(width, 64))) < front
    tail[:, :window] = 0
    plant = np.zeros(width, dtype=np.uint8)
    plant[g.choice(columns, budget, replace=False)] = 1
    tail[7] = tail[0] ^ tail[1] ^ tail[6] ^ plant
    return tail, window


def _permutation_tail(g, d, width, window):
    """A tail whose rows are distinct unit vectors outside the window, the
    shape of a degenerate key's: every pair sum collides on key 0, and
    every (left pair, right pair) sum weighs exactly 4."""
    tail = np.zeros((d, width), dtype=np.uint8)
    tail[np.arange(d), g.choice(np.arange(window, width), d, replace=False)] = 1
    return tail


def test_hits_first_word_filter_on_planted_tails(monkeypatch):
    # the join rules a pair out on its first 64 tail bits and weighs the
    # rest only for the pairs that word keeps within budget: a hit of
    # exactly the budget in word 0, a hit wholly past column 63 among
    # pairs light in word 0, and tails where every sum collides
    for chunk in (1, stern._JOIN_CHUNK):
        monkeypatch.setattr(stern, "_JOIN_CHUNK", chunk)
        g = np.random.default_rng(0x5200)
        pairs = _pair_tables(12)
        for width, columns, front in ((130, range(4, 64), 0.3), (128, range(64, 128), 0.02)):
            for budget in (1, 2, 3, 5):
                tail, window = _planted_tail(g, width, budget, columns, front)
                got = [tuple(row) for row in _hits(tail, pairs, window, budget).tolist()]
                assert (0, 1, 6, 7) in got
                assert got == _nested_loop_hits(tail, window, budget)
        pairs = _pair_tables(20)
        for width in (48, 84, 130):
            tail = _permutation_tail(g, 20, width, 5)
            for budget in (2, 3, 4):
                got = [tuple(row) for row in _hits(tail, pairs, 5, budget).tolist()]
                assert got == _nested_loop_hits(tail, 5, budget)
                assert len(got) == (45 * 45 if budget == 4 else 0)


def _searched_tails(params, keys, restarts, monkeypatch):
    """The tails of every eighth restart stern_search itself meets
    (restart 1 full, the rest chained), over seeded searches on the keys
    of ``_reduced_tails``: ``restarts`` tails per key."""
    # neighbouring chained restarts share most of the information set, so
    # their hit counts correlate (about 0.17 at lag 1 for r = 211), which
    # would make a Poisson interval over consecutive restarts too narrow;
    # eight restarts apart the correlation is about 0.01
    every = 8
    seen = []
    calls = iter(range(1, keys * restarts * every + 1))

    def spy(tail, pairs, window, budget):
        if next(calls) % every == 0:
            seen.append((tail.copy(), window))
        return np.empty((0, 4), dtype=np.intp)  # as for any target below 2p

    monkeypatch.setattr(stern, "_hits", spy)
    for i in range(keys):
        rng = substream(b"\x7a" * 32, i)
        pk, _ = keygen(params, rng)
        stern_search(systematic_public_generator(pk), 1, rng,
                     max_iterations=restarts * every)
    monkeypatch.undo()
    assert len(seen) == keys * restarts
    return seen


def _assert_hits_match_stern_cost_model(params, tails):
    # isd's stern model: a restart catches each of the r rotations of the
    # weight-w2 row when two of its bits fall in each half of the
    # information set, none in the window and w2 - 4 in the rest of the tail
    n, d = params.n, params.n - params.k
    half = d // 2
    pairs = _pair_tables(d)
    total = restarts = window = 0
    for tail, window in tails:
        total += len(_hits(tail, pairs, window, params.w2 - 4))
        restarts += 1
    per_restart = (params.r * comb(half, 2) * comb(d - half, 2)
                   * comb(n - d - window, params.w2 - 4) / comb(n, params.w2))
    # exact (Garwood) Poisson 95% interval on the total count
    lo, hi = chi2.ppf(0.025, 2 * total) / 2, chi2.ppf(0.975, 2 * total + 2) / 2
    assert lo <= per_restart * restarts <= hi


@pytest.mark.parametrize("params, keys, restarts", [
    (R101, 4, 40),
    (SchemeParams(2, 211, 14, 6, 4, 4), 2, 20),
])
def test_hit_count_matches_stern_cost_model(params, keys, restarts):
    _assert_hits_match_stern_cost_model(params, _reduced_tails(params, keys, restarts))


@pytest.mark.parametrize("params, keys, restarts", [
    (R101, 4, 40),
    (SchemeParams(2, 211, 14, 6, 4, 4), 2, 20),
])
def test_chained_hit_count_matches_stern_cost_model(params, keys, restarts, monkeypatch):
    # chained restarts keep the expected count but cluster their hits
    tails = _searched_tails(params, keys, restarts, monkeypatch)
    _assert_hits_match_stern_cost_model(params, tails)


def test_stern_input_validation(make_rng):
    gen, _ = _planted_instance(make_rng(0x53))
    rng = make_rng(0x53)
    with pytest.raises(ValueError):
        stern_search(gen, 0, rng)
    with pytest.raises(ValueError):
        stern_search(np.eye(3, 6, dtype=np.uint8), 6, rng)  # dual dimension < 2p
    with pytest.raises(ValueError):
        stern_search(np.eye(5, dtype=np.uint8), 1, rng)


def test_systematic_public_generator_matches_dense_reduction():
    # S is the public left block of SG2, so S^-1 SG2 over the ring is
    # exactly the row reduction of the expanded generator
    for i, params in enumerate((R101, SchemeParams(3, 101, 14, 6, 4, 4))):
        pk, _ = keygen(params, substream(b"\x5f" * 32, i))
        expect = dense.systematic_form(dense.expand_block_matrix(pk.sg2))
        got = systematic_public_generator(pk)
        assert got.dtype == expect.dtype and np.array_equal(got, expect)
    zero = BlockMatrix(((CirculantBlock.zero(R101.r),) * 2,))
    with pytest.raises(NotInvertibleError):
        systematic_public_generator(PublicKey(R101, zero, zero))


def test_recover_dual_structure_quasi_cyclic(make_rng):
    rng = make_rng(0x54)
    pk, sk = keygen(R101, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    assert rec.row.weight == R101.w2
    assert rec.complete
    assert rec.iterations >= 1
    # all r blockwise rotations annihilate the public generator, densely
    gen_sys = systematic_public_generator(pk)
    h_dense = dense.expand_block_matrix(BlockMatrix((rec.parity.blocks,)))
    assert not oracle.mat_mul(gen_sys, h_dense.T).any()
    assert oracle.rank(h_dense) == R101.r


def test_rotations_complete_matches_dense_rank(make_rng):
    # blocks of even weight share the factor x + 1 with x^r - 1, so their
    # rotations span at most r - 1 dimensions
    rng = make_rng(0x58)
    for weights in ((2, 4), (4, 2), (0, 6), (3, 3), (1, 5)):
        row = sample_fixed_weight(rng, R101.r, weights[0]).concat(
            sample_fixed_weight(rng, R101.r, weights[1])
        )
        parity = rotations_parity_check(R101, row)
        complete = _rotations_complete(parity)
        rank = oracle.rank(dense.expand_block_matrix(BlockMatrix((parity.blocks,))))
        assert complete == (rank == R101.r)
        if all(w % 2 == 0 for w in weights):
            assert not complete


def test_recovered_structure_decodes_like_the_true_key(make_rng):
    # the recovered row is a rotation of the secret one, so the circulant
    # expansions hold the same row set and the decoder cannot tell them apart
    rng = make_rng(0x55)
    pk, sk = keygen(R101, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    cfg = ldpc_decoder_config(R101)
    successes = 0
    for _ in range(100):
        m2 = BitVector(R101.k, rng.take_bits(R101.k))
        word = pk.sg2.vec_mul(m2) ^ sample_fixed_weight(rng, R101.n, R101.t2)
        mine = decode(rec.parity, word, cfg)
        true = decode(sk.h2, word, cfg)
        assert mine == true
        successes += bool(true.success)
    # both outcomes must occur or the comparison above proves nothing
    assert 10 <= successes <= 90


def test_rotations_parity_check_shape(make_rng):
    rng = make_rng(0x56)
    row = sample_fixed_weight(rng, 202, 6)
    parity = rotations_parity_check(R101, row)
    assert parity.params.r == 101
    assert len(parity.blocks) == 2
    assert sum(b.weight for b in parity.blocks) == row.weight


def test_attack_demo_fails_to_recover_plaintext(make_rng):
    rng = make_rng(0x57)
    pk, sk = keygen(LAB, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    # per-key facts; a row it returns is orthogonal, or it would have raised
    assert rec.row.weight == LAB.w2
    assert rec.complete
    n = LAB.n
    in_band = 0
    for _ in range(20):
        m = BitVector(LAB.plaintext_bits, rng.take_bits(LAB.plaintext_bits))
        ct = encrypt(pk, m, rng)
        report = weak_key_attack_demo(pk, ct, m, rng, recovered=rec)
        assert not report.attack_succeeded
        if 0.4 * n <= report.residual_weight <= 0.6 * n:
            in_band += 1
    assert in_band >= 19


def test_attack_demo_known_answer():
    # the reports of 20 ciphertexts on each of 3 lab keys, recorded when
    # c2 and c1 + c2 each had a decode of their own: sharing one pass
    # must not change what either reports.  The records were taken when
    # each report also repeated its key's facts, so those are put back in
    # front of it, from LAB and the recovered structure
    record = []
    for i in range(3):
        rng = substream(b"\x6b" * 32, i)
        pk, _ = keygen(LAB, rng)
        rec = recover_dual_structure(pk, rng, max_iterations=50)
        assert rec is not None
        key_facts = {
            "n0": LAB.n0, "r": LAB.r, "w2": LAB.w2, "rowFound": True,
            "recoveredRowWeight": rec.row.weight, "orthogonal": True,
            "rotationsComplete": rec.complete, "sternIterations": rec.iterations,
        }
        for _ in range(20):
            m = BitVector(LAB.plaintext_bits, rng.take_bits(LAB.plaintext_bits))
            ct = encrypt(pk, m, rng)
            report = weak_key_attack_demo(pk, ct, m, rng, recovered=rec)
            record.append({**key_facts, **report.to_dict()})
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "ab26d458211eab6fcc8295040b1003b19a1ba629d4edb65dd31b78ac4d10ab88"


def test_attack_demo_one_decoder_pass_per_ciphertext(make_rng, monkeypatch):
    rng = make_rng(0x5a)
    pk, _ = keygen(LAB, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    passes = []
    decode_many = attack.decode_many

    def counting(h, words, cfg):
        passes.append(len(words))
        return decode_many(h, words, cfg)

    monkeypatch.setattr(attack, "decode_many", counting)
    for _ in range(3):
        m = BitVector(LAB.plaintext_bits, rng.take_bits(LAB.plaintext_bits))
        weak_key_attack_demo(pk, encrypt(pk, m, rng), m, rng, recovered=rec)
    assert passes == [2, 2, 2]


def test_attack_demo_draws_nothing_from_its_stream(make_rng):
    # the CLI and perfbench pass the stream that encrypt reads next
    rng = make_rng(0x58)
    pk, _ = keygen(LAB, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    m = BitVector(LAB.plaintext_bits, rng.take_bits(LAB.plaintext_bits))
    ct = encrypt(pk, m, rng)
    used, twin = make_rng(0x57), make_rng(0x57)
    weak_key_attack_demo(pk, ct, m, used, rec)
    assert used.take_bits(64) == twin.take_bits(64)


def test_attack_report_json(make_rng):
    rng = make_rng(0x59)
    pk, _ = keygen(LAB, rng)
    rec = recover_dual_structure(pk, rng, max_iterations=500)
    assert rec is not None
    m = BitVector(LAB.plaintext_bits, rng.take_bits(LAB.plaintext_bits))
    ct = encrypt(pk, m, rng)
    report = weak_key_attack_demo(pk, ct, m, rng, recovered=rec)
    record = json.loads(json.dumps(report.to_dict()))
    # per-ciphertext outcomes only: the key's facts are in RecoveredDual
    assert list(record) == [
        "directDecodeSuccess", "directDecodeIterations", "combinedDecodeSuccess",
        "combinedDecodeIterations", "residualWeight", "attackSucceeded",
    ]
    assert record["attackSucceeded"] is False
