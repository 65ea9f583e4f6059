"""Quasi-cyclic code construction against the dense oracle."""

import pytest

import oracle
from plotkin_pke import dense
from plotkin_pke.gf2 import (
    BitVector,
    BlockMatrix,
    CirculantBlock,
    NotInvertibleError,
    sample_fixed_weight,
)
from plotkin_pke.qc import (
    QcParams,
    _two_generates,
    derive_generator,
    encode,
    sample_parity_check,
    syndrome,
)


def test_params_validation():
    with pytest.raises(ValueError):
        QcParams(1, 13, 5, "mdpc")  # n0 too small
    with pytest.raises(ValueError):
        QcParams(2, 14, 5, "mdpc")  # r even
    with pytest.raises(ValueError):
        QcParams(2, 13, 1, "mdpc")  # below the mdpc density band
    with pytest.raises(ValueError):
        QcParams(2, 523, 40, "ldpc")  # ldpc rows stay sparse
    with pytest.raises(ValueError):
        QcParams(2, 13, 5, "turbo")
    p = QcParams(2, 13, 6, "mdpc")
    assert (p.n, p.k) == (26, 13)


def test_block_weight_split_examples():
    # two blocks of weight 3 each; an odd last block stays untouched
    assert QcParams(2, 13, 6, "ldpc").block_weights() == (3, 3)
    # base split (4, 4) would leave an even last block: shift one unit
    assert QcParams(2, 523, 8, "ldpc").block_weights() == (3, 5)
    # (3, 2, 2) has an even last block: one unit moves from block 0 to it
    assert QcParams(3, 13, 7, "ldpc").block_weights() == (2, 2, 3)
    assert sum(QcParams(3, 29, 10, "ldpc").block_weights()) == 10


def test_sampled_parity_check_structure(make_rng):
    params = QcParams(2, 13, 6, "ldpc")
    h = sample_parity_check(make_rng(1), params)
    assert len(h.blocks) == 2
    assert tuple(b.weight for b in h.blocks) == (3, 3)
    h.blocks[-1].inverse()  # last block must be invertible


def test_generator_orthogonal_to_parity(make_rng):
    for tag, (n0, r, w, flavor) in enumerate(
        [(2, 13, 6, "mdpc"), (2, 29, 8, "mdpc"), (3, 17, 9, "ldpc"), (2, 31, 4, "ldpc")]
    ):
        params = QcParams(n0, r, w, flavor)
        h = sample_parity_check(make_rng(tag), params)
        gen = derive_generator(h)
        g_dense = dense.expand_block_matrix(gen)
        h_dense = dense.expand_block_matrix(BlockMatrix((h.blocks,)))
        prod = oracle.mat_mul(g_dense, h_dense.T)
        assert not prod.any()


def test_encode_matches_dense(make_rng):
    rng = make_rng(2)
    params = QcParams(3, 13, 9, "ldpc")
    h = sample_parity_check(rng, params)
    gen = derive_generator(h)
    g_dense = dense.expand_block_matrix(gen)
    for _ in range(25):
        m = BitVector(params.k, rng.take_bits(params.k))
        got = dense.to_array(encode(gen, m))
        want = oracle.vec_mat_mul(dense.to_array(m), g_dense)
        assert got.tolist() == want.tolist()


def test_encode_is_systematic(make_rng):
    rng = make_rng(3)
    params = QcParams(2, 29, 8, "mdpc")
    gen = derive_generator(sample_parity_check(rng, params))
    m = BitVector(params.k, rng.take_bits(params.k))
    assert encode(gen, m).slice(0, params.k) == m


def test_syndrome_matches_dense_and_vanishes_on_codewords(make_rng):
    rng = make_rng(4)
    params = QcParams(2, 17, 6, "ldpc")
    h = sample_parity_check(rng, params)
    gen = derive_generator(h)
    h_dense = dense.expand_block_matrix(BlockMatrix((h.blocks,)))
    for _ in range(25):
        y = BitVector(params.n, rng.take_bits(params.n))
        got = dense.to_array(syndrome(h, y))
        want = oracle.vec_mat_mul(dense.to_array(y), h_dense.T)
        assert got.tolist() == want.tolist()

        m = BitVector(params.k, rng.take_bits(params.k))
        assert syndrome(h, encode(gen, m)).value == 0


def test_syndrome_of_error_equals_word_syndrome(make_rng):
    rng = make_rng(5)
    params = QcParams(2, 31, 8, "mdpc")
    h = sample_parity_check(rng, params)
    gen = derive_generator(h)
    m = BitVector(params.k, rng.take_bits(params.k))
    e = sample_fixed_weight(rng, params.n, 3)
    assert syndrome(h, encode(gen, m) ^ e) == syndrome(h, e)


def test_resampling_recovers_from_bad_last_block(make_rng):
    # weight 4 last blocks are even, hence never invertible; the sampler
    # must keep drawing until an odd-split flavor succeeds, so a params
    # set whose split puts an odd weight last always generates
    params = QcParams(2, 13, 7, "ldpc")  # split (4, 3), last odd
    for tag in range(10):
        h = sample_parity_check(make_rng(tag + 16), params)
        h.blocks[-1].inverse()


def test_weight_rule_replaces_inversion_when_two_generates(make_rng, monkeypatch):
    # Lucas test against the order of 2 found by brute force
    def order_of_two(r):
        x, k = 2, 1
        while x != 1:
            x, k = x * 2 % r, k + 1
        return k

    for r in range(600):
        prime = r > 2 and all(r % d for d in range(2, r))
        assert _two_generates(r) == (prime and order_of_two(r) == r - 1), r
    # there an odd-weight row inverts iff its weight is below r (the
    # all-ones row is the irreducible factor of x^r - 1 besides x + 1)
    rng = make_rng(0x3C)
    for r in (13, 101):
        assert _two_generates(r)
        for w in range(1, r + 1, 2):
            for _ in range(3):
                block = CirculantBlock(r, sample_fixed_weight(rng, r, w))
                try:
                    block.inverse()
                    inverts = True
                except NotInvertibleError:
                    inverts = False
                assert inverts == (w < r)
    # so sampling at such r runs no inversion; at r = 31 (2 has order 5)
    # each last-block draw is still tested by inverting it
    calls = []
    real_inverse = CirculantBlock.inverse

    def counting_inverse(block):
        calls.append(block.r)
        return real_inverse(block)

    monkeypatch.setattr(CirculantBlock, "inverse", counting_inverse)
    sample_parity_check(make_rng(3), QcParams(2, 523, 30, "mdpc"))
    assert calls == []
    sample_parity_check(make_rng(3), QcParams(2, 31, 7, "mdpc"))
    assert calls
