"""Packed circulant algebra against the dense numpy oracle."""

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from plotkin_pke import PRESETS, dense, gf2, preset
from plotkin_pke.gf2 import (
    BitVector,
    BlockMatrix,
    CirculantBlock,
    NotInvertibleError,
    _SPARSE_MAX_WEIGHT,
    _block_dot,
    _transpose_row,
    sample_fixed_weight,
)
from plotkin_pke.qc import QcParams, derive_generator, sample_parity_check
from plotkin_pke.rng import RandomStream, derive_substream_seed, substream
from plotkin_pke.scheme import decrypt, encrypt, keygen
from plotkin_pke.wire import (
    deserialize_public,
    deserialize_secret,
    serialize_public,
    serialize_secret,
)

TOY = preset("toy")
ODD_R = [3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31]


@st.composite
def circulant_pair(draw):
    r = draw(st.sampled_from(ODD_R))
    a = draw(st.integers(0, (1 << r) - 1))
    b = draw(st.integers(0, (1 << r) - 1))
    return CirculantBlock(r, BitVector(r, a)), CirculantBlock(r, BitVector(r, b))


def random_block(rng: RandomStream, r: int) -> CirculantBlock:
    return CirculantBlock(r, BitVector(r, rng.take_bits(r)))


# --- BitVector ---------------------------------------------------------------


def test_bitvector_validation():
    with pytest.raises(ValueError):
        BitVector(3, 8)  # value needs 4 bits
    with pytest.raises(ValueError):
        BitVector(-1, 0)
    assert BitVector(0, 0).length == 0


def test_bitvector_support_roundtrip():
    v = BitVector.from_support(11, (0, 3, 10))
    assert v.support() == (0, 3, 10)
    assert v.weight == 3
    assert [(v.value >> j) & 1 for j in range(11)] == [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]


@pytest.mark.parametrize("r", [1, 8, 523, 11779])
def test_bitvector_support_matches_definition(make_rng, r):
    rng = make_rng(r % 251)
    for v in (0, (1 << r) - 1, 1 << (r - 1), rng.take_bits(r), rng.take_bits(r)):
        assert BitVector(r, v).support() == tuple(j for j in range(r) if v >> j & 1)


def test_bitvector_bytes_roundtrip(rng):
    for length in (1, 7, 8, 9, 64, 523):
        v = BitVector(length, rng.take_bits(length))
        assert BitVector.from_bytes(v.to_bytes(), length) == v
        assert len(v.to_bytes()) == (length + 7) // 8


def test_bitvector_bit_order():
    # bit j lives at bit (j mod 8) of byte j // 8
    v = BitVector.from_support(16, (0, 9))
    assert v.to_bytes() == bytes([0x01, 0x02])


def test_bitvector_concat_slice_chunks(rng):
    a = BitVector(13, rng.take_bits(13))
    b = BitVector(13, rng.take_bits(13))
    joined = a.concat(b)
    assert joined.length == 26
    assert joined.slice(0, 13) == a
    assert joined.slice(13, 13) == b
    assert joined.chunks(13) == (a, b)


# --- CirculantBlock vs dense oracle ------------------------------------------


def test_block_rows_are_shifts(rng):
    for r in (1, 2, 3, 8, 13, 101, 256):
        block = random_block(rng, r)
        mat = dense.expand_block(block)
        assert mat.dtype == np.uint8 and mat.shape == (r, r)
        row0 = dense.to_array(block.row0)
        for i in range(r):
            assert mat[i].tolist() == np.roll(row0, i).tolist()
            shift = CirculantBlock(r, BitVector(r, 1 << i))  # x^i
            assert (block * shift).row0 == oracle.from_array(mat[i])


@settings(max_examples=60, deadline=None)
@given(circulant_pair())
def test_block_mul_matches_dense(pair):
    a, b = pair
    got = dense.expand_block(a * b)
    want = oracle.mat_mul(dense.expand_block(a), dense.expand_block(b))
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(circulant_pair())
def test_block_mul_commutes(pair):
    a, b = pair
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(circulant_pair())
def test_block_add_and_transpose_match_dense(pair):
    a, b = pair
    assert np.array_equal(
        dense.expand_block(a + b), dense.expand_block(a) ^ dense.expand_block(b)
    )
    assert np.array_equal(dense.expand_block(a.transpose()), dense.expand_block(a).T)
    assert a.transpose().transpose() == a


@settings(max_examples=40, deadline=None)
@given(circulant_pair())
def test_transpose_antihomomorphism(pair):
    a, b = pair
    assert (a * b).transpose() == b.transpose() * a.transpose()


@pytest.mark.parametrize(
    "weight", [0, 1, 64, 128, 129, _SPARSE_MAX_WEIGHT, _SPARSE_MAX_WEIGHT + 1, 200, 261, 522, 523]
)
def test_block_mul_matches_dense_across_comb_cutoff(make_rng, weight):
    # the lighter operand's weight crosses the set-bit/spectral cut-off, which
    # the dense comb held before the spectral kernel; the name keeps the ids
    rng = make_rng(weight)
    r = 523
    a = CirculantBlock(r, sample_fixed_weight(rng, r, weight))
    b = CirculantBlock(r, sample_fixed_weight(rng, r, max(weight, r // 2)))
    dense_b = dense.expand_block(b)
    assert np.array_equal(dense.expand_block(a * b), oracle.mat_mul(dense.expand_block(a), dense_b))
    assert b * a == a * b
    c = random_block(rng, r)  # dense x dense
    assert np.array_equal(dense.expand_block(b * c), oracle.mat_mul(dense_b, dense.expand_block(c)))


def test_dense_block_mul_matches_convolution_at_cca128_size(make_rng):
    rng = make_rng(0x5B)
    r = 11779
    a, b = random_block(rng, r), random_block(rng, r)
    full = np.convolve(
        dense.to_array(a.row0).astype(np.int64), dense.to_array(b.row0).astype(np.int64)
    )
    folded = full[:r].copy()
    folded[: r - 1] += full[r:]
    assert dense.to_array((a * b).row0).tolist() == (folded & 1).tolist()


def setbit_mul(a: int, b: int, r: int) -> int:
    """a(x) * b(x) mod (x^r - 1) as a sum of rotations of b, one per set bit."""
    mask = (1 << r) - 1
    acc = 0
    for j, bit in enumerate(reversed(bin(a)[2:])):
        if bit == "1":
            acc ^= ((b << j) | (b >> (r - j))) & mask
    return acc


@pytest.mark.parametrize("r", [193, 255, 256, 257, 523, 10163, 11779, 24821, 40597])
def test_comb_matches_setbit_reference(make_rng, monkeypatch, r):
    # the spectral products against the set-bit reference, by both callers
    # of ``_pack``: a block product in both orders, each transforming its
    # pair, and ``vec_mul`` against its kept spectrum.  r mod 32 runs over
    # 1, 31, 0, 1, 11, 19, 3, 21, 21: full, partial and single-bit top
    # words.  With the cut-off at 0 every nonzero operand is transformed,
    # however light, so the zero-word shapes and operands far shorter than r
    # reach the kernel at every r; a = 0 is never transformed.  All-ones x
    # all-ones gives the largest coefficients
    monkeypatch.setattr(gf2, "_SPARSE_MAX_WEIGHT", 0)
    rng = make_rng(r)
    ones = (1 << r) - 1
    a, b = rng.take_bits(r), rng.take_bits(r)
    top_chunk = ones >> 32 * ((r - 1) // 32) << 32 * ((r - 1) // 32)
    short = a & ((1 << 40) - 1) | 1
    for x, y in (
        (a, b),  # random dense
        (ones, b),  # all-ones
        (a & ~top_chunk, b),  # zero top chunk
        (a & ~((1 << 96) - 1), b),  # three zero low chunks
        (a, a),
        (ones, ones),
        (0, b),
        (short, b),
        (short, short >> 7 | 1),
        (1 << r - 1, b >> r // 2),  # a monomial at the top, b's top half zero
    ):
        want = setbit_mul(x, y, r)
        bx, by = CirculantBlock(r, BitVector(r, x)), CirculantBlock(r, BitVector(r, y))
        assert (bx * by).row0.value == want
        assert (by * bx).row0.value == want
        block = BlockMatrix(((by,),))
        assert block.vec_mul(BitVector(r, x)).value == want


def test_dense_products_pinned_digest(make_rng):
    # recorded with the 8-bit comb the spectral kernel replaced: the products
    # are bit-identical, not only self-consistent
    h = hashlib.sha256()
    for r in (523, 10163, 11779, 40597):
        rng = make_rng(r)
        for _ in range(3):
            a, b, c = (rng.take_bits(r) for _ in range(3))
            for x, y in ((a, b), (a | c, b), (a | b | c, c), ((1 << r) - 1, b)):
                product = CirculantBlock(r, BitVector(r, x)) * CirculantBlock(r, BitVector(r, y))
                h.update(product.row0.to_bytes())
    assert h.hexdigest() == "09bd89176d7a499e2c7137cfb9e9cad0025e5eecda4098b58712f7a9daaf6a6e"


@pytest.mark.parametrize("r", [523, 11779, 40597])
def test_vec_mul_sums_dense_products(make_rng, monkeypatch, r):
    # every output block of a 2 x 2 matrix sums two spectral products, all
    # of them all-ones x all-ones, whose digits are the largest; a cross
    # digit of one product reaches r + 1, of two 2r + 2.  The second vector
    # makes the sums nonzero
    monkeypatch.setattr(gf2, "_SPARSE_MAX_WEIGHT", 0)
    ones = (1 << r) - 1
    block = CirculantBlock(r, BitVector(r, ones))
    grid = BlockMatrix(((block, block), (block, block)))
    for y in ((ones, ones), (ones, make_rng(r).take_bits(r) | 1)):
        want = setbit_mul(y[0], ones, r) ^ setbit_mul(y[1], ones, r)
        got = grid.vec_mul(BitVector(2 * r, y[0] | y[1] << r))
        assert got.value == want | want << r


@pytest.mark.parametrize("r", sorted({523, 65533} | {p.r for p in PRESETS.values()}))
def test_rounding_margin_at_preset_sizes(r):
    # all-ones x all-ones has the largest points, so the largest rounding
    # error of the inverse transform: it stays far below the 1/2 that would
    # flip a parity, at every preset r and at the largest r products take
    ones = (1 << r) - 1
    square = gf2._spectrum(ones, r) ** 2
    c = np.fft.irfft(square, gf2._layout(r)[0])
    assert np.abs(c - np.rint(c)).max() <= 1 / 8
    assert gf2._pack(square, r) == ones  # r odd: every coefficient is r


def test_dense_products_refuse_r_beyond_the_rounding_margin():
    # past r = 65533 the digit base grows to 2^17 and the rounding error to
    # 1/2: a dense product raises instead of rounding wrong, a light one
    # stays on the set-bit loop
    r = 65535
    ones = CirculantBlock(r, BitVector(r, (1 << r) - 1))
    with pytest.raises(ValueError, match="65533"):
        ones * ones
    assert ones * CirculantBlock.identity(r) == ones


# the ids end in the cut-off, 192, that these cases ran under beside a
# cut-off of 0, which sent them through a spectral route ``_block_dot`` no
# longer has
@pytest.mark.parametrize(
    "r, n0", [pytest.param(r, n0, id=f"{r}-{n0}-192") for r in (101, 523) for n0 in (2, 3)]
)
def test_block_dot_lanes_match_one_word_each(make_rng, r, n0):
    # words of n = n0 r bits packed at bit l n, with the r-bit mask at the
    # foot of every lane: the packed sum holds each word's own at bit l n.
    # Sparse and dense rows and words, lanes and all, walk the set bits of
    # the lighter operand
    rng = make_rng(r * n0)
    n = n0 * r
    for row_weight in (3, r // 2):
        rows = [sample_fixed_weight(rng, r, row_weight).value for _ in range(n0)]
        for lanes in (1, 2, 4):
            blocks = sum(((1 << r) - 1) << lane * n for lane in range(lanes))
            for word_weight in (5, n // 2):
                words = [sample_fixed_weight(rng, n, word_weight).value for _ in range(lanes)]
                packed = sum(y << lane * n for lane, y in enumerate(words))
                want = sum(_block_dot(y, rows, r) << lane * n for lane, y in enumerate(words))
                assert _block_dot(packed, rows, r, blocks) == want


@pytest.mark.parametrize("r", [1, 2, 3, 7, 8, 9, 523, 11779])
def test_transpose_row_matches_definition(make_rng, r):
    rng = make_rng(r)
    for v in (0, (1 << r) - 1, 1, 1 << (r - 1), rng.take_bits(r), rng.take_bits(r)):
        want = 0
        for j in range(r):
            if v >> j & 1:
                want |= 1 << (r - j) % r
        assert _transpose_row(v, r) == want


@pytest.mark.parametrize("size", [1, 2])
def test_dense_blockmatrix_inverse_round_trip(make_rng, size):
    rng = make_rng(0x5C + size)
    r = 523
    eye = BlockMatrix.identity(size, r)
    while True:
        m = random_grid(rng, size, size, r)
        try:
            inv = m.inverse()
        except NotInvertibleError:
            continue
        break
    assert min(b.weight for row in inv.blocks for b in row) > _SPARSE_MAX_WEIGHT  # spectral
    assert m @ inv == eye
    assert inv @ m == eye


def test_block_inverse_round_trip(rng):
    r = 19
    found = 0
    while found < 10:
        block = random_block(rng, r)
        try:
            inv = block.inverse()
        except NotInvertibleError:
            continue
        found += 1
        assert block * inv == CirculantBlock.identity(r)
        dense_inv = oracle.inverse(dense.expand_block(block))
        assert np.array_equal(dense.expand_block(inv), dense_inv)
    # composite r: x^r - 1 has odd-weight factors of low degree, so some
    # random odd-weight rows do not invert either
    for r in (9, 15, 21):
        odd_singular = 0
        for _ in range(40):
            block = random_block(rng, r)
            mat = dense.expand_block(block)
            if oracle.rank(mat) < r:
                with pytest.raises(NotInvertibleError):
                    block.inverse()
                odd_singular += block.weight % 2
            else:
                assert np.array_equal(dense.expand_block(block.inverse()), oracle.inverse(mat))
        assert odd_singular > 0


def test_xgcd_matches_oracle():
    # random pairs, pairs with a common factor, a = 0, and rows against the
    # x^r - 1 moduli that inversion uses, odd and even weight
    g = np.random.default_rng(0x6C)
    cases = [(0, 1), (0, 0b1011), (1, 1), (0b110, 0b11), (0b101, 0b101)]
    for _ in range(400):
        a, b, f = (int.from_bytes(g.bytes(size), "little") for size in g.integers(1, 40, 3))
        b, f = b | 1, f | 1
        cases += [(a, b), (b, a | 1), (oracle.poly_mul(a, f), oracle.poly_mul(b, f)), (0, b)]
    for r in (101, 523, 11779):
        for weight in (6, 7, 71):
            row = sample_fixed_weight(RandomStream(bytes([weight]) * 32), r, weight)
            cases.append((row.value, (1 << r) | 1))
    common = 0
    for a, b in cases:
        got = gf2._xgcd(a, b)
        assert got == oracle.xgcd(a, b)
        common += got[0] != 1
    assert common > len(cases) // 4


def y_basis_laurent(y: int, h: int) -> int:
    """x^h Y(x + x^-1) for Y(y) = sum_i y_i y^i of degree at most h."""
    acc = 0
    for i in range(h + 1):
        if y >> i & 1:
            term = 1 << h - i
            for _ in range(i):
                term = oracle.poly_mul(term, 0b101)  # x^(h-i) (1 + x^2)^i
            acc ^= term
    return acc


@pytest.mark.parametrize("h", [1, 2, 3, 4, 7, 8, 9, 16, 33])
def test_change_basis_rewrites_coordinates_in_powers_of_y(make_rng, h):
    rng = make_rng(h)
    for _ in range(8):
        c = rng.take_bits(h + 1)
        y = gf2._change_basis(c, h)
        assert gf2._change_basis(y, h, inverse=True) == c
        # c_0 + sum_k c_k (x^k + x^-k), times x^h
        want = (c & 1) << h
        for k in range(1, h + 1):
            want ^= (c >> k & 1) * (1 << h + k | 1 << h - k)
        assert y_basis_laurent(y, h) == want


@pytest.mark.parametrize("r", [3, 5, 9, 23, 31, 65])
def test_norm_modulus_is_phi_in_y(r):
    h = (r - 1) // 2
    m = gf2._norm_modulus(r)
    assert m.bit_length() == h + 1
    assert y_basis_laurent(m, h) == (1 << r) - 1  # Phi_r


# 2053: 2 is primitive; 2063: prime, 2 is not; 2049 = 3 * 683; 2047 = 23 * 89,
# where x^23 - 1 has the odd-weight factor 1 + x + x^5 + x^6 + x^7 + x^9 + x^11
@pytest.mark.parametrize("r, factor", [(2053, 1), (2063, 1), (2049, 0b111), (2047, 0b101011100011)])
def test_norm_route_matches_xgcd(make_rng, r, factor):
    assert r >= gf2._NORM_MIN_R
    rng = make_rng(r % 256)
    mask = (1 << r) - 1
    rows = [0, 1, 0b11, mask]
    rows += [rng.take_bits(r) for _ in range(6)]
    rows += [sample_fixed_weight(rng, r, w).value for w in (6, 7, 7, 71, 71)]
    for _ in range(4):
        f = rng.take_bits(r)
        f = oracle.poly_mul(factor, f ^ (f.bit_count() + 1) % 2)  # f of odd weight
        rows.append((f & mask) ^ (f >> r))
    refused = 0
    for a in rows:
        g, u = gf2._xgcd(a, (1 << r) | 1)
        if g == 1:
            assert gf2._inverse_mod(a, r) == u
        else:
            refused += a.bit_count() % 2
            with pytest.raises(NotInvertibleError, match="shares a factor"):
                gf2._inverse_mod(a, r)
    assert refused >= (1 if factor == 1 else 5)  # the all-ones row, and the factor rows


def test_even_weight_never_invertible(rng):
    # even-weight rows share the root x=1 with x^r - 1
    for _ in range(20):
        v = sample_fixed_weight(rng, 13, 4)
        with pytest.raises(NotInvertibleError):
            CirculantBlock(13, v).inverse()


def test_weight_one_blocks_invert(rng):
    for j in range(13):
        block = CirculantBlock(13, BitVector.from_support(13, (j,)))
        assert block * block.inverse() == CirculantBlock.identity(13)


@settings(max_examples=60, deadline=None)
@given(circulant_pair(), st.integers(0, (1 << 31) - 1))
def test_vec_mul_matches_dense(pair, raw):
    a, _ = pair
    v = BitVector(a.r, raw & ((1 << a.r) - 1))
    got = dense.to_array(BlockMatrix(((a,),)).vec_mul(v))
    want = oracle.vec_mat_mul(dense.to_array(v), dense.expand_block(a))
    assert got.tolist() == want.tolist()


# --- BlockMatrix --------------------------------------------------------------


def random_grid(rng, rows, cols, r):
    return BlockMatrix(
        tuple(tuple(random_block(rng, r) for _ in range(cols)) for _ in range(rows))
    )


def test_blockmatrix_matmul_matches_dense(rng):
    r = 11
    for _ in range(25):
        a = random_grid(rng, 2, 3, r)
        b = random_grid(rng, 3, 2, r)
        got = dense.expand_block_matrix(a @ b)
        want = oracle.mat_mul(dense.expand_block_matrix(a), dense.expand_block_matrix(b))
        assert np.array_equal(got, want)


def test_blockmatrix_vec_mul_matches_dense(rng):
    r = 11
    a = random_grid(rng, 2, 3, r)
    v = BitVector(2 * r, rng.take_bits(2 * r))
    got = dense.to_array(a.vec_mul(v))
    want = oracle.vec_mat_mul(dense.to_array(v), dense.expand_block_matrix(a))
    assert got.tolist() == want.tolist()


def test_vec_mul_spectra_kept_per_matrix(make_rng):
    # r = 523 puts dense blocks on the spectral route.  A [I | Q] generator,
    # whose identity block stays on _block_dot, and a 2 x 3 grid, each of
    # whose output blocks sums two spectral products; dense vectors and ones
    # with a light block.  Each matrix answers twice, an equal fresh one
    # once, all against the dense oracle
    rng = make_rng(0x5D)
    r = 523
    gen = derive_generator(sample_parity_check(rng, QcParams(2, r, 30, "mdpc")))
    grid = random_grid(rng, 2, 3, r)
    light = sample_fixed_weight(rng, r, 5)
    assert _SPARSE_MAX_WEIGHT < min(b.weight for b in grid.blocks[0] + gen.blocks[0][1:])
    for m, vectors in (
        (gen, [BitVector(r, rng.take_bits(r)), light]),
        (grid, [BitVector(2 * r, rng.take_bits(2 * r)), BitVector(r, rng.take_bits(r)).concat(light)]),
    ):
        expanded = dense.expand_block_matrix(m)
        for v in vectors:
            want = oracle.vec_mat_mul(dense.to_array(v), expanded).tolist()
            for got in (m.vec_mul(v), m.vec_mul(v), BlockMatrix(m.blocks).vec_mul(v)):
                assert dense.to_array(got).tolist() == want


def test_spectra_leave_keys_unchanged(make_rng):
    # filling the spectra of a key's matrices, and the decoder plans of its
    # parity checks, changes none of equality, hashing, the wire bytes or
    # the pickle bytes, and an unpickled key computes its own
    pk, sk = keygen(TOY, make_rng(0x5E))
    before = (serialize_public(pk), serialize_secret(sk), hash(pk), hash(sk),
              pickle.dumps(pk), pickle.dumps(sk))
    message = BitVector(TOY.plaintext_bits, make_rng(0x5F).take_bits(TOY.plaintext_bits))
    ct = encrypt(pk, message, make_rng(0x60))
    assert decrypt(sk, ct) == message
    assert all("_spectra" in vars(m) for m in (pk.sg1, pk.sg2, sk.s_inv))
    assert all({"_count_plan", "_h_t_rows"} <= vars(h).keys() for h in (sk.h1, sk.h2))
    after = (serialize_public(pk), serialize_secret(sk), hash(pk), hash(sk),
             pickle.dumps(pk), pickle.dumps(sk))
    assert after == before
    loaded_pk, loaded_sk = pickle.loads(before[4]), pickle.loads(before[5])
    assert (loaded_pk, loaded_sk) == (pk, sk)
    assert loaded_pk == deserialize_public(before[0])
    assert hash(loaded_pk) == hash(pk)
    assert decrypt(loaded_sk, encrypt(loaded_pk, message, make_rng(0x60))) == message
    assert encrypt(loaded_pk, message, make_rng(0x60)) == ct


def test_transforms_per_product(monkeypatch):
    # each product transforms only what its route needs: a light pair in
    # either order, a dense vector against a light matrix and the key
    # derivations none, a dense pair each of its blocks, and a key's matrix
    # its blocks once, so a second vec_mul transforms the vector alone
    pk, sk = keygen(TOY, RandomStream(b"\x01" * 32))
    seen = []
    spectrum = gf2._spectrum
    monkeypatch.setattr(gf2, "_spectrum", lambda a, r: seen.append(a) or spectrum(a, r))

    def transformed(fn):
        seen.clear()
        return fn(), list(seen)

    h, s, s_inv = sk.h1.blocks[0], sk.s.blocks[0][0], sk.s_inv.blocks[0][0]
    m1 = BitVector(TOY.k, RandomStream(b"\x02" * 32).take_bits(TOY.k))
    assert h.weight <= _SPARSE_MAX_WEIGHT < min(s.weight, s_inv.weight, m1.weight)
    assert transformed(lambda: h * s)[1] == []
    assert transformed(lambda: s * h)[1] == []
    assert transformed(lambda: BlockMatrix(((h,),)).vec_mul(s.row0)) == ((h * s).row0, [])
    assert transformed(lambda: derive_generator(sk.h1))[1] == []
    assert transformed(lambda: deserialize_secret(serialize_secret(sk)))[1] == []
    product, transforms = transformed(lambda: s * s_inv)
    assert sorted(transforms) == sorted([s.row0.value, s_inv.row0.value])
    assert product == s_inv * s == CirculantBlock.identity(TOY.r)
    dense_blocks = [b.row0.value for b in pk.sg1.blocks[0] if b.weight > _SPARSE_MAX_WEIGHT]
    first, transforms = transformed(lambda: pk.sg1.vec_mul(m1))
    assert sorted(transforms) == sorted(dense_blocks + [m1.value])
    assert transformed(lambda: pk.sg1.vec_mul(m1)) == (first, [m1.value])


def test_blockmatrix_inverse_round_trip(rng):
    r = 11
    eye = BlockMatrix.identity(2, r)
    found = 0
    while found < 10:
        m = random_grid(rng, 2, 2, r)
        try:
            inv = m.inverse()
        except NotInvertibleError:
            continue
        found += 1
        assert m @ inv == eye
        assert inv @ m == eye
        assert np.array_equal(
            dense.expand_block_matrix(inv), oracle.inverse(dense.expand_block_matrix(m))
        )
    # an even-weight block [0][0] never inverts, so column 0 must swap rows
    eye = BlockMatrix.identity(3, r)
    found = 0
    while found < 3:
        m = random_grid(rng, 3, 3, r)
        even = CirculantBlock(r, sample_fixed_weight(rng, r, 4))
        m = BlockMatrix(((even,) + m.blocks[0][1:],) + m.blocks[1:])
        try:
            inv = m.inverse()
        except NotInvertibleError:
            continue
        found += 1
        assert m @ inv == eye
        assert inv @ m == eye
        assert np.array_equal(
            dense.expand_block_matrix(inv), oracle.inverse(dense.expand_block_matrix(m))
        )


def test_blockmatrix_singular_raises():
    zero = CirculantBlock.zero(7)
    m = BlockMatrix(((zero, zero), (zero, zero)))
    with pytest.raises(NotInvertibleError):
        m.inverse()


# --- fixed-weight sampling ----------------------------------------------------


def test_sample_fixed_weight_basics(rng):
    for t in (0, 1, 5, 30):
        v = sample_fixed_weight(rng, 101, t)
        assert v.length == 101
        assert v.weight == t


def test_sample_fixed_weight_full_and_over(rng):
    assert sample_fixed_weight(rng, 9, 9).weight == 9
    with pytest.raises(ValueError):
        sample_fixed_weight(rng, 9, 10)


def test_sample_fixed_weight_deterministic():
    a = sample_fixed_weight(RandomStream(b"\x01" * 32), 523, 30)
    b = sample_fixed_weight(RandomStream(b"\x01" * 32), 523, 30)
    assert a == b


# the per-candidate loops that the block reader replaced: ``oracle.randbelow`` once
# per candidate, with the same reject and skip rules


def reference_sample(rng: RandomStream, n: int, t: int) -> BitVector:
    value = 0
    remaining = t
    while remaining:
        bit = 1 << oracle.randbelow(rng, n)
        if not value & bit:
            value |= bit
            remaining -= 1
    return BitVector(n, value)


def reference_shuffle(rng: RandomStream, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = oracle.randbelow(rng, i + 1)
        items[i], items[j] = items[j], items[i]


SAMPLE_SHAPES = [(1, 0), (1, 1), (2, 2), (9, 9), (101, 3), (512, 20), (513, 20),
                 (523, 15), (1046, 1), (1046, 18), (1025, 1000), (23558, 134)]
SHUFFLE_SIZES = [0, 1, 2, 3, 17, 202, 1046]


@pytest.mark.parametrize("n,t", SAMPLE_SHAPES)
def test_sample_fixed_weight_matches_per_candidate_loop(n, t):
    # same vectors and the same stream position, over draws in a row
    for seed in range(3):
        fast, slow = (substream(b"\x5a" * 32, 1000 * n + seed) for _ in range(2))
        for _ in range(3):
            v = sample_fixed_weight(fast, n, t)
            assert v == reference_sample(slow, n, t)
            assert v.weight == t
        assert fast.take_bits(64) == slow.take_bits(64)


@pytest.mark.parametrize("n", SHUFFLE_SIZES)
def test_shuffle_matches_per_candidate_loop(n):
    for seed in range(3):
        fast, slow = (substream(b"\x5b" * 32, 1000 * n + seed) for _ in range(2))
        for _ in range(3):
            a, b = list(range(n)), list(range(n))
            fast.shuffle(a)
            reference_shuffle(slow, b)
            assert a == b
        assert fast.take_bits(64) == slow.take_bits(64)


@pytest.mark.parametrize("nbits", [0, 1, 7, 8, 11, 64])
@pytest.mark.parametrize("block", [1, 3, 32])
def test_draws_match_take_bits(make_rng, nbits, block):
    # every count of values taken, across block ends, leaves the stream where
    # as many take_bits calls would, and a later reader sees the same bits
    for count in (1, block - 1, block, block + 1, 2 * block + 5):
        fast, slow = make_rng(nbits), make_rng(nbits)
        slow.take_bits(5)
        fast.take_bits(5)  # an unaligned start
        values = fast.draws(nbits, block)
        assert [next(values) for _ in range(count)] == [slow.take_bits(nbits) for _ in range(count)]
        assert fast.take_bits(64) == slow.take_bits(64)


# widths read in a row, so every read after the first starts unaligned.  The
# first squeeze is 64 bytes (512 bits), and each regrowth squeezes twice the
# bytes a read needs: the 7-bit read at bit 508 straddles the first squeeze,
# and the 1000- and 2048-bit reads straddle the regrown ends at bits 1040
# and 3168.  The empty reads come before any squeeze and at an unaligned bit
STREAM_WIDTHS = [0, 5, 0, 3, 500, 7, 64, 1000, 1, 13, 2048, 11]


@pytest.mark.parametrize("tag", [0x00, 0x3C, 0xA5])
def test_take_bits_matches_shake_reference(make_rng, tag):
    rng, pos = make_rng(tag), 0
    for nbits in STREAM_WIDTHS:
        assert rng.take_bits(nbits) == oracle.stream_bits(rng.seed, pos, nbits), (pos, nbits)
        pos += nbits


def test_stream_readers_reject_bad_widths(make_rng):
    rng = make_rng(0x3C)
    with pytest.raises(ValueError):
        rng.take_bits(-1)
    for nbits, block in ((-1, 1), (3, 0)):
        values = rng.draws(nbits, block)
        with pytest.raises(ValueError):
            next(values)
    assert rng.take_bits(64) == oracle.stream_bits(rng.seed, 0, 64)


@pytest.mark.parametrize("nbits, block", [(1, 7), (7, 32), (11, 3), (64, 5)])
def test_draws_match_shake_reference(make_rng, nbits, block):
    # from an unaligned start until well past the first squeeze and a regrowth
    rng = make_rng(nbits)
    rng.take_bits(3)
    values = rng.draws(nbits, block)
    count = 4200 // nbits
    want = oracle.stream_bits(rng.seed, 3, nbits * count)
    assert [next(values) for _ in range(count)] == [
        want >> i * nbits & (1 << nbits) - 1 for i in range(count)]


def test_substream_seed_matches_shake_reference():
    for seed in (b"\x00" * 32, b"\x5a" * 32, bytes(range(32))):
        for index in (0, 1, 255, 256, 2**40 + 3, 2**64 - 1):
            want = oracle.substream_seed(seed, index)
            assert derive_substream_seed(seed, index) == want
            assert substream(seed, index).take_bits(256) == oracle.stream_bits(want, 0, 256)


def test_draws_and_shuffles_pinned_digest():
    # recorded with the per-candidate randbelow loops the block reader
    # replaced: the draws are bit-identical, not only self-consistent
    h = hashlib.sha256()
    for i in range(200):
        rng = substream(b"\x6d" * 32, i)
        n, t = SAMPLE_SHAPES[i % len(SAMPLE_SHAPES)]
        h.update(sample_fixed_weight(rng, n, t).to_bytes())
        perm = list(range(SHUFFLE_SIZES[i % len(SHUFFLE_SIZES)]))
        rng.shuffle(perm)
        h.update(bytes(str(perm), "ascii"))
        h.update(rng.take_bits(64).to_bytes(8, "little"))
    assert h.hexdigest() == "8b6f22e687af7203f6afd3b81ea2d8a956f11d9d15f27ce7422f50b254b78eb1"
