"""Weak-key attack lab: recover the ldpc structure, then watch it not matter.

The second Plotkin coordinate is protected by a code whose dual contains
r blockwise rotations of one sparse row, and sparse dual rows of an
[n, k] code are exactly what a Stern search finds at desk scale.  The
demo pipeline:

1. ``recover_dual_structure``, run once per key: expand the public
   second-coordinate generator, put it in systematic form, run
   ``stern_search`` on its dual for a row of weight <= w2, and expand the
   found row's blockwise rotations into a full circulant parity check H2'
   (an exact stand-in for the secret H2 up to row rotation);
2. ``weak_key_attack_demo``, run per ciphertext with that structure: decode
   c2 directly, and decode c1 + c2 (which cancels the first-coordinate
   codeword).  Both words go through one ``decode_many`` pass, one lane
   each, against H2'.  It draws nothing from its ``rng``.

Both decodes fail: c2 carries the first coordinate's codeword as "noise",
and c1 + c2 still carries z1 + z2 + mask(z1), a vector of weight about
n/2 by construction of the mask.  The report records, per ciphertext, both
decode outcomes, the residual weight, and whether any plaintext was
actually recovered (checked against the true plaintext, which the demo
receives as an oracle precisely to certify failure); the per-key facts, the
recovered row and the Stern restarts, stay in ``RecoveredDual``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import dense
from .gf2 import BitVector, BlockMatrix, CirculantBlock, _xgcd
from .qc import QcParams, QcParityCheck
from .bitflip import decode_many
from .dfr import _camel_dict
from .rng import RandomStream
from .scheme import Ciphertext, PublicKey, ldpc_decoder_config
from .stern import SternResult, stern_search


@dataclass(frozen=True)
class RecoveredDual:
    """Sparse dual row and its circulant expansion."""

    row: BitVector
    parity: QcParityCheck
    complete: bool  # blockwise rotations span the full r dimensions
    iterations: int  # Stern restarts spent


@dataclass(frozen=True)
class AttackReport:
    direct_decode_success: bool
    direct_decode_iterations: int
    combined_decode_success: bool
    combined_decode_iterations: int
    residual_weight: int
    attack_succeeded: bool

    def to_dict(self) -> dict:
        return _camel_dict(self)


def systematic_public_generator(pk: PublicKey):
    """Dense systematic form [I_k | A] of the published ldpc generator SG2.

    This is the attacker's first move.  The scrambler is public, as the
    left k0 x k0 block of SG2 = [S | S A], so S^-1 SG2 = [I | A] over the
    circulant ring; a non-invertible S raises ``NotInvertibleError``.
    """
    s = BlockMatrix(tuple(row[:pk.params.k0] for row in pk.sg2.blocks))
    return dense.expand_block_matrix(s.inverse() @ pk.sg2)


def rotations_parity_check(pk_params, row: BitVector) -> QcParityCheck:
    """Stack the r blockwise rotations of a dual row into a parity check."""
    r, n0 = pk_params.r, pk_params.n0
    blocks = tuple(CirculantBlock(r, part) for part in row.chunks(r))
    qc_params = QcParams(n0, r, max(row.weight, 1), "ldpc")
    return QcParityCheck(qc_params, blocks)


def _rotations_complete(parity: QcParityCheck) -> bool:
    g = (1 << parity.params.r) | 1  # x^r - 1
    for block in parity.blocks:
        g = _xgcd(block.row0.value, g)[0]
    return g == 1


def _orthogonal_to_public(parity: QcParityCheck, pk: PublicKey) -> bool:
    """Every row of SG2 has zero syndrome: SG2 times the column of H_i^T."""
    column = BlockMatrix(tuple((block.transpose(),) for block in parity.blocks))
    return all(row[0].is_zero() for row in (pk.sg2 @ column).blocks)


def recover_dual_structure(
    pk: PublicKey, rng: RandomStream, max_iterations: int = 500
) -> RecoveredDual | None:
    """Stern-search the public second coordinate for a weight-<=w2 dual row."""
    gen_sys = systematic_public_generator(pk)
    result: SternResult = stern_search(
        gen_sys, pk.params.w2, rng, max_iterations=max_iterations
    )
    if result.found is None:
        return None
    parity = rotations_parity_check(pk.params, result.found)
    if not _orthogonal_to_public(parity, pk):  # would mean a Stern bug
        raise AssertionError("recovered row is not orthogonal to the public code")
    return RecoveredDual(
        row=result.found,
        parity=parity,
        complete=_rotations_complete(parity),
        iterations=result.iterations,
    )


def weak_key_attack_demo(
    pk: PublicKey,
    ct: Ciphertext,
    true_plaintext: BitVector,
    rng: RandomStream,
    recovered: RecoveredDual,
) -> AttackReport:
    """Attack one ciphertext with a structure from ``recover_dual_structure``.

    The caller runs the Stern search once and passes its result here for
    every ciphertext.  ``true_plaintext`` plays the role of a verification
    oracle: the report states whether anything the attack produced matches
    it.  ``rng`` is unused and nothing is drawn from it.
    """
    params = pk.params
    cfg = ldpc_decoder_config(params)
    m2 = true_plaintext.slice(params.k, params.k)
    true_codeword = pk.sg2.vec_mul(m2)

    # c2 alone still carries the first coordinate's codeword as noise; in
    # c1 + c2 the first coordinate cancels and z1 + z2 + mask(z1) remains
    combined_word = ct.c1 ^ ct.c2
    direct, combined = decode_many(recovered.parity, (ct.c2, combined_word), cfg)
    residual_weight = (combined_word ^ true_codeword).weight

    def recovers(outcome) -> bool:
        return bool(outcome.success and outcome.codeword == true_codeword)

    return AttackReport(
        direct_decode_success=bool(direct.success),
        direct_decode_iterations=direct.iterations,
        combined_decode_success=bool(combined.success),
        combined_decode_iterations=combined.iterations,
        residual_weight=residual_weight,
        attack_succeeded=recovers(direct) or recovers(combined),
    )
