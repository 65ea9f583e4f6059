"""Plotkin-concatenated QC code PKE with a decoding-failure and attack lab."""

from .rng import RandomStream, derive_substream_seed, substream
from .gf2 import BitVector, CirculantBlock, BlockMatrix, NotInvertibleError
from .qc import QcParams, QcParityCheck, GenerationError
from .bitflip import DecoderConfig, DecodeOutcome, backflip_config, classic_bf_config, decode
from .dfr import DfrReport, SelectionError, clopper_pearson, estimate_dfr, select_t_for_dfr
from .scheme import (
    Ciphertext,
    DecryptionFailure,
    PublicKey,
    SchemeParams,
    SecretKey,
    cca2_variant_public_bits,
    decrypt,
    encrypt,
    hash_mask,
    keygen,
    public_key_bits,
)
from .isd import IsdCostReport, isd_cost, keyrec_workfactor, msgrec_workfactor
from .stern import SternResult, stern_search
from .attack import AttackReport, RecoveredDual, recover_dual_structure, weak_key_attack_demo
from .presets import PRESETS, preset

__version__ = "0.1.0"

__all__ = [
    "RandomStream",
    "derive_substream_seed",
    "substream",
    "BitVector",
    "CirculantBlock",
    "BlockMatrix",
    "NotInvertibleError",
    "QcParams",
    "QcParityCheck",
    "GenerationError",
    "DecoderConfig",
    "DecodeOutcome",
    "DfrReport",
    "SelectionError",
    "backflip_config",
    "classic_bf_config",
    "clopper_pearson",
    "decode",
    "estimate_dfr",
    "select_t_for_dfr",
    "Ciphertext",
    "DecryptionFailure",
    "PublicKey",
    "SchemeParams",
    "SecretKey",
    "cca2_variant_public_bits",
    "decrypt",
    "encrypt",
    "hash_mask",
    "keygen",
    "public_key_bits",
    "IsdCostReport",
    "isd_cost",
    "keyrec_workfactor",
    "msgrec_workfactor",
    "SternResult",
    "stern_search",
    "AttackReport",
    "RecoveredDual",
    "recover_dual_structure",
    "weak_key_attack_demo",
    "PRESETS",
    "preset",
]
