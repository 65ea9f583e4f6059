"""Plotkin-concatenated QC code PKE with a decoding-failure and attack lab.

Each public name's module is imported the first time the name is read, so a
scheme command loads no lab module."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "rng": ("RandomStream", "derive_substream_seed", "substream"),
    "gf2": ("BitVector", "CirculantBlock", "BlockMatrix", "NotInvertibleError"),
    "qc": ("QcParams", "QcParityCheck", "GenerationError"),
    "bitflip": ("DecoderConfig", "DecodeOutcome", "backflip_config", "classic_bf_config", "decode"),
    "dfr": ("DfrReport", "SelectionError", "clopper_pearson", "estimate_dfr", "select_t_for_dfr"),
    "scheme": ("Ciphertext", "DecryptionFailure", "PublicKey", "SchemeParams", "SecretKey",
               "cca2_variant_public_bits", "decrypt", "encrypt", "hash_mask", "keygen",
               "public_key_bits"),
    "isd": ("IsdCostReport", "isd_cost", "keyrec_workfactor", "msgrec_workfactor"),
    "stern": ("SternResult", "stern_search"),
    "attack": ("AttackReport", "RecoveredDual", "recover_dual_structure", "weak_key_attack_demo"),
    "presets": ("PRESETS", "preset"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
