"""Command-line front end.

Subcommands: keygen, encrypt, decrypt, dfr, estimate, attack-demo.
Results go to stdout as JSON, diagnostics to stderr.  attack-demo runs one
Stern search and prints its per-key facts once; each sample holds what one
ciphertext's attack did.  When the search finds no row there is nothing to
attack the samples with, so it reports ``samples: []``.  estimate reports
``log2WorkFactor: null`` for a model with no finite cost, as when the
errors cannot all miss an information set (t1 > n - k).  Exit codes:

    0  success
    2  bad parameters, malformed or unreadable files, unwritable outputs,
       an output path that names an input or another output, usage errors
    3  generation gave up (no invertible block / scrambler within bounds)
    4  decryption failure: the decoder gave up, or the recovered error has
       the wrong weight (the failing stage and the reason go to stderr)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import wire
from .gf2 import BitVector
from .presets import LAB, PRESETS, preset
from .qc import GenerationError
from .rng import RandomStream, substream
from .scheme import (
    DecryptionFailure,
    SchemeParams,
    cca2_variant_public_bits,
    decrypt,
    encrypt,
    keygen,
    public_key_bits,
    stage_decoder_config,
)

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_GENERATION = 3
EXIT_DECRYPT = 4


def _atomic_write(outputs: dict[str, tuple[str, bytes]]) -> None:
    """Write each flag's (path, data) through a temp file beside the path.
    Every temp file is written before any replaces its path, so an output
    that cannot be staged leaves no file, new or temporary, behind."""
    staged = []
    try:
        for flag, (path, data) in outputs.items():
            try:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                           prefix=".tmp-", suffix=".part")
            except OSError as exc:
                raise OSError(f"{flag} {path}: {exc.strerror}") from None
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _refuse_overwrite(inputs: dict[str, str], outputs: dict[str, str]) -> None:
    """Refuse, before any file is read or written, an output path that is a
    directory or names an input or another output; paths are compared as
    real paths."""
    seen = {os.path.realpath(path): flag for flag, path in inputs.items()}
    for flag, path in outputs.items():
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path} is a directory")
        other = seen.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"{flag} names the same file as {other}")


def _parse_seed(text: str | None) -> bytes:
    if text is None:
        return os.urandom(32)
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise ValueError("--seed must be hex")
    if len(seed) != 32:
        raise ValueError("--seed must be 64 hex characters (32 bytes)")
    return seed


def _params_from_args(args) -> SchemeParams:
    if args.preset is not None:
        explicit = [args.n0, args.r, args.w1, args.w2, args.t1, args.t2]
        if any(v is not None for v in explicit):
            raise ValueError("--preset and explicit parameters are exclusive")
        return preset(args.preset)
    explicit = {"--r": args.r, "--w1": args.w1, "--w2": args.w2,
                "--t1": args.t1, "--t2": args.t2}
    missing = [k for k, v in explicit.items() if v is None]
    if missing:
        raise ValueError(
            "give --preset or all of --r --w1 --w2 --t1 --t2 (missing: "
            + " ".join(missing) + ")"
        )
    return SchemeParams(
        n0=args.n0 if args.n0 is not None else 2,
        r=args.r, w1=args.w1, w2=args.w2, t1=args.t1, t2=args.t2,
    )


def _add_params_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None)
    parser.add_argument("--n0", type=int, default=None)
    parser.add_argument("--r", type=int, default=None)
    parser.add_argument("--w1", type=int, default=None)
    parser.add_argument("--w2", type=int, default=None)
    parser.add_argument("--t1", type=int, default=None)
    parser.add_argument("--t2", type=int, default=None)


def _print(obj: dict) -> None:
    print(json.dumps(obj, indent=2, allow_nan=False))


def _cmd_keygen(args) -> int:
    _refuse_overwrite({}, {"--pub": args.pub, "--sec": args.sec})
    params = _params_from_args(args)
    wire.header_bytes(params)  # rejects what the header cannot carry, before keygen
    rng = RandomStream(_parse_seed(args.seed))
    pk, sk = keygen(params, rng)
    _atomic_write({"--pub": (args.pub, wire.serialize_public(pk)),
                   "--sec": (args.sec, wire.serialize_secret(sk))})
    _print({
        "preset": args.preset,
        "n0": params.n0,
        "r": params.r,
        "publicPayloadBits": public_key_bits(params),
        "publicPayloadFormula": "2*(n0-1)*n0*r",
        "cca2VariantPayloadBits": cca2_variant_public_bits(params),
        "publicFile": args.pub,
        "secretFile": args.sec,
    })
    return EXIT_OK


def _cmd_encrypt(args) -> int:
    _refuse_overwrite({"--pub": args.pub, "--in": args.input}, {"--out": args.output})
    pk = wire.deserialize_public(_read(args.pub))
    message = wire.unpack_plaintext(_read(args.input), pk.params)
    rng = RandomStream(_parse_seed(args.seed))
    ct = encrypt(pk, message, rng)
    _atomic_write({"--out": (args.output, wire.serialize_ciphertext(ct))})
    _print({
        "plaintextBits": pk.params.plaintext_bits,
        "ciphertextBits": pk.params.ciphertext_bits,
        "ciphertextFile": args.output,
    })
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    _refuse_overwrite({"--sec": args.sec, "--in": args.input}, {"--out": args.output})
    sk = wire.deserialize_secret(_read(args.sec))
    ct = wire.deserialize_ciphertext(_read(args.input))
    message = decrypt(sk, ct)
    _atomic_write({"--out": (args.output, wire.pack_plaintext(message))})
    _print({
        "plaintextBits": sk.params.plaintext_bits,
        "plaintextFile": args.output,
    })
    return EXIT_OK


def _cmd_dfr(args) -> int:
    from .dfr import estimate_dfr, select_t_for_dfr

    params = _params_from_args(args)
    qc_params, default_t = ((params.mdpc_params(), params.t1) if args.coordinate == 1
                            else (params.ldpc_params(), params.t2))
    rng = RandomStream(_parse_seed(args.seed))
    if args.target is not None:
        if args.budget is None:
            raise ValueError("--target requires --budget")
        for name in ("t", "trials", "workers"):  # each has an estimate-mode default
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} does not apply with --target, which selects t")
        # select_t_for_dfr refuses these too, naming its own parameters
        if not 0.0 < args.target <= 1.0:
            raise ValueError("--target must lie in (0, 1]")
        if args.budget < 10.0 / args.target:
            raise ValueError("--budget is too small to resolve --target (need >= 10/target)")
        cfg = stage_decoder_config(qc_params, default_t)
        t = select_t_for_dfr(qc_params, args.target, args.budget, cfg, rng)
        _print({
            "coordinate": args.coordinate,
            "targetDfr": args.target,
            "budget": args.budget,
            "selectedT": t,
        })
        return EXIT_OK
    if args.budget is not None:
        raise ValueError("--budget requires --target")
    t = args.t if args.t is not None else default_t
    # the decoder designed for t, as ``scripts/dfr_sweep.py`` runs it
    cfg = stage_decoder_config(qc_params, t)
    report = estimate_dfr(qc_params, t, cfg, 1000 if args.trials is None else args.trials,
                          rng, workers=1 if args.workers is None else args.workers)
    _print(report.to_dict())
    return EXIT_OK


def _cmd_estimate(args) -> int:
    from .isd import ALGORITHMS, isd_cost, work_factor

    params = _params_from_args(args)
    n, k = params.n, params.k
    raw = {
        attack: {alg: isd_cost(alg, n, k, w) for alg in ALGORITHMS}
        for attack, w in (("keyRecovery", params.w2), ("messageRecovery", params.t1))
    }
    _print({
        "preset": args.preset,
        "n": n,
        "k": k,
        **{attack: work_factor(attack, reports, params.r).to_dict()
           for attack, reports in raw.items()},
        "rawCosts": {
            attack: {alg: rep.to_dict() for alg, rep in reports.items()}
            for attack, reports in raw.items()
        },
    })
    return EXIT_OK


def _cmd_attack_demo(args) -> int:
    from .attack import recover_dual_structure, weak_key_attack_demo

    for flag, value in (("--samples", args.samples), ("--stern-iterations", args.stern_iterations)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative")
    params = SchemeParams(
        n0=LAB.n0, r=args.r, w1=args.w1, w2=args.w2, t1=args.t1, t2=args.t2
    )
    rng = RandomStream(_parse_seed(args.seed))
    pk, _ = keygen(params, substream(rng.seed, 0))
    recovered = recover_dual_structure(
        pk, substream(rng.seed, 1), max_iterations=args.stern_iterations
    )
    reports = []
    sample_rng = substream(rng.seed, 2)
    for _ in range(args.samples if recovered is not None else 0):
        message = BitVector(params.plaintext_bits,
                            sample_rng.take_bits(params.plaintext_bits))
        ct = encrypt(pk, message, sample_rng)
        report = weak_key_attack_demo(pk, ct, message, sample_rng, recovered=recovered)
        reports.append(report.to_dict())
    _print({
        "r": params.r,
        "w2": params.w2,
        "rowFound": recovered is not None,
        "recoveredRowWeight": None if recovered is None else recovered.row.weight,
        "rotationsComplete": False if recovered is None else recovered.complete,
        "sternIterations": args.stern_iterations if recovered is None else recovered.iterations,
        "samples": reports,
        "anyPlaintextRecovered": any(rep["attackSucceeded"] for rep in reports),
    })
    return EXIT_OK


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plotkin-pke",
        description="Plotkin-concatenated QC code PKE and analysis lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key pair")
    _add_params_options(p)
    p.add_argument("--pub", required=True, help="public key output path")
    p.add_argument("--sec", required=True, help="secret key output path")
    p.add_argument("--seed", default=None, help="64 hex chars; default random")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("encrypt", help="encrypt a packed plaintext file")
    p.add_argument("--pub", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--seed", default=None)
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    p.add_argument("--sec", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("dfr", help="decoding failure rate: estimate or select t")
    _add_params_options(p)
    p.add_argument("--coordinate", type=int, choices=(1, 2), default=1)
    p.add_argument("--t", type=int, default=None, help="error weight to estimate at")
    p.add_argument("--trials", type=int, default=None, help="default 1000 (estimate mode)")
    p.add_argument("--workers", type=int, default=None, help="default 1 (estimate mode)")
    p.add_argument("--target", type=float, default=None,
                   help="select the largest t meeting this DFR instead")
    p.add_argument("--budget", type=int, default=None,
                   help="trials per candidate t (selection mode)")
    p.add_argument("--seed", default=None)
    p.set_defaults(func=_cmd_dfr)

    p = sub.add_parser("estimate", help="ISD work factor estimates")
    _add_params_options(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("attack-demo", help="structure recovery on a desk-size key")
    p.add_argument("--r", type=int, default=LAB.r)
    p.add_argument("--w1", type=int, default=LAB.w1)
    p.add_argument("--w2", type=int, default=LAB.w2)
    p.add_argument("--t1", type=int, default=LAB.t1)
    p.add_argument("--t2", type=int, default=LAB.t2)
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--stern-iterations", type=int, default=500)
    p.add_argument("--seed", default=None)
    p.set_defaults(func=_cmd_attack_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except DecryptionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DECRYPT


if __name__ == "__main__":
    sys.exit(main())
