#!/usr/bin/env python3
"""Regenerate the toy preset's error weights.

Selects, per coordinate, the largest error weight whose 95% Clopper-Pearson
DFR upper bound stays at or below the target after `budget` Monte Carlo
trials.  The resulting numbers are pinned in plotkin_pke.presets; rerunning
this script with the same seed must reproduce them exactly.
"""

import argparse
import json

from plotkin_pke.bitflip import SelectionError, select_t_for_dfr
from plotkin_pke.presets import TOY_SELECTION_SEED, preset
from plotkin_pke.rng import SEED_BYTES, substream
from plotkin_pke.scheme import ldpc_decoder_config, mdpc_decoder_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target", type=float, default=1e-2)
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seed", default=TOY_SELECTION_SEED, help="64 hex chars")
    args = parser.parse_args()
    try:
        seed = bytes.fromhex(args.seed)
    except ValueError:
        seed = b""
    if len(seed) != SEED_BYTES:
        parser.error("--seed must be 64 hex chars")
    if not 0 < args.target <= 1:
        parser.error("--target must lie in (0, 1]")
    if args.budget < 10 / args.target:
        parser.error("--budget must be at least 10 / --target")

    toy = preset("toy")
    coordinates = [
        ("t1", toy.mdpc_params(), mdpc_decoder_config(toy), 0),
        ("t2", toy.ldpc_params(), ldpc_decoder_config(toy), 1),
    ]
    out = {"seed": args.seed, "target": args.target, "budget": args.budget}
    try:
        for name, params, cfg, index in coordinates:
            rng = substream(seed, index)
            out[name] = select_t_for_dfr(params, args.target, args.budget, cfg, rng)
    except SelectionError as exc:
        parser.error(f"{name}: {exc}")
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
