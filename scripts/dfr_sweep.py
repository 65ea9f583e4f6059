#!/usr/bin/env python3
"""Sweep the decoding failure rate of one code coordinate over a range of
error weights.  Emits one JSON line per weight so the output pipes straight
into jq or a plotting script.

The decoder at each weight t is the one decrypt runs at that flavor's stage
on a code of this size with t errors, iteration cap included:
``scheme.stage_decoder_config(params, t)``.

Example: reproduce the toy mdpc waterfall.

    python3 scripts/dfr_sweep.py --r 523 --w 30 --flavor mdpc \
        --t-max 24 --trials 1000
"""

import argparse

from plotkin_pke import QcParams, estimate_dfr, substream
from plotkin_pke.scheme import stage_decoder_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n0", type=int, default=2, help="circulant blocks per row")
    parser.add_argument("--r", type=int, required=True, help="circulant size")
    parser.add_argument("--w", type=int, required=True, help="parity row weight")
    parser.add_argument("--flavor", choices=("mdpc", "ldpc"), required=True)
    parser.add_argument("--t-min", type=int, default=1)
    parser.add_argument("--t-max", type=int, required=True)
    parser.add_argument("--t-step", type=int, default=1)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", default="20" * 32, help="64 hex chars")
    args = parser.parse_args()
    if args.workers < 1:
        parser.error("--workers must be positive")
    if args.t_step < 1:
        parser.error("--t-step must be positive")
    if args.t_min > args.t_max:
        parser.error("--t-min exceeds --t-max: the sweep is empty")

    try:
        params = QcParams(n0=args.n0, r=args.r, w=args.w, flavor=args.flavor)
        if args.t_max > params.n:  # checked before the sweep spends trials on smaller t
            parser.error(f"--t-max exceeds the code length n = {params.n}")
        seed = bytes.fromhex(args.seed)
        for t in range(args.t_min, args.t_max + 1, args.t_step):
            # Fresh stream per weight: reordering or truncating the sweep must not
            # change any individual estimate.
            rng = substream(seed, t)
            cfg = stage_decoder_config(params, t)
            report = estimate_dfr(params, t, cfg, trials=args.trials, rng=rng,
                                  workers=args.workers)
            print(report.to_json(), flush=True)
    except ValueError as exc:
        parser.error(str(exc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
