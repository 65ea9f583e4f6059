"""Named parameter sets.

The six full-size presets pair an mdpc block size r with the sparse row
weights and error weights sized for 128/192/256-bit security, in both a
one-shot (cpa) and a reusable-key (cca) flavor; the reusable-key rows use
a larger r for a lower failure rate, not yet measured low enough for reuse.
Both stages of every full preset decode by classic bit flipping with the
syndrome-weight threshold (``scheme.stage_decoder_config``).  Under it,
with seed 5a..5a, the cca128 ldpc stage failed 3 of 20 000 ``estimate_dfr``
trials, where classic-bf `majority` failed 124, and its mdpc stage none.
Both coordinates are decoded independently, so the second error weight
defaults to the first.

The toy preset is for tests and demos: r=523 decodes in milliseconds.
Its error weights were selected per coordinate, under that stage's
decoder, by ``plotkin-pke dfr --preset toy --coordinate {1,2} --target
1e-2 --budget 2000`` with the seed recorded below; rerunning it
re-derives them.  The one-step majority decoder is brittle on a
column-weight-3 block, so the ldpc coordinate only supports a single
error at this size.

LAB, the attack lab's desk-size set, stays outside PRESETS and so out of
the work-factor table.
"""

from __future__ import annotations

from .scheme import SchemeParams

# seed bytes.fromhex("0a" * 32), target 1e-2, budget 2000:
#   mdpc coordinate (r=523, w=30, backflip)    -> t = 18
#   ldpc coordinate (r=523, w=8, classic-bf)   -> t = 1
TOY_T1 = 18
TOY_T2 = 1

PRESETS: dict[str, SchemeParams] = {
    "toy": SchemeParams(n0=2, r=523, w1=30, w2=8, t1=TOY_T1, t2=TOY_T2),
    "cpa128": SchemeParams(n0=2, r=10163, w1=142, w2=14, t1=134, t2=134),
    "cca128": SchemeParams(n0=2, r=11779, w1=142, w2=14, t1=134, t2=134),
    "cpa192": SchemeParams(n0=2, r=19853, w1=206, w2=15, t1=199, t2=199),
    "cca192": SchemeParams(n0=2, r=24821, w1=206, w2=15, t1=199, t2=199),
    "cpa256": SchemeParams(n0=2, r=32749, w1=274, w2=15, t1=264, t2=264),
    "cca256": SchemeParams(n0=2, r=40597, w1=274, w2=15, t1=264, t2=264),
}

LAB = SchemeParams(n0=2, r=101, w1=14, w2=6, t1=4, t2=4)


def preset(name: str) -> SchemeParams:
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown preset {name!r}; known presets: {known}") from None
