"""Layer probe of the traced run: spans around single calls into each layer.

Every traced run, whatever its workload, ends with this probe, so each
per-layer metric is measured on the same inputs in every run.  A metric
is the median, over the probe's operations, of the time its span covers;
counts and shares are computed from the outputs the spans return.  The
probe checks outputs too (decryptions, CLI exit codes, the DFR replay)
and counts each check it makes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import shutil
import statistics

from plotkin_pke import (
    BitVector,
    DecryptionFailure,
    RandomStream,
    decode,
    decrypt,
    encrypt,
    estimate_dfr,
    hash_mask,
    keygen,
    keyrec_workfactor,
    msgrec_workfactor,
    preset,
    PRESETS,
    recover_dual_structure,
    stern_search,
    substream,
    weak_key_attack_demo,
    wire,
    cli,
    dense,
)
from plotkin_pke.attack import systematic_public_generator
from plotkin_pke.bitflip import upc_profile
from plotkin_pke.gf2 import sample_fixed_weight
from plotkin_pke.qc import derive_generator, encode, sample_parity_check, syndrome
from plotkin_pke.scheme import ldpc_decoder_config, mdpc_decoder_config

from workloads import (ATTACK_PARAMS, AttackLab, DfrToy, Measured, derived_bits, derived_seed,
                       dfr_points, master_seed)

DFR_POINTS = tuple(DfrToy.BATCH)
REPLAY_ROUNDS = 4

PER_LAYER: list[tuple[str, str, str]] = [
    ("rng.substream_us", "us", "lower"),
    ("rng.take_bits_us", "us", "lower"),
    ("gf2.mul_dense_ms.r11779", "ms", "lower"),
    ("gf2.mul_dense_ms.r523", "ms", "lower"),
    ("gf2.mul_sparse_ms.r11779", "ms", "lower"),
    ("gf2.mul_sparse_ms.r523", "ms", "lower"),
    ("gf2.vec_mul_ms", "ms", "lower"),
    ("gf2.inverse_sparse_ms.r11779", "ms", "lower"),
    ("gf2.inverse_sparse_ms.r523", "ms", "lower"),
    ("gf2.inverse_scrambler_ms", "ms", "lower"),
    ("gf2.sample_fixed_weight_us", "us", "lower"),
    ("qc.sample_parity_check_ms.mdpc_r11779", "ms", "lower"),
    ("qc.sample_parity_check_ms.ldpc_r11779", "ms", "lower"),
    ("qc.sample_parity_check_ms.mdpc_r523", "ms", "lower"),
    ("qc.sample_parity_check_ms.ldpc_r523", "ms", "lower"),
    ("qc.derive_generator_ms.r11779", "ms", "lower"),
    ("qc.derive_generator_ms.r523", "ms", "lower"),
    ("qc.encode_ms", "ms", "lower"),
    ("qc.syndrome_ms", "ms", "lower"),
    ("bitflip.decode_mdpc_ms", "ms", "lower"),
    ("bitflip.decode_ldpc_ms", "ms", "lower"),
    ("bitflip.decode_setup_ms.mdpc", "ms", "lower"),
    ("bitflip.decode_setup_ms.ldpc", "ms", "lower"),
    ("bitflip.iteration_ms.mdpc", "ms", "lower"),
    ("bitflip.iteration_ms.ldpc", "ms", "lower"),
    ("bitflip.upc_profile_ms", "ms", "lower"),
    ("bitflip.iterations.mean.mdpc", "count", "lower"),
    ("bitflip.iterations.max.mdpc", "count", "lower"),
    ("bitflip.iterations.mean.ldpc", "count", "lower"),
    ("bitflip.iterations.max.ldpc", "count", "lower"),
    ("dfr.trial.sample_ms", "ms", "lower"),
    ("dfr.trial.generator_ms", "ms", "lower"),
    ("dfr.trial.encode_ms", "ms", "lower"),
    ("dfr.trial.decode_ms", "ms", "lower"),
    *[(f"dfr.success_share.{p}", "share", "higher") for p in DFR_POINTS],
    ("dfr.failures.mdpc_t22", "count", "lower"),
    ("scheme.encrypt_ms", "ms", "lower"),
    ("scheme.decrypt_ms", "ms", "lower"),
    ("scheme.hash_mask_us", "us", "lower"),
    ("scheme.unscramble_ms", "ms", "lower"),
    ("wire.serialize_public_ms", "ms", "lower"),
    ("wire.serialize_secret_ms", "ms", "lower"),
    ("wire.deserialize_public_ms", "ms", "lower"),
    ("wire.deserialize_secret_ms", "ms", "lower"),
    ("wire.serialize_ciphertext_us", "us", "lower"),
    ("wire.deserialize_ciphertext_us", "us", "lower"),
    ("cli.keygen_ms", "ms", "lower"),
    ("cli.encrypt_ms", "ms", "lower"),
    ("cli.decrypt_ms", "ms", "lower"),
    ("dense.expand_block_matrix_ms", "ms", "lower"),
    ("dense.systematic_form_ms", "ms", "lower"),
    ("stern.restart_ms", "ms", "lower"),
    ("stern.restarts_per_found", "count", "lower"),
    ("attack.recover_dual_structure_ms", "ms", "lower"),
    ("attack.per_ciphertext_ms", "ms", "lower"),
    *[(f"isd.{kind}_workfactor_ms.{name}", "ms", "lower")
      for kind in ("keyrec", "msgrec") for name in sorted(PRESETS)],
    ("trace.overhead_pct", "%", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Probe:
    """Runs each layer call ``reps`` times, one traced operation per call."""

    def __init__(self, tracer, seed: int, scratch_dir: str):
        self.tr = tracer
        self.master = master_seed("probe", seed)
        self.dfr_master = master_seed(DfrToy.name, seed)
        self.scratch_dir = scratch_dir
        self.m = Measured()
        self.values: dict[str, float] = {}
        self._seeds = itertools.count()

    def stream(self) -> RandomStream:
        return RandomStream(derived_seed(self.master, "stream", next(self._seeds)))

    def timed(self, metric: str, reps: int, fn) -> list:
        """Call ``fn`` ``reps`` times, each in a span named ``metric``, and
        set the metric to the median span time in its unit."""
        results = []
        for _ in range(reps):
            with self.tr.operation("probe." + metric), self.tr.span(metric):
                results.append(fn())
        ms = self.tr.median_ms(metric, root="probe." + metric)
        self.values[metric] = ms * 1000.0 if UNITS[metric] == "us" else ms
        return results

    def check(self, kind: str, ok: bool, why: str, wrong: bool = True) -> None:
        self.m.attempt(kind)
        if not ok:
            self.m.fail(kind, why, wrong)

    def run(self) -> dict[str, float]:
        big, toy = preset("cca128"), preset("toy")
        pk, sk = keygen(big, self.stream())
        _, tsk = keygen(toy, self.stream())
        self.rng_and_gf2(big, pk, sk, tsk)
        self.qc(big, toy)
        self.scheme_bitflip_wire(big, pk, sk)
        self.cli(big)
        self.dfr_replay(toy)
        self.attack_lab()
        self.isd()
        return self.values

    def rng_and_gf2(self, big, pk, sk, tsk) -> None:
        index = itertools.count()
        self.timed("rng.substream_us", 200, lambda: substream(self.master, next(index)))
        streams = iter([self.stream() for _ in range(50)])
        self.timed("rng.take_bits_us", 50, lambda: next(streams).take_bits(big.r))

        for r, key, reps in ((11779, sk, 7), (523, tsk, 50)):
            s, s_inv, h = key.s.blocks[0][0], key.s_inv.blocks[0][0], key.h1.blocks[0]
            self.timed(f"gf2.mul_dense_ms.r{r}", reps, lambda: s * s_inv)
            self.timed(f"gf2.mul_sparse_ms.r{r}", 3 * reps, lambda: h * s)
            self.timed(f"gf2.inverse_sparse_ms.r{r}", reps, key.h1.blocks[-1].inverse)

        m1 = derived_bits(self.master, "m1", 0, big.k)
        self.timed("gf2.vec_mul_ms", 10, lambda: pk.sg1.vec_mul(m1))
        self.timed("gf2.inverse_scrambler_ms", 5, sk.s.inverse)
        streams = iter([self.stream() for _ in range(50)])
        self.timed("gf2.sample_fixed_weight_us", 50,
                   lambda: sample_fixed_weight(next(streams), big.n, big.t1))

    def qc(self, big, toy) -> None:
        for params, reps in ((big, 3), (toy, 30)):
            r = params.r
            for flavor, qp in (("mdpc", params.mdpc_params()), ("ldpc", params.ldpc_params())):
                self.timed(f"qc.sample_parity_check_ms.{flavor}_r{r}", reps,
                           lambda: sample_parity_check(self.stream(), qp))
            h = sample_parity_check(self.stream(), params.mdpc_params())
            (gen, *_) = self.timed(f"qc.derive_generator_ms.r{r}", reps,
                                   lambda: derive_generator(h))
        message = derived_bits(self.master, "toy-message", 0, toy.mdpc_params().k)
        self.timed("qc.encode_ms", 30, lambda: encode(gen, message))  # gen: the toy code's

    def scheme_bitflip_wire(self, big, pk, sk) -> None:
        n, k = big.n, big.k
        messages = [derived_bits(self.master, "message", i, big.plaintext_bits) for i in range(5)]
        cts = [encrypt(pk, m, self.stream()) for m in messages]
        it = iter(messages)
        self.timed("scheme.encrypt_ms", 5, lambda: encrypt(pk, next(it), self.stream()))

        def try_decrypt(ct):
            try:
                return decrypt(sk, ct)
            except DecryptionFailure:
                return None

        it = iter(cts)
        plains = self.timed("scheme.decrypt_ms", 5, lambda: try_decrypt(next(it)))
        for plain, message in zip(plains, messages):
            self.check("probe.decrypt", plain is not None, "DecryptionFailure", wrong=False)
            self.check("probe.decrypt", plain in (None, message), "wrong plaintext")

        mdpc_cfg, ldpc_cfg = mdpc_decoder_config(big), ldpc_decoder_config(big)
        iterations = {"mdpc": [], "ldpc": []}
        decode_ms = {"mdpc": [], "ldpc": []}
        last = {}
        for ct in cts:
            (out1,) = self.timed("bitflip.decode_mdpc_ms", 1,
                                 lambda: decode(sk.h1, ct.c1, mdpc_cfg))
            self.check("probe.decode", out1.success, "mdpc decode failed", wrong=False)
            if not out1.success:
                continue
            inner = ct.c2 ^ out1.codeword ^ hash_mask(out1.error_vector, n)
            (out2,) = self.timed("bitflip.decode_ldpc_ms", 1,
                                 lambda: decode(sk.h2, inner, ldpc_cfg))
            self.check("probe.decode", out2.success, "ldpc decode failed", wrong=False)
            if not out2.success:
                continue
            for stage, out in (("mdpc", out1), ("ldpc", out2)):
                iterations[stage].append(out.iterations)
                decode_ms[stage].append(self.tr.op_totals_ms(f"bitflip.decode_{stage}_ms")[-1])
            last = {"mdpc": (sk.h1, out1.codeword, mdpc_cfg),
                    "ldpc": (sk.h2, out2.codeword, ldpc_cfg)}
        for stage, (h, codeword, cfg) in last.items():
            # a codeword has zero syndrome, so only the decoder's set-up runs
            setup_metric = f"bitflip.decode_setup_ms.{stage}"
            self.timed(setup_metric, 5, lambda: decode(h, codeword, cfg))
            setup = self.values[setup_metric]
            self.values[f"bitflip.iteration_ms.{stage}"] = statistics.median(
                (ms - setup) / its for ms, its in zip(decode_ms[stage], iterations[stage]))
            self.values[f"bitflip.iterations.mean.{stage}"] = statistics.fmean(iterations[stage])
            self.values[f"bitflip.iterations.max.{stage}"] = max(iterations[stage])
        self.timed("bitflip.upc_profile_ms", 5, lambda: upc_profile(sk.h1, cts[0].c1))

        z1 = sample_fixed_weight(self.stream(), n, big.t1)
        self.timed("scheme.hash_mask_us", 50, lambda: hash_mask(z1, n))
        codeword = last["mdpc"][1].slice(0, k)
        self.timed("scheme.unscramble_ms", 10, lambda: sk.s_inv.vec_mul(codeword))

        pk_bytes, sk_bytes = wire.serialize_public(pk), wire.serialize_secret(sk)
        ct_bytes = wire.serialize_ciphertext(cts[0])
        self.timed("wire.serialize_public_ms", 10, lambda: wire.serialize_public(pk))
        self.timed("wire.serialize_secret_ms", 10, lambda: wire.serialize_secret(sk))
        self.timed("wire.deserialize_public_ms", 10, lambda: wire.deserialize_public(pk_bytes))
        self.timed("wire.deserialize_secret_ms", 5, lambda: wire.deserialize_secret(sk_bytes))
        self.timed("wire.serialize_ciphertext_us", 50, lambda: wire.serialize_ciphertext(cts[0]))
        outs = self.timed("wire.deserialize_ciphertext_us", 50,
                          lambda: wire.deserialize_ciphertext(ct_bytes))
        self.check("probe.wire", wire.serialize_ciphertext(outs[0]) == ct_bytes,
                   "ciphertext wire round trip differs")

    def cli(self, big) -> None:
        """``cli.main`` in-process on files in a scratch directory."""
        os.makedirs(self.scratch_dir, exist_ok=True)
        try:
            path = lambda name: os.path.join(self.scratch_dir, name)  # noqa: E731
            message = derived_bits(self.master, "cli-message", 0, big.plaintext_bits)
            with open(path("message.bin"), "wb") as handle:
                handle.write(wire.pack_plaintext(message))
            steps = {
                "cli.keygen_ms": ["keygen", "--preset", "cca128", "--pub", path("key.pub"),
                                  "--sec", path("key.sec"), "--seed", self.master.hex()],
                "cli.encrypt_ms": ["encrypt", "--pub", path("key.pub"), "--in",
                                   path("message.bin"), "--out", path("message.ct"),
                                   "--seed", self.master.hex()],
                "cli.decrypt_ms": ["decrypt", "--sec", path("key.sec"), "--in", path("message.ct"),
                                   "--out", path("message.out")],
            }
            for _ in range(3):
                for metric, argv in steps.items():
                    with contextlib.redirect_stdout(io.StringIO()):
                        (code,) = self.timed(metric, 1, lambda: cli.main(argv))
                    # exit 4 is the CLI's documented DecryptionFailure
                    self.check("probe.cli", code == 0, f"{argv[0]} exited {code}", wrong=code != 4)
                if code == 0:
                    with open(path("message.out"), "rb") as handle:
                        self.check("probe.cli", handle.read() == wire.pack_plaintext(message),
                                   "CLI round trip returned a wrong plaintext")
        finally:
            shutil.rmtree(self.scratch_dir, ignore_errors=True)

    def dfr_replay(self, toy) -> None:
        """Step-by-step replay of dfr-toy's leading batches from the same
        substreams; its failure counts must equal ``estimate_dfr``'s."""
        tr = self.tr
        for point, (qp, t, cfg) in dfr_points(toy).items():
            trials = DfrToy.BATCH[point]
            replayed = estimated = 0
            for i in range(REPLAY_ROUNDS):
                seed = derived_seed(self.dfr_master, point, i)
                with tr.operation("probe.dfr.estimate"), tr.span("bitflip.estimate_dfr"):
                    estimated += estimate_dfr(qp, t, cfg, trials, RandomStream(seed)).failures
                for j in range(trials):
                    stream = substream(seed, j)
                    with tr.operation(f"probe.dfr.trial.{point}"):
                        with tr.span("dfr.trial.sample"):
                            h = sample_parity_check(stream, qp)
                        with tr.span("dfr.trial.generator"):
                            gen = derive_generator(h)
                        with tr.span("dfr.trial.encode"):
                            message = BitVector(qp.k, stream.take_bits(qp.k))
                            codeword = encode(gen, message)
                        with tr.span("dfr.trial.sample"):
                            error = sample_fixed_weight(stream, qp.n, t)
                        with tr.span("dfr.trial.decode"):
                            out = decode(h, codeword ^ error, cfg)
                    replayed += not (out.success and out.codeword == codeword)
            self.check("probe.dfr_replay", replayed == estimated,
                       f"{point}: replay {replayed} failures, estimate_dfr {estimated}")
            self.values[f"dfr.success_share.{point}"] = 1 - replayed / (REPLAY_ROUNDS * trials)
            if point == "mdpc_t22":
                self.values["dfr.failures.mdpc_t22"] = replayed
        for step in ("sample", "generator", "encode", "decode"):
            self.values[f"dfr.trial.{step}_ms"] = self.tr.median_ms(
                f"dfr.trial.{step}", root="probe.dfr.trial.mdpc_t18")

    def attack_lab(self) -> None:
        p = ATTACK_PARAMS
        pks = [keygen(p, self.stream())[0] for _ in range(5)]
        grid = pks[0].sg2
        (expanded, *_) = self.timed("dense.expand_block_matrix_ms", 20,
                                    lambda: dense.expand_block_matrix(grid))
        self.timed("dense.systematic_form_ms", 20, lambda: dense.systematic_form(expanded))
        gen_sys = systematic_public_generator(pks[0])
        results = self.timed("stern.restart_ms", 10,
                             lambda: stern_search(gen_sys, 1, self.stream(), max_iterations=1))
        self.check("probe.stern", all(r.found is None for r in results),
                   "a restart found a word under the unreachable target")
        it = iter(pks)
        recs = self.timed("attack.recover_dual_structure_ms", 5, lambda: recover_dual_structure(
            next(it), self.stream(), max_iterations=AttackLab.STERN_ITERATIONS))
        for rec in recs:
            self.check("probe.attack", rec is not None, "no dual row found", wrong=False)
            self.check("probe.attack", rec is None or rec.complete, "incomplete dual row",
                       wrong=False)
        found = [(pk, rec) for pk, rec in zip(pks, recs) if rec is not None]
        self.values["stern.restarts_per_found"] = statistics.fmean(r.iterations for _, r in found)
        pk, rec = found[0]
        stream = self.stream()
        cases = []
        for _ in range(20):
            message = BitVector(p.plaintext_bits, stream.take_bits(p.plaintext_bits))
            cases.append((encrypt(pk, message, stream), message))
        cases_it = iter(cases)
        reports = self.timed("attack.per_ciphertext_ms", 20, lambda: weak_key_attack_demo(
            pk, *next(cases_it), stream, recovered=rec))
        self.check("probe.attack", not any(r.attack_succeeded for r in reports),
                   "the attack recovered a plaintext")
        word = pk.sg2.blocks[0][0].row0.concat(pk.sg2.blocks[0][1].row0)
        syndromes = self.timed("qc.syndrome_ms", 100, lambda: syndrome(rec.parity, word))
        self.check("probe.attack", syndromes[0].value == 0, "recovered row not orthogonal")

    def isd(self) -> None:
        for name in sorted(PRESETS):
            params = preset(name)
            self.timed(f"isd.keyrec_workfactor_ms.{name}", 1, lambda: keyrec_workfactor(params))
            self.timed(f"isd.msgrec_workfactor_ms.{name}", 1, lambda: msgrec_workfactor(params))
