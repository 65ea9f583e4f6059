"""The three benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns, in this one process, with ``workers=1``.
Every input (keygen seeds, messages, noise seeds, DFR master seeds, attack
seeds) is made in set-up from the benchmark seed with ``hashlib`` alone;
the program only receives the generated inputs.

A run's work is fixed by ``--seconds`` alone, never by the clock: each
workload's ``measure`` does a given number of cycles of its operations,
``cycles(seconds)`` in an untraced run.  So a seed's operation and
failure counts repeat exactly from run to run, however fast the machine.

A workload records latency samples per operation kind and checks every
output.  Each cycle starts with a calibration (``calibration.py``), so
every sample can also be read in calibrated ms, free of the machine's
changes of speed.  The three timed slots of the end-to-end metrics
(``main``, ``second``, ``third``) map onto each workload's own operation
kinds through ``SLOTS``; ``report`` names every kind as users know it.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from time import perf_counter_ns

from plotkin_pke import (
    BitVector,
    BlockMatrix,
    DecryptionFailure,
    PRESETS,
    RandomStream,
    SchemeParams,
    decrypt,
    encrypt,
    estimate_dfr,
    keygen,
    keyrec_workfactor,
    msgrec_workfactor,
    preset,
    recover_dual_structure,
    stern_search,
    substream,
    weak_key_attack_demo,
    wire,
)
from plotkin_pke.attack import systematic_public_generator
from plotkin_pke.qc import syndrome
from plotkin_pke.scheme import ldpc_decoder_config, mdpc_decoder_config

import calibration
from tracing import NULL

DEFAULT_SEED = 1


def master_seed(workload: str, seed: int) -> bytes:
    return hashlib.sha256(f"perfbench/{workload}/{seed}".encode()).digest()


def derived_seed(master: bytes, label: str, index: int) -> bytes:
    return hashlib.sha256(master + label.encode() + index.to_bytes(8, "little")).digest()


def derived_bits(master: bytes, label: str, index: int, nbits: int) -> BitVector:
    data = hashlib.shake_256(derived_seed(master, label, index)).digest((nbits + 7) // 8)
    return BitVector(nbits, int.from_bytes(data, "little") & ((1 << nbits) - 1))


class Measured:
    """Latency samples (ms), operation counts and check failures of a phase."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.cal: list[float] = []  # calibration times (ms), one per cycle
        self.cal_at: dict[str, list[int]] = {}  # per sample, the calibration before it
        self.ops: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed checks of returned outputs, and unexpected raises
        self.failures: list[str] = []
        self.extra: dict = {}

    def calibrate(self) -> None:
        self.cal.append(calibration.calibrate())

    def record(self, kind: str, ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)
        self.cal_at.setdefault(kind, []).append(len(self.cal) - 1)

    def calibrated(self, kind: str) -> list[float]:
        """The samples of ``kind`` in calibrated ms."""
        return [ms * calibration.scale(self.cal, at)
                for ms, at in zip(self.samples[kind], self.cal_at[kind])]

    def attempt(self, kind: str) -> None:
        self.attempted += 1
        self.ops[kind] = self.ops.get(kind, 0) + 1

    def fail(self, kind: str, why: str, wrong: bool = True) -> None:
        """Count a failed operation.  ``wrong=False`` marks a failure the
        program declares (a ``DecryptionFailure``, no or an incomplete dual
        row): the operation failed, but no output was wrong."""
        self.failed += 1
        self.wrong += wrong
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}" + ("" if wrong else " (declared)"))

    def p50(self, kind: str, calibrated: bool = False) -> float:
        return statistics.median(self.calibrated(kind) if calibrated else self.samples[kind])

    def p90(self, kind: str, calibrated: bool = False) -> float:
        samples = self.calibrated(kind) if calibrated else self.samples[kind]
        if len(samples) == 1:
            return samples[0]
        return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _ms_since(t0: int) -> float:
    return (perf_counter_ns() - t0) / 1e6


class Workload:
    name = ""
    why = ""
    SLOTS: dict[str, str] = {}
    RATE = 5.0  # cycles per second of --seconds, about what this takes on 2 vCPUs
    MIN_SAMPLES = 100  # each cycle gives every gated slot one sample
    MAX_CYCLES = 400  # inputs made in set-up; --seconds 60 stays below it

    def cycles(self, seconds: float) -> int:
        """The fixed number of cycles a run of ``seconds`` does."""
        return min(self.MAX_CYCLES, max(self.MIN_SAMPLES, math.ceil(seconds * self.RATE)))

    def __init__(self, seed: int, references: dict | None = None):
        self.seed = seed
        self.master = master_seed(self.name, seed)
        self.references = (references or {}).get(self.name) if seed == DEFAULT_SEED else None

    def measure(self, cycles: int, tracer=NULL) -> Measured:
        raise NotImplementedError

    def report(self, m: Measured) -> list[tuple[str, float, str, int]]:
        """(name, value, unit, samples) rows in the workload's own terms."""
        raise NotImplementedError

    def parameters(self) -> dict:
        raise NotImplementedError


class PkeCca128(Workload):
    """Key reuse at cca128: a few keygens, then round trips with one loaded pair."""

    name = "pke-cca128"
    why = ("one loaded cca128 key pair serves encrypt and decrypt over the wire, "
           "with a secret-key load per round trip: the key-reuse design point")
    SLOTS = {"main": "encrypt", "second": "decrypt", "third": "sk_load"}
    PRESET = "cca128"
    KEYGENS = 8  # at the start of a run; keygen_ms.p50 is printed, not gated
    REF_CIPHERTEXTS = 16  # ciphertexts under the wire-byte reference hash

    def __init__(self, seed: int, references: dict | None = None):
        super().__init__(seed, references)
        p = self.params = preset(self.PRESET)
        self.keygen_seeds = [derived_seed(self.master, "keygen", i) for i in range(self.KEYGENS)]
        self.messages = [derived_bits(self.master, "message", i, p.plaintext_bits)
                         for i in range(self.MAX_CYCLES)]
        self.noise_seeds = [derived_seed(self.master, "noise", i) for i in range(self.MAX_CYCLES)]
        pk, sk = keygen(p, RandomStream(derived_seed(self.master, "key", 0)))
        self.pk_bytes = wire.serialize_public(pk)
        self.sk_bytes = wire.serialize_secret(sk)
        self.pk = wire.deserialize_public(self.pk_bytes)
        self.sk = wire.deserialize_secret(self.sk_bytes)
        # the serializer ciphertexts leave through; the self-test swaps in a tampering one
        self.emit = wire.serialize_ciphertext
        warm = derived_bits(self.master, "warm-up", 0, p.plaintext_bits)
        ct = encrypt(self.pk, warm, RandomStream(derived_seed(self.master, "warm-up", 1)))
        if decrypt(self.sk, wire.deserialize_ciphertext(wire.serialize_ciphertext(ct))) != warm:
            raise RuntimeError("warm-up round trip failed")

    def parameters(self) -> dict:
        p = self.params
        return {"preset": self.PRESET, "n0": p.n0, "r": p.r, "w1": p.w1, "w2": p.w2,
                "t1": p.t1, "t2": p.t2, "keygens": self.KEYGENS,
                "sk_loads_per_round_trip": 1}

    def _keygen(self, m: Measured, tr, index: int) -> None:
        m.attempt("keygen")
        try:
            t0 = perf_counter_ns()
            with tr.operation("op.keygen"), tr.span("scheme.keygen"):
                pk, sk = keygen(self.params, RandomStream(self.keygen_seeds[index]))
            m.record("keygen", _ms_since(t0))
            identity = BlockMatrix.identity(sk.s.block_rows, self.params.r)
            if sk.s @ sk.s_inv != identity or pk.sg1.blocks[0][0] != sk.s.blocks[0][0]:
                m.fail("keygen", f"key {index}: S S^-1 != I or S missing from SG1")
        except Exception as exc:  # any raise is a counted failure, never a skip
            m.fail("keygen", f"key {index}: {exc!r}")

    def _sk_load(self, m: Measured, tr) -> None:
        m.attempt("sk_load")
        try:
            t0 = perf_counter_ns()
            with tr.operation("op.sk_load"), tr.span("wire.deserialize_secret"):
                sk = wire.deserialize_secret(self.sk_bytes)
            m.record("sk_load", _ms_since(t0))
            if sk != self.sk:
                m.fail("sk_load", "loaded secret key differs")
        except Exception as exc:
            m.fail("sk_load", repr(exc))

    def _round_trip(self, m: Measured, tr, i: int) -> bytes | None:
        message = self.messages[i]
        m.attempt("encrypt")
        try:
            t0 = perf_counter_ns()
            with tr.operation("op.encrypt"):
                with tr.span("scheme.encrypt"):
                    ct = encrypt(self.pk, message, RandomStream(self.noise_seeds[i]))
                with tr.span("wire.serialize_ciphertext"):
                    data = self.emit(ct)
            m.record("encrypt", _ms_since(t0))
        except Exception as exc:
            m.fail("encrypt", f"message {i}: {exc!r}")
            return None
        m.attempt("decrypt")
        try:
            t0 = perf_counter_ns()
            with tr.operation("op.decrypt"):
                with tr.span("wire.deserialize_ciphertext"):
                    received = wire.deserialize_ciphertext(data)
                with tr.span("scheme.decrypt"):
                    plain = decrypt(self.sk, received)
            m.record("decrypt", _ms_since(t0))
            if plain != message:
                m.fail("decrypt", f"message {i}: wrong plaintext")
        except DecryptionFailure as exc:
            m.record("decrypt", _ms_since(t0))  # the caller waited for the failure too
            m.fail("decrypt", f"message {i}: {exc}", wrong=False)
        except Exception as exc:
            m.fail("decrypt", f"message {i}: {exc!r}")
        return data

    def measure(self, cycles: int, tracer=NULL) -> Measured:
        m = Measured()
        digest = hashlib.sha256(self.pk_bytes + self.sk_bytes)
        m.calibrate()
        for k in range(self.KEYGENS):
            self._keygen(m, tracer, k)
        for i in range(cycles):
            m.calibrate()
            self._sk_load(m, tracer)
            data = self._round_trip(m, tracer, i)
            if i < self.REF_CIPHERTEXTS:
                digest.update(data or b"")
        m.extra["wire_sha256"] = digest.hexdigest()
        if self.references is not None:
            m.attempt("reference")
            if digest.hexdigest() != self.references["wire_sha256"]:
                m.fail("reference", "pk/sk/ciphertext bytes differ from the recorded hash")
        return m

    def report(self, m):
        return [
            ("keygen_ms.p50", m.p50("keygen"), "ms", len(m.samples["keygen"])),
            ("encrypt_ms.p50", m.p50("encrypt"), "ms", len(m.samples["encrypt"])),
            ("encrypt_ms.p90", m.p90("encrypt"), "ms", len(m.samples["encrypt"])),
            ("decrypt_ms.p50", m.p50("decrypt"), "ms", len(m.samples["decrypt"])),
            ("decrypt_ms.p90", m.p90("decrypt"), "ms", len(m.samples["decrypt"])),
            ("sk_load_ms.p50", m.p50("sk_load"), "ms", len(m.samples["sk_load"])),
        ]


WATERFALL_T = 22  # about half of toy mdpc trials fail here


def dfr_points(toy: SchemeParams) -> dict:
    """(code, t, decoder) of the two pinned acceptance points and the waterfall point."""
    mdpc, ldpc = mdpc_decoder_config(toy), ldpc_decoder_config(toy)
    return {
        "mdpc_t18": (toy.mdpc_params(), toy.t1, mdpc),
        "ldpc_t1": (toy.ldpc_params(), toy.t2, ldpc),
        "mdpc_t22": (toy.mdpc_params(), WATERFALL_T, mdpc),
    }


class DfrToy(Workload):
    """``estimate_dfr`` batches at the toy preset; every trial draws a fresh key."""

    name = "dfr-toy"
    why = ("toy DFR trials draw a fresh key each, so per-key caches are bypassed; "
           "the at-preset points plus one waterfall point guard small-r kernels")
    SLOTS = {"main": "at_preset", "second": "mdpc_t22", "third": "mdpc_t18"}
    PRESET = "toy"
    BATCH = {"mdpc_t18": 16, "ldpc_t1": 16, "mdpc_t22": 8}
    RATE = 6.0
    REF_ROUNDS = 24  # leading rounds whose failure counts are pinned

    def __init__(self, seed: int, references: dict | None = None):
        super().__init__(seed, references)
        self.params = preset(self.PRESET)
        self.points = dfr_points(self.params)
        self.batch_seeds = {
            point: [derived_seed(self.master, point, i) for i in range(self.MAX_CYCLES)]
            for point in self.points
        }
        for point, (qp, t, cfg) in self.points.items():
            estimate_dfr(qp, t, cfg, 2, RandomStream(derived_seed(self.master, "warm-up", t)))

    def parameters(self) -> dict:
        p = self.params
        return {"preset": self.PRESET, "r": p.r, "w1": p.w1, "w2": p.w2,
                "points": {k: {"t": t, "variant": cfg.variant, "batch": self.BATCH[k]}
                           for k, (_, t, cfg) in self.points.items()},
                "workers": 1}

    def batch(self, m: Measured, tr, point: str, i: int) -> float | None:
        """Run one estimate_dfr batch; return its wall time in ms."""
        qp, t, cfg = self.points[point]
        trials, seed = self.BATCH[point], self.batch_seeds[point][i]
        m.attempt(point)
        try:
            t0 = perf_counter_ns()
            with tr.operation(f"op.dfr.{point}"), tr.span("bitflip.estimate_dfr"):
                rep = estimate_dfr(qp, t, cfg, trials, RandomStream(seed), workers=1)
            ms = _ms_since(t0)
        except Exception as exc:
            m.fail(point, f"batch {i}: {exc!r}")
            return None
        failures = m.extra.setdefault("failures", {})
        failures.setdefault(point, []).append(rep.failures)
        if not (rep.trials == trials and 0 <= rep.failures <= trials
                and rep.dfr == rep.failures / trials and rep.ci_low <= rep.dfr <= rep.ci_high
                and rep.seed == seed.hex()):
            m.fail(point, f"batch {i}: inconsistent report {rep.to_json()}")
        elif self.references is not None and i < self.REF_ROUNDS:
            expected = self.references[point][i]
            if rep.failures != expected:
                m.fail(point, f"batch {i}: {rep.failures} failures, reference {expected}")
        return ms

    def measure(self, cycles: int, tracer=NULL) -> Measured:
        m = Measured()
        for i in range(cycles):
            m.calibrate()
            ms = {point: self.batch(m, tracer, point, i) for point in self.points}
            if ms["mdpc_t18"] is not None and ms["ldpc_t1"] is not None:
                both = self.BATCH["mdpc_t18"] + self.BATCH["ldpc_t1"]
                m.record("at_preset", (ms["mdpc_t18"] + ms["ldpc_t1"]) / both)
            for point in self.points:
                if ms[point] is not None:
                    m.record(point, ms[point] / self.BATCH[point])
        return m

    def report(self, m):
        def rate(points):
            trials = sum(len(m.samples[p]) * self.BATCH[p] for p in points)
            ms = sum(sum(m.samples[p]) * self.BATCH[p] for p in points)
            return 1000.0 * trials / ms, trials

        at, n_at = rate(("mdpc_t18", "ldpc_t1"))
        wf, n_wf = rate(("mdpc_t22",))
        return [
            ("dfr_trials_per_s", at, "1/s", n_at),
            ("dfr_waterfall_trials_per_s", wf, "1/s", n_wf),
            ("dfr_trial_ms.p50", m.p50("at_preset"), "ms", len(m.samples["at_preset"])),
            ("dfr_waterfall_trial_ms.p50", m.p50("mdpc_t22"), "ms", len(m.samples["mdpc_t22"])),
        ]


ATTACK_PARAMS = SchemeParams(n0=2, r=101, w1=14, w2=6, t1=4, t2=4)  # attack-demo defaults


class AttackLab(Workload):
    """attack-demo runs, a Stern restart budget, and the work-factor table."""

    name = "attack-lab"
    why = ("attack demos at r=101, full Stern restarts and the ISD work-factor table "
           "exercise dense, stern, attack and isd, not the large-r circulant kernels")
    SLOTS = {"main": "demo", "second": "stern_restart", "third": "per_ciphertext"}
    SAMPLES = 20
    STERN_ITERATIONS = 20  # found in 1 restart except on degenerate keys (NOTES.md)
    RESTARTS = 4  # restarts per stern_search call in the restart budget
    UNREACHABLE = 1  # every Stern candidate weighs at least 2p = 4

    def __init__(self, seed: int, references: dict | None = None):
        super().__init__(seed, references)
        self.params = ATTACK_PARAMS
        self.demo_seeds = [derived_seed(self.master, "demo", i) for i in range(self.MAX_CYCLES)]
        self.stern_seeds = [derived_seed(self.master, "stern", i) for i in range(self.MAX_CYCLES)]
        # the README's table is the same for every seed
        self.table_reference = (references or {}).get("workfactor_table")
        self._demo(Measured(), NULL, derived_seed(self.master, "warm-up", 0))

    def parameters(self) -> dict:
        p = self.params
        return {"r": p.r, "w1": p.w1, "w2": p.w2, "t1": p.t1, "t2": p.t2,
                "samples": self.SAMPLES, "stern_iterations": self.STERN_ITERATIONS,
                "restarts_per_call": self.RESTARTS, "unreachable_target": self.UNREACHABLE,
                "table_presets": sorted(PRESETS)}

    def _table(self, m: Measured, tr) -> None:
        m.attempt("workfactor_table")
        try:
            t0 = perf_counter_ns()
            rows = {}
            with tr.operation("op.workfactor_table"):
                for name in sorted(PRESETS):
                    params = preset(name)
                    with tr.span("isd.msgrec_workfactor"):
                        msg = msgrec_workfactor(params).log2_work_factor
                    with tr.span("isd.keyrec_workfactor"):
                        key = keyrec_workfactor(params).log2_work_factor
                    rows[name] = [round(msg, 2), round(key, 2)]
            m.record("workfactor_table", _ms_since(t0))
        except Exception as exc:
            m.fail("workfactor_table", repr(exc))
            return
        m.extra["workfactor_table"] = rows
        if self.table_reference is not None:
            for name, expected in self.table_reference.items():
                got = rows.get(name)
                if got is None or any(abs(a - b) > 1e-9 for a, b in zip(got, expected)):
                    m.fail("workfactor_table", f"{name}: {got} != README {expected}")

    def _demo(self, m: Measured, tr, seed: bytes):
        """One attack-demo run; returns its public key, or None if it raised."""
        p = self.params
        m.attempt("demo")
        try:
            t0 = perf_counter_ns()
            reports = []
            with tr.operation("op.demo"):
                with tr.span("scheme.keygen"):
                    pk, _ = keygen(p, substream(seed, 0))
                with tr.span("attack.recover_dual_structure"):
                    rec = recover_dual_structure(pk, substream(seed, 1),
                                                 max_iterations=self.STERN_ITERATIONS)
                sample_rng = substream(seed, 2)
                for _ in range(self.SAMPLES if rec is not None else 0):
                    message = BitVector(p.plaintext_bits, sample_rng.take_bits(p.plaintext_bits))
                    with tr.span("scheme.encrypt"):
                        ct = encrypt(pk, message, sample_rng)
                    t1 = perf_counter_ns()
                    with tr.span("attack.weak_key_attack_demo"):
                        reports.append(weak_key_attack_demo(pk, ct, message, sample_rng,
                                                            recovered=rec))
                    m.record("per_ciphertext", _ms_since(t1))
            m.record("demo", _ms_since(t0))
        except Exception as exc:
            m.fail("demo", repr(exc))
            return None
        if rec is None:
            m.fail("demo", f"no dual row within {self.STERN_ITERATIONS} restarts", wrong=False)
            return pk
        problems = []
        if rec.row.weight > p.w2:
            problems.append(f"row weight {rec.row.weight} > w2")
        for block_row in pk.sg2.blocks:
            word = block_row[0].row0.concat(block_row[1].row0)
            if syndrome(rec.parity, word).value != 0:
                problems.append("row not orthogonal to the public code")
        if any(r.attack_succeeded for r in reports):
            problems.append("a plaintext was recovered")
        if problems:
            m.fail("demo", "; ".join(problems))
        elif not rec.complete:  # a true dual word whose rotations miss part of the structure
            m.fail("demo", "dual row found, rotations incomplete", wrong=False)
        return pk

    def _stern(self, m: Measured, tr, i: int, pk) -> None:
        """Full restarts on the demo's key: restart cost depends on the key,
        so the budget follows the demos over many keys."""
        gen_sys = systematic_public_generator(pk)
        m.attempt("stern")
        try:
            t0 = perf_counter_ns()
            with tr.operation("op.stern"), tr.span("stern.stern_search"):
                res = stern_search(gen_sys, self.UNREACHABLE, RandomStream(self.stern_seeds[i]),
                                   max_iterations=self.RESTARTS)
            m.record("stern_restart", _ms_since(t0) / self.RESTARTS)
        except Exception as exc:
            m.fail("stern", repr(exc))
            return
        if res.found is not None or res.iterations != self.RESTARTS:
            m.fail("stern", f"call {i}: found a word under the unreachable target")

    def measure(self, cycles: int, tracer=NULL) -> Measured:
        m = Measured()
        m.calibrate()
        self._table(m, tracer)
        for i in range(cycles):
            m.calibrate()
            pk = self._demo(m, tracer, self.demo_seeds[i])
            if pk is not None:
                self._stern(m, tracer, i, pk)
        return m

    def report(self, m):
        restarts = len(m.samples["stern_restart"]) * self.RESTARTS
        stern_s = sum(m.samples["stern_restart"]) * self.RESTARTS / 1000.0
        return [
            ("attack_demo_s", m.p50("demo") / 1000.0, "s", len(m.samples["demo"])),
            ("stern_restarts_per_s", restarts / stern_s, "1/s", restarts),
            ("workfactor_table_s", m.p50("workfactor_table") / 1000.0, "s",
             len(m.samples["workfactor_table"])),
            ("attack_per_ciphertext_ms.p50", m.p50("per_ciphertext"), "ms",
             len(m.samples["per_ciphertext"])),
        ]


WORKLOADS = {w.name: w for w in (PkeCca128, DfrToy, AttackLab)}
