"""Self-test of the benchmark: its checks bite and its output keeps its shape.

    python3 -m pytest -q perfbench/test_perfbench.py

Takes a few minutes on one core: every workload runs once at its 100-cycle
floor, and one traced run goes through the whole layer probe.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibration  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, DfrToy, Measured, PkeCca128  # noqa: E402


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == run.spec()


def test_wrong_reference_count_is_a_failed_operation():
    refs = run.load_references()
    refs[DfrToy.name]["mdpc_t22"][0] += 1
    m = DfrToy(DEFAULT_SEED, refs).measure(DfrToy.REF_ROUNDS)
    assert m.failed > 0 and m.wrong > 0
    assert DfrToy(DEFAULT_SEED, run.load_references()).measure(DfrToy.REF_ROUNDS).failed == 0


def test_flipped_ciphertext_byte_is_a_failed_operation():
    wl = PkeCca128(DEFAULT_SEED, run.load_references())
    serialize = wl.emit

    def flip_last_byte(ct):
        data = bytearray(serialize(ct))
        data[-1] ^= 0x01
        return bytes(data)

    wl.emit = flip_last_byte
    m = wl.measure(PkeCca128.REF_CIPHERTEXTS)
    assert m.failed > 0 and m.wrong > 0
    assert any("reference" in why for why in m.failures)


def test_calibrated_ms_follow_the_calibrations_around_a_sample():
    m = Measured()
    for cal_ms in [calibration.REF_MS] * 10 + [2 * calibration.REF_MS] * 10:
        m.cal.append(cal_ms)
        m.record("op", 10.0)
    scaled = m.calibrated("op")
    assert scaled[0] == 10.0 and scaled[-1] == 5.0  # the machine ran at half speed
    assert m.p50("op") == 10.0 and m.p50("op", calibrated=True) < 10.0


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_end_to_end_metric_is_printed_with_its_unit():
    units = {n: u for n, u, *_ in run.END_TO_END}
    for name in WORKLOADS:
        result = _result(_run(["--workload", name, "--seed", "7", "--seconds", "1",
                               "--trace", "0"]))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = _result(_run(["--workload", "dfr-toy", "--seed", "7", "--seconds", "1",
                           "--trace", "1"]))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {n: u for n, u, _ in PER_LAYER}
    assert result["correct"]


def test_directory_without_the_program_exits_nonzero():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run(["--workload", "pke-cca128", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
