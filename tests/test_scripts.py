"""Smoke tests: each documented script runs end to end with tiny arguments."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from plotkin_pke.scheme import SchemeParams, ldpc_decoder_config, mdpc_decoder_config

DESK = SchemeParams(2, 13, 5, 3, 1, 1)  # test_dfr_sweep runs on its two codes
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_script(name, args, monkeypatch, capsys, module=None):
    module = module or _load_script(name)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert module.main() in (None, 0)
    return capsys.readouterr().out


def test_dfr_sweep(monkeypatch, capsys):
    # the decoder handed to estimate_dfr is the one decrypt runs at the
    # flavor's stage, iteration cap included
    module = _load_script("dfr_sweep")
    configs = []
    estimate = module.estimate_dfr

    def recording(params, t, cfg, **kw):
        configs.append(cfg)
        return estimate(params, t, cfg, **kw)

    monkeypatch.setattr(module, "estimate_dfr", recording)
    for flavor, w, stage_decoder in (("mdpc", "5", mdpc_decoder_config),
                                     ("ldpc", "3", ldpc_decoder_config)):
        configs.clear()
        out = _run_script("dfr_sweep", ["--r", "13", "--w", w, "--flavor", flavor,
                                        "--t-max", "2", "--trials", "3"],
                          monkeypatch, capsys, module)
        records = [json.loads(line) for line in out.splitlines()]
        assert [rec["t"] for rec in records] == [1, 2]
        assert all(rec["trials"] == 3 for rec in records)
        assert configs == [stage_decoder(DESK)] * 2


def test_dfr_sweep_waterfall_known_answer(monkeypatch, capsys):
    # the README's toy mdpc waterfall, cut short and pinned byte for byte:
    # backflip, the mdpc stage decoder, fails 3, 3 and 9 of 12
    out = _run_script("dfr_sweep", [
        "--r", "523", "--w", "30", "--flavor", "mdpc",
        "--t-min", "21", "--t-max", "23", "--trials", "12",
    ], monkeypatch, capsys)
    assert [json.loads(line)["failures"] for line in out.splitlines()] == [3, 3, 9]
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "b4bcdd6458a55d6a647088e295f53943d5b32c495374db8f1eec6c09aab95560"


def test_dfr_sweep_rejects_nonpositive_workers(monkeypatch, capsys):
    # and every other bad input: each exits 2 with a usage error before any
    # line is printed, where most used to end in a traceback
    module = _load_script("dfr_sweep")
    for flags, named in (
        (["--workers", "0"], "--workers"),
        (["--workers", "-5"], "--workers"),
        (["--t-step", "0"], "--t-step"),
        (["--t-min", "5", "--t-max", "2"], "--t-min"),
        (["--trials", "0"], "trials"),
        (["--t-max", "27"], "--t-max"),  # n = 26
        (["--r", "12"], "odd"),
        (["--variant", "backflip"], "unrecognized arguments: --variant"),
        (["--max-iters", "7"], "unrecognized arguments: --max-iters"),
        (["--seed", "zz"], "hexadecimal"),
    ):
        argv = ["--r", "13", "--w", "5", "--flavor", "mdpc", "--t-max", "1", *flags]
        monkeypatch.setattr(sys, "argv", ["dfr_sweep.py", *argv])
        with pytest.raises(SystemExit) as info:
            module.main()
        assert info.value.code == 2, flags
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err, flags


def test_workfactor_table(monkeypatch, capsys):
    out = _run_script("workfactor_table", ["--json"], monkeypatch, capsys)
    rows = {row["preset"]: row for row in map(json.loads, out.splitlines())}
    assert len(rows) == 7
    assert rows["cca128"]["messageRecoveryBits"] == 129.98
    assert rows["cca128"]["keyRecoveryBits"] == 30.51
