"""Smoke tests: each documented script runs end to end with tiny arguments."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from plotkin_pke.scheme import (
    SYNDROME_RULE_MIN_R,
    SchemeParams,
    ldpc_decoder_config,
    mdpc_decoder_config,
)

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
    # at r = 13 that decoder is the same for every t; from SYNDROME_RULE_MIN_R
    # it is the syndrome rule designed for each weight swept, as decrypt runs
    # it on a code of that size with t1 or t2 errors
    for r, w1, w2, ts in ((13, 5, 3, (1, 2)), (SYNDROME_RULE_MIN_R + 1, 90, 15, (3, 5))):
        for flavor, w, stage_decoder in (("mdpc", w1, mdpc_decoder_config),
                                         ("ldpc", w2, ldpc_decoder_config)):
            configs.clear()
            out = _run_script("dfr_sweep", ["--r", str(r), "--w", str(w), "--flavor", flavor,
                                            "--t-min", str(ts[0]), "--t-max", str(ts[1]),
                                            "--t-step", str(ts[1] - ts[0]), "--trials", "3"],
                              monkeypatch, capsys, module)
            records = [json.loads(line) for line in out.splitlines()]
            assert [rec["t"] for rec in records] == list(ts)
            assert all(rec["trials"] == 3 for rec in records)
            assert configs == [stage_decoder(SchemeParams(2, r, w1, w2, t, t)) for t in ts]
            assert all((cfg.threshold == "syndrome") == (r > 13) for cfg in configs)


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
