"""Smoke tests: each documented script runs end to end with tiny arguments."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from plotkin_pke.bitflip import backflip_config, classic_bf_config

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
    # the decoder handed to estimate_dfr is the variant's stage decoder,
    # iteration cap included, unless --max-iters overrides it
    module = _load_script("dfr_sweep")
    configs = []
    estimate = module.estimate_dfr

    def recording(params, t, cfg, **kw):
        configs.append(cfg)
        return estimate(params, t, cfg, **kw)

    monkeypatch.setattr(module, "estimate_dfr", recording)
    args = ["--r", "13", "--w", "5", "--flavor", "mdpc", "--t-max", "2", "--trials", "3"]
    out = _run_script("dfr_sweep", args, monkeypatch, capsys, module)
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["t"] for rec in records] == [1, 2]
    assert all(rec["trials"] == 3 for rec in records)
    assert configs == [classic_bf_config()] * 2
    configs.clear()
    _run_script("dfr_sweep", [*args, "--variant", "backflip"], monkeypatch, capsys, module)
    assert configs == [backflip_config()] * 2
    configs.clear()
    _run_script("dfr_sweep", [*args, "--variant", "backflip", "--max-iters", "7"],
                monkeypatch, capsys, module)
    assert configs == [backflip_config(max_iters=7)] * 2


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
        (["--max-iters", "0"], "max_iters"),
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


def test_derive_toy_error_weights(monkeypatch, capsys):
    out = _run_script("derive_toy_error_weights", [
        "--target", "1", "--budget", "10",
    ], monkeypatch, capsys)
    record = json.loads(out)
    assert isinstance(record["t1"], int) and isinstance(record["t2"], int)


def test_derive_toy_error_weights_rejects_bad_flags(monkeypatch, capsys):
    # each exits 2 with a usage error naming the flag, before any trial
    module = _load_script("derive_toy_error_weights")
    for flags, named in (
        (["--seed", "zz"], "--seed"),
        (["--seed", "00"], "--seed"),
        (["--target", "0"], "--target"),
        (["--target", "2"], "--target"),
        (["--budget", "5"], "--budget"),
    ):
        monkeypatch.setattr(sys, "argv", ["derive_toy_error_weights.py", *flags])
        with pytest.raises(SystemExit) as info:
            module.main()
        assert info.value.code == 2, flags
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err, flags


def test_derive_toy_error_weights_reports_infeasible_target(monkeypatch, capsys):
    # a real infeasible selection (--target 1e-3 --budget 10000) takes tens
    # of seconds, so the selection is made to fail at once
    module = _load_script("derive_toy_error_weights")

    def infeasible(params, target, budget, cfg, rng):
        raise module.SelectionError(f"no error weight t >= 1 meets target {target}")

    monkeypatch.setattr(module, "select_t_for_dfr", infeasible)
    monkeypatch.setattr(sys, "argv", ["derive_toy_error_weights.py",
                                      "--target", "1e-3", "--budget", "10000"])
    with pytest.raises(SystemExit) as info:
        module.main()
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "meets target 0.001" in captured.err
