"""Smoke tests: each documented script runs end to end with tiny arguments."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, args, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args])
    assert module.main() in (None, 0)
    return capsys.readouterr().out


def test_dfr_sweep(monkeypatch, capsys):
    out = _run_script("dfr_sweep", [
        "--r", "13", "--w", "5", "--flavor", "mdpc", "--t-max", "2", "--trials", "3",
    ], monkeypatch, capsys)
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["t"] for rec in records] == [1, 2]
    assert all(rec["trials"] == 3 for rec in records)


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
