"""End-to-end CLI behavior: files, JSON output, exit codes."""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from plotkin_pke import attack, cli, dfr
from plotkin_pke.dfr import SelectionError
from plotkin_pke.cli import main
from plotkin_pke.presets import LAB, TOY_T1, TOY_T2, preset
from plotkin_pke.scheme import ldpc_decoder_config, stage_decoder_config
from plotkin_pke.stern import SternResult
from plotkin_pke.wire import HEADER_BYTES

SEED_A = "11" * 32
SEED_B = "22" * 32

# 1046 plaintext bits -> 131 bytes, top 2 bits of the last byte are padding
PLAINTEXT = bytes((i * 37) % 256 for i in range(130)) + bytes([0x2A])


@pytest.fixture(scope="module")
def keydir(tmp_path_factory):
    d = tmp_path_factory.mktemp("keys")
    code = main([
        "keygen", "--preset", "toy",
        "--pub", str(d / "pk.bin"), "--sec", str(d / "sk.bin"),
        "--seed", SEED_A,
    ])
    assert code == 0
    (d / "msg.bin").write_bytes(PLAINTEXT)
    return d


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_keygen_reports_sizes(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "keygen", "--preset", "toy",
        "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
        "--seed", SEED_A,
    ])
    assert code == 0
    record = json.loads(out)
    assert record["publicPayloadBits"] == 2092
    assert record["publicPayloadFormula"] == "2*(n0-1)*n0*r"
    assert record["cca2VariantPayloadBits"] == 1046
    assert (tmp_path / "pk").stat().st_size == 18 + (2092 + 7) // 8
    assert (tmp_path / "sk").stat().st_size == 18 + (5 * 523 + 7) // 8


def test_roundtrip_through_files(keydir, tmp_path, capsys):
    ct = tmp_path / "ct.bin"
    code, out, _ = _run(capsys, [
        "encrypt", "--pub", str(keydir / "pk.bin"),
        "--in", str(keydir / "msg.bin"), "--out", str(ct), "--seed", SEED_B,
    ])
    assert code == 0
    assert json.loads(out)["ciphertextBits"] == 2092
    back = tmp_path / "back.bin"
    code, out, _ = _run(capsys, [
        "decrypt", "--sec", str(keydir / "sk.bin"),
        "--in", str(ct), "--out", str(back),
    ])
    assert code == 0
    assert back.read_bytes() == PLAINTEXT


def test_corrupted_c1_exits_4_naming_the_stage(keydir, tmp_path, capsys):
    ct = tmp_path / "ct.bin"
    assert main([
        "encrypt", "--pub", str(keydir / "pk.bin"),
        "--in", str(keydir / "msg.bin"), "--out", str(ct), "--seed", SEED_B,
    ]) == 0
    capsys.readouterr()
    blob = bytearray(ct.read_bytes())
    for i in range(20, 80):  # c1 payload lives in bytes 18..148
        blob[i] ^= 0xFF
    ct.write_bytes(bytes(blob))
    code, _, err = _run(capsys, [
        "decrypt", "--sec", str(keydir / "sk.bin"),
        "--in", str(ct), "--out", str(tmp_path / "x"),
    ])
    assert code == 4
    assert "mdpc" in err


def test_wrong_length_plaintext_exits_2(keydir, tmp_path, capsys):
    short = tmp_path / "short.bin"
    short.write_bytes(PLAINTEXT[:-1])
    code, _, err = _run(capsys, [
        "encrypt", "--pub", str(keydir / "pk.bin"),
        "--in", str(short), "--out", str(tmp_path / "ct"),
    ])
    assert code == 2
    assert err


def test_even_r_exits_2_citing_oddness(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "keygen", "--r", "14", "--w1", "5", "--w2", "3", "--t1", "1", "--t2", "1",
        "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
    ])
    assert code == 2
    assert "odd" in err


def test_params_beyond_header_widths_exit_2_before_keygen(tmp_path, capsys, monkeypatch):
    # t1 = 70000 does not fit the header's 2-byte field
    def no_keygen(*args):
        pytest.fail("keygen ran for parameters the wire header cannot carry")

    monkeypatch.setattr(cli, "keygen", no_keygen)
    code, _, err = _run(capsys, [
        "keygen", "--r", "40597", "--w1", "274", "--w2", "15",
        "--t1", "70000", "--t2", "1",
        "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"), "--seed", SEED_A,
    ])
    assert code == 2
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_preset_and_explicit_params_conflict(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "keygen", "--preset", "toy", "--r", "523",
        "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
    ])
    assert code == 2
    assert "exclusive" in err


def test_incomplete_explicit_params(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "keygen", "--r", "523",
        "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
    ])
    assert code == 2
    assert "--w1" in err


def test_bad_seed_exits_2(tmp_path, capsys):
    for seed in ("zz", "ab" * 8):
        code, _, err = _run(capsys, [
            "keygen", "--preset", "toy", "--seed", seed,
            "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
        ])
        assert code == 2
        assert "seed" in err


def test_corrupt_public_key_file_exits_2(keydir, tmp_path, capsys):
    bad = tmp_path / "bad.pk"
    blob = bytearray((keydir / "pk.bin").read_bytes())
    blob[0] ^= 0xFF
    bad.write_bytes(bytes(blob))
    code, _, err = _run(capsys, [
        "encrypt", "--pub", str(bad),
        "--in", str(keydir / "msg.bin"), "--out", str(tmp_path / "ct"),
    ])
    assert code == 2
    assert "magic" in err


def test_public_key_with_two_scramblers_exits_2(keydir, tmp_path, capsys):
    bad = tmp_path / "bad.pk"
    blob = bytearray((keydir / "pk.bin").read_bytes())
    blob[HEADER_BYTES + 2 * 523 // 8] ^= 1 << (2 * 523 % 8)  # bit 0 of SG2's copy of S
    bad.write_bytes(bytes(blob))
    code, _, err = _run(capsys, [
        "encrypt", "--pub", str(bad),
        "--in", str(keydir / "msg.bin"), "--out", str(tmp_path / "ct"),
    ])
    assert code == 2
    assert "scramblers" in err


def test_params_mismatch_between_key_and_ciphertext(keydir, tmp_path, capsys):
    assert main([
        "keygen", "--r", "13", "--w1", "5", "--w2", "3", "--t1", "1", "--t2", "1",
        "--pub", str(tmp_path / "pk2"), "--sec", str(tmp_path / "sk2"),
        "--seed", SEED_A,
    ]) == 0
    assert main([
        "encrypt", "--pub", str(keydir / "pk.bin"),
        "--in", str(keydir / "msg.bin"), "--out", str(tmp_path / "ct"),
        "--seed", SEED_B,
    ]) == 0
    capsys.readouterr()
    code, _, err = _run(capsys, [
        "decrypt", "--sec", str(tmp_path / "sk2"),
        "--in", str(tmp_path / "ct"), "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "parameters" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "encrypt", "--pub", str(tmp_path / "nope"),
        "--in", str(tmp_path / "nope2"), "--out", str(tmp_path / "ct"),
    ])
    assert code == 2


def test_directory_as_secret_key_exits_2(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "decrypt", "--sec", str(tmp_path),
        "--in", str(tmp_path / "ct"), "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert err.startswith("error:")


def test_directory_as_decrypt_output_exits_2(keydir, tmp_path, capsys):
    ct = tmp_path / "ct.bin"
    assert main([
        "encrypt", "--pub", str(keydir / "pk.bin"),
        "--in", str(keydir / "msg.bin"), "--out", str(ct), "--seed", SEED_B,
    ]) == 0
    capsys.readouterr()
    (tmp_path / "out").mkdir()
    code, _, err = _run(capsys, [
        "decrypt", "--sec", str(keydir / "sk.bin"),
        "--in", str(ct), "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ct.bin", "out"]  # no temp file left


@pytest.mark.parametrize("route", ["missing directory", "directory"])
def test_keygen_writes_no_half_key_pair(tmp_path, capsys, route):
    # a --sec that cannot be written leaves no --pub and no temp file, and
    # the error names the path given, not a temp file
    sec = tmp_path / "nope" / "sk" if route == "missing directory" else tmp_path / "sk"
    if route == "directory":
        sec.mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = _run(capsys, [
        "keygen", "--preset", "toy", "--pub", str(tmp_path / "pk"), "--sec", str(sec),
        "--seed", SEED_A,
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--sec" in err and str(sec) in err
    assert ".tmp-" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not (tmp_path / "pk").exists()


CLI_FILES = {
    "keygen": {"--pub": "pk.bin", "--sec": "sk.bin"},
    "encrypt": {"--pub": "pk.bin", "--in": "msg.bin", "--out": "ct.bin"},
    "decrypt": {"--sec": "sk.bin", "--in": "ct.bin", "--out": "back.bin"},
}


@pytest.mark.parametrize("spelling", ["same", "symlink"])
@pytest.mark.parametrize("command, output, other", [
    ("keygen", "--sec", "--pub"),
    ("encrypt", "--out", "--pub"),
    ("encrypt", "--out", "--in"),
    ("decrypt", "--out", "--sec"),
    ("decrypt", "--out", "--in"),
])
def test_output_naming_another_file_exits_2(keydir, tmp_path, capsys, monkeypatch,
                                            command, output, other, spelling):
    # an output that names an input or the other output would overwrite it:
    # a decrypt --out at the --sec path would replace the secret key by the
    # plaintext.  Paths are compared through symlinks, and the refusal comes
    # before any keygen, read or write
    for name in ("pk.bin", "sk.bin", "msg.bin"):
        (tmp_path / name).write_bytes((keydir / name).read_bytes())
    (tmp_path / "ct.bin").write_bytes(b"ciphertext")
    paths = {flag: str(tmp_path / name) for flag, name in CLI_FILES[command].items()}
    if spelling == "symlink":
        (tmp_path / "link").symlink_to(paths[other])
        paths[output] = str(tmp_path / "link")
    else:
        paths[output] = paths[other]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def refuse(*args):
        pytest.fail("the command read, wrote or generated before refusing")

    for name in ("keygen", "_read", "_atomic_write"):
        monkeypatch.setattr(cli, name, refuse)
    argv = [command, *(["--preset", "toy"] if command == "keygen" else [])]
    code, out, err = _run(capsys, argv + [x for item in paths.items() for x in item])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and output in err and other in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_unknown_preset_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as info:
        main([
            "keygen", "--preset", "huge",
            "--pub", str(tmp_path / "pk"), "--sec", str(tmp_path / "sk"),
        ])
    assert info.value.code == 2


def test_dfr_estimate_mode(capsys):
    code, out, _ = _run(capsys, [
        "dfr", "--preset", "toy", "--coordinate", "2",
        "--t", "1", "--trials", "30", "--seed", SEED_A,
    ])
    assert code == 0
    record = json.loads(out)
    assert record["trials"] == 30
    assert record["params"]["flavor"] == "ldpc"
    assert record["ciHigh"] >= record["dfr"] >= record["ciLow"]
    assert record["seed"] == SEED_A


def test_dfr_estimate_mode_defaults(capsys, monkeypatch):
    # --trials and --workers stay None unless given, so that selection mode
    # can refuse them; estimate mode reads them as 1000 trials on one worker
    calls, real = [], dfr.estimate_dfr

    def recording(params, t, cfg, trials, rng, workers):
        calls.append((trials, workers))
        return real(params, t, cfg, 5, rng, workers=workers)

    monkeypatch.setattr(dfr, "estimate_dfr", recording)
    code, _, _ = _run(capsys, ["dfr", "--preset", "toy", "--coordinate", "2", "--seed", SEED_A])
    assert code == 0 and calls == [(1000, 1)]


def test_dfr_designs_the_stage_decoder_for_t(capsys, monkeypatch):
    # at a full preset the syndrome rule is designed for an error weight:
    # --t designs it, as scripts/dfr_sweep.py does, not the preset's t2
    calls, real = [], dfr.estimate_dfr

    def recording(params, t, cfg, trials, rng, workers):
        calls.append((params, t, cfg))
        return real(params, t, cfg, trials, rng, workers=workers)

    monkeypatch.setattr(dfr, "estimate_dfr", recording)
    code, out, _ = _run(capsys, [
        "dfr", "--preset", "cca128", "--coordinate", "2",
        "--t", "40", "--trials", "1", "--seed", SEED_A,
    ])
    assert code == 0 and json.loads(out)["t"] == 40
    params = preset("cca128")
    ldpc = params.ldpc_params()
    assert calls == [(ldpc, 40, stage_decoder_config(ldpc, 40))]
    assert calls[0][2] != ldpc_decoder_config(params)


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_dfr_rejects_nonpositive_workers(capsys, workers):
    # a count below one used to run serially and exit 0
    code, out, err = _run(capsys, [
        "dfr", "--preset", "toy", "--trials", "2", "--workers", workers, "--seed", SEED_A,
    ])
    assert code == 2
    assert out == "" and "workers" in err


def test_dfr_select_mode(capsys):
    code, out, _ = _run(capsys, [
        "dfr", "--preset", "toy", "--coordinate", "2",
        "--target", "0.5", "--budget", "20", "--seed", SEED_A,
    ])
    assert code == 0
    record = json.loads(out)
    assert record["selectedT"] >= 1
    assert record["targetDfr"] == 0.5


def test_dfr_select_requires_budget(capsys):
    code, _, err = _run(capsys, [
        "dfr", "--preset", "toy", "--target", "0.5",
    ])
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("coordinate, pinned", [("1", TOY_T1), ("2", TOY_T2)])
def test_dfr_select_rederives_toy_weights(capsys, coordinate, pinned):
    # the toy preset's error weights are what selection mode picks with the
    # seed, target and budget recorded in presets
    code, out, _ = _run(capsys, [
        "dfr", "--preset", "toy", "--coordinate", coordinate,
        "--target", "1e-2", "--budget", "2000", "--seed", "0a" * 32,
    ])
    assert code == 0
    assert json.loads(out)["selectedT"] == pinned


@pytest.mark.parametrize("flags, named", [
    (["--target", "0", "--budget", "2000", "--seed", SEED_A], "target"),
    (["--target", "2", "--budget", "2000", "--seed", SEED_A], "target"),
    (["--target", "1e-2", "--budget", "999", "--seed", SEED_A], "budget"),
    (["--target", "1e-2", "--budget", "2000", "--seed", "zz"], "--seed"),
    (["--target", "1e-2", "--budget", "2000", "--seed", "00"], "--seed"),
])
def test_dfr_select_refuses_bad_flags(capsys, flags, named):
    # each refusal names the flag, dashes and all
    code, out, err = _run(capsys, ["dfr", "--preset", "toy", *flags])
    assert code == 2
    assert out == "" and "--" + named.removeprefix("--") in err


def test_dfr_select_reports_infeasible_target(capsys, monkeypatch):
    # a real infeasible selection (--target 1e-3 --budget 10000) takes tens
    # of seconds, so the selection is made to fail at once
    def infeasible(params, target, budget, cfg, rng):
        raise SelectionError(f"no error weight t >= 1 meets target {target:g}")

    monkeypatch.setattr(dfr, "select_t_for_dfr", infeasible)
    code, out, err = _run(capsys, [
        "dfr", "--preset", "toy", "--target", "1e-3", "--budget", "10000", "--seed", SEED_A,
    ])
    assert code == 2
    assert out == "" and "meets target 0.001" in err


@pytest.mark.parametrize("flags, named", [
    (["--budget", "100", "--trials", "2"], "--budget"),
    (["--target", "0.5", "--budget", "20", "--t", "3"], "--t does not apply"),
    (["--target", "0.5", "--budget", "20", "--trials", "5"], "--trials does not apply"),
    (["--target", "0.5", "--budget", "20", "--workers", "3"], "--workers does not apply"),
    (["--target", "0.5", "--budget", "20", "--trials", "1000"], "--trials does not apply"),
])
def test_dfr_rejects_flags_of_the_other_mode(capsys, flags, named):
    # each flag used to be ignored silently, with exit 0; --trials 1000 is
    # the estimate default, and is still refused when given
    code, out, err = _run(capsys, ["dfr", "--preset", "toy", *flags, "--seed", SEED_A])
    assert code == 2
    assert out == "" and named in err


def test_estimate_reports_both_attacks(capsys):
    code, out, _ = _run(capsys, ["estimate", "--preset", "cca128"])
    assert code == 0
    record = json.loads(out)
    assert 125.9 <= record["messageRecovery"]["log2WorkFactor"] <= 131.9
    assert record["keyRecovery"]["log2WorkFactor"] < 64  # the advertised gap
    assert set(record["rawCosts"]["keyRecovery"]) == {"prange", "stern", "bjmm2"}


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_estimate_prints_null_for_an_infinite_cost(capsys):
    # t1 > n - k: the errors cannot all miss an information set, so no
    # model has a finite cost; strict JSON carries that as null
    code, out, _ = _run(capsys, ["estimate", "--r", "101", "--w1", "14", "--w2", "6",
                                 "--t1", "150", "--t2", "4"])
    assert code == 0
    record = _strict_json(out)
    assert record["messageRecovery"]["log2WorkFactor"] is None
    for report in record["rawCosts"]["messageRecovery"].values():
        assert report["log2WorkFactor"] is None
    assert 0 < record["keyRecovery"]["log2WorkFactor"] < 64
    for name in ("toy", "cca128"):
        _strict_json(_run(capsys, ["estimate", "--preset", name])[1])


@pytest.mark.parametrize("name, digest", [
    ("cca128", "86c9a190a5d0199e6ab1df70e950fb87a08d3cb5a6d334a319e5e313ee7406ad"),
    ("toy", "98181fc3e891dea187b8a8139e14c99bf9f690925fa6b30a9a084f3a13abf9c8"),
])
def test_estimate_known_answer(capsys, name, digest):
    # the whole JSON, work factors derived from the raw reports included
    code, out, _ = _run(capsys, ["estimate", "--preset", name])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_attack_demo_json(capsys):
    code, out, _ = _run(capsys, [
        "attack-demo", "--samples", "2", "--seed", SEED_A,
    ])
    assert code == 0
    record = json.loads(out)
    assert record["rowFound"] is True
    assert record["recoveredRowWeight"] == LAB.w2
    assert 1 <= record["sternIterations"] <= 500
    assert len(record["samples"]) == 2
    assert record["anyPlaintextRecovered"] is False
    for sample in record["samples"]:  # the key's facts are printed once, above
        assert set(sample) == {
            "directDecodeSuccess", "directDecodeIterations", "combinedDecodeSuccess",
            "combinedDecodeIterations", "residualWeight", "attackSucceeded",
        }
        assert sample["attackSucceeded"] is False


def test_attack_demo_without_a_row_runs_one_search(capsys, monkeypatch):
    calls = []

    def no_row(gen_sys, target, rng, max_iterations=500):
        calls.append(max_iterations)
        return SternResult(found=None, iterations=max_iterations)

    monkeypatch.setattr(attack, "stern_search", no_row)
    code, out, _ = _run(capsys, [
        "attack-demo", "--samples", "3", "--stern-iterations", "5", "--seed", SEED_A,
    ])
    assert code == 0
    assert calls == [5]
    record = json.loads(out)
    assert record["rowFound"] is False
    assert record["sternIterations"] == 5  # the whole budget, spent
    assert record["samples"] == []


@pytest.mark.parametrize("flag, value", [("--samples", "-3"), ("--stern-iterations", "-1")])
def test_attack_demo_rejects_negative_counts(capsys, monkeypatch, flag, value):
    # a negative Stern budget would report "rowFound": false for a search
    # that never ran; both are rejected before a key is drawn
    keygens = []
    monkeypatch.setattr(cli, "keygen", lambda *args: keygens.append(args))
    code, out, err = _run(capsys, ["attack-demo", flag, value, "--seed", SEED_A])
    assert code == 2
    assert out == "" and flag in err
    assert keygens == []


@pytest.fixture(scope="module")
def desk_files(tmp_path_factory):
    """Valid r=13 key pair, plaintext and ciphertext, as bytes."""
    d = tmp_path_factory.mktemp("desk")
    assert main([
        "keygen", "--r", "13", "--w1", "5", "--w2", "3", "--t1", "1", "--t2", "1",
        "--pub", str(d / "pk"), "--sec", str(d / "sk"), "--seed", SEED_A,
    ]) == 0
    (d / "msg").write_bytes(bytes([0x5A, 0xC3, 0x0F, 0x02]))  # 26 plaintext bits
    assert main([
        "encrypt", "--pub", str(d / "pk"), "--in", str(d / "msg"),
        "--out", str(d / "ct"), "--seed", SEED_B,
    ]) == 0
    return {name: (d / name).read_bytes() for name in ("pk", "sk", "msg", "ct")}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_files_keep_exit_code_contract(desk_files, data):
    name = data.draw(st.sampled_from(sorted(desk_files)))
    blob = bytearray(desk_files[name])
    kind = data.draw(st.sampled_from(("overwrite", "truncate", "append")))
    if kind == "overwrite":
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other, content in desk_files.items():
            (d / other).write_bytes(bytes(blob) if other == name else content)
        for argv in (
            ["encrypt", "--pub", str(d / "pk"), "--in", str(d / "msg"),
             "--out", str(d / "ct2"), "--seed", SEED_B],
            ["decrypt", "--sec", str(d / "sk"), "--in", str(d / "ct"),
             "--out", str(d / "back")],
        ):
            assert main(argv) in (0, 2, 4)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(("pk", "sk", "ct")), blob=st.binary(max_size=64))
def test_random_files_keep_exit_code_contract(desk_files, name, blob):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other, content in desk_files.items():
            (d / other).write_bytes(blob if other == name else content)
        for argv in (
            ["encrypt", "--pub", str(d / "pk"), "--in", str(d / "msg"),
             "--out", str(d / "ct2"), "--seed", SEED_B],
            ["decrypt", "--sec", str(d / "sk"), "--in", str(d / "ct"),
             "--out", str(d / "back")],
        ):
            assert main(argv) in (0, 2, 4)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_subcommands_keep_exit_code_contract(data):
    small = st.integers(-1, 20)
    command = data.draw(st.sampled_from(("keygen", "estimate", "dfr", "dfr-target", "attack-demo")))
    r = data.draw(st.sampled_from((-3, 0, 1, 2, 3, 9, 13, 29)))
    weights = [f"--{name}={data.draw(small)}" for name in ("w1", "w2", "t1", "t2")]
    params = [f"--n0={data.draw(st.integers(0, 3))}", f"--r={r}", *weights]
    seed = ["--seed", SEED_A]
    with tempfile.TemporaryDirectory() as tmp:
        if command == "keygen":
            argv = ["keygen", *params, "--pub", f"{tmp}/pk", "--sec", f"{tmp}/sk", *seed]
        elif command == "estimate":
            argv = ["estimate", *params]
        elif command == "dfr":
            # estimate_dfr caps the pool at the trial count, so at most 2 processes
            argv = ["dfr", *params, f"--coordinate={data.draw(st.sampled_from((1, 2)))}",
                    f"--t={data.draw(small)}", f"--trials={data.draw(st.integers(-1, 3))}",
                    f"--workers={data.draw(st.sampled_from((-1, 0, 1, 2)))}", *seed]
        elif command == "dfr-target":
            # budget 10 passes the 10/target precondition at target 1
            argv = ["dfr", *params, f"--target={data.draw(st.sampled_from((-1.0, 0.5, 1.0)))}",
                    f"--budget={data.draw(st.sampled_from((-1, 0, 3, 10)))}", *seed]
        else:
            argv = ["attack-demo", f"--r={r}", *weights,
                    f"--samples={data.draw(st.integers(0, 2))}",
                    f"--stern-iterations={data.draw(st.integers(0, 2))}", *seed]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
            assert code == 2
        assert code in (0, 2, 3, 4)
