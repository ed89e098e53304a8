"""End-to-end command behavior: artifacts, validation, exit codes."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from seriesdiff import cli
from seriesdiff.cli import DEFAULT_CONFIG, config_digest, load_config, main
from seriesdiff import NumericError, read_panel_csv, read_window_store, topk_dropk_backtest
from conftest import trading_days, write_panel_csv

# small but honest settings so train/sample stay fast
FAST = {
    "schedule.steps": 30,
    "schedule.beta_start": 1e-3,
    "schedule.beta_end": 0.05,
    "data.window": 30,
    "data.step": 20,
    "net.width": 8,
    "net.blocks": 1,
    "net.time_dim": 4,
    "net.embed_dim": 4,
    "net.cond_hidden": 8,
    "train.epochs": 2,
    "train.batch_size": 16,
    "sampler.steps": 10,
    "sampler.num_samples": 2,
    "eval.top_k": 3,
}
# what a store must fit under FAST: read_window_store's length and industry count
FIT = (FAST["data.window"], DEFAULT_CONFIG["net.n_industries"])


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST))
    return str(path)


def _run(*argv) -> int:
    return main([str(a) for a in argv])


def test_load_config_defaults_and_overrides(fast_config):
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    cfg = load_config(fast_config)
    assert cfg["data.window"] == 30
    assert cfg["data.step"] == 20
    assert cfg["sampler.guidance"] == 7.5  # untouched default survives


def test_readme_config_table_lists_exactly_the_default_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = []
    for group, keys in re.findall(r"^\| ([a-z]+) \| (.+) \|$", readme, flags=re.M):
        listed += [(f"{group}.{key}", json.loads(value))
                   for key, value in re.findall(r"`([a-z_]+)` \(([^;)]*)", keys)]
    assert len(listed) == len(dict(listed))
    assert dict(listed) == DEFAULT_CONFIG  # the listed defaults too, each of its type
    assert all(type(value) is type(DEFAULT_CONFIG[key]) for key, value in listed)


def test_load_config_rejects_junk(tmp_path, capsys):
    from seriesdiff import ParameterError

    p = tmp_path / "c.json"
    p.write_text('{"data.windom": 30}')
    with pytest.raises(ParameterError, match="windom"):
        load_config(str(p))
    p.write_text('{"sampler.antv_alpha": 1.0}')  # removed key: lambda_antv sets the strength
    with pytest.raises(ParameterError, match="antv_alpha"):
        load_config(str(p))
    p.write_text('{"data.window": "wide"}')
    with pytest.raises(ParameterError):
        load_config(str(p))
    p.write_text('{"data.window": true}')
    with pytest.raises(ParameterError):
        load_config(str(p))
    p.write_text("[1, 2]")
    with pytest.raises(ParameterError):
        load_config(str(p))
    p.write_bytes(b'{"data.window": 30}\xff')  # not UTF-8
    with pytest.raises(ParameterError, match="c.json"):
        load_config(str(p))
    with pytest.raises(ParameterError, match="config file"):
        load_config(str(tmp_path))  # a directory
    for key, value in (("sampler.lambda_antv", "NaN"), ("sampler.lambda_bp", "Infinity"),
                       ("sampler.guidance", "-Infinity"), ("data.window", "NaN"),
                       ("train.learning_rate", "1" + "0" * 400)):  # too large for a float
        p.write_text(f'{{"{key}": {value}}}')  # Python's json reads these
        with pytest.raises(ParameterError, match=key):
            load_config(str(p))
        capsys.readouterr()
        assert main(["report", str(tmp_path), "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config key '{key}' ") and err.count("\n") == 1
    # an integer too long for Python to parse is a file it cannot read
    p.write_text('{"train.learning_rate": ' + "1" * 5000 + "}")
    with pytest.raises(ParameterError, match="cannot read config file"):
        load_config(str(p))


def test_config_digest_is_content_addressed():
    a = config_digest(DEFAULT_CONFIG)
    b = config_digest(dict(DEFAULT_CONFIG))
    assert a == b and len(a) == 64
    mutated = dict(DEFAULT_CONFIG, **{"eval.top_k": 21})
    assert config_digest(mutated) != a


def test_ingest_writes_store_and_manifest(tmp_path, prices_csv, fast_config):
    out = tmp_path / "run"
    assert _run("ingest", prices_csv, "--config", fast_config, "--out", out) == 0
    store = read_window_store(out / "windows.jsonl", *FIT)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_windows"] == len(store)
    # 180 days - 5 IPO head = 175 -> (175-30)//20+1 = 8 windows per ticker
    assert manifest["n_windows"] == 8 * 8
    assert manifest["gaps"] == {"interpolated": 1, "forward_filled": 1}
    assert manifest["config_digest"] == config_digest(load_config(fast_config))


def test_full_pipeline_and_exit_codes(tmp_path, prices_csv, fast_config):
    run = tmp_path / "run"
    assert _run("ingest", prices_csv, "--config", fast_config, "--out", run) == 0
    assert (
        _run("train", run / "windows.jsonl", "--config", fast_config,
             "--seed", 5, "--out", run)
        == 0
    )
    assert (out := run / "checkpoint.json").exists()
    assert (run / "schedule.json").exists()
    loss_lines = (run / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "epoch,loss"
    assert len(loss_lines) == 1 + FAST["train.epochs"]

    # conditional sampling with the trained checkpoint
    assert (
        _run("sample", out, "--config", fast_config, "--seed", 9,
             "--industry", 7, "--board", "CHINEXT", "--out", run)
        == 0
    )
    lines = [json.loads(l) for l in (run / "samples.jsonl").read_text().splitlines()]
    kinds = [l["kind"] for l in lines]
    assert kinds == ["sample"] * FAST["sampler.num_samples"] + ["mean"]
    assert all(len(l["values"]) == FAST["data.window"] for l in lines)
    assert lines[0]["board"] == "CHINEXT"

    # augment 1:1 on one board
    assert (
        _run("augment", run / "windows.jsonl", out, "--config", fast_config,
             "--seed", 11, "--board", "MAIN", "--ratio", "1:1", "--out", run)
        == 0
    )
    augmented = read_window_store(run / "augmented.jsonl", *FIT)
    am = json.loads((run / "augment_manifest.json").read_text())
    n_main = sum(1 for w in read_window_store(run / "windows.jsonl", *FIT)
                 if w.board.name == "MAIN")
    assert am["n_synthetic"] == n_main
    assert len(augmented) == am["n_total"]
    synth = [w for w in augmented if w.synthetic]
    assert len(synth) == n_main
    assert all(w.board.name == "MAIN" for w in synth)
    assert all((w.mean, w.scale) == (0.0, 1.0) for w in synth)

    # backtest on a panel, then merge everything into a report
    panel = tmp_path / "panel.csv"
    write_panel_csv(panel)
    assert _run("backtest", panel, "--config", fast_config, "--out", run) == 0
    summary = json.loads((run / "summary.json").read_text())
    assert summary["top_k"] == 3
    # every data cell is a plain decimal number equal to the backtest's own value
    result = topk_dropk_backtest(read_panel_csv(panel), top_k=FAST["eval.top_k"])
    rows = [line.split(",") for line in (run / "backtest.csv").read_text().splitlines()]
    assert rows[0] == ["date", "daily_return", "cumulative_rr"]
    assert [r[0] for r in rows[1:]] == result.dates
    assert [float(r[1]) for r in rows[1:]] == result.daily_returns.tolist()
    assert [float(r[2]) for r in rows[1:]] == result.cumulative.tolist()
    assert (run / "equity.svg").read_text().startswith("<svg")

    assert _run("report", run) == 0
    report = json.loads((run / "report.json").read_text())
    assert set(report) == {"ingest", "train", "augment", "loss", "backtest"}
    assert report["train"]["seed"] == 5
    assert report["loss"]["epochs"] == FAST["train.epochs"]
    # main reads --config for every verb, report included
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert _run("report", run, "--config", bad) == 2


def test_sample_flag_validation(tmp_path, prices_csv, fast_config, capsys):
    run = tmp_path / "run"
    _run("ingest", prices_csv, "--config", fast_config, "--out", run)
    _run("train", run / "windows.jsonl", "--config", fast_config, "--seed", 1, "--out", run)
    ckpt = run / "checkpoint.json"
    # either half of the (--industry, --board) pair alone is a usage error, as is an id off the net
    pair = ("configuration error: a condition needs an industry and a board: give both "
            "(--industry with --board) or neither\n")
    for flags, err in ((("--industry", 7), pair), (("--board", "STAR"), pair),
                       (("--industry", 999, "--board", "STAR"),
                        "configuration error: industry_id 999 outside [0, 124) at position 0\n")):
        capsys.readouterr()
        assert _run("sample", ckpt, "--config", fast_config, "--seed", 2, *flags,
                    "--out", run) == 2
        assert capsys.readouterr().err == err
    # unconditional sampling demands guidance 0 (default config has 7.5)
    assert _run("sample", ckpt, "--config", fast_config, "--seed", 2, "--out", run) == 2
    # missing seed
    assert _run("sample", ckpt, "--config", fast_config,
                "--industry", 7, "--board", "0", "--out", run) == 2

    uncond = tmp_path / "uncond.json"
    uncond.write_text(json.dumps(dict(FAST, **{"sampler.guidance": 0.0})))
    assert _run("sample", ckpt, "--config", uncond, "--seed", 2, "--out", run) == 0


def test_exit_codes_for_broken_inputs(tmp_path, fast_config, capsys):
    missing = tmp_path / "nope.csv"
    err = _data_error(capsys, "ingest", missing, "--config", fast_config, "--out", tmp_path / "o")
    assert err.count(str(missing)) == 1
    assert not (tmp_path / "o").exists()  # --out appears with its first artifact
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"no.such.key": 1}')
    assert _run("ingest", missing, "--config", bad_cfg, "--out", tmp_path / "o") == 2
    assert _run("report", tmp_path / "empty_dir") == 3


def test_verbs_accept_only_the_flags_they_read(tmp_path, capsys):
    # argparse rejects each of these before any file is read
    out = ("--out", tmp_path / "o")
    cases = [
        (("ingest", "p.csv", "--seed", 1, *out), "unrecognized arguments: --seed"),
        (("backtest", "panel.csv", "--seed", 1, *out), "unrecognized arguments: --seed"),
        (("report", tmp_path, "--seed", 1), "unrecognized arguments: --seed"),
        (("sample", "c.json", "--seed", 1, "--schedule", "X", *out),
         "unrecognized arguments: --schedule"),
        (("augment", "w.jsonl", "c.json", "--seed", 1, "--board", "MAIN", "--ratio", "1:1",
          "--schedule", "X", *out), "unrecognized arguments: --schedule"),
        (("train", "w.jsonl", *out), "required: --seed"),
        (("sample", "c.json", *out), "required: --seed"),
        (("augment", "w.jsonl", "c.json", "--board", "MAIN", "--ratio", "1:1", *out),
         "required: --seed"),
    ]
    for argv, message in cases:
        capsys.readouterr()
        assert _run(*argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    assert not (tmp_path / "o").exists()


def test_augment_ratio_validation(tmp_path, prices_csv, fast_config):
    run = tmp_path / "run"
    _run("ingest", prices_csv, "--config", fast_config, "--out", run)
    _run("train", run / "windows.jsonl", "--config", fast_config, "--seed", 1, "--out", run)
    ckpt = run / "checkpoint.json"
    for bad in ("1", "0:1", "1:-1", "a:b"):
        assert _run("augment", run / "windows.jsonl", ckpt, "--config", fast_config,
                    "--seed", 3, "--board", "MAIN", "--ratio", bad, "--out", run) == 2
    # a board with no windows in the store is a data error
    assert _run("augment", run / "windows.jsonl", ckpt, "--config", fast_config,
                "--seed", 3, "--board", "ST", "--ratio", "1:1", "--out", run) == 3


def test_ingest_is_byte_identical_across_runs(tmp_path, prices_csv, fast_config):
    a, b = tmp_path / "a", tmp_path / "b"
    _run("ingest", prices_csv, "--config", fast_config, "--out", a)
    _run("ingest", prices_csv, "--config", fast_config, "--out", b)
    for name in ("windows.jsonl", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _trained_run(tmp_path, prices_csv, fast_config):
    run = tmp_path / "run"
    _run("ingest", prices_csv, "--config", fast_config, "--out", run)
    _run("train", run / "windows.jsonl", "--config", fast_config, "--seed", 1, "--out", run)
    return run


def _augment(run, fast_config, out, board, ratio, *flags) -> list:
    assert _run("augment", run / "windows.jsonl", run / "checkpoint.json",
                "--config", fast_config, "--seed", 4, "--board", board,
                "--ratio", ratio, *flags, "--out", out) == 0
    return [w for w in read_window_store(out / "augmented.jsonl", *FIT) if w.synthetic]


def test_augment_is_byte_identical_and_prefix_stable(tmp_path, prices_csv, fast_config):
    run = _trained_run(tmp_path, prices_csv, fast_config)
    a, b, wide = tmp_path / "a", tmp_path / "b", tmp_path / "wide"
    one = _augment(run, fast_config, a, "MAIN", "1:1", "--transfer")
    _augment(run, fast_config, b, "MAIN", "1:1", "--transfer")
    for name in ("augmented.jsonl", "augment_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    # synthetic window i is draw i of the seed, whatever the ratio
    two = _augment(run, fast_config, wide, "MAIN", "1:2", "--transfer")
    assert len(two) == 2 * len(one)
    for x, y in zip(one, two):
        assert (x.ticker, x.start_date) == (y.ticker, y.start_date)
        assert np.array_equal(x.values, y.values)


def test_failed_artifact_write_keeps_the_old_file(tmp_path, prices_csv, fast_config, monkeypatch,
                                                  capsys):
    run = _trained_run(tmp_path, prices_csv, fast_config)
    taken = tmp_path / "taken"  # a directory where the artifact goes
    (taken / "samples.jsonl").mkdir(parents=True)
    argv = ("sample", run / "checkpoint.json", "--config", fast_config, "--seed", 2,
            "--industry", 7, "--board", "STAR", "--out")
    err = _data_error(capsys, *argv, taken)
    assert err.startswith(f"data error: cannot write {taken / 'samples.jsonl'}: ")
    assert [p.name for p in taken.iterdir()] == ["samples.jsonl"]

    out = tmp_path / "sampled"
    argv = (*argv, out)
    assert _run(*argv) == 0
    before = (out / "samples.jsonl").read_bytes()

    def broken(fh, result, base):
        fh.write('{"half": ')
        raise RuntimeError("write failed")

    monkeypatch.setattr(cli, "_emit_samples", broken)
    with pytest.raises(RuntimeError):
        _run(*argv)
    assert (out / "samples.jsonl").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["samples.jsonl"]


def test_augment_use_mean_averages_consecutive_draws(tmp_path, prices_csv, fast_config):
    # every BSE fixture ticker is in industry 99, so all draws share one condition
    # and --use-mean window i must average plain draws i*k .. i*k+k-1
    run = _trained_run(tmp_path, prices_csv, fast_config)
    k = FAST["sampler.num_samples"]
    plain = _augment(run, fast_config, tmp_path / "plain", "BSE", f"1:{k}")
    mean = _augment(run, fast_config, tmp_path / "mean", "BSE", "1:1", "--use-mean")
    assert len(plain) == k * len(mean) > 0
    draws = np.stack([w.values for w in plain]).reshape(len(mean), k, -1)
    for i, w in enumerate(mean):
        assert np.array_equal(w.values, draws[i].mean(axis=0))
    _augment(run, fast_config, tmp_path / "again", "BSE", "1:1", "--use-mean")
    assert ((tmp_path / "mean" / "augmented.jsonl").read_bytes()
            == (tmp_path / "again" / "augmented.jsonl").read_bytes())


def _untrained_run(tmp_path, prices_csv):
    # train.epochs 0 saves the initial parameters and a header-only loss.csv
    config = tmp_path / "zero_epochs.json"
    config.write_text(json.dumps(dict(FAST, **{"train.epochs": 0})))
    run = tmp_path / "run"
    assert _run("ingest", prices_csv, "--config", config, "--out", run) == 0
    assert _run("train", run / "windows.jsonl", "--config", config,
                "--seed", 1, "--out", run) == 0
    return run, config


def _data_error(capsys, *argv) -> str:
    """Run a command that must fail as a data error; return its one stderr line."""
    capsys.readouterr()
    assert _run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    return err


def test_report_without_loss_rows_has_no_loss_section(tmp_path, prices_csv):
    run, _ = _untrained_run(tmp_path, prices_csv)
    assert (run / "loss.csv").read_text() == "epoch,loss\n"
    assert _run("report", run) == 0
    report = json.loads((run / "report.json").read_text())
    assert set(report) == {"ingest", "train"}


def test_report_corrupt_artifact_is_a_data_error(tmp_path, prices_csv, panel_csv, capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    assert _run("backtest", panel_csv, "--config", config, "--out", run) == 0
    (run / "augment_manifest.json").write_text(json.dumps({"board": "MAIN"}))
    assert _run("report", run) == 0
    for name in ("manifest.json", "augment_manifest.json", "summary.json"):
        good = (run / name).read_text()
        (run / name).write_text(good[: len(good) // 2])
        assert name in _data_error(capsys, "report", run)
        (run / name).write_text(good)
    for row in (b"1,abc", b"1,\xff", b"1,nan", b"1,inf"):
        (run / "loss.csv").write_bytes(b"epoch,loss\n" + row + b"\n")
        assert "loss.csv:2" in _data_error(capsys, "report", run)
    (run / "loss.csv").unlink()
    (run / "loss.csv").mkdir()
    assert "loss.csv" in _data_error(capsys, "report", run)
    (run / "loss.csv").rmdir()
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    (run / "checkpoint.json").write_text(json.dumps(dict(checkpoint, meta=[1])))
    assert "checkpoint.json" in _data_error(capsys, "report", run)


def test_report_refuses_an_artifact_that_holds_a_non_finite_number(tmp_path, prices_csv,
                                                                    panel_csv, capsys):
    # report.json is strict JSON, so a NaN or an Infinity read from an artifact stops the merge
    run, config = _untrained_run(tmp_path, prices_csv)
    assert _run("backtest", panel_csv, "--config", config, "--out", run) == 0
    (run / "augment_manifest.json").write_text(json.dumps({"board": "MAIN"}))
    checkpoint = json.loads((run / "checkpoint.json").read_text())
    checkpoint["meta"] = {"loss": float("inf")}
    for name, junk in (("manifest.json", '{"n_windows": NaN, "x": Infinity}'),
                       ("augment_manifest.json", '{"board": "MAIN", "ratio": [1, -Infinity]}'),
                       ("summary.json", '{"turnover": 7, "mean_ic": NaN}'),
                       ("checkpoint.json", json.dumps(checkpoint))):
        good = (run / name).read_text()
        (run / name).write_text(junk)
        err = _data_error(capsys, "report", run)
        assert err == f"data error: {run / name} holds a non-finite number\n"
        assert not (run / "report.json").exists()
        (run / name).write_text(good)
    assert _run("report", run) == 0
    json.loads((run / "report.json").read_text(), parse_constant=pytest.fail)  # strict JSON


def test_sample_with_a_corrupt_model_is_a_data_error(tmp_path, prices_csv, capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    argv = ("sample", run / "checkpoint.json", "--config", config, "--seed", 2,
            "--industry", 7, "--board", "STAR", "--out", tmp_path / "sampled")
    assert _run(*argv) == 0

    schedule = json.loads((run / "schedule.json").read_text())
    (run / "schedule.json").write_text(
        json.dumps(dict(schedule, beta=schedule["beta"][::-1]))
    )
    assert "schedule.json" in _data_error(capsys, *argv)
    (run / "schedule.json").unlink()
    assert "schedule.json" in _data_error(capsys, *argv)
    (run / "schedule.json").write_text(json.dumps(schedule))

    checkpoint = json.loads((run / "checkpoint.json").read_text())
    checkpoint["config"]["width"] = 0
    (run / "checkpoint.json").write_text(json.dumps(checkpoint))
    assert "checkpoint.json" in _data_error(capsys, *argv)


def test_unreadable_inputs_are_data_errors(tmp_path, prices_csv, panel_csv, capsys):
    # a directory, or a file holding a byte that is not UTF-8, in place of each input
    run, config = _untrained_run(tmp_path, prices_csv)
    opts = ("--config", config, "--out", tmp_path / "o")
    verbs = [
        (prices_csv, lambda p: ("ingest", p, *opts)),
        (run / "windows.jsonl", lambda p: ("train", p, "--seed", 1, *opts)),
        (run / "windows.jsonl", lambda p: ("augment", p, run / "checkpoint.json", "--seed", 1,
                                           "--board", "MAIN", "--ratio", "1:1", *opts)),
        (panel_csv, lambda p: ("backtest", p, *opts)),
    ]
    bad = tmp_path / "bad"
    for good, argv in verbs:
        bad.write_bytes(Path(good).read_bytes() + b"\xff\n")
        assert _data_error(capsys, *argv(bad)).count(str(bad)) == 1
        bad.unlink()
        bad.mkdir()
        assert _data_error(capsys, *argv(bad)).count(str(bad)) == 1
        bad.rmdir()


def test_ingest_and_backtest_open_every_file_as_utf8(tmp_path, prices_csv, panel_csv,
                                                     fast_config):
    # an open() that leaves the encoding to the locale warns under warn_default_encoding,
    # and the warning filter turns that into a failed run
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for verb, path in (("ingest", prices_csv), ("backtest", panel_csv)):
        argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                "-m", "seriesdiff.cli", verb, path, "--config", fast_config,
                "--out", tmp_path / "run"]
        done = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode(errors="replace")


DEEP = "[" * 200_000 + "]" * 200_000  # nested past the JSON parser's recursion limit


@pytest.mark.parametrize("target", ["config", "checkpoint", "schedule", "manifest", "store"])
def test_too_deeply_nested_json_is_a_typed_error(tmp_path, prices_csv, capsys, target):
    run, config = _untrained_run(tmp_path, prices_csv)
    sample = ("sample", run / "checkpoint.json", "--config", config, "--seed", 2,
              "--industry", 7, "--board", "STAR", "--out", tmp_path / "o")
    path, argv = {
        "config": (tmp_path / "deep.json", ("ingest", prices_csv, "--config",
                                            tmp_path / "deep.json", "--out", tmp_path / "o")),
        "checkpoint": (run / "checkpoint.json", sample),
        "schedule": (run / "schedule.json", sample),
        "manifest": (run / "manifest.json", ("report", run)),
        "store": (run / "windows.jsonl", ("train", run / "windows.jsonl", "--config", config,
                                          "--seed", 1, "--out", tmp_path / "o")),
    }[target]
    path.write_text(DEEP + "\n")
    capsys.readouterr()
    assert _run(*argv) == (2 if target == "config" else 3)
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " if target == "config" else "data error: ")
    assert f"{path}" in err and "maximum recursion depth exceeded" in err and err.count("\n") == 1


@pytest.mark.parametrize("verb, header", [("ingest", "date,ticker,close,industry_id"),
                                          ("backtest", "date,ticker,score,realized_return")],
                         ids=["close", "panel"])
def test_a_cell_past_the_csv_field_limit_is_a_data_error(tmp_path, fast_config, capsys, verb,
                                                         header):
    # an unterminated quote runs its cell on past the csv module's 131,072-character limit
    path = tmp_path / "input.csv"
    path.write_text(f'{header}\n2021-01-04,600000,"{"1" * 140_000},1\n')
    err = _data_error(capsys, verb, path, "--config", fast_config, "--out", tmp_path / "o")
    assert err.startswith(f"data error: {path}:2: field larger than")
    path.write_text(f'"{"1" * 140_000}\n')  # in the header, line 1
    err = _data_error(capsys, verb, path, "--config", fast_config, "--out", tmp_path / "o")
    assert err.startswith(f"data error: {path}:1: field larger than")


def test_store_industry_ids_outside_the_net_are_data_errors(tmp_path, prices_csv, capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    lines = (run / "windows.jsonl").read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    store = tmp_path / "ids.jsonl"
    # augment checks the whole store it copies, not only the windows of its board
    other = "BSE" if first["board"] != "BSE" else "MAIN"
    for industry_id in (124, -1, 500):  # net.n_industries is 124 in config and checkpoint
        store.write_text(json.dumps(dict(first, industry_id=industry_id)) + "\n"
                         + "".join(lines[1:]))
        assert "ids.jsonl:1:" in _data_error(capsys, "train", store, "--config", config,
                                             "--seed", 1, "--out", tmp_path / "o")
        for board in (first["board"], other):
            assert "ids.jsonl:1:" in _data_error(capsys, "augment", store,
                                                 run / "checkpoint.json", "--config", config,
                                                 "--seed", 1, "--board", board, "--ratio",
                                                 "1:1", "--out", tmp_path / "o")
        assert not (tmp_path / "o").exists()


def _augment_argv(store, run, config, out, ratio="1:1"):
    return ("augment", store, run / "checkpoint.json", "--config", config, "--seed", 1,
            "--board", "MAIN", "--ratio", ratio, "--out", out)


def test_augment_copies_the_store_lines_as_read(tmp_path, prices_csv):
    # augmented.jsonl starts with the store's non-blank lines, stripped, not re-encoded
    run, config = _untrained_run(tmp_path, prices_csv)
    lines = (run / "windows.jsonl").read_text().splitlines()
    first, second, third = (json.loads(line) for line in lines[:3])
    given = [
        json.dumps(dict(reversed(first.items()))),  # keys in another order
        json.dumps(dict(second, mean=1)),  # an integer mean
        json.dumps({k: v for k, v in third.items() if k != "synthetic"}),
        "   " + lines[3] + " \t",
        "",
        *lines[4:],
    ]
    store = tmp_path / "hand.jsonl"
    store.write_text("\n".join(given))  # and no final newline
    out = tmp_path / "aug"
    assert _run(*_augment_argv(store, run, config, out)) == 0
    text = (out / "augmented.jsonl").read_text()
    assert text.startswith("".join(line.strip() + "\n" for line in given if line.strip()))
    n_total = json.loads((out / "augment_manifest.json").read_text())["n_total"]
    assert text.endswith("\n") and text.count("\n") == n_total


def test_failed_augment_leaves_the_old_output(tmp_path, prices_csv, capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    store = tmp_path / "bad.jsonl"
    lines = (run / "windows.jsonl").read_text().splitlines(keepends=True)
    store.write_text("".join(lines) + '{"ticker": "600000"')  # the last line is cut short
    out = tmp_path / "prev"
    out.mkdir()
    (out / "augmented.jsonl").write_bytes(b"old\n")
    err = _data_error(capsys, *_augment_argv(store, run, config, out))
    assert f"bad.jsonl:{len(lines) + 1}: malformed window record" in err
    assert (out / "augmented.jsonl").read_bytes() == b"old\n"
    assert [p.name for p in out.iterdir()] == ["augmented.jsonl"]  # no temporary left


def test_failed_augment_leaves_no_new_out(tmp_path, prices_csv, monkeypatch, capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    store = tmp_path / "bad.jsonl"
    store.write_text((run / "windows.jsonl").read_text() + "not json\n")
    out = tmp_path / "a" / "b" / "c"
    assert _run(*_augment_argv(run / "windows.jsonl", run, config, out, ratio="1:x")) == 2
    assert "bad.jsonl:" in _data_error(capsys, *_augment_argv(store, run, config, out))
    assert not (tmp_path / "a").exists()

    def fails(*args, **kwargs):
        raise NumericError("sampler state is non-finite")

    monkeypatch.setattr(cli.samplers, "sample_rows", fails)
    assert _run(*_augment_argv(run / "windows.jsonl", run, config, out)) == 4
    assert not (tmp_path / "a").exists()


def test_augment_of_a_store_without_a_window_fails_and_leaves_no_new_out(tmp_path, prices_csv,
                                                                        capsys):
    run, config = _untrained_run(tmp_path, prices_csv)
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n  \n\t\n")
    off = tmp_path / "off.jsonl"  # no real window on MAIN: the MAIN lines marked synthetic
    off.write_text("".join(
        json.dumps(dict(obj, synthetic=True)) + "\n" if obj["board"] == "MAIN" else line
        for line in (run / "windows.jsonl").read_text().splitlines(keepends=True)
        for obj in [json.loads(line)]))
    out = tmp_path / "a" / "b"
    err = _data_error(capsys, *_augment_argv(blank, run, config, out))
    assert f"window store {blank} is empty" in err
    assert not (tmp_path / "a").exists()
    err = _data_error(capsys, *_augment_argv(off, run, config, out))
    assert "store has no real windows on board MAIN" in err
    assert not (tmp_path / "a").exists()


# Growth of augment's tracemalloc peak per store window off the target board, at window length
# 30.  augment holds the board's real windows and streams the rest: 5 bytes measured with numpy
# 2.4 on Python 3.11, where holding every window of the store measured 654.  Not to be raised.
AUGMENT_PEAK_BYTES_PER_OFF_BOARD_WINDOW = 64


def test_augment_peak_memory_does_not_grow_with_the_rest_of_the_store(tmp_path, prices_csv):
    run, config = _untrained_run(tmp_path, prices_csv)
    lines = (run / "windows.jsonl").read_text().splitlines(keepends=True)
    star = [line for line in lines if json.loads(line)["board"] == "STAR"]
    rest = [line for line in lines if json.loads(line)["board"] != "STAR"]
    peaks, few, many = [], 2, 42
    for copies in (1, few, many):  # the first run only warms imports and caches
        store = tmp_path / f"store{copies}.jsonl"
        store.write_text("".join(star + rest * copies))
        argv = [*_augment_argv(store, run, config, tmp_path / f"out{copies}")]
        argv[argv.index("--board") + 1] = "STAR"
        tracemalloc.start()
        try:
            assert _run(*argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = (peaks[2] - peaks[1]) / ((many - few) * len(rest))
    assert growth <= AUGMENT_PEAK_BYTES_PER_OFF_BOARD_WINDOW, f"{growth:.1f} bytes per window"


LONG = "x" * 5000
WINDOW = {"ticker": "600000", "start_date": "2021-01-04", "values": [0.0] * 30, "mean": 0.0,
          "scale": 1.0, "industry_id": 7, "board": "MAIN", "synthetic": False}


@pytest.mark.parametrize("verb, text", [
    ("ingest", f"date,ticker,close,industry_id\n2021-01-04,600000,{LONG},7"),
    ("ingest", f"date,ticker,close,industry_id\n2021-01-04,600000,10.5,{LONG}"),
    ("ingest", f"date,ticker,close,industry_id\n2021-01-04,{'6' * 5000},10.5,7"),
    ("config", json.dumps({"data.window": LONG})),
    ("config", json.dumps({LONG: 1})),
    ("train", json.dumps(dict(WINDOW, board=LONG))),
    ("train", json.dumps(dict(WINDOW, industry_id=int("9" * 400)))),
    ("train", json.dumps(dict(WINDOW, ticker="600\n000", values=[float("nan")] * 30))),
    ("backtest", 'date,ticker,score,realized_return\n' + '2022-03-01,"60\n01",0.1,0.01\n' * 2),
    ("usage", ""),
], ids=["close", "industry", "ticker", "config-value", "config-key", "store-board",
        "store-industry-id", "store-ticker-newline", "panel-ticker-newline",
        "unrecognized-argument"])
def test_each_typed_error_is_one_bounded_line(tmp_path, fast_config, capsys, verb, text):
    # long cells, keys and ids, and line breaks in tickers, all reach the message
    path = tmp_path / "input"
    path.write_text(text + "\n")
    argv = {"train": ("train", path, "--seed", 1), "backtest": ("backtest", path),
            "usage": ("ingest", path, LONG)}
    config = path if verb == "config" else fast_config
    capsys.readouterr()
    code = _run(*argv.get(verb, ("ingest", path)), "--config", config, "--out", tmp_path / "o")
    err = capsys.readouterr().err
    assert code == (2 if verb in ("config", "usage") else 3)
    assert err.count("\n") == 1 and "\r" not in err and len(err.rstrip("\n")) <= 500


def test_out_that_is_not_a_directory_is_a_flag_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    verbs = [("ingest", "p.csv"), ("train", "w.jsonl", "--seed", 1),
             ("sample", "c.json", "--seed", 1), ("backtest", "panel.csv"), ("report", tmp_path),
             ("augment", "w.jsonl", "c.json", "--seed", 1, "--board", "MAIN", "--ratio", "1:1")]
    for out in (blocker, blocker / "sub"):
        for argv in verbs:
            capsys.readouterr()
            assert _run(*argv, "--out", out) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("configuration error: --out") and err.count("\n") == 1


# numpy's warnings must not reach stderr ahead of the one typed line
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_sampler_state_is_a_numeric_error(tmp_path, prices_csv, capsys):
    run, _ = _untrained_run(tmp_path, prices_csv)
    config = tmp_path / "strong.json"
    config.write_text(json.dumps(dict(FAST, **{"sampler.lambda_antv": 1e308})))
    capsys.readouterr()
    assert _run("sample", run / "checkpoint.json", "--config", config, "--seed", 2,
                "--industry", 7, "--board", "STAR", "--out", tmp_path / "s") == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and err.count("\n") == 1


# returns of 1e200 compound past the float range over 3 dates; on one date the squares of
# their spread overflow the variance of the correlation
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dates, text", [
    (3, "compounded return is non-finite from 2022-03-02 on"),
    (1, "a correlation is non-finite"),
], ids=["compounded-return", "correlation"])
def test_overflowing_panel_is_a_numeric_error(tmp_path, fast_config, capsys, dates, text):
    panel = tmp_path / "panel.csv"
    panel.write_text("date,ticker,score,realized_return\n" + "".join(
        f"2022-03-0{d + 1},T{j},{j},{j + 1}e200\n" for d in range(dates) for j in range(4)))
    capsys.readouterr()
    assert _run("backtest", panel, "--config", fast_config, "--out", tmp_path / "o" / "p") == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {text}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("verb", ["train", "sample", "augment"])
def test_a_negative_seed_is_a_configuration_error_and_leaves_no_new_out(tmp_path, prices_csv,
                                                                        capsys, verb):
    run, config = _untrained_run(tmp_path, prices_csv)
    store, checkpoint = run / "windows.jsonl", run / "checkpoint.json"
    argv = {"train": ("train", store),
            "sample": ("sample", checkpoint, "--industry", 7, "--board", "CHINEXT"),
            "augment": ("augment", store, checkpoint, "--board", "STAR", "--ratio", "1:1")}[verb]
    capsys.readouterr()
    assert _run(*argv, "--seed", -1, "--config", config, "--out", tmp_path / "a" / "b") == 2
    assert capsys.readouterr().err == "configuration error: seed -1 outside [0, inf)\n"
    assert not (tmp_path / "a").exists()


# each is checked when the sampler config is built, even with its correction switched off
@pytest.mark.parametrize("overrides, message", [
    ({"sampler.lambda_bp": 0.0, "sampler.band_low": 5, "sampler.band_high": 5},
     "band_high 5 outside [6, inf)"),
    ({"sampler.lambda_antv": 0.0, "sampler.antv_sigma": 0.0}, "antv_sigma 0.0 outside (0, inf)"),
], ids=["empty-band", "zero-antv-sigma"])
def test_a_bad_correction_setting_is_a_configuration_error_with_the_correction_off(
        tmp_path, prices_csv, capsys, overrides, message):
    run, _ = _untrained_run(tmp_path, prices_csv)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(dict(FAST, **overrides)))
    capsys.readouterr()
    assert _run("sample", run / "checkpoint.json", "--config", config, "--seed", 2, "--industry",
                7, "--board", "STAR", "--out", tmp_path / "s") == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("case", ["ingest-without-windows", "report-without-artifacts",
                                  "unknown-board", "non-string-config-value", "help"])
def test_exit_codes_the_readme_states(tmp_path, fast_config, capsys, case):
    short = tmp_path / "short.csv"  # one ticker with fewer rows than a window
    short.write_text("date,ticker,close,industry_id\n" + "".join(
        f"{day},600000,10.0,1\n" for day in trading_days("2021-01-04", 10)))
    (tmp_path / "empty").mkdir()
    config = tmp_path / "activation.json"
    config.write_text(json.dumps({"net.activation": 1}))
    out = ("--out", tmp_path / "o")
    argv, code, message = {
        "ingest-without-windows": (("ingest", short, "--config", fast_config, *out), 3,
                                   "data error: ingest produced no windows"),
        "report-without-artifacts": (("report", tmp_path / "empty"), 3,
                                     f"data error: no known artifacts found under {tmp_path}"),
        "unknown-board": (("augment", "w.jsonl", "c.json", "--seed", 1, "--board", "NYSE",
                           "--ratio", "1:1", *out), 2,
                          "configuration error: unknown board 'NYSE'; expected one of MAIN,"),
        "non-string-config-value": (("ingest", short, "--config", config, *out), 2,
                                    "configuration error: config key 'net.activation' must be "
                                    "a string, got 1"),
        "help": (("--help",), 0, None),
    }[case]
    capsys.readouterr()
    assert _run(*argv) == code
    captured = capsys.readouterr()
    if message is None:
        assert captured.out.startswith("usage: seriesdiff") and not captured.err
    else:
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert not (tmp_path / "o").exists() and not any((tmp_path / "empty").iterdir())
