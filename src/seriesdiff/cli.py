"""Command-line pipeline: ingest -> train -> sample/augment -> backtest -> report.

Configuration is a flat JSON object of dotted keys merged over built-in
defaults; unknown keys are rejected so typos fail loudly.  Every artifact a
command writes embeds the SHA-256 digest of the resolved configuration, and
nothing written contains a timestamp or machine identity, so a rerun with the
same inputs, config, and seed is byte-identical.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import logging
import math
import sys
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import dataio, evaluate, samplers, scorenet
from .errors import DataError, NumericError, ParameterError
from .schedules import NoiseSchedule, make_linear_schedule, schedule_from_dict

__all__ = ["main", "DEFAULT_CONFIG"]


def _defaults(prefix: str, target: Callable[..., object], **chosen: object) -> dict[str, object]:
    """``target``'s keyword defaults as ``prefix.*`` keys, with ``chosen`` over them."""
    kept = {p.name: p.default for p in inspect.signature(target).parameters.values()
            if p.default is not p.empty and p.name not in ("seed", "n_boards")}
    return {f"{prefix}.{name}": value for name, value in {**kept, **chosen}.items()}


# not settings: seed (--seed sets it), n_boards (the Board width); data and eval map by hand
DEFAULT_CONFIG: dict[str, object] = {
    **_defaults("schedule", make_linear_schedule, steps=400),
    "data.window": 60,
    "data.step": 20,
    "data.ipo_head_days": 5,
    "data.max_interp_gap": 5,
    "data.max_long_gaps": 3,
    "data.max_gap_days": 60,
    "data.train_fraction": 0.8,
    **_defaults("net", scorenet.ScoreNetConfig),
    **_defaults("train", scorenet.TrainConfig, epochs=20),
    **_defaults("sampler", samplers.SamplerConfig, steps=50, num_samples=4,
                lambda_antv=0.03, lambda_bp=0.005),
    "eval.top_k": 20,
}


def load_config(path: str | None) -> dict[str, object]:
    """Defaults overlaid with the JSON file at ``path``; unknown keys rejected."""
    config = dict(DEFAULT_CONFIG)
    if path is None:
        return config
    try:
        overrides = dataio._read_json(path, "config file")
    except DataError as exc:  # a config the run cannot read is a configuration error
        raise ParameterError(str(exc)) from exc
    for key, value in overrides.items():
        if key not in DEFAULT_CONFIG:
            raise ParameterError(f"unknown config key {key!r}")
        default = DEFAULT_CONFIG[key]
        if isinstance(value, bool):
            raise ParameterError(f"config key {key!r} has unsupported boolean value")
        if isinstance(default, int) and not isinstance(value, int):
            raise ParameterError(f"config key {key!r} must be an integer, got {value!r}")
        if isinstance(default, float) and not (
            isinstance(value, (int, float)) and math.isfinite(value)
        ):
            raise ParameterError(f"config key {key!r} must be a finite number, got {value!r}")
        if isinstance(default, str) and not isinstance(value, str):
            raise ParameterError(f"config key {key!r} must be a string, got {value!r}")
        config[key] = float(value) if isinstance(default, float) else value
    return config


def config_digest(config: dict[str, object]) -> str:
    """SHA-256 of the canonical JSON form of the resolved configuration."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(obj: dict, path: Path) -> None:
    with dataio._replacing(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _out_dir(args: argparse.Namespace) -> Path:
    """``--out``, checked before any input is read; its first artifact write creates it."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():  # an existing file, or a path under one
        raise ParameterError(f"--out {out} is not a usable directory: {existing} is a file")
    return out


def _load_model(args: argparse.Namespace) -> tuple[scorenet.ScoreNetworkParams, NoiseSchedule]:
    """The checkpoint and the schedule saved beside it at train time."""
    params = scorenet.load_checkpoint(args.checkpoint)
    path = Path(args.checkpoint).parent / "schedule.json"
    obj = dataio._read_json(path, "schedule file")
    try:
        return params, schedule_from_dict(obj)
    except ParameterError as exc:
        raise DataError(f"schedule file {path} is invalid: {exc}") from exc


def _parse_board(text: str) -> dataio.Board:
    try:
        return dataio.Board(int(text))
    except ValueError:
        pass
    try:
        return dataio.Board[text.upper()]
    except KeyError:
        names = ", ".join(b.name for b in dataio.Board)
        raise ParameterError(f"unknown board {text!r}; expected one of {names}") from None


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParameterError(f"ratio must look like REAL:SYNTH, got {text!r}")
    try:
        real, synth = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParameterError(f"ratio parts must be integers, got {text!r}") from None
    if real < 1 or synth < 0:
        raise ParameterError(f"ratio needs REAL >= 1 and SYNTH >= 0, got {text!r}")
    return real, synth


def _group(config: dict[str, object], prefix: str) -> dict[str, object]:
    """The ``prefix.*`` keys of ``config`` with the prefix stripped."""
    head = prefix + "."
    return {key[len(head):]: value for key, value in config.items() if key.startswith(head)}


def cmd_ingest(args: argparse.Namespace, config: dict[str, object]) -> int:
    out = _out_dir(args)
    records = dataio.read_close_csv(args.csv, n_industries=config["net.n_industries"])
    windows, report = dataio.prepare_windows(
        records,
        length=config["data.window"],
        step=config["data.step"],
        ipo_head_days=config["data.ipo_head_days"],
        max_interp_gap=config["data.max_interp_gap"],
        max_long_gaps=config["data.max_long_gaps"],
        max_gap_days=config["data.max_gap_days"],
    )
    if not windows:
        raise DataError("ingest produced no windows; every record was skipped or too short")
    dataio.write_window_store(windows, out / "windows.jsonl")
    manifest = {"config_digest": config_digest(config), **report}
    _write_json(manifest, out / "manifest.json")
    print(f"wrote {len(windows)} windows to {out / 'windows.jsonl'}")
    return 0


def cmd_train(args: argparse.Namespace, config: dict[str, object]) -> int:
    out = _out_dir(args)
    length = config["data.window"]
    store = dataio.read_window_store(args.store, length, config["net.n_industries"])
    train_split, test_split = dataio.split_train_test(
        store, train_fraction=config["data.train_fraction"]
    )
    windows = np.stack([w.values for w in train_split])
    conditions = [w.condition for w in train_split]
    schedule = make_linear_schedule(**_group(config, "schedule"))
    result = scorenet.train(
        windows,
        conditions,
        schedule,
        scorenet.TrainConfig(seed=args.seed, **_group(config, "train")),
        net_config=scorenet.ScoreNetConfig(input_len=length, **_group(config, "net")),
    )
    digest = config_digest(config)
    scorenet.save_checkpoint(
        result.params,
        out / "checkpoint.json",
        meta={
            "config_digest": digest,
            "seed": args.seed,
            "n_train_windows": len(train_split),
            "n_test_windows": len(test_split),
        },
    )
    with dataio._replacing(out / "schedule.json") as fh:
        fh.write(schedule.to_json() + "\n")
    with dataio._replacing(out / "loss.csv") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(result.epoch_losses, start=1):
            fh.write(f"{epoch},{loss!r}\n")
    print(
        f"trained on {len(train_split)} windows ({len(test_split)} held out); "
        f"checkpoint at {out / 'checkpoint.json'}"
    )
    return 0


def _emit_samples(
    fh,
    result: samplers.SampleResult,
    base: dict,
) -> None:
    for i in range(result.samples.shape[0]):
        obj = {**base, "kind": "sample", "index": i, "values": result.samples[i].tolist()}
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
    obj = {**base, "kind": "mean", "index": None, "values": result.mean.tolist()}
    fh.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_sample(args: argparse.Namespace, config: dict[str, object]) -> int:
    out = _out_dir(args)
    params, schedule = _load_model(args)
    board = None if args.board is None else _parse_board(args.board)
    condition = scorenet.encode_condition(args.industry, board, params)
    cfg = samplers.SamplerConfig(seed=args.seed, **_group(config, "sampler"))
    result = samplers.sample(params, schedule, cfg, condition)
    base = {
        "industry_id": args.industry,
        "board": board.name if board is not None else None,
        "seed": args.seed,
        "config_digest": config_digest(config),
    }
    with dataio._replacing(out / "samples.jsonl") as fh:
        _emit_samples(fh, result, base)
    print(f"wrote {result.samples.shape[0]} samples and their mean to {out / 'samples.jsonl'}")
    return 0


def cmd_augment(args: argparse.Namespace, config: dict[str, object]) -> int:
    out = _out_dir(args)
    board = _parse_board(args.board)
    real, synth = _parse_ratio(args.ratio)
    params, schedule = _load_model(args)
    length = params.config.input_len
    # augmented.jsonl is the store's lines as checked, then the synthetic windows' lines
    with dataio._replacing(out / "augmented.jsonl") as fh:
        store = dataio.read_window_store(args.store, length, params.config.n_industries, copy=fh)
        targets = [w for w in store if w.board == board and not w.synthetic]
        if not targets:
            raise DataError(f"store has no real windows on board {board.name}")
        n_synth = (len(targets) * synth) // real
        cfg = samplers.SamplerConfig(seed=args.seed, **_group(config, "sampler"))
        # --use-mean draws k consecutive rows per synthetic window and averages them
        k = cfg.num_samples if args.use_mean else 1
        donors = [targets[i % len(targets)] for i in range(n_synth) for _ in range(k)]
        rows = samplers.sample_rows(
            params,
            schedule,
            cfg,
            [scorenet.encode_condition(w.industry_id, int(w.board), params) for w in donors],
            sources=[w.values for w in donors] if args.transfer else None,
        )
        values = rows.reshape(n_synth, k, length).mean(axis=1)
        for w, v in zip(donors[::k], values):
            fh.write(dataio._window_line(replace(w, values=v, mean=0.0, scale=1.0, synthetic=True)))
    _write_json(
        {
            "config_digest": config_digest(config),
            "board": board.name,
            "ratio": f"{real}:{synth}",
            "transfer": bool(args.transfer),
            "use_mean": bool(args.use_mean),
            "n_real_board_windows": len(targets),
            "n_synthetic": n_synth,
            "n_total": len(store) + n_synth,
            "seed": args.seed,
        },
        out / "augment_manifest.json",
    )
    print(
        f"added {n_synth} synthetic windows for board {board.name}; "
        f"store at {out / 'augmented.jsonl'}"
    )
    return 0


def _equity_svg(dates: list[str], cumulative: np.ndarray) -> str:
    """Minimal self-contained line chart of the compounded return path."""
    width, height, pad = 640.0, 240.0, 10.0
    y = np.asarray(cumulative, dtype=np.float64)
    lo, hi = float(y.min()), float(y.max())
    span = hi - lo if hi > lo else 1.0
    n = y.shape[0]
    points = []
    for i in range(n):
        px = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        py = height - pad - (height - 2 * pad) * ((y[i] - lo) / span)
        points.append(f"{px:.2f},{py:.2f}")
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.0f} {height:.0f}">'
        f'<title>cumulative return, {dates[0]} to {dates[-1]}</title>'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg>\n'
    )


def cmd_backtest(args: argparse.Namespace, config: dict[str, object]) -> int:
    out = _out_dir(args)
    panel = evaluate.read_panel_csv(args.panel)
    k = config["eval.top_k"]
    result = evaluate.topk_dropk_backtest(panel, k=k)
    summary = evaluate.summarize_backtest(panel, k=k, result=result)
    summary["config_digest"] = config_digest(config)
    _write_json(summary, out / "summary.json")
    with dataio._replacing(out / "backtest.csv") as fh:
        fh.write("date,daily_return,cumulative_rr\n")
        rows = zip(result.dates, result.daily_returns.tolist(), result.cumulative.tolist())
        fh.writelines(f"{date},{r!r},{c!r}\n" for date, r, c in rows)
    with dataio._replacing(out / "equity.svg") as fh:
        fh.write(_equity_svg(result.dates, result.cumulative))
    print(
        f"backtest over {len(result.dates)} dates: cumulative return "
        f"{result.cumulative_return:.4%}, turnover {result.turnover}"
    )
    return 0


def cmd_report(args: argparse.Namespace, config: dict[str, object]) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        raise DataError(f"run directory {run_dir} does not exist")
    out = _out_dir(args) if args.out else run_dir
    report: dict[str, object] = {}
    for section, name in (("ingest", "manifest.json"), ("augment", "augment_manifest.json"),
                          ("backtest", "summary.json")):
        if (run_dir / name).exists():
            report[section] = dataio._read_json(run_dir / name, name)
    if (run_dir / "checkpoint.json").exists():
        report["train"] = scorenet.read_checkpoint_meta(run_dir / "checkpoint.json")
    loss_csv = run_dir / "loss.csv"
    losses = []
    if loss_csv.exists():  # undecodable bytes fail below, in the row that holds them
        with dataio._reading(loss_csv, "loss CSV", errors="replace") as fh:
            for lineno, row in enumerate(fh.read().splitlines()[1:], start=2):
                try:
                    losses.append(float(row.split(",")[1]))
                    if not math.isfinite(losses[-1]):  # report.json is strict JSON
                        raise ValueError
                except (IndexError, ValueError):
                    raise DataError(f"{loss_csv}:{lineno}: malformed loss row {row[:40]!r}") from None
    if losses:
        report["loss"] = {"epochs": len(losses), "first": losses[0], "last": losses[-1]}
    if not report:
        raise DataError(f"no known artifacts found under {run_dir}")
    _write_json(report, out / "report.json")
    for section in sorted(report):
        print(f"{section}: {json.dumps(report[section], sort_keys=True)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:  # a usage error is one typed line, as in main
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seriesdiff",
        description="Synthesize conditioned price windows and measure their value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--config", help="JSON file of dotted config keys")
        if seed:
            p.add_argument("--seed", type=int, required=True, help="random seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("ingest", help="CSV of closes -> repaired, windowed store")
    p.add_argument("csv", help="long-format close CSV")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="fit the denoiser on a window store")
    p.add_argument("store", help="windows.jsonl from ingest or augment")
    common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw windows from a checkpoint")
    p.add_argument("checkpoint", help="checkpoint.json from train")
    p.add_argument("--industry", type=int, help="industry id to condition on")
    p.add_argument("--board", help="board name or id to condition on")
    common(p, seed=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("augment", help="extend a store with synthetic windows")
    p.add_argument("store", help="windows.jsonl to augment")
    p.add_argument("checkpoint", help="checkpoint.json from train")
    p.add_argument("--board", required=True, help="target board name or id")
    p.add_argument("--ratio", required=True, help="REAL:SYNTH windows, e.g. 1:1")
    p.add_argument(
        "--transfer",
        action="store_true",
        help="start each draw from a partially corrupted real window and anchor its spectrum",
    )
    p.add_argument(
        "--use-mean",
        action="store_true",
        help="average sampler.num_samples draws per synthetic window instead of one draw",
    )
    common(p, seed=True)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("backtest", help="top-k rotation on a prediction panel")
    p.add_argument("panel", help="CSV of date,ticker,score,realized_return")
    common(p)
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="merge a run directory's artifacts")
    p.add_argument("run_dir", help="directory holding pipeline outputs")
    p.add_argument("--config", help="JSON file of dotted config keys")
    p.add_argument("--out", help="output directory (default: the run directory)")
    p.set_defaults(func=cmd_report)
    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print ``kind: exc`` as one stderr line of at most 500 characters, each line break
    shown as ``\\n`` or ``\\r``, and return ``code``; a longer line ends in ``[clipped]``."""
    line = f"{kind}: {exc}".replace("\r", "\\r").replace("\n", "\\n")
    print(line if len(line) <= 500 else line[:490] + " [clipped]", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    try:  # every non-finite result raises NumericError, so numpy's warnings add nothing
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return args.func(args, load_config(args.config))
    except SystemExit as exc:  # --help
        return exc.code
    except ParameterError as exc:
        return _fail("configuration error", exc, 2)
    except DataError as exc:
        return _fail("data error", exc, 3)
    except NumericError as exc:
        return _fail("numeric error", exc, 4)


if __name__ == "__main__":
    sys.exit(main())
