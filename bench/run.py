"""Seeded benchmark of the seriesdiff command-line verbs.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One run generates its inputs from the seed (the set-up, timed and repeated
before and after the timed phase), runs the workload's verbs in a closed loop
with one client for the given seconds in a worker process, checks every
artifact, and prints a detailed report followed by one JSON result line.
Slices of fixed reference work (``reference.py``) interrupt every set-up and
untraced verb run, so that their times are reported at a fixed host speed.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.
``bench/README.md`` explains the workloads, the metrics and how steady they
are.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so it is pinned before any
# import that loads numpy; the worker process inherits the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from inputs import Plan, Size, make_plan, write_panel_csv, write_prices_csv  # noqa: E402
from reference import UNIT_S, Reference  # noqa: E402
from worker import run_verb  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Whole-run limit; the worker is stopped if it would overrun it.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not measure anything (missing program, crashed worker)."""


# ---------------------------------------------------------------- workloads

FULL_PRICES = Size(
    n_days=750,
    boards={"MAIN": 150, "CHINEXT": 60, "STAR": 50, "BSE": 40},
    n_excluded_long=3,
    n_excluded_wide=3,
    interp_gaps=120,
    ffill_gaps=40,
)
# sample_ancestral only needs a checkpoint; the network's shape, and so the
# sampling cost, does not depend on how many windows trained it.
SMALL_PRICES = Size(
    n_days=750,
    boards={"MAIN": 12, "CHINEXT": 6, "STAR": 6, "BSE": 6},
    n_excluded_long=1,
    n_excluded_wide=1,
    interp_gaps=12,
    ffill_gaps=4,
)
TINY_PRICES = Size(
    n_days=150,
    boards={"MAIN": 4, "CHINEXT": 2, "STAR": 3, "BSE": 2},
    n_excluded_long=1,
    n_excluded_wide=1,
    interp_gaps=4,
    ffill_gaps=2,
    window=30,
    step=15,
)
# Smoke-mode network and schedule, the size of the byte-identity acceptance test.
TINY_CONFIG = {
    "schedule.steps": 60,
    "schedule.beta_start": 1e-3,
    "schedule.beta_end": 0.04,
    "net.width": 16,
    "net.blocks": 1,
    "net.time_dim": 8,
    "net.embed_dim": 4,
    "net.cond_hidden": 8,
    "train.epochs": 1,
    "train.batch_size": 32,
    "sampler.steps": 12,
    "sampler.num_samples": 3,
    "eval.top_k": 5,
}


@dataclass(frozen=True)
class Workload:
    name: str
    prices: Size
    config: dict
    setup_verbs: tuple[str, ...]
    timed_verbs: tuple[str, ...]
    panel: bool = False
    ratio: str = "20:1"
    # Set-up repetitions before and after the timed phase; setup_s is their median.
    setups: tuple[int, int] = (2, 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline",
            FULL_PRICES,
            {"train.epochs": 2},
            setup_verbs=(),
            timed_verbs=("ingest", "train", "backtest", "report"),
            panel=True,
            setups=(3, 3),
        ),
        # The checkpoint is trained for one epoch only: augment's cost depends on
        # the network's shape, not on its weights, and set-up is a third shorter.
        Workload(
            "augment_transfer",
            FULL_PRICES,
            {"train.epochs": 1},
            setup_verbs=("ingest", "train"),
            timed_verbs=("augment",),
            setups=(1, 2),
        ),
        Workload(
            "sample_ancestral",
            SMALL_PRICES,
            {
                "train.epochs": 2,
                "sampler.mode": "ddpm",
                "sampler.steps": 400,
                "sampler.eta": 1.0,
                "sampler.num_samples": 24,
                "sampler.lambda_antv": 0.0,
            },
            setup_verbs=("ingest", "train"),
            timed_verbs=("sample",),
            setups=(3, 3),
        ),
    )
}


def tiny(wl: Workload) -> Workload:
    """The smoke-mode variant: same verbs and checks, seconds instead of minutes."""
    config = {**wl.config, **TINY_CONFIG}
    if config.get("sampler.mode") == "ddpm":
        config["sampler.steps"] = config["schedule.steps"]
    return replace(wl, prices=TINY_PRICES, config=config, ratio="8:1", setups=(1, 1))


def run_config(wl: Workload) -> dict:
    s = wl.prices
    data = {
        "data.window": s.window,
        "data.step": s.step,
        "data.ipo_head_days": s.ipo_head_days,
        "data.max_interp_gap": s.max_interp_gap,
        "data.max_long_gaps": s.max_long_gaps,
        "data.max_gap_days": s.max_gap_days,
    }
    return {**data, **wl.config}


VERB_ARGV = {
    "ingest": ["ingest", "{inp}/prices.csv"],
    "train": ["train", "{out}/windows.jsonl", "--seed", "{seed}"],
    "backtest": ["backtest", "{inp}/panel.csv"],
    "report": ["report", "{out}"],
    "augment": [
        "augment", "{inp}/windows.jsonl", "{inp}/checkpoint.json",
        "--board", "STAR", "--ratio", "{ratio}", "--transfer", "--seed", "{seed}",
    ],
    "sample": [
        "sample", "{inp}/checkpoint.json",
        "--industry", "{industry}", "--board", "{board}", "--seed", "{seed}",
    ],
}
VERB_ARTIFACTS = {
    "generate": ("prices.csv", "panel.csv", "config.json"),
    "ingest": ("windows.jsonl", "manifest.json"),
    "train": ("checkpoint.json", "schedule.json", "loss.csv"),
    "backtest": ("summary.json", "backtest.csv", "equity.svg"),
    "report": ("report.json",),
    "augment": ("augmented.jsonl", "augment_manifest.json"),
    "sample": ("samples.jsonl",),
}


def verb_argv(verb: str, fields: dict) -> list[str]:
    template = VERB_ARGV[verb] + ["--config", "{inp}/config.json", "--out", "{out}"]
    out = []
    for arg in template:
        for key, value in fields.items():
            arg = arg.replace("{" + key + "}", str(value))
        out.append(arg)
    return out


def condition_of(plan: Plan) -> tuple[int, str]:
    """The sample verb's condition: the first STAR ticker's industry, on STAR."""
    star = next(t for t in plan.tickers if plan.boards[t] == "STAR")
    return plan.industries[star], "STAR"


# ---------------------------------------------------------------- metrics

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
VERBS = ("ingest", "train", "backtest", "report", "augment", "sample")
PER_LAYER_UNITS = {
    **{f"cli.{v}.{k}": "s" for v in VERBS for k in ("s", "self_s")},
    "dataio.read_close_csv.s": "s",
    "dataio.read_close_csv.rows": "count",
    "dataio.prepare_windows.s": "s",
    "dataio.prepare_windows.windows": "count",
    "dataio.prepare_windows.kept_ratio": "ratio",
    "dataio.write_window_store.s": "s",
    "dataio.write_window_store.mb": "MiB",
    "dataio.read_window_store.s": "s",
    "dataio.read_window_store.windows": "count",
    "scorenet.dsm_loss.calls": "count",
    "scorenet.dsm_loss.s": "s",
    "scorenet.dsm_loss.us_per_row": "us",
    "scorenet.train.self_s": "s",
    "scorenet.save_checkpoint.s": "s",
    "scorenet.predict_eps.calls": "count",
    "scorenet.predict_eps.s": "s",
    "scorenet.predict_eps.us_per_call": "us",
    "scorenet.forward.mflop_per_row": "MFLOP",
    "scorenet.load_checkpoint.s": "s",
    "scorenet.checkpoint.mb": "MiB",
    "samplers.sample_one.calls": "count",
    "samplers.sample_one.s": "s",
    "samplers.sample_one.self_s": "s",
    "samplers.guided_eps.calls": "count",
    "samplers.evals_per_step": "ratio",
    "regularizers.antv_step.calls": "count",
    "regularizers.antv_step.s": "s",
    "regularizers.antv_step.us_per_call": "us",
    "regularizers.bp_grad_step.calls": "count",
    "regularizers.bp_grad_step.s": "s",
    "evaluate.read_panel_csv.s": "s",
    "evaluate.read_panel_csv.rows": "count",
    "evaluate.topk_dropk_backtest.calls": "count",
    "evaluate.topk_dropk_backtest.s": "s",
    "evaluate.summarize_backtest.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
MIB = 1024.0 * 1024.0


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(layers: dict, mflop_per_row: float) -> dict[str, float]:
    """Per-layer numbers of one traced iteration (overhead ratio added by the caller)."""
    spans, counts = layers["spans"], layers["counts"]

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def count(key: str) -> float:
        return counts.get(key, 0)

    m: dict[str, float] = {}
    for v in VERBS:
        m[f"cli.{v}.s"] = get(f"cli.{v}", "s")
        m[f"cli.{v}.self_s"] = get(f"cli.{v}", "self_s")
    for name in (
        "dataio.read_close_csv", "dataio.prepare_windows", "dataio.write_window_store",
        "dataio.read_window_store", "scorenet.dsm_loss", "scorenet.save_checkpoint",
        "scorenet.predict_eps", "scorenet.load_checkpoint", "samplers.sample_one",
        "regularizers.antv_step", "regularizers.bp_grad_step", "evaluate.read_panel_csv",
        "evaluate.topk_dropk_backtest",
    ):
        m[f"{name}.s"] = get(name, "s")
    for name in (
        "scorenet.dsm_loss", "scorenet.predict_eps", "samplers.sample_one",
        "samplers.guided_eps", "regularizers.antv_step", "regularizers.bp_grad_step",
        "evaluate.topk_dropk_backtest",
    ):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("scorenet.train", "samplers.sample_one", "evaluate.summarize_backtest"):
        m[f"{name}.self_s"] = get(name, "self_s")
    for key in ("dataio.read_close_csv.rows", "dataio.prepare_windows.windows",
                "dataio.read_window_store.windows", "evaluate.read_panel_csv.rows"):
        m[key] = count(key)
    m["dataio.prepare_windows.kept_ratio"] = _ratio(
        count("dataio.prepare_windows.records_windowed"), count("dataio.prepare_windows.records")
    )
    m["dataio.write_window_store.mb"] = count("dataio.write_window_store.bytes") / MIB
    m["scorenet.dsm_loss.us_per_row"] = _ratio(
        m["scorenet.dsm_loss.s"], count("scorenet.dsm_loss.rows"), 1e6
    )
    m["scorenet.predict_eps.us_per_call"] = _ratio(
        m["scorenet.predict_eps.s"], m["scorenet.predict_eps.calls"], 1e6
    )
    m["scorenet.forward.mflop_per_row"] = mflop_per_row
    checkpoint_calls = get("scorenet.save_checkpoint", "calls") + get("scorenet.load_checkpoint", "calls")
    checkpoint_bytes = count("scorenet.save_checkpoint.bytes") + count("scorenet.load_checkpoint.bytes")
    m["scorenet.checkpoint.mb"] = _ratio(checkpoint_bytes, checkpoint_calls) / MIB
    m["samplers.evals_per_step"] = _ratio(
        m["scorenet.predict_eps.calls"], m["samplers.guided_eps.calls"]
    )
    m["regularizers.antv_step.us_per_call"] = _ratio(
        m["regularizers.antv_step.s"], m["regularizers.antv_step.calls"], 1e6
    )
    return m


def forward_mflop_per_row(checkpoint: Path) -> float:
    """Computed, not measured: 2 flops per weight of every matrix a conditioned
    row passes through in one forward (the embedding lookup excluded)."""
    from seriesdiff import scorenet

    params = scorenet.load_checkpoint(checkpoint)
    weights = sum(
        params.view(name).size
        for name in params.names()
        if name != "embed" and params.view(name).ndim == 2
    )
    return 2.0 * weights / 1e6


def unit_s(run: dict) -> float:
    """Seconds per reference unit while one verb run or set-up ran."""
    return run["ref_s"] / run["ref_units"]


def norm_s(run: dict) -> float:
    """One verb run or set-up in seconds of a host on which a reference unit
    takes the nominal ``UNIT_S`` (``reference.py``)."""
    return run["s"] * UNIT_S / unit_s(run)


def median_wall(iterations: list[dict], verbs: tuple[str, ...], value) -> float:
    """Sum over the verbs of each verb's median ``value(run)``."""
    return sum(
        statistics.median(value(x) for it in iterations for x in it["verbs"] if x["verb"] == v)
        for v in verbs
    )


def summarize(samples: list[float]) -> dict:
    """n, minimum, median and the highest percentile with ten samples above it."""
    xs = sorted(samples)
    n = len(xs)
    out: dict = {"n": n, "min": xs[0] if xs else None,
                 "median": statistics.median(xs) if xs else None, "tail": None}
    if n > 20:
        out["tail"] = {"percentile": 100.0 * (n - 10) / n, "value": xs[n - 11]}
    out["samples"] = samples
    return out


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


class Checker:
    """Output checks of every operation, run after the timed phase."""

    def __init__(self, wl: Workload, plan: Plan, config: dict, inputs: Path) -> None:
        self.wl, self.plan, self.config, self.inputs = wl, plan, config, inputs
        real, synth = (int(x) for x in wl.ratio.split(":"))
        self.n_synthetic = plan.kept_windows_per_board.get("STAR", 0) * synth // real
        self.ran: set[str] = set()
        self._oracle_rr: float | None = None
        self._first: dict[tuple[str, str], dict[str, str]] = {}

    def check_all(self, ops: list[dict]) -> list[str]:
        """Check every operation; returns one line per failed operation."""
        self.ran.add("exit_code")
        failures = []
        for op in ops:
            if op["rc"] != 0:
                problem = f"exit {op['rc']}: {op['error']}"
            else:
                try:
                    self.check(op["phase"], op["verb"], op["dir"])
                    continue
                except (CheckFailed, OSError, KeyError, ValueError) as exc:
                    problem = f"{type(exc).__name__}: {exc}"
            failures.append(f"{op['phase']} {op['verb']} in {op['dir'].name}: {problem}")
        return failures

    def check(self, phase: str, verb: str, out: Path) -> None:
        self.ran.add(f"{verb}.output")
        getattr(self, f"_check_{verb}")(out)
        self._same_bytes(phase, verb, out)

    def first_digests(self, phase: str, verb: str) -> dict[str, str]:
        return self._first.get((phase, verb), {})

    def _same_bytes(self, phase: str, verb: str, out: Path) -> None:
        """Artifacts must be byte-identical to the first run of the same step."""
        names = [n for n in VERB_ARTIFACTS[verb] if n != "panel.csv" or self.wl.panel]
        digests = {n: sha256(out / n) for n in names}
        self.ran.add("determinism")
        first = self._first.setdefault((phase, verb), digests)
        _require(digests == first, f"{verb} artifacts differ from the first run: "
                 f"{sorted(n for n in set(first) | set(digests) if first.get(n) != digests.get(n))}")

    def _check_generate(self, out: Path) -> None:
        _require((out / "prices.csv").exists(), "prices.csv was not written")
        _require((out / "panel.csv").exists() == self.wl.panel, "panel.csv presence is wrong")

    def _check_ingest(self, out: Path) -> None:
        m = _json(out / "manifest.json")
        plan = self.plan
        _require(m["n_records"] == len(plan.tickers), f"n_records {m['n_records']}")
        _require(m["n_windows"] == plan.n_windows, f"n_windows {m['n_windows']} != {plan.n_windows}")
        _require(sorted(s["ticker"] for s in m["skipped"]) == plan.excluded,
                 "skipped tickers differ from the excluded ones")
        _require(m["gaps"] == {"interpolated": plan.n_interp, "forward_filled": plan.n_ffill},
                 f"gap counts {m['gaps']}")
        _require(m["windows_per_board"] == plan.kept_windows_per_board,
                 f"windows per board {m['windows_per_board']}")
        with (out / "windows.jsonl").open() as fh:
            _require(sum(1 for _ in fh) == plan.n_windows, "windows.jsonl line count")

    def _check_train(self, out: Path) -> None:
        from seriesdiff import scorenet

        lines = (out / "loss.csv").read_text().splitlines()[1:]
        losses = [float(ln.split(",")[1]) for ln in lines]
        _require(len(losses) == self.config["train.epochs"], f"{len(losses)} loss rows")
        _require(all(math.isfinite(x) for x in losses), "non-finite loss")
        meta = scorenet.read_checkpoint_meta(out / "checkpoint.json")
        _require(meta["n_train_windows"] + meta["n_test_windows"] == self.plan.n_windows,
                 "checkpoint window counts")

    def _check_backtest(self, out: Path) -> None:
        summary = _json(out / "summary.json")
        if self._oracle_rr is None:
            self._oracle_rr = oracle_cumulative_rr(self.inputs / "panel.csv", self.config)
        rr = summary["cumulative_rr"]
        _require(math.isclose(rr, self._oracle_rr, rel_tol=1e-9, abs_tol=1e-12),
                 f"cumulative_rr {rr!r} != oracle {self._oracle_rr!r}")
        _require(summary["n_dates"] == len(self.plan.dates)
                 and summary["n_tickers"] == len(self.plan.tickers), "panel shape")

    def _check_report(self, out: Path) -> None:
        report = _json(out / "report.json")
        _require(set(report) == {"ingest", "train", "loss", "backtest"},
                 f"report sections {sorted(report)}")

    def _check_augment(self, out: Path) -> None:
        m = _json(out / "augment_manifest.json")
        _require(m["n_synthetic"] == self.n_synthetic,
                 f"n_synthetic {m['n_synthetic']} != {self.n_synthetic}")
        _require(m["n_total"] == self.plan.n_windows + self.n_synthetic, f"n_total {m['n_total']}")
        with (out / "augmented.jsonl").open() as fh:
            _require(sum(1 for _ in fh) == m["n_total"], "augmented.jsonl line count != n_total")

    def _check_sample(self, out: Path) -> None:
        rows = [json.loads(ln) for ln in (out / "samples.jsonl").read_text().splitlines()]
        n = self.config["sampler.num_samples"]
        _require(len(rows) == n + 1, f"{len(rows)} rows, expected {n + 1}")
        values = np.array([r["values"] for r in rows], dtype=np.float64)
        _require(values.shape == (n + 1, self.wl.prices.window), f"values shape {values.shape}")
        _require(bool(np.all(np.isfinite(values))), "non-finite sample values")
        _require([r["kind"] for r in rows] == ["sample"] * n + ["mean"], "row kinds")
        _require(np.array_equal(values[:n].mean(axis=0), values[n]),
                 "mean row is not the mean of the draws")


def oracle_cumulative_rr(panel_csv: Path, config: dict) -> float:
    """Compounded return of the brute-force oracle on the panel as written."""
    from seriesdiff import oracles
    from seriesdiff.cli import DEFAULT_CONFIG

    cells: dict[tuple[str, str], tuple[float, float]] = {}
    with panel_csv.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for date, ticker, score, ret in reader:
            cells[(date, ticker)] = (float(score), float(ret))
    dates = sorted({d for d, _ in cells})
    tickers = sorted({t for _, t in cells})
    grid = np.array([[cells[(d, t)] for t in tickers] for d in dates])
    k = int(config.get("eval.top_k", DEFAULT_CONFIG["eval.top_k"]))
    _, _, rr = oracles.reference_topk_backtest(dates, tickers, grid[..., 0], grid[..., 1], k)
    return rr


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------- environment


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a library we can ask."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead of returning
        blas = {}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "nproc": nproc,
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------- one run


def import_program():
    """Import seriesdiff from this checkout's src/, never from anywhere else."""
    if not (SRC / "seriesdiff" / "cli.py").is_file():
        raise BenchError(f"{SRC / 'seriesdiff'} is missing; run from a seriesdiff checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import seriesdiff.cli

    if Path(seriesdiff.cli.__file__).resolve().parent != (SRC / "seriesdiff").resolve():
        raise BenchError(f"imported seriesdiff from {seriesdiff.cli.__file__}, not {SRC}")
    return seriesdiff.cli.main


def set_up(
    wl: Workload, seed: int, work: Path, cli_main, reference: Reference, first: int, count: int
) -> tuple[list[dict], Plan, list[dict]]:
    """Generate the inputs and build what the timed verbs read, ``count`` times.

    Repetition ``k`` writes to ``work/setup<k>``, for ``k`` from ``first``.
    Reference slices interrupt each repetition (``reference.py``).  Returns
    one record per repetition (its seconds and slices), the input plan and
    one operation per step; the timed phase reads ``work/setup0``.
    """
    config = run_config(wl)
    reps, ops = [], []

    def build(d: Path) -> Plan:
        plan = make_plan(seed, wl.prices)
        write_prices_csv(plan, d / "prices.csv")
        if wl.panel:
            write_panel_csv(plan, d / "panel.csv")
        (d / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n")
        ops.append({"phase": "setup", "verb": "generate", "dir": d, "rc": 0, "error": None})
        for verb in wl.setup_verbs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc, error = run_verb(cli_main, verb_argv(verb, verb_fields(wl, seed, plan, d, d)))
            ops.append({"phase": "setup", "verb": verb, "dir": d, "rc": rc, "error": error})
            if rc != 0:
                raise BenchError(f"set-up {verb} failed (exit {rc}): {error}")
        return plan

    for k in range(first, first + count):
        d = work / f"setup{k}"
        d.mkdir()
        plan, took, _, units, ref_s = reference.measure(build, d)
        reps.append({"s": took, "ref_units": units, "ref_s": ref_s})
    return reps, plan, ops


def verb_fields(wl: Workload, seed: int, plan: Plan, inputs: Path, out) -> dict:
    industry, board = condition_of(plan)
    return {"inp": inputs, "out": out, "seed": seed, "ratio": wl.ratio,
            "industry": industry, "board": board}


def time_verbs(spec: dict, work: Path, timeout: float) -> list[dict]:
    """Run the worker process on ``spec``; returns its iterations."""
    (work / "worker_spec.json").write_text(json.dumps(spec))
    log_path = work / "worker.log"
    with log_path.open("w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(work / "worker_spec.json")],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker overran the {DEADLINE_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{log_path.read_text()[-3000:]}")
    return _json(Path(spec["result"]))["iterations"]


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (detailed report, result line)."""
    t_start = time.perf_counter()
    cli_main = import_program()
    env = environment()
    if env["blas_threads_reported"] not in (None, BLAS_THREADS):
        raise BenchError(f"BLAS runs {env['blas_threads_reported']} threads, not {BLAS_THREADS}")
    work = ROOT / ".bench_work" / f"{wl.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_path = ROOT / ".bench_out" / f"trace-{wl.name}-seed{seed}.jsonl" if trace else None
    reference = Reference()
    reference.run(10)  # warm-up, not recorded
    try:
        before, after = wl.setups
        setups, plan, ops = set_up(wl, seed, work, cli_main, reference, 0, before)
        inputs = work / "setup0"
        if spans_path:
            spans_path.parent.mkdir(exist_ok=True)
        spec = {
            "src": str(SRC),
            "work": str(work),
            "seconds": seconds,
            "min_iterations": 2,
            "trace": trace,
            "verbs": [[v, verb_argv(v, verb_fields(wl, seed, plan, inputs, "{out}"))]
                      for v in wl.timed_verbs],
            "result": str(work / "worker_result.json"),
            "spans_path": str(spans_path) if spans_path else None,
        }
        # Leave room for the set-ups after the timed phase, at twice the slowest
        # so far with its reference slices.
        reserve = 2.0 * after * max(r["s"] + r["ref_s"] for r in setups)
        iterations = time_verbs(
            spec, work, max(DEADLINE_S - reserve - (time.perf_counter() - t_start), 5.0)
        )
        ops += [{"phase": "timed", "verb": v["verb"], "dir": Path(it["out"]),
                 "rc": v["rc"], "error": v["error"]}
                for it in iterations for v in it["verbs"]]
        # More set-ups after the timed phase, so that one slow spell of the
        # host does not cover every repetition.
        more, _, more_ops = set_up(wl, seed, work, cli_main, reference, before, after)
        setups += more
        ops += more_ops

        # Output checks, outside every timed region.
        checker = Checker(wl, plan, run_config(wl), inputs)
        failures = checker.check_all(ops)
        checkpoint = inputs if wl.setup_verbs else Path(iterations[0]["out"])
        mflop = 0.0 if failures else forward_mflop_per_row(checkpoint / "checkpoint.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [it for it in iterations if all(v["rc"] == 0 for v in it["verbs"])]
    untraced = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    values: dict[str, float] = {}
    if trace:
        units = PER_LAYER_UNITS
        if traced and untraced:
            # Layers of one iteration, so that they add up to its wall time.
            fastest = min(traced, key=lambda it: it["wall_s"])
            values = layer_metrics(fastest["layers"], mflop)
            values["trace.overhead_ratio"] = (
                median_wall(traced, wl.timed_verbs, lambda x: x["s"])
                / median_wall(untraced, wl.timed_verbs, lambda x: x["s"])
            )
    else:
        units = END_TO_END_UNITS
        if untraced:
            values = {
                "wall_norm_s": median_wall(untraced, wl.timed_verbs, norm_s),
                "setup_s": statistics.median(norm_s(r) for r in setups),
                "peak_rss_mb": iterations[0]["peak_rss_mb"],
            }
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    result = {
        "correct": not failures and len(metrics) == len(units),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }

    def verb_samples(value) -> dict:
        return {v: summarize([value(x) for it in untraced for x in it["verbs"] if x["verb"] == v])
                for v in wl.timed_verbs}

    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, one client, verbs in-process one after another",
        "environment": env,
        "inputs_sha256": checker.first_digests("setup", "generate"),
        "artifacts_sha256": {v: checker.first_digests("timed", v) for v in wl.timed_verbs},
        "setup_s": summarize([r["s"] for r in setups]),
        "setup_norm_s": summarize([norm_s(r) for r in setups]),
        "iteration_s": summarize([it["wall_s"] for it in untraced]),
        "verb_s": verb_samples(lambda x: x["s"]),
        "verb_norm_s": verb_samples(norm_s),
        "verb_cpu_s": verb_samples(lambda x: x["cpu_s"]),
        "verb_reference_unit_s": verb_samples(unit_s),
        "setup_reference_unit_s": summarize([unit_s(r) for r in setups]),
        "nominal_unit_s": UNIT_S,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "traced_counts": [it["layers"]["counts"] for it in traced],
        "peak_rss_mb": [it["peak_rss_mb"] for it in iterations],
        "error_rate": len(failures) / len(ops),
        "checks_run": sorted(checker.ran),
        "failures": failures,
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    return detail, result


# ---------------------------------------------------------------- smoke


def smoke() -> int:
    """Every workload once at a tiny size, untraced and traced; checks the printout."""
    spec = _json(ROOT / "BENCHMARK.json")
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    _require_same(declared[False], END_TO_END_UNITS, "end_to_end", problems)
    _require_same(declared[True], PER_LAYER_UNITS, "per_layer", problems)
    _require_same({w["name"]: None for w in spec["workloads"]},
                  {w: None for w in WORKLOADS}, "workloads", problems)
    for wl in WORKLOADS.values():
        expected_checks = {"exit_code", "determinism", "generate.output",
                           *(f"{v}.output" for v in wl.setup_verbs + wl.timed_verbs)}
        for trace in (False, True):
            t0 = time.perf_counter()
            detail, result = run(tiny(wl), seed=0, seconds=0.0, trace=trace)
            metrics = result["metrics"]
            label = f"{wl.name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: failures {detail['failures']}")
            got = {k: v["unit"] for k, v in metrics.items()}
            _require_same(declared[trace], got, label, problems)
            if not all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in metrics.values()):
                problems.append(f"{label}: a metric value is not a finite number")
            missing = expected_checks - set(detail["checks_run"])
            if missing:
                problems.append(f"{label}: checks not run: {sorted(missing)}")
            print(f"smoke {label}: {len(metrics)} metrics, checks {detail['checks_run']}, "
                  f"{time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def _require_same(want: dict, got: dict, label: str, problems: list[str]) -> None:
    if want != got:
        diff = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
        problems.append(f"{label}: names or units differ from BENCHMARK.json: {diff}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        detail, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail, indent=1, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
