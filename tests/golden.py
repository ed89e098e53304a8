"""Golden outputs: the bytes and numbers of today's sampler draws and tiny pipeline, and how
to rebuild them.

``tests/golden.json`` records, for each sampler case below, the sha256 of the
output array's little-endian float64 bytes and the numbers themselves, and for
each artifact of criterion 10's tiny ``ingest``, ``train``, ``sample``,
``augment --transfer``, ``backtest`` and ``report`` its sha256 and its content
with every number parsed, together
with the environment they were recorded under and the tolerances at which
``tests/test_golden.py`` compares the numbers.  The numbers are compared
always; the sha256 values only where the environment matches, since another
numpy or BLAS build may round differently.

A change that moves these outputs on purpose reruns this script and says so
in CHANGES.md; the file is never edited by hand, and a stated tolerance is
never widened.  Run from the root of a checkout:

    PYTHONPATH=src python tests/golden.py
"""
from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from seriesdiff import (
    SamplerConfig,
    ScoreNetConfig,
    init_params,
    make_linear_schedule,
    sample_rows,
)
from seriesdiff.cli import main as cli_main
from conftest import write_panel_csv, write_prices_csv
from test_acceptance import PIPELINE_CONFIG

GOLDEN = Path(__file__).with_name("golden.json")

# Absolute tolerance per case group.  For sample_rows: the largest change of
# any drawn number when every weight of a case's network moves by one ulp up
# or down, measured when the file was first recorded (4.6e-14 over all cases,
# numpy 2.4.6, OpenBLAS 0.3.31 SkylakeX), rounded up to a power of ten.
# For the pipeline: ingest and backtest make no BLAS call, so their numbers
# move only when the code does.  For augment's synthetic values: the largest
# change of any of them when every weight of the trained checkpoint moves by
# one ulp up or down (6.7e-16 over eight such moves, same environment as
# above), rounded up to a power of ten; its copied store lines and its
# manifest are compared exactly.  For train's checkpoint arrays and loss.csv
# (and the loss in report.json): the largest change of any of them when every
# initial weight moves by one ulp up or down, all up, all down and six seeded
# mixes (2.2e-16 on the arrays; the losses, near 10, did not move), same
# environment, rounded up; its config, meta and schedule.json are compared
# exactly.  For sample's rows: the largest change when every weight of the
# trained checkpoint moves by one ulp, over the same eight moves (4.4e-15),
# rounded up.
TOLERANCE = {"sample_rows": 1e-13, "pipeline": 1e-12, "augment": 1e-15, "train": 1e-15,
             "sample": 1e-14}

# criterion 10's artifacts by verb; equity.svg is checked by its bytes alone
INGEST_BACKTEST_ARTIFACTS = ("windows.jsonl", "manifest.json", "summary.json", "backtest.csv",
                             "equity.svg")
TRAIN_ARTIFACTS = ("checkpoint.json", "schedule.json", "loss.csv")
AUGMENT_ARTIFACTS = ("augmented.jsonl", "augment_manifest.json")
PIPELINE_ARTIFACTS = (*INGEST_BACKTEST_ARTIFACTS, *TRAIN_ARTIFACTS, "samples.jsonl",
                      *AUGMENT_ARTIFACTS, "report.json")
# criterion 10's sample run, and an augment run on its trained checkpoint: a tenth of the
# store is on STAR
SAMPLE_ARGV = ("--seed", "9", "--industry", "7", "--board", "CHINEXT")
AUGMENT_ARGV = ("--seed", "9", "--board", "STAR", "--ratio", "1:1", "--transfer")


def environment() -> dict:
    """What the recorded bytes depend on: numpy, the BLAS build and kernel, the machine."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead of returning
        blas = {}
    core = None  # the kernel OpenBLAS picked for this CPU, when numpy bundles one
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None and core is None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                core = fn().decode()
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_core": core,
        "machine": platform.machine(),
    }


def _network(activation: str, seed: int):
    cfg = ScoreNetConfig(input_len=6, width=8, blocks=2, time_dim=4, embed_dim=3,
                         cond_hidden=5, n_industries=4, activation=activation)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    # every weight non-zero, so no layer is the zero map of a fresh network
    return params.with_values(params.values + 0.3 * rng.standard_normal(params.n_params))


def sampler_cases() -> dict[str, np.ndarray]:
    """Each golden ``sample_rows`` draw by name, as a (rows, L) array."""
    schedule = make_linear_schedule(20, 1e-3, 0.2)
    silu = _network("silu", 7)
    conds = [(i % 4, i % 5) for i in range(9)]
    donors = np.cumsum(np.random.default_rng(8).standard_normal((9, 6)), axis=1)
    ddim = SamplerConfig(mode="ddim", steps=7, eta=0.5, guidance=3.0, lambda_antv=0.05,
                         antv_window=1, lambda_bp=0.05, band_low=0, band_high=2, seed=11)
    relu = _network("relu", 9)
    return {
        "ddpm_guided": sample_rows(silu, schedule, SamplerConfig(mode="ddpm", guidance=2.0, seed=3),
                                   conds),
        "ddim_donors_smoothing_anchor": sample_rows(silu, schedule, ddim, conds, donors),
        "ddim_relu_unconditional": sample_rows(
            relu, schedule, SamplerConfig(mode="ddim", steps=5, eta=1.0, guidance=0.0, seed=4),
            [None] * 3),
    }


def pipeline_artifacts(root: Path) -> dict[str, bytes]:
    """Run criterion 10's tiny ``ingest``, ``train``, ``sample``, ``augment --transfer``,
    ``backtest`` and ``report`` under ``root``; each artifact's bytes."""
    prices, panel, config, out = (root / name for name in
                                  ("prices.csv", "panel.csv", "config.json", "run"))
    write_prices_csv(prices)
    write_panel_csv(panel)
    config.write_text(json.dumps(PIPELINE_CONFIG))
    store, checkpoint = str(out / "windows.jsonl"), str(out / "checkpoint.json")
    for argv in (["ingest", str(prices)], ["train", store, "--seed", "5"],
                 ["sample", checkpoint, *SAMPLE_ARGV],
                 ["augment", store, checkpoint, *AUGMENT_ARGV], ["backtest", str(panel)]):
        assert cli_main(argv + ["--out", str(out), "--config", str(config)]) == 0
    assert cli_main(["report", str(out), "--config", str(config)]) == 0
    return {name: (out / name).read_bytes() for name in PIPELINE_ARTIFACTS}


def artifact_values(name: str, data: bytes):
    """An artifact's content as JSON values with its numbers parsed, or None for equity.svg.

    Of augmented.jsonl only the synthetic windows: its other lines copy windows.jsonl."""
    text = data.decode()
    if name.endswith(".jsonl"):
        records = [json.loads(line) for line in text.splitlines()]
        return [r for r in records if r["synthetic"]] if name == "augmented.jsonl" else records
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        header, *rows = csv.reader(text.splitlines())
        return [header] + [[date, *map(float, cells)] for date, *cells in rows]
    return None


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = pipeline_artifacts(Path(tmp))
    return {
        "about": "sample_rows draws on small seeded networks and criterion 10's ingest, "
                 "train, sample, augment, backtest and report artifacts; rebuilt by "
                 "`PYTHONPATH=src python tests/golden.py`, never edited by hand",
        "environment": environment(),
        "tolerance": TOLERANCE,
        "sample_rows": {
            name: {"sha256": digest(rows), "values": rows.tolist()}
            for name, rows in sampler_cases().items()
        },
        "pipeline": {
            name: {"sha256": hashlib.sha256(data).hexdigest(),
                   "values": artifact_values(name, data)}
            for name, data in artifacts.items()
        },
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
