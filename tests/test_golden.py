"""Today's sampler draws and tiny-pipeline artifacts against tests/golden.json (see golden.py)."""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from golden import (GOLDEN, INGEST_BACKTEST_ARTIFACTS, PIPELINE_ARTIFACTS, TOLERANCE,
                    artifact_values, digest, environment, pipeline_artifacts, sampler_cases)

RECORDED = json.loads(GOLDEN.read_text())
DRAWN = sampler_cases()


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return pipeline_artifacts(tmp_path_factory.mktemp("golden"))


def _split(value, numbers: list, rest: list) -> None:
    """Append ``value``'s numbers to ``numbers`` and its keys, lengths and strings to ``rest``."""
    if isinstance(value, dict):
        for key in sorted(value):
            rest.append(key)
            _split(value[key], numbers, rest)
    elif isinstance(value, list):
        rest.append(len(value))
        for item in value:
            _split(item, numbers, rest)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(value)
    else:
        rest.append(value)


def test_golden_file_states_its_tolerance_and_cases():
    assert RECORDED["tolerance"] == TOLERANCE
    assert sorted(RECORDED["sample_rows"]) == sorted(DRAWN)
    assert sorted(RECORDED["pipeline"]) == sorted(PIPELINE_ARTIFACTS)


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_sample_rows_match_the_golden_numbers(name):
    want = np.array(RECORDED["sample_rows"][name]["values"])
    got = DRAWN[name]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RECORDED["tolerance"]["sample_rows"], name


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_sample_rows_match_the_golden_bytes_in_the_recorded_environment(name):
    if environment() != RECORDED["environment"]:
        pytest.skip(f"bytes recorded under {RECORDED['environment']}, not {environment()}")
    assert digest(DRAWN[name]) == RECORDED["sample_rows"][name]["sha256"]


def _values(produced: dict, name: str) -> tuple:
    """``name``'s content as produced and as recorded."""
    return artifact_values(name, produced[name]), RECORDED["pipeline"][name]["values"]


def _text(value) -> str:
    """``value`` as canonical JSON text: exact, and an integer written as 5.0 is not 5."""
    return json.dumps(value, sort_keys=True)


def _assert_close(got, want, tolerance: float, name: str) -> None:
    """Keys, lengths and strings exactly, the numbers within ``tolerance``."""
    got_split, want_split = ([], []), ([], [])
    _split(got, *got_split)
    _split(want, *want_split)
    assert got_split[1] == want_split[1], name
    assert len(got_split[0]) == len(want_split[0]) and got_split[0], name
    gap = np.abs(np.array(got_split[0], dtype=float) - np.array(want_split[0], dtype=float))
    assert gap.max() <= tolerance, name


@pytest.mark.parametrize("name", [n for n in INGEST_BACKTEST_ARTIFACTS if not n.endswith(".svg")])
def test_pipeline_artifacts_match_the_golden_numbers(produced, name):
    _assert_close(*_values(produced, name), RECORDED["tolerance"]["pipeline"], name)


def test_train_artifacts_match_the_golden_values(produced):
    tolerance = RECORDED["tolerance"]["train"]
    got, want = (dict(v) for v in _values(produced, "checkpoint.json"))
    _assert_close(got.pop("arrays"), want.pop("arrays"), tolerance, "checkpoint.json")
    assert _text(got) == _text(want)  # the config, the meta and the format
    got, want = map(_text, _values(produced, "schedule.json"))
    assert got == want
    _assert_close(*_values(produced, "loss.csv"), tolerance, "loss.csv")


def test_sample_artifacts_match_the_golden_values(produced):
    _assert_close(*_values(produced, "samples.jsonl"), RECORDED["tolerance"]["sample"],
                  "samples.jsonl")


def test_report_matches_the_golden_values(produced):
    # the loss section comes from loss.csv; the rest copies BLAS-free artifacts and train's meta
    got, want = (dict(v) for v in _values(produced, "report.json"))
    _assert_close(got.pop("loss"), want.pop("loss"), RECORDED["tolerance"]["train"], "report.json")
    _assert_close(got, want, RECORDED["tolerance"]["pipeline"], "report.json")


def test_augment_artifacts_match_the_golden_values(produced):
    # the store's lines are copied as they are, then come the synthetic windows
    store = produced["windows.jsonl"].decode().splitlines()
    assert produced["augmented.jsonl"].decode().splitlines()[:len(store)] == store
    name = "augment_manifest.json"
    assert artifact_values(name, produced[name]) == RECORDED["pipeline"][name]["values"]
    _assert_close(*_values(produced, "augmented.jsonl"), RECORDED["tolerance"]["augment"],
                  "augmented.jsonl")


@pytest.mark.parametrize("name", PIPELINE_ARTIFACTS)
def test_pipeline_artifacts_match_the_golden_bytes_in_the_recorded_environment(produced, name):
    if environment() != RECORDED["environment"]:
        pytest.skip(f"bytes recorded under {RECORDED['environment']}, not {environment()}")
    assert hashlib.sha256(produced[name]).hexdigest() == RECORDED["pipeline"][name]["sha256"]
