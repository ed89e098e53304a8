"""Today's sampler draws and tiny-pipeline artifacts against tests/golden.json (see golden.py)."""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from golden import (AUGMENT_ARTIFACTS, GOLDEN, PIPELINE_ARTIFACTS, TOLERANCE, artifact_values,
                    digest, environment, pipeline_artifacts, sampler_cases)

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


def _assert_close(name: str, produced: dict, tolerance: float) -> None:
    """Keys, lengths and strings exactly, the numbers within ``tolerance``."""
    got, want = ([], []), ([], [])
    _split(artifact_values(name, produced[name]), *got)
    _split(RECORDED["pipeline"][name]["values"], *want)
    assert got[1] == want[1], name
    assert len(got[0]) == len(want[0]) and got[0], name
    gap = np.abs(np.array(got[0], dtype=float) - np.array(want[0], dtype=float))
    assert gap.max() <= tolerance, name


@pytest.mark.parametrize("name", [n for n in PIPELINE_ARTIFACTS
                                  if not n.endswith(".svg") and n not in AUGMENT_ARTIFACTS])
def test_pipeline_artifacts_match_the_golden_numbers(produced, name):
    _assert_close(name, produced, RECORDED["tolerance"]["pipeline"])


def test_augment_artifacts_match_the_golden_values(produced):
    # the store's lines are copied as they are, then come the synthetic windows
    store = produced["windows.jsonl"].decode().splitlines()
    assert produced["augmented.jsonl"].decode().splitlines()[:len(store)] == store
    name = "augment_manifest.json"
    assert artifact_values(name, produced[name]) == RECORDED["pipeline"][name]["values"]
    _assert_close("augmented.jsonl", produced, RECORDED["tolerance"]["augment"])


@pytest.mark.parametrize("name", PIPELINE_ARTIFACTS)
def test_pipeline_artifacts_match_the_golden_bytes_in_the_recorded_environment(produced, name):
    if environment() != RECORDED["environment"]:
        pytest.skip(f"bytes recorded under {RECORDED['environment']}, not {environment()}")
    assert hashlib.sha256(produced[name]).hexdigest() == RECORDED["pipeline"][name]["sha256"]
