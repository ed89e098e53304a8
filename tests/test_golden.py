"""Today's sampler outputs against the recorded golden file (see tests/golden.py)."""
from __future__ import annotations

import json

import numpy as np
import pytest

from golden import GOLDEN, TOLERANCE, digest, environment, sampler_cases

RECORDED = json.loads(GOLDEN.read_text())
DRAWN = sampler_cases()


def test_golden_file_states_its_tolerance_and_cases():
    assert RECORDED["tolerance"] == TOLERANCE
    assert sorted(RECORDED["sample_rows"]) == sorted(DRAWN)


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
