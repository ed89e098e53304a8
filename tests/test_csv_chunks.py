"""Both CSV readers with their number chunks cut to a few rows, so files cross chunk boundaries.

The readers parse the two number columns every ``dataio._CHUNK`` rows.  The tests imported
below run again here, in this module, with that constant set to 2 rows; the cases written
here put faults at and just after a boundary.  Every outcome must equal the
row-at-a-time reference reader's.
"""
from __future__ import annotations

from itertools import permutations

import pytest

from seriesdiff import dataio, read_close_csv, read_panel_csv
from test_csv_readers import (  # noqa: F401 - collected and run again at small chunks
    CLOSE_HEADER,
    PANEL_HEADER,
    _close_rows,
    _outcome,
    _panel_key,
    _panel_rows,
    _record_key,
    _write,
    reference_close_csv,
    reference_panel_csv,
    test_close_csv_names_the_line_of_a_fault_far_into_the_file,
    test_panel_csv_names_the_line_of_a_fault_far_into_the_file,
    test_read_close_csv_matches_the_reference,
    test_read_panel_csv_matches_the_reference,
)
from test_dataio import test_read_close_csv_line_numbered_errors  # noqa: F401
from test_evaluate import test_read_panel_csv_names_the_line_of_a_bad_cell  # noqa: F401


@pytest.fixture(autouse=True, scope="module")
def small_chunks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_CHUNK", 2)
        yield 2


READERS = {
    "close": (read_close_csv, reference_close_csv, _record_key, CLOSE_HEADER, _close_rows),
    "panel": (read_panel_csv, reference_panel_csv, _panel_key, PANEL_HEADER, _panel_rows),
}
# one fault of each kind per reader: a cell that is no number, a blank row, a repeated cell
FAULTS = {
    "close": {"number": "2030-01-02,000001,abc,1", "duplicate": "2015-01-05,600000,9.5,1"},
    "panel": {"number": "2030-01-02,A,x,0.0", "duplicate": "2015-01-05,A,0.9,0.9"},
}
ORDERS = [*permutations(["number", "blank", "duplicate"]), ("blank",), ("duplicate",), ()]


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("order", ORDERS, ids=lambda order: "-".join(order) or "none")
@pytest.mark.parametrize("blank", ["", " , , , ", ",,"])
@pytest.mark.parametrize("shift", [-1, 0])
def test_faults_at_and_after_a_chunk_boundary_match_the_reference(
    tmp_path, small_chunks, kind, order, blank, shift
):
    read, reference, key, header, make_rows = READERS[kind]
    rows = make_rows(16)
    at = 2 * small_chunks + shift  # the first fault ends a chunk (-1) or starts one (0)
    rows[at:at] = [blank if f == "blank" else FAULTS[kind][f] for f in order]
    path = tmp_path / f"{kind}.csv"
    _write(path, header, rows)
    assert _outcome(read, key, path) == _outcome(reference, key, path)


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("last", ["good", "number"])
def test_a_file_that_fills_its_last_chunk_exactly(tmp_path, small_chunks, kind, last):
    read, reference, key, header, make_rows = READERS[kind]
    rows = make_rows(16)[: 4 * small_chunks]  # whole days of the four tickers
    if last == "number":
        rows[-1] = rows[-1].rsplit(",", 2)[0] + ",x,1"
    path = tmp_path / f"{kind}.csv"
    _write(path, header, rows)
    assert _outcome(read, key, path) == _outcome(reference, key, path)
