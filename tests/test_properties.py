"""Property tests of the input readers: generated files end in a result or
in the reader's own error, never in anything else."""

import csv
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from faciesnet import welldata as wd
from faciesnet.errors import DataFormatError
from test_welldata import CELL_TEXTS, HEADER

COLUMNS = HEADER.split(",")
# texts that pass every rule of their column (a blank Facies is unlabeled);
# any other column is a log
GOOD = {"Facies": ["2", "5", ""], "Formation": ["F"], "Well Name": ["A", "B"],
        "Depth": ["1", "2", "2.5"]}
LOGS = ["0.5", "-3"]
# the message of a file whose rows each pass on their own
WHOLE_FILE_FAULT = re.compile(r"rows \d+ and \d+: well .+: depth .+ repeated, so depth is "
                              r"not strictly increasing|well .+: partially labeled \(some "
                              r"Facies cells empty\)")


@st.composite
def csv_rows(draw):
    """A row of texts its columns accept, up to two of them replaced by
    CELL_TEXTS (blank names among them); of the header's width, or a short
    or long one."""
    cells = [draw(st.sampled_from(GOOD.get(name, LOGS))) for name in COLUMNS]
    for k, text in draw(st.lists(st.tuples(st.integers(0, len(COLUMNS) - 1),
                                           st.sampled_from(CELL_TEXTS)), max_size=2)):
        cells[k] = text
    width = draw(st.sampled_from([len(COLUMNS)] * 6 + [0, 3, len(COLUMNS) - 1,
                                                       len(COLUMNS) + 1, len(COLUMNS) + 2]))
    return (cells + ["1", "1,5"])[:width]


def _write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COLUMNS)
        writer.writerows(rows)


def _fault(path):
    """parse_csv's message after the file name, or None when the file
    loads; any other exception fails the test."""
    try:
        wd.parse_csv(path)
    except DataFormatError as exc:
        return str(exc).removeprefix(f"{path}: ")
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(csv_rows(), min_size=1, max_size=12))
def test_csv_fails_at_its_first_row_that_fails_alone(tmp_path, monkeypatch, rows):
    monkeypatch.setattr(wd, "_BLOCK_ROWS", 3)  # several blocks in most files
    path = tmp_path / "a.csv"
    alone = []  # each row's fault in a file of its own, where it is row 2
    for row in rows:
        _write(path, [row])
        alone.append(_fault(path))
    _write(path, rows)
    fault = _fault(path)

    for row, message in zip(rows, alone):
        if len(row) != len(COLUMNS) and "".join(row).strip():
            assert message == f"row 2: {len(row)} cells for {len(COLUMNS)} header columns"
    row_faults = [(i, m) for i, m in enumerate(alone) if m and m.startswith("row 2: ")]
    if row_faults:
        i, message = row_faults[0]
        assert fault == f"row {i + 2}: " + message.removeprefix("row 2: ")
    elif all(m == "no data rows" for m in alone):  # only blank rows
        assert fault == "no data rows"
    else:
        assert fault is None or WHOLE_FILE_FAULT.fullmatch(fault)
