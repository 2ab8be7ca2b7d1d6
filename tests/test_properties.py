"""Property tests of the input readers: generated files end in a result or
in the reader's own error, never in anything else, and through `main` in
a documented exit code."""

import csv
import re
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from faciesnet import welldata as wd
from faciesnet.cli import SECTIONS, Config, load_config, main
from faciesnet.errors import ConfigError, DataFormatError, ShapeError
from faciesnet.network import Checkpoint, InceptionSpec, ModelSpec, init_params
from faciesnet.synth import SynthConfig, generate_well
from test_welldata import CELL_TEXTS, HEADER

# one budget for every property: the same examples on every run, few enough
# to keep the suite fast
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

COLUMNS = HEADER.split(",")
# texts that pass every rule of their column (a blank Facies is unlabeled);
# any other column is a log
GOOD = {"Facies": ["2", "5", ""], "Formation": ["F"], "Well Name": ["A", "B"],
        "Depth": ["1", "2", "2.5"]}
LOGS = ["0.5", "-3"]
# a cell text _write writes as the byte 0xff, which is not UTF-8
NOT_UTF8 = "\udcff"
# the message of a file whose rows each pass on their own
WHOLE_FILE_FAULT = re.compile(r"rows \d+ and \d+: well .+: depth .+ repeated, so depth is "
                              r"not strictly increasing|well .+: partially labeled \(some "
                              r"Facies cells empty\)")


@st.composite
def csv_rows(draw):
    """A row of texts its columns accept, up to two of them replaced by
    CELL_TEXTS (blank names among them) or a byte that is not UTF-8; of the
    header's width, or a short or long one."""
    cells = [draw(st.sampled_from(GOOD.get(name, LOGS))) for name in COLUMNS]
    for k, text in draw(st.lists(st.tuples(st.integers(0, len(COLUMNS) - 1),
                                           st.sampled_from(CELL_TEXTS + [NOT_UTF8])),
                                 max_size=2)):
        cells[k] = text
    width = draw(st.sampled_from([len(COLUMNS)] * 6 + [0, 3, len(COLUMNS) - 1,
                                                       len(COLUMNS) + 1, len(COLUMNS) + 2]))
    return (cells + ["1", "1,5"])[:width]


def _write(path, rows):
    """The rows under the header; NOT_UTF8 is written as its byte."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
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


@settings(SETTINGS, max_examples=200)
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
        if NOT_UTF8 in "".join(row):  # the first rule a row is checked for
            assert message == "row 2: not UTF-8 text"
        elif len(row) != len(COLUMNS) and "".join(row).strip():
            assert message == f"row 2: {len(row)} cells for {len(COLUMNS)} header columns"
    row_faults = [(i, m) for i, m in enumerate(alone) if m and m.startswith("row 2: ")]
    if row_faults:
        i, message = row_faults[0]
        assert fault == f"row {i + 2}: " + message.removeprefix("row 2: ")
    elif all(m == "no data rows" for m in alone):  # only blank rows
        assert fault == "no data rows"
    else:
        assert fault is None or WHOLE_FILE_FAULT.fullmatch(fault)


@pytest.fixture
def small_fnet_file(small_fnet, tmp_path):
    path = tmp_path / "small.fnet"
    path.write_bytes(small_fnet)
    return path


@pytest.fixture(scope="module")
def labeled_csv(tmp_path_factory):
    """A CSV of the labeled well small_fnet's standardizer was fitted on."""
    path = tmp_path_factory.mktemp("csv") / "well.csv"
    wd.write_csv([generate_well(SynthConfig(n_samples=50, seed=3))], path)
    return path


def _main_exit_code(capsys, argv):
    """main's exit code for argv, which must be a documented one, with no
    traceback on stderr and no warning on the side."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([str(arg) for arg in argv])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    return code


@SETTINGS
@given(rows=st.lists(csv_rows(), min_size=1, max_size=12))
def test_csv_through_predict_exits_cleanly(small_fnet_file, tmp_path, capsys, rows):
    # a file either predicts or is malformed input; nothing escapes main
    path = tmp_path / "a.csv"
    _write(path, rows)
    assert _main_exit_code(capsys, ["predict", small_fnet_file, path,
                                    "--out", tmp_path / "out"]) in (0, 3)


# well names as the parser reads them back: stripped and not blank, with
# non-ASCII text, commas and quotes
NAMES = st.text(st.sampled_from('AZaz09 ,"\'.-_\u00f5\u03a9\u5357'), min_size=1,
                max_size=8).map(str.strip).filter(bool)
LOG_VALUES = st.floats(-wd.FLOAT32_MAX, wd.FLOAT32_MAX)


@st.composite
def well_lists(draw):
    """Wells with distinct names, some unlabeled, some with PE gaps."""
    wells = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=4, unique=True)):
        depth = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5,
                                     unique=True)))
        n = len(depth)
        logs = np.array(draw(st.lists(LOG_VALUES, min_size=7 * n, max_size=7 * n)))
        logs = logs.reshape(len(wd.CHANNELS), n)
        logs[wd.PE, draw(st.lists(st.integers(0, n - 1), max_size=n))] = np.nan
        labels = draw(st.none() | st.lists(st.integers(1, wd.N_FACIES), min_size=n,
                                           max_size=n))
        wells.append(wd.Well(name, np.array(depth), logs,
                             None if labels is None else np.array(labels)))
    return wells


@SETTINGS
@given(wells=well_lists())
def test_csv_round_trip_gives_the_same_wells(tmp_path, wells):
    path = tmp_path / "a.csv"
    wd.write_csv(wells, path)
    back = wd.parse_csv(path)
    assert [w.name for w in back] == [w.name for w in wells]
    for got, want in zip(back, wells):
        assert np.array_equal(got.depth, want.depth)
        assert np.array_equal(got.channels, want.channels, equal_nan=True)
        assert (got.labels is None) == (want.labels is None)
        assert want.labels is None or np.array_equal(got.labels, want.labels)


@st.composite
def with_bad_byte(draw, text):
    """The UTF-8 bytes of text, sometimes with a byte order mark in front or
    a byte that is not UTF-8 inside."""
    raw = text.encode()
    if draw(st.booleans()):
        raw = b"\xef\xbb\xbf" + raw
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


# config texts: every section and key the reader knows, next to hostile
# headers, keys, values and lines
HEADERS = [f"[{name}]" for name in SECTIONS] + ["[Model]", "[nope]", "[]", "[model"]
KEYS = sorted({key for keys in SECTIONS.values() for key in keys}) + ["nope", "Window"]
VALUES = ["1", "3", "9", "31", "0", "-1", "0.5", "1e-3", "1e309", "nan", "-inf", "", " ",
          "x", "09", "1_0", "true", "off", "8,0", "8,,16", "SYNTH040,SYNTH040", "%(x)s",
          "a%b", "%%", "10000000000000000000", "\u00b2", "\u0663"]
LINES = ["# comment", "; comment", "  indented continuation", "no separator", "= value"]


@st.composite
def config_texts(draw):
    lines = draw(st.lists(st.sampled_from(LINES), max_size=1))  # before any header
    for header in draw(st.lists(st.sampled_from(HEADERS), max_size=4)):
        # mostly the section's own keys, so some files load
        own = sorted(SECTIONS.get(header.strip("[]"), KEYS))
        key_line = st.one_of(
            st.builds("{}{}{}".format, st.sampled_from(own) | st.sampled_from(KEYS),
                      st.sampled_from([" = ", "=", ": "]), st.sampled_from(VALUES)),
            st.sampled_from(LINES))
        lines += [header, *draw(st.lists(key_line, max_size=4))]
    return draw(with_bad_byte("\n".join(lines) + "\n"))


@SETTINGS
@given(raw=config_texts())
def test_config_loads_or_raises_config_error(small_fnet_file, labeled_csv, tmp_path,
                                             capsys, raw):
    path = tmp_path / "run.cfg"
    path.write_bytes(raw)
    try:
        assert isinstance(load_config(path), Config)
        loads = True
    except ConfigError as exc:
        assert str(path) in str(exc)
        loads = False
    code = _main_exit_code(capsys, ["predict", small_fnet_file, labeled_csv,
                                    "--config", path, "--out", tmp_path / "out"])
    assert loads or code == 2


# adjacency lines: codes and ids, next to tokens no facies has and lines
# without a colon; the default map's lines make a valid file possible
TOKENS = ["SS", "ws", "D", " PS ", "1", "9", "0", "10", "-1", "x", "", "1.5", "\u00b2",
          "\u0663", "99999999999999999999"]
DEFAULT_LINES = [f"{f}: {', '.join(map(str, sorted(n)))}"
                 for f, n in wd.default_adjacency().items()]


@st.composite
def adjacency_texts(draw):
    line = st.one_of(
        st.builds(lambda left, right: f"{left}: {', '.join(right)}", st.sampled_from(TOKENS),
                  st.lists(st.sampled_from(TOKENS), max_size=3)),
        st.sampled_from(DEFAULT_LINES + ["# comment", "", "WS MS D", ":", "WS:", "::"]))
    return draw(with_bad_byte("\n".join(draw(st.lists(line, max_size=12)))))


@SETTINGS
@given(raw=adjacency_texts())
def test_adjacency_loads_or_raises_config_error(small_fnet_file, labeled_csv, tmp_path,
                                                capsys, raw):
    path = tmp_path / "adj.txt"
    path.write_bytes(raw)
    try:
        assert isinstance(wd.load_adjacency(path), wd.FaciesTable)
        loads = True
    except ConfigError as exc:
        assert str(path) in str(exc)
        loads = False
    code = _main_exit_code(capsys, ["evaluate", small_fnet_file, labeled_csv,
                                    "--adjacency", path, "--out", tmp_path / "out"])
    assert code == (0 if loads else 2)


@pytest.fixture(scope="module")
def small_fnet(tmp_path_factory):
    """The bytes of a one-stage checkpoint with a fitted standardizer."""
    spec = ModelSpec(window=9, stem_kernel=3, stem_channels=4,
                     stages=(InceptionSpec(2, 2, 3, 2, 2, 5, 2, 2),), fc_sizes=(8,))
    well = generate_well(SynthConfig(n_samples=50, seed=3))
    path = tmp_path_factory.mktemp("fnet") / "small.fnet"
    Checkpoint(spec, init_params(spec, 3), wd.fit_standardizer([well]), 3).save(path)
    return path.read_bytes()


# (where, how, byte): set, insert or delete the byte at a position, or cut
# the file there; most positions fall in the text manifest
MUTATIONS = st.tuples(st.one_of(st.integers(0, 800), st.integers(0, 10**6)),
                      st.sampled_from(["set", "insert", "delete", "cut"]),
                      st.sampled_from(b"0179-. \n=ex\xff\x00") | st.integers(0, 255))


def _mutate(raw, mutations):
    data = bytearray(raw)
    for where, how, byte in mutations:
        at = where % (len(data) + 1)
        if how == "insert":
            data[at:at] = bytes([byte])
        elif how == "cut":
            del data[at:]
        elif at < len(data):
            if how == "set":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


@SETTINGS
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
def test_mutated_checkpoint_fails_or_saves_its_bytes(small_fnet, tmp_path, mutations):
    path, again = tmp_path / "m.fnet", tmp_path / "again.fnet"
    path.write_bytes(_mutate(small_fnet, mutations))
    try:
        checkpoint = Checkpoint.load(path)
    except (DataFormatError, ShapeError) as exc:
        assert str(path) in str(exc)
        return
    checkpoint.save(again)
    assert again.read_bytes() == path.read_bytes()
