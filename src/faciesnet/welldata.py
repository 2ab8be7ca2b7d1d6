"""Well-log ingestion: CSV parsing, per-channel standardization, labeled
depth-window extraction, and train/blind splitting by whole wells."""

import csv
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataFormatError, MissingLabelsError

# Canonical channel order: the rows of a well's logs, and of every
# (7, W) window, in this order.
CHANNELS = ("GR", "ILD_log10", "DeltaPHI", "PHIND", "PE", "NM_M", "RELPOS")
PE = CHANNELS.index("PE")  # the row --allow-missing-pe fills

N_FACIES = 9
FACIES_CODES = ("SS", "CSiS", "FSiS", "SiSh", "MS", "WS", "D", "PS", "BS")

_REQUIRED_COLUMNS = ("Well Name", "Depth") + CHANNELS
# the numeric fields of a row, in the order their cells are checked
_NUMERIC_FIELDS = ("Depth",) + CHANNELS + ("Facies",)
# the largest log value a window can hold
FLOAT32_MAX = float(np.finfo(np.float32).max)
# rows converted at once: bounds the parser's memory at any file length
_BLOCK_ROWS = 2048
# the CSV is decoded with errors="surrogateescape", so a byte that is not
# UTF-8 reads as one of these lone surrogates, which UTF-8 text never holds
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class FaciesTable:
    """Which pairs of the 9 facies count as geological neighbours."""

    adjacency: dict = field(default_factory=lambda: default_adjacency())

    def __post_init__(self):
        for f, neighbours in self.adjacency.items():
            if f in neighbours:
                raise ConfigError(f"facies {f} listed adjacent to itself")
            for g in neighbours:
                if not 1 <= g <= N_FACIES:
                    raise ConfigError(f"adjacency references unknown facies {g}")
                if f not in self.adjacency.get(g, set()):
                    raise ConfigError(f"adjacency not symmetric: {f}->{g} but not {g}->{f}")


def default_adjacency() -> dict:
    """Plus/minus one neighbour in the ordered facies list.

    A stand-in: the true geological map depends on the basin and should
    be supplied with an adjacency file when known.
    """
    adj = {}
    for f in range(1, N_FACIES + 1):
        adj[f] = set(g for g in (f - 1, f + 1) if 1 <= g <= N_FACIES)
    return adj


def load_adjacency(path) -> FaciesTable:
    """Read an adjacency map from lines like ``WS: MS, D, PS`` (codes or ids);
    a broken file is a configuration problem, a ConfigError naming it."""
    code_to_id = {c.upper(): i + 1 for i, c in enumerate(FACIES_CODES)}

    def to_id(token, line_no):
        token = token.strip()
        if token.upper() in code_to_id:
            return code_to_id[token.upper()]
        try:
            f = int(token)
        except ValueError:
            raise ConfigError(f"{path}: line {line_no}: unknown facies {token!r}")
        if not 1 <= f <= N_FACIES:
            raise ConfigError(f"{path}: line {line_no}: facies id {f} out of range")
        return f

    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: adjacency file is not UTF-8 text")
    adj = {f: set() for f in range(1, N_FACIES + 1)}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'facies: neighbours'")
        left, right = line.split(":", 1)
        f = to_id(left, line_no)
        ids = [to_id(t, line_no) for t in right.split(",") if t.strip()]
        adj[f].update(ids)
    try:
        return FaciesTable(adjacency=adj)
    except ConfigError as exc:  # asymmetric or self-adjacent
        raise ConfigError(f"{path}: {exc}")


@dataclass
class Well:
    """One well: depth-sorted logs plus optional facies labels."""

    name: str
    depth: np.ndarray
    channels: np.ndarray                 # (len(CHANNELS), n) float64 logs, CHANNELS order
    labels: Optional[np.ndarray] = None  # facies ids 1..9, or None

    def __post_init__(self):
        n = len(self.depth)
        if np.shape(self.channels) != (len(CHANNELS), n):
            raise DataFormatError(f"well {self.name}: logs of shape "
                                  f"{np.shape(self.channels)} for {len(CHANNELS)} "
                                  f"channels and {n} depths")
        if self.labels is not None:
            if len(self.labels) != n:
                raise DataFormatError(f"well {self.name}: {len(self.labels)} labels "
                                      f"for {n} depths")
            if self.labels.min() < 1 or self.labels.max() > N_FACIES:
                raise DataFormatError(f"well {self.name}: facies labels outside 1..{N_FACIES}")
        if n > 1 and not np.all(np.diff(self.depth) > 0):
            raise DataFormatError(f"well {self.name}: depth not strictly increasing")

    def __len__(self) -> int:
        return len(self.depth)


def parse_csv(path, allow_missing_pe: bool = False) -> list:
    """Read wells from the contest-layout CSV.

    Header: Facies,Formation,Well Name,Depth,GR,ILD_log10,DeltaPHI,PHIND,
    PE,NM_M,RELPOS. Facies is optional; a Formation column is accepted
    and not read. Rows are grouped by well name and depth-sorted; empty
    and `nan` numeric cells become NaN gaps (in Facies, unlabeled
    samples). A numeric cell is any text `float()` reads. An oversized
    cell, non-UTF-8 bytes, a row with more or fewer cells than the
    header, a blank Well Name, a non-numeric or infinite value, a missing
    Depth, a log value outside the float32 range, a Facies cell that is
    not an integer facies id 1..9, a depth repeated within a well and a
    file without data rows raise DataFormatError naming the file and the
    first bad row (both rows for a repeated depth); a row breaking
    several rules is reported for the first one in that order.
    """
    well_ids, of_row, row_nos, values = _read_rows(path, allow_missing_pe)

    # rows of each well in file order, wells in order of first appearance
    by_well = np.split(np.argsort(of_row, kind="stable"),
                       np.cumsum(np.bincount(of_row))[:-1])
    wells = []
    for name, members in zip(well_ids, by_well):
        order = members[np.argsort(values[0, members], kind="stable")]
        depth = values[0, order]
        repeats = np.flatnonzero(np.diff(depth) == 0)
        if repeats.size:
            i = repeats[0]
            first, second = row_nos[order[i]], row_nos[order[i + 1]]
            raise DataFormatError(f"{path}: rows {first} and {second}: well {name}: "
                                  f"depth {float(depth[i])!r} repeated, so depth is not "
                                  f"strictly increasing")
        logs = values[1:1 + len(CHANNELS), order]

        facies = values[-1, order]
        unlabeled = np.isnan(facies)
        if unlabeled.all():
            labels = None
        elif unlabeled.any():
            raise DataFormatError(f"{path}: well {name}: partially labeled (some Facies "
                                  f"cells empty)")
        else:
            labels = facies.astype(np.int64)
        wells.append(Well(name, depth, logs, labels))
    return wells


def _read_rows(path, allow_missing_pe):
    """Every data row of the file: ({well name: index} in order of first
    appearance, each row's well index, row numbers, the
    (len(_NUMERIC_FIELDS), n_rows) values). A byte order mark before the
    header is not part of its first column."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = _records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file")
        if _NOT_UTF8.search("".join(header)):
            raise DataFormatError(f"{path}: row 1: not UTF-8 text")
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}

        for name in _REQUIRED_COLUMNS + ("Facies",):
            if header.count(name) > 1:
                raise DataFormatError(f"{path}: column {name!r} appears "
                                      f"{header.count(name)} times in the header")
        for name in _REQUIRED_COLUMNS:
            if name in col:
                continue
            if name == "PE" and allow_missing_pe:
                continue
            raise DataFormatError(f"{path}: missing required column {name!r}")

        well_ids, of_row, row_nos, blocks = {}, [], [], []
        for block_nos, rows in _row_blocks(reader):
            blocks.append(_block_values(path, col, len(header), block_nos, rows))
            row_nos += block_nos
            of_row += [well_ids.setdefault(row[col["Well Name"]].strip(), len(well_ids))
                       for row in rows]
        if not blocks:
            raise DataFormatError(f"{path}: no data rows")
    return well_ids, np.array(of_row), row_nos, np.concatenate(blocks, axis=1)


def _records(path, fh):
    """The csv rows of an open file; a cell longer than the csv module's
    field size limit raises DataFormatError naming the row."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(fh), start=1):
            yield row
    except csv.Error as exc:
        raise DataFormatError(f"{path}: row {row_no + 1}: {exc}")


def _row_blocks(reader):
    """(row numbers, rows) of the non-blank rows, in blocks of at most
    _BLOCK_ROWS. An oversized cell is raised after the block of the rows
    read before it, so a fault in one of those is reported first."""
    row_nos, rows = [], []
    try:
        for row_no, row in enumerate(reader, start=2):
            if "".join(row).strip():
                row_nos.append(row_no)
                rows.append(row)
                if len(rows) == _BLOCK_ROWS:
                    yield row_nos, rows
                    row_nos, rows = [], []
    except DataFormatError:
        if rows:
            yield row_nos, rows
        raise
    if rows:
        yield row_nos, rows


def _block_values(path, col, width, row_nos, rows):
    """The (len(_NUMERIC_FIELDS), len(rows)) float64 values of a block of
    rows, NaN for a blank cell or a column the header lacks.

    Every rule is checked on whole columns. A row that breaks one raises
    DataFormatError naming the first such row and the first rule it
    breaks, in the order a row is read.
    """
    widths = np.fromiter(map(len, rows), int, len(rows))
    not_utf8 = _not_utf8(rows)
    if (widths != width).any():  # the width rule precedes the cell rules: read as blanks
        rows = [row if len(row) == width else [""] * width for row in rows]
    cells = list(zip(*rows))
    names = cells[col["Well Name"]]
    values = np.full((len(_NUMERIC_FIELDS), len(rows)), np.nan)
    rejected = np.zeros(values.shape, dtype=bool)
    for k, field in enumerate(_NUMERIC_FIELDS):
        if field in col:
            values[k], rejected[k] = _column_floats(cells[col[field]])

    # (rows breaking the rule, field, message), in the order a row is read
    rules = [(not_utf8, None, "not UTF-8 text"),
             (widths != width, None, "{cells} cells for {width} header columns"),
             (np.array([not name.strip() for name in names]), None, "missing Well Name")]
    for k, field in enumerate(_NUMERIC_FIELDS):
        rules += [(rejected[k], field, "non-numeric {field} value {text!r}"),
                  (np.isinf(values[k]), field,
                   "well {well}: {field} value {text!r} is not finite")]
        if field == "Depth":
            rules.append((np.isnan(values[k]), field, "missing Depth"))
        elif field == "Facies":
            is_id = np.isnan(values[k]) | np.isin(values[k], np.arange(1, N_FACIES + 1))
            rules.append((~is_id, field, "well {well}: Facies {text!r} is not a facies id "
                                         f"1..{N_FACIES}"))
        else:
            rules.append((np.abs(values[k]) > FLOAT32_MAX, field,
                          "well {well}: {field} value {text!r} is outside the float32 range"))
    bad = np.array([mask for mask, _, _ in rules])
    if bad.any():
        i = bad.any(axis=0).argmax()
        _, field, message = rules[bad[:, i].argmax()]
        text = cells[col[field]][i].strip() if field else ""
        raise DataFormatError(f"{path}: row {row_nos[i]}: " + message.format(
            cells=widths[i], width=width, well=names[i].strip(), field=field, text=text))
    return values


def _not_utf8(rows) -> np.ndarray:
    """Which rows hold a byte that is not UTF-8. An all-ASCII block is
    passed at once; rows are searched one by one only in a block that
    holds such a byte."""
    text = "".join(map("".join, rows))
    if text.isascii() or not _NOT_UTF8.search(text):
        return np.zeros(len(rows), dtype=bool)
    return np.array([_NOT_UTF8.search("".join(row)) is not None for row in rows])


def _column_floats(texts):
    """(float() of each text, NaN for a blank one; which texts float()
    rejects). float() is called text by text only in a column numpy
    cannot convert whole."""
    try:
        return np.array(texts, dtype=np.float64), np.zeros(len(texts), dtype=bool)
    except ValueError:
        pass
    values, rejected = np.full(len(texts), np.nan), np.zeros(len(texts), dtype=bool)
    for i, text in enumerate(texts):
        if text.strip():
            try:
                values[i] = float(text)
            except ValueError:
                rejected[i] = True
    return values, rejected


def write_csv(wells: list, path) -> None:
    """Serialize wells back to the same schema (repr floats round-trip
    exactly), the Formation column empty."""
    labeled = any(w.labels is not None for w in wells)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = (["Facies"] if labeled else []) + ["Formation", "Well Name", "Depth"]
        writer.writerow(header + list(CHANNELS))
        for well in wells:
            for i in range(len(well)):
                row = []
                if labeled:
                    row.append("" if well.labels is None else str(int(well.labels[i])))
                row += ["", well.name, repr(float(well.depth[i]))]  # Formation empty
                row += ["" if math.isnan(v) else repr(v)
                        for v in well.channels[:, i].tolist()]
                writer.writerow(row)


@dataclass
class Standardizer:
    """Per-channel mean/std fitted on training wells only: two float64
    vectors of len(CHANNELS), in CHANNELS order."""

    mean: np.ndarray
    std: np.ndarray


def fit_standardizer(wells: list) -> Standardizer:
    """Population mean/std per channel over all samples of the given wells.

    Gap cells (NaN) are excluded. Channels with std below 1e-8 get
    std = 1 so a degenerate log never divides by zero.
    """
    if not wells:
        raise ConfigError("cannot fit a standardizer on zero wells")
    mean, std = np.zeros(len(CHANNELS)), np.ones(len(CHANNELS))
    for k, values in enumerate(np.concatenate([w.channels for w in wells], axis=1)):
        values = values[~np.isnan(values)]
        if values.size:
            mean[k] = values.mean()
            s = values.std()  # population, not sample: fit-then-apply is exact
            std[k] = s if s >= 1e-8 else 1.0
    return Standardizer(mean, std)


def apply_standardizer(standardizer: Standardizer, well: Well) -> Well:
    """Return a copy of the well with (x - mean) / std logs; labels untouched."""
    # a value too large for float64 becomes inf, which cutting windows
    # reports by well, channel and depth
    with np.errstate(over="ignore"):
        logs = (well.channels - standardizer.mean[:, None]) / standardizer.std[:, None]
    return Well(well.name, well.depth.copy(), logs,
                None if well.labels is None else well.labels.copy())


def impute_pe(wells: list, standardizer: Standardizer) -> list:
    """Fill PE gaps with the standardizer's PE mean, the training-set mean
    (``--allow-missing-pe``)."""
    out = []
    for w in wells:
        gaps = np.isnan(w.channels[PE])
        if gaps.any():
            logs = w.channels.copy()
            logs[PE, gaps] = standardizer.mean[PE]
            w = Well(w.name, w.depth, logs, w.labels)
        out.append(w)
    return out


@dataclass
class WindowSet:
    """Labeled depth-windows ready for training: one example per labeled sample."""

    windows: np.ndarray       # (n, 7, W) float32
    labels: np.ndarray        # (n,) facies ids 1..9

    def __len__(self) -> int:
        return len(self.labels)


def window_matrix(well: Well, width: int) -> np.ndarray:
    """Centered float32 windows for every sample: a read-only
    (n_samples, 7, width) view of one edge-padded float32 copy of the logs.

    Boundary windows replicate the well's edge samples, so no window
    ever borrows data from another well. Raises DataFormatError for a
    gap or a value float32 cannot hold, naming the well, the channel
    and the depth.
    """
    if width < 1 or width % 2 == 0:
        raise ConfigError(f"window length must be odd and >= 1, got {width}")
    logs = well.channels
    bad = ~(np.abs(logs) <= FLOAT32_MAX)  # NaN, a gap, compares False
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise DataFormatError(f"well {well.name}: {CHANNELS[k]} at depth "
                              f"{float(well.depth[i])!r} is {float(logs[k, i])!r} "
                              f"after standardization, outside the float32 range")
    half, n = width // 2, logs.shape[1]
    padded = np.empty((len(CHANNELS), n + 2 * half), dtype=np.float32)
    padded[:, half:half + n] = logs
    padded[:, :half] = logs[:, :1]
    padded[:, half + n:] = logs[:, -1:]
    # sliding view (7, n, width) -> one window per original sample
    view = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    return view.transpose(1, 0, 2)


def extract_windows(well: Well, width: int) -> WindowSet:
    """One labeled example per sample, window centered on that sample."""
    if well.labels is None:
        raise MissingLabelsError(f"well {well.name} has no facies labels; "
                                 f"use the prediction path for unlabeled wells")
    return WindowSet(window_matrix(well, width), well.labels.copy())


def merge_window_sets(sets: list) -> WindowSet:
    """Concatenate window sets from several wells: one copy into a
    C-contiguous matrix (concatenate alone keeps the views' layout)."""
    if not sets:
        raise ConfigError("no window sets to merge")
    windows = np.empty((sum(map(len, sets)), *sets[0].windows.shape[1:]), np.float32)
    return WindowSet(np.concatenate([s.windows for s in sets], out=windows),
                     np.concatenate([s.labels for s in sets]))


def split_by_well(wells: list, blind_names: list,
                  what: str = "blind wells") -> tuple[list, list]:
    """Partition wells by identity into (train, blind); never by row.
    `what` names the list of names in errors."""
    if len(set(blind_names)) != len(blind_names):
        raise ConfigError(f"duplicate well name in {what}: {blind_names}")
    known = {w.name for w in wells}
    unknown = [n for n in blind_names if n not in known]
    if unknown:
        raise ConfigError(f"{what} not in data: {unknown}")
    blind_set = set(blind_names)
    train = [w for w in wells if w.name not in blind_set]
    blind = [w for w in wells if w.name in blind_set]
    return train, blind
