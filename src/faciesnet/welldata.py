"""Well-log ingestion: CSV parsing, per-channel standardization, labeled
depth-window extraction, and train/blind splitting by whole wells."""

import csv
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataFormatError, MissingLabelsError, ShapeError

# Canonical channel order; every window is a (7, W) block in this order.
CHANNELS = ("GR", "ILD_log10", "DeltaPHI", "PHIND", "PE", "NM_M", "RELPOS")

N_FACIES = 9
FACIES_CODES = ("SS", "CSiS", "FSiS", "SiSh", "MS", "WS", "D", "PS", "BS")

_REQUIRED_COLUMNS = ("Well Name", "Depth") + CHANNELS
# the numeric fields of a row, in the order their cells are checked
_NUMERIC_FIELDS = ("Depth",) + CHANNELS + ("Facies",)
# the largest log value a window can hold
FLOAT32_MAX = float(np.finfo(np.float32).max)
# rows converted at once: bounds the parser's memory at any file length
_BLOCK_ROWS = 2048


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
    """Read an adjacency map from lines like ``WS: MS, D, PS`` (codes or ids)."""
    code_to_id = {c.upper(): i + 1 for i, c in enumerate(FACIES_CODES)}

    def to_id(token, line_no):
        token = token.strip()
        if token.upper() in code_to_id:
            return code_to_id[token.upper()]
        try:
            f = int(token)
        except ValueError:
            raise DataFormatError(f"{path}: line {line_no}: unknown facies {token!r}")
        if not 1 <= f <= N_FACIES:
            raise DataFormatError(f"{path}: line {line_no}: facies id {f} out of range")
        return f

    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: adjacency file is not UTF-8 text")
    adj = {f: set() for f in range(1, N_FACIES + 1)}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise DataFormatError(f"{path}: line {line_no}: expected 'facies: neighbours'")
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
    """One well: depth-sorted log channels plus optional facies labels."""

    name: str
    depth: np.ndarray
    channels: dict                       # channel name -> float64 vector
    labels: Optional[np.ndarray] = None  # facies ids 1..9, or None

    def __post_init__(self):
        n = len(self.depth)
        for ch, values in self.channels.items():
            if len(values) != n:
                raise DataFormatError(f"well {self.name}: channel {ch} has {len(values)} "
                                      f"values for {n} depths")
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

    def channel_matrix(self) -> np.ndarray:
        """Channels stacked in canonical order: shape (7, n_samples)."""
        return np.stack([self.channels[c] for c in CHANNELS])


def _utf8_error(path) -> DataFormatError:
    """The error for a file that does not decode as UTF-8, naming the row
    of its first bad byte (the text layer decodes in chunks, so the
    byte is found in the raw file)."""
    with open(path, "rb") as raw:
        data = raw.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row_no = data.count(b"\n", 0, exc.start) + 1
        return DataFormatError(f"{path}: row {row_no}: not UTF-8 text")
    return DataFormatError(f"{path}: not UTF-8 text")


def parse_csv(path, allow_missing_pe: bool = False) -> list:
    """Read wells from the contest-layout CSV.

    Header: Facies,Formation,Well Name,Depth,GR,ILD_log10,DeltaPHI,PHIND,
    PE,NM_M,RELPOS. Facies is optional; a Formation column is accepted
    and not read. Rows are grouped by well name and depth-sorted; empty
    and `nan` numeric cells become NaN gaps (in Facies, unlabeled
    samples). A numeric cell is any text `float()` reads. Non-UTF-8
    bytes, a row shorter than the header, a blank Well Name, an infinite
    value, a log value outside the float32 range, a Facies cell that is
    not an integer facies id 1..9, a depth repeated within a well and a
    file without data rows raise DataFormatError naming the file and the
    row (both rows for a repeated depth).

    Cells are converted a block of rows and a column at a time; a block
    holding any cell the column checks reject is read again cell by
    cell, which raises on the first bad cell in file order.
    """
    try:
        well_ids, of_row, row_nos, values = _read_rows(path, allow_missing_pe)
    except UnicodeDecodeError:
        raise _utf8_error(path)

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
        channels = {c: values[1 + k, order] for k, c in enumerate(CHANNELS)}

        facies = values[-1, order]
        unlabeled = np.isnan(facies)
        if unlabeled.all():
            labels = None
        elif unlabeled.any():
            raise DataFormatError(f"{path}: well {name}: partially labeled (some Facies "
                                  f"cells empty)")
        else:
            labels = facies.astype(np.int64)
        wells.append(Well(name, depth, channels, labels))
    return wells


def _read_rows(path, allow_missing_pe):
    """Every data row of the file: ({well name: index} in order of first
    appearance, each row's well index, row numbers, the
    (len(_NUMERIC_FIELDS), n_rows) values)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file")
        header = [h.strip() for h in header]
        col = {name: i for i, name in enumerate(header)}

        for name in _REQUIRED_COLUMNS:
            if name in col:
                continue
            if name == "PE" and allow_missing_pe:
                continue
            raise DataFormatError(f"{path}: missing required column {name!r}")

        well_ids, of_row, row_nos, blocks = {}, [], [], []
        for block_nos, rows in _row_blocks(reader):
            values = _convert_columns(col, len(header), rows)
            if values is None:
                values = np.array([_parse_row(path, col, len(header), row_no, row)
                                   for row_no, row in zip(block_nos, rows)]).T
            blocks.append(values)
            row_nos += block_nos
            of_row += [well_ids.setdefault(row[col["Well Name"]].strip(), len(well_ids))
                       for row in rows]
        if not blocks:
            raise DataFormatError(f"{path}: no data rows")
    return well_ids, np.array(of_row), row_nos, np.concatenate(blocks, axis=1)


def _row_blocks(reader):
    """(row numbers, rows) of the non-blank rows, in blocks of at most
    _BLOCK_ROWS. A decoding error is raised after the block of the rows
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
    except UnicodeDecodeError:
        if rows:
            yield row_nos, rows
        raise
    if rows:
        yield row_nos, rows


def _convert_columns(col, width, rows):
    """The (len(_NUMERIC_FIELDS), len(rows)) float64 values of a block,
    or None when a row is short, a Well Name is blank or a cell fails a
    check.

    numpy converts a str with float(), so a column converts exactly as
    _parse_row's cells do; a blank cell, after strip, is a gap.
    """
    if min(map(len, rows)) < width:
        return None
    cells = list(zip(*rows))
    if not all(map(str.strip, cells[col["Well Name"]])):
        return None
    values = np.full((len(_NUMERIC_FIELDS), len(rows)), np.nan)
    for i, name in enumerate(_NUMERIC_FIELDS):
        if name not in col:
            continue
        try:
            values[i] = _column_floats(cells[col[name]])
        except ValueError:
            return None
    facies = values[-1]
    facies_ok = np.isnan(facies) | ((facies == np.floor(facies))
                                    & (facies >= 1) & (facies <= N_FACIES))
    if (np.isinf(values).any() or np.isnan(values[0]).any()
            or (np.abs(values[1:-1]) > FLOAT32_MAX).any() or not facies_ok.all()):
        return None
    return values


def _column_floats(texts):
    """float() of each text, NaN for a blank one; the blanks are looked
    for only once a text fails to convert."""
    try:
        return np.array(texts, dtype=np.float64)
    except ValueError:
        return np.array([text if text.strip() else "nan" for text in texts],
                        dtype=np.float64)


def _parse_row(path, col, width, row_no, row) -> tuple:
    """The numeric fields of one row, checked cell by cell; raises
    DataFormatError naming the row at its first bad cell."""
    if len(row) < width:
        raise DataFormatError(f"{path}: row {row_no}: {len(row)} cells for "
                              f"{width} header columns")
    well_name = row[col["Well Name"]].strip()
    if not well_name:
        raise DataFormatError(f"{path}: row {row_no}: missing Well Name")

    def cell(name):
        idx = col.get(name)
        return row[idx].strip() if idx is not None else ""

    def numeric(name):
        text = cell(name)
        if text == "":
            return np.nan
        try:
            value = float(text)
        except ValueError:
            raise DataFormatError(f"{path}: row {row_no}: non-numeric "
                                  f"{name} value {text!r}")
        if math.isinf(value):
            raise DataFormatError(f"{path}: row {row_no}: well {well_name}: "
                                  f"{name} value {text!r} is not finite")
        if name in CHANNELS and abs(value) > FLOAT32_MAX:
            raise DataFormatError(f"{path}: row {row_no}: well {well_name}: "
                                  f"{name} value {text!r} is outside the float32 "
                                  f"range")
        return value

    depth = numeric("Depth")
    if math.isnan(depth):
        raise DataFormatError(f"{path}: row {row_no}: missing Depth")
    logs = [numeric(c) for c in CHANNELS]
    facies = numeric("Facies")
    if not (math.isnan(facies) or (facies.is_integer() and 1 <= facies <= N_FACIES)):
        raise DataFormatError(f"{path}: row {row_no}: well {well_name}: Facies "
                              f"{cell('Facies')!r} is not a facies id 1..{N_FACIES}")
    return (depth, *logs, facies)


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
                for c in CHANNELS:
                    v = well.channels[c][i]
                    row.append("" if np.isnan(v) else repr(float(v)))
                writer.writerow(row)


@dataclass
class Standardizer:
    """Per-channel mean/std fitted on training wells only."""

    mean: dict
    std: dict


def fit_standardizer(wells: list) -> Standardizer:
    """Population mean/std per channel over all samples of the given wells.

    Gap cells (NaN) are excluded. Channels with std below 1e-8 get
    std = 1 so a degenerate log never divides by zero.
    """
    if not wells:
        raise ConfigError("cannot fit a standardizer on zero wells")
    mean, std = {}, {}
    for c in CHANNELS:
        values = np.concatenate([w.channels[c] for w in wells])
        values = values[~np.isnan(values)]
        if values.size == 0:
            mean[c], std[c] = 0.0, 1.0
            continue
        mean[c] = float(values.mean())
        s = float(values.std())  # population, not sample: fit-then-apply is exact
        std[c] = s if s >= 1e-8 else 1.0
    return Standardizer(mean, std)


def apply_standardizer(standardizer: Standardizer, well: Well) -> Well:
    """Return a copy of the well with (x - mean) / std channels; labels untouched."""
    for c in well.channels:
        if c not in standardizer.mean:
            raise ShapeError(f"standardizer has no statistics for channel {c!r}")
    # a value too large for float64 becomes inf, which cutting windows
    # reports by well, channel and depth
    with np.errstate(over="ignore"):
        channels = {c: (well.channels[c] - standardizer.mean[c]) / standardizer.std[c]
                    for c in well.channels}
    return Well(well.name, well.depth.copy(), channels,
                None if well.labels is None else well.labels.copy())


def impute_pe(wells: list, pe_mean: float) -> list:
    """Fill PE gaps with the supplied training-set mean (``--allow-missing-pe``)."""
    out = []
    for w in wells:
        pe = w.channels["PE"]
        if np.any(np.isnan(pe)):
            channels = dict(w.channels)
            channels["PE"] = np.where(np.isnan(pe), pe_mean, pe)
            w = Well(w.name, w.depth, channels, w.labels)
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
    ever borrows data from another well. Raises DataFormatError for
    gaps, and for a value float32 cannot hold, naming the well, the
    channel and the depth.
    """
    if width < 1 or width % 2 == 0:
        raise ConfigError(f"window length must be odd and >= 1, got {width}")
    logs = well.channel_matrix()
    if np.any(np.isnan(logs)):
        bad = [c for c in CHANNELS if np.any(np.isnan(well.channels[c]))]
        raise DataFormatError(f"well {well.name}: gaps remain in {bad}; "
                              f"impute before windowing")
    too_large = np.abs(logs) > FLOAT32_MAX
    if too_large.any():
        k, i = np.argwhere(too_large)[0]
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


def facies_counts(wells: list) -> dict:
    """Histogram of facies labels over all labeled samples: {facies id: count}."""
    counts = {f: 0 for f in range(1, N_FACIES + 1)}
    for w in wells:
        if w.labels is None:
            continue
        ids, n = np.unique(w.labels, return_counts=True)
        for f, c in zip(ids, n):
            counts[int(f)] += int(c)
    return counts
