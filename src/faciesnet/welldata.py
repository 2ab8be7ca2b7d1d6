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
    formation: Optional[list] = None     # carried as metadata, not a feature

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


def _utf8_lines(fh, path):
    """Lines of a file opened as UTF-8 text; the first byte that is not
    UTF-8 raises DataFormatError naming its row."""
    try:
        yield from fh
    except UnicodeDecodeError:
        # the text layer decodes in chunks, so find the byte in the raw file
        with open(path, "rb") as raw:
            data = raw.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            row_no = data.count(b"\n", 0, exc.start) + 1
            raise DataFormatError(f"{path}: row {row_no}: not UTF-8 text")
        raise


def parse_csv(path, allow_missing_pe: bool = False) -> list:
    """Read wells from the contest-layout CSV.

    Header: Facies,Formation,Well Name,Depth,GR,ILD_log10,DeltaPHI,PHIND,
    PE,NM_M,RELPOS. Facies and Formation are optional. Rows are grouped
    by well name and depth-sorted; empty and `nan` numeric cells become
    NaN gaps (in Facies, unlabeled samples). Non-UTF-8 bytes, a row
    shorter than the header, an infinite value, a Facies cell that is
    not an integer facies id 1..9, a depth repeated within a well and a
    file without data rows raise DataFormatError naming the file and
    the row (both rows for a repeated depth).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
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
        has_formation = "Formation" in col

        rows = {}
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < len(header):
                raise DataFormatError(f"{path}: row {row_no}: {len(row)} cells for "
                                      f"{len(header)} header columns")
            well_name = row[col["Well Name"]].strip()
            rec = rows.get(well_name)
            if rec is None:
                rec = rows[well_name] = {"row": [], "depth": [], "facies": [],
                                         "formation": [], **{c: [] for c in CHANNELS}}

            def cell(name):
                idx = col.get(name)
                return row[idx].strip() if idx is not None else ""

            def numeric(name, text):
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
                return value

            depth = numeric("Depth", cell("Depth"))
            if math.isnan(depth):
                raise DataFormatError(f"{path}: row {row_no}: missing Depth")
            rec["row"].append(row_no)
            rec["depth"].append(depth)
            for c in CHANNELS:
                rec[c].append(numeric(c, cell(c)))
            facies = numeric("Facies", cell("Facies"))
            if not (math.isnan(facies) or (facies.is_integer()
                                           and 1 <= facies <= N_FACIES)):
                raise DataFormatError(f"{path}: row {row_no}: well {well_name}: Facies "
                                      f"{cell('Facies')!r} is not a facies id "
                                      f"1..{N_FACIES}")
            rec["facies"].append(facies)
            rec["formation"].append(cell("Formation") if has_formation else "")
        if not rows:
            raise DataFormatError(f"{path}: no data rows")

    wells = []
    for name, rec in rows.items():
        order = np.argsort(np.array(rec["depth"]), kind="stable")
        depth = np.array(rec["depth"])[order]
        repeats = np.flatnonzero(np.diff(depth) == 0)
        if repeats.size:
            i = repeats[0]
            first, second = rec["row"][order[i]], rec["row"][order[i + 1]]
            raise DataFormatError(f"{path}: rows {first} and {second}: well {name}: "
                                  f"depth {float(depth[i])!r} repeated, so depth is not "
                                  f"strictly increasing")
        channels = {c: np.array(rec[c])[order] for c in CHANNELS}

        facies = np.array(rec["facies"])[order]
        unlabeled = np.isnan(facies)
        if unlabeled.all():
            labels = None
        elif unlabeled.any():
            raise DataFormatError(f"{path}: well {name}: partially labeled (some Facies "
                                  f"cells empty)")
        else:
            labels = facies.astype(np.int64)
        formation = [rec["formation"][i] for i in order] if has_formation else None
        wells.append(Well(name, depth, channels, labels, formation))
    return wells


def write_csv(wells: list, path) -> None:
    """Serialize wells back to the same schema (repr floats round-trip exactly)."""
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
                row.append(well.formation[i] if well.formation else "")
                row.append(well.name)
                row.append(repr(float(well.depth[i])))
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
    channels = {c: (well.channels[c] - standardizer.mean[c]) / standardizer.std[c]
                for c in well.channels}
    return Well(well.name, well.depth.copy(), channels,
                None if well.labels is None else well.labels.copy(),
                list(well.formation) if well.formation else None)


def impute_pe(wells: list, pe_mean: float) -> list:
    """Fill PE gaps with the supplied training-set mean (``--allow-missing-pe``)."""
    out = []
    for w in wells:
        pe = w.channels["PE"]
        if np.any(np.isnan(pe)):
            channels = dict(w.channels)
            channels["PE"] = np.where(np.isnan(pe), pe_mean, pe)
            w = Well(w.name, w.depth, channels, w.labels, w.formation)
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
    """Centered float32 windows for every sample: (n_samples, 7, width).

    Boundary windows replicate the well's edge samples, so no window
    ever borrows data from another well.
    """
    if width < 1 or width % 2 == 0:
        raise ConfigError(f"window length must be odd and >= 1, got {width}")
    logs = well.channel_matrix()
    if np.any(np.isnan(logs)):
        bad = [c for c in CHANNELS if np.any(np.isnan(well.channels[c]))]
        raise DataFormatError(f"well {well.name}: gaps remain in {bad}; "
                              f"impute before windowing")
    half = width // 2
    padded = np.pad(logs, ((0, 0), (half, half)), mode="edge")
    # sliding view (7, n, width) -> one window per original sample
    view = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    return np.ascontiguousarray(view.transpose(1, 0, 2), dtype=np.float32)


def extract_windows(well: Well, width: int) -> WindowSet:
    """One labeled example per sample, window centered on that sample."""
    if well.labels is None:
        raise MissingLabelsError(f"well {well.name} has no facies labels; "
                                 f"use the prediction path for unlabeled wells")
    return WindowSet(window_matrix(well, width), well.labels.copy())


def merge_window_sets(sets: list) -> WindowSet:
    """Concatenate window sets from several wells."""
    if not sets:
        raise ConfigError("no window sets to merge")
    return WindowSet(
        np.concatenate([s.windows for s in sets]),
        np.concatenate([s.labels for s in sets]),
    )


def split_by_well(wells: list, blind_names: list) -> tuple[list, list]:
    """Partition wells by identity into (train, blind); never by row."""
    if len(set(blind_names)) != len(blind_names):
        raise ConfigError(f"duplicate blind well name in {blind_names}")
    known = {w.name for w in wells}
    unknown = [n for n in blind_names if n not in known]
    if unknown:
        raise ConfigError(f"blind wells not in data: {unknown}")
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
