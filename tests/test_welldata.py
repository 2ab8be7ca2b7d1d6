"""Ingestion, standardization, and windowing tests."""

import numpy as np
import pytest

from faciesnet import welldata as wd
from faciesnet.errors import ConfigError, DataFormatError, MissingLabelsError

HEADER = "Facies,Formation,Well Name,Depth,GR,ILD_log10,DeltaPHI,PHIND,PE,NM_M,RELPOS"


def make_well(name="W", n=5, labels=True, seed=0):
    rng = np.random.default_rng(seed)
    channels = {c: rng.normal(size=n) for c in wd.CHANNELS}
    return wd.Well(name, np.arange(n) * 1.5, channels,
                   rng.integers(1, 10, size=n) if labels else None)


def write_rows(path, rows, header=HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestParseCsv:
    def test_two_row_single_well(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, [
            "3,A1 SH,SHRIMPLIN,2793.0,77.45,0.664,9.9,11.915,4.6,1,1.0",
            "3,A1 SH,SHRIMPLIN,2794.5,78.26,0.661,14.2,12.565,4.1,1,0.979",
        ])
        wells = wd.parse_csv(p)
        assert len(wells) == 1
        assert len(wells[0]) == 2
        assert wells[0].name == "SHRIMPLIN"
        np.testing.assert_array_equal(wells[0].labels, [3, 3])
        assert wells[0].channels["GR"][0] == 77.45

    def test_two_wells(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, [
            "3,A1 SH,ALPHA,1.0,1,1,1,1,1,1,1",
            "2,A1 SH,BETA,1.0,2,2,2,2,2,2,2",
            "3,A1 SH,ALPHA,2.5,1,1,1,1,1,1,1",
        ])
        wells = wd.parse_csv(p)
        assert sorted(w.name for w in wells) == ["ALPHA", "BETA"]
        assert {w.name: len(w) for w in wells} == {"ALPHA": 2, "BETA": 1}

    def test_rows_depth_sorted(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, [
            "1,F,W,3.0,30,1,1,1,1,1,1",
            "2,F,W,1.0,10,1,1,1,1,1,1",
            "3,F,W,2.0,20,1,1,1,1,1,1",
        ])
        (well,) = wd.parse_csv(p)
        np.testing.assert_array_equal(well.depth, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(well.channels["GR"], [10, 20, 30])
        np.testing.assert_array_equal(well.labels, [2, 3, 1])

    def test_missing_pe_column_is_error(self, tmp_path):
        p = tmp_path / "a.csv"
        header = HEADER.replace(",PE", "")
        write_rows(p, ["1,F,W,1.0,1,1,1,1,1,1"], header=header)
        with pytest.raises(DataFormatError, match="PE"):
            wd.parse_csv(p)

    def test_missing_pe_column_allowed_with_flag(self, tmp_path):
        p = tmp_path / "a.csv"
        header = HEADER.replace(",PE", "")
        write_rows(p, ["1,F,W,1.0,1,1,1,1,1,1"], header=header)
        (well,) = wd.parse_csv(p, allow_missing_pe=True)
        assert np.isnan(well.channels["PE"]).all()

    def test_missing_other_column_always_error(self, tmp_path):
        p = tmp_path / "a.csv"
        header = HEADER.replace(",GR", "")
        write_rows(p, ["1,F,W,1.0,1,1,1,1,1,1"], header=header)
        with pytest.raises(DataFormatError, match="GR"):
            wd.parse_csv(p, allow_missing_pe=True)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, [
            "1,F,W,1.0,1,1,1,1,1,1,1",
            "1,F,W,2.0,oops,1,1,1,1,1,1",
        ])
        with pytest.raises(DataFormatError, match="row 3"):
            wd.parse_csv(p)

    def test_gap_cells_become_nan(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, ["1,F,W,1.0,1,1,1,1,,1,1"])
        (well,) = wd.parse_csv(p)
        assert np.isnan(well.channels["PE"][0])

    def test_unlabeled_when_no_facies_column(self, tmp_path):
        p = tmp_path / "a.csv"
        header = HEADER.replace("Facies,", "")
        write_rows(p, ["F,W,1.0,1,1,1,1,1,1,1"], header=header)
        (well,) = wd.parse_csv(p)
        assert well.labels is None

    def test_duplicate_depth_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, [
            "1,F,W,1.0,1,1,1,1,1,1,1",
            "1,F,W,1.0,2,2,2,2,2,2,2",
        ])
        with pytest.raises(DataFormatError, match="strictly increasing"):
            wd.parse_csv(p)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rows = [f"{rng.integers(1, 10)},FM,W{i % 2},{1.5 * i + (i % 2) * 0.25!r},"
                + ",".join(repr(float(x)) for x in rng.normal(size=7))
                for i in range(20)]
        write_rows(p1, rows)
        wells1 = wd.parse_csv(p1)
        wd.write_csv(wells1, p2)
        wells2 = wd.parse_csv(p2)
        assert len(wells1) == len(wells2)
        for a, b in zip(sorted(wells1, key=lambda w: w.name),
                        sorted(wells2, key=lambda w: w.name)):
            np.testing.assert_array_equal(a.depth, b.depth)
            np.testing.assert_array_equal(a.labels, b.labels)
            for c in wd.CHANNELS:
                np.testing.assert_array_equal(a.channels[c], b.channels[c])


    def test_log_value_outside_float32_names_file_row_well_channel(self, tmp_path):
        p = tmp_path / "a.csv"
        write_rows(p, ["1,F,W,1.0,1,1,1,1,1,1,1", "1,F,W,2.0,1,1,-1e39,1,1,1,1"])
        with pytest.raises(DataFormatError,
                           match=rf"{p}: row 3: well W: DeltaPHI value '-1e39' is "
                                 rf"outside the float32 range"):
            wd.parse_csv(p)

    def test_largest_float32_value_accepted(self, tmp_path):
        p = tmp_path / "a.csv"
        top = float(np.finfo(np.float32).max)
        write_rows(p, [f"1,F,W,1.0,{top!r},1,1,1,1,1,{-top!r}"])
        (well,) = wd.parse_csv(p)
        assert well.channels["GR"][0] == top and well.channels["RELPOS"][0] == -top


# Cell texts for the two ways parse_csv reads a block: by columns, and cell
# by cell. float() reads the first group, and rejects the second; the
# rest hit a rule of their own. Each goes into a Depth, a log and a
# Facies cell.
CELL_TEXTS = ["1_000", " 1.5 ", "+2", "1e-400", "١٢", "3", "-0.0",
              "0x10", "1e", "1,5", "nan(1)",
              "", "  ", "nan", "-nan", "Infinity", "-inf", "1e300", "3.5e38"]
CELL_COLUMNS = {"Depth": 3, "PE": 8, "Facies": 0, "Well Name": 2}


def _parse_outcome(path):
    """The wells' bytes, or the error message."""
    try:
        wells = wd.parse_csv(path)
    except DataFormatError as exc:
        return "error", str(exc)
    return "wells", [(w.name, w.depth.tobytes(),
                      None if w.labels is None else w.labels.tobytes(),
                      [w.channels[c].tobytes() for c in wd.CHANNELS])
                     for w in wells]


def _cell_by_cell(monkeypatch):
    """Make parse_csv read every block cell by cell."""
    monkeypatch.setattr(wd, "_convert_columns", lambda col, width, rows: None)


@pytest.mark.parametrize("column", CELL_COLUMNS)
@pytest.mark.parametrize("text", CELL_TEXTS)
def test_block_and_cell_paths_agree(tmp_path, monkeypatch, text, column):
    p = tmp_path / "a.csv"
    rows = [["3", "F", "W", f"{d}.5", "1", "2", "3", "4", "5", "6", "0.5"]
            for d in (7, 8, 9)]
    rows[1][CELL_COLUMNS[column]] = f'"{text}"' if "," in text else text
    write_rows(p, [",".join(r) for r in rows])
    by_columns = _parse_outcome(p)
    _cell_by_cell(monkeypatch)
    assert _parse_outcome(p) == by_columns


def test_clean_blocks_are_read_by_columns(tmp_path, monkeypatch):
    # an empty and a whitespace-only PE cell are gaps, not faults
    p = tmp_path / "a.csv"
    wd.write_csv([make_well("A", n=30, seed=1), make_well("B", n=30, seed=2)], p)
    lines = p.read_text().splitlines()
    for row, gap in ((3, ""), (40, " ")):
        cells = lines[row].split(",")
        cells[CELL_COLUMNS["PE"]] = gap
        lines[row] = ",".join(cells)
    p.write_text("\n".join(lines) + "\n")

    def no_cells(*args):
        raise AssertionError("a clean block was read cell by cell")

    monkeypatch.setattr(wd, "_parse_row", no_cells)
    wells = wd.parse_csv(p)
    assert [len(w) for w in wells] == [30, 30]
    assert [np.flatnonzero(np.isnan(w.channels["PE"])).tolist() for w in wells] == [[2], [9]]


# (column, text) of the first, second and third fault: a non-numeric GR,
# an infinite ILD_log10, a blank Well Name
FAULTS = ((4, "oops"), (5, "inf"), (2, " "))


@pytest.mark.parametrize("faults", [(), (4,), (9, 4), (13,), (7, 8), (11, 12, 5),
                                    (5, 8, 11)])
def test_first_fault_in_file_order_across_blocks(tmp_path, monkeypatch, faults):
    # blocks of 3 rows; bad cells in data rows `faults` (1-based), wells
    # interleaved, so each message must name the first bad row in the file
    p = tmp_path / "a.csv"
    rows = [f"{1 + i % 9},F,W{i % 2},{float(i)!r},1,2,3,4,5,6,0.5" for i in range(14)]
    for (column, text), r in zip(FAULTS, faults):
        cells = rows[r - 1].split(",")
        cells[column] = text
        rows[r - 1] = ",".join(cells)
    write_rows(p, rows)
    monkeypatch.setattr(wd, "_BLOCK_ROWS", 3)
    by_columns = _parse_outcome(p)
    if faults:
        assert by_columns[0] == "error"
        assert f"row {min(faults) + 1}:" in by_columns[1]
    else:
        assert [len(w[1]) // 8 for w in by_columns[1]] == [7, 7]
    _cell_by_cell(monkeypatch)
    assert _parse_outcome(p) == by_columns


class TestStandardizer:
    def test_hand_population_stats(self):
        w = make_well(n=3, labels=False)
        w.channels["GR"] = np.array([1.0, 2.0, 3.0])
        std = wd.fit_standardizer([w])
        assert std.mean["GR"] == pytest.approx(2.0)
        assert std.std["GR"] == pytest.approx(0.81650, abs=1e-5)

    def test_constant_channel_guard(self):
        w = make_well(n=4, labels=False)
        w.channels["NM_M"] = np.full(4, 7.0)
        std = wd.fit_standardizer([w])
        assert std.mean["NM_M"] == 7.0
        assert std.std["NM_M"] == 1.0

    def test_fit_then_apply_is_zero_mean_unit_std(self):
        wells = [make_well(f"W{i}", n=50, seed=i) for i in range(3)]
        std = wd.fit_standardizer(wells)
        scaled = [wd.apply_standardizer(std, w) for w in wells]
        for c in wd.CHANNELS:
            values = np.concatenate([w.channels[c] for w in scaled])
            assert abs(values.mean()) < 1e-6
            assert abs(values.std() - 1.0) < 1e-6

    def test_identity_standardizer(self):
        w = make_well(n=6)
        ident = wd.Standardizer({c: 0.0 for c in wd.CHANNELS}, {c: 1.0 for c in wd.CHANNELS})
        out = wd.apply_standardizer(ident, w)
        for c in wd.CHANNELS:
            np.testing.assert_array_equal(out.channels[c], w.channels[c])

    def test_applying_twice_differs(self):
        w = make_well(n=20)
        std = wd.fit_standardizer([w])
        once = wd.apply_standardizer(std, w)
        twice = wd.apply_standardizer(std, once)
        assert not np.allclose(once.channels["GR"], twice.channels["GR"])

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            wd.fit_standardizer([])

    def test_labels_untouched(self):
        w = make_well(n=10)
        std = wd.fit_standardizer([w])
        out = wd.apply_standardizer(std, w)
        np.testing.assert_array_equal(out.labels, w.labels)

    def test_gaps_excluded_from_fit(self):
        w = make_well(n=4, labels=False)
        w.channels["PE"] = np.array([1.0, np.nan, 3.0, np.nan])
        std = wd.fit_standardizer([w])
        assert std.mean["PE"] == pytest.approx(2.0)

    def test_impute_pe(self):
        w = make_well(n=3, labels=False)
        w.channels["PE"] = np.array([1.0, np.nan, 3.0])
        (out,) = wd.impute_pe([w], 2.0)
        np.testing.assert_array_equal(out.channels["PE"], [1.0, 2.0, 3.0])


class TestWindows:
    def test_width_one(self):
        w = make_well(n=4)
        ws = wd.extract_windows(w, 1)
        assert ws.windows.shape == (4, 7, 1)
        np.testing.assert_allclose(ws.windows[2, :, 0], w.channel_matrix()[:, 2], rtol=1e-6)

    def test_edge_replication_at_start(self):
        w = make_well(n=5)
        ws = wd.extract_windows(w, 3)
        logs = w.channel_matrix()
        expect = np.stack([logs[:, 0], logs[:, 0], logs[:, 1]], axis=1)
        np.testing.assert_allclose(ws.windows[0], expect, rtol=1e-6)

    def test_one_example_per_labeled_sample(self):
        w = make_well(n=5)
        ws = wd.extract_windows(w, 3)
        assert len(ws) == 5
        np.testing.assert_array_equal(ws.labels, w.labels)

    def test_center_value_matches_source(self):
        w = make_well(n=9)
        ws = wd.extract_windows(w, 5)
        logs = w.channel_matrix()
        for i in range(9):
            np.testing.assert_allclose(ws.windows[i, :, 2], logs[:, i], rtol=1e-6)

    def test_unlabeled_well_rejected(self):
        with pytest.raises(MissingLabelsError):
            wd.extract_windows(make_well(labels=False), 3)

    def test_even_width_rejected(self):
        with pytest.raises(ConfigError):
            wd.extract_windows(make_well(), 4)

    def test_windows_never_cross_wells(self):
        # each well's windows are built from its own samples only
        a, b = make_well("A", n=4, seed=1), make_well("B", n=4, seed=2)
        merged = wd.merge_window_sets([wd.extract_windows(w, 3) for w in (a, b)])
        np.testing.assert_array_equal(merged.labels, np.concatenate([a.labels, b.labels]))
        logs_a = a.channel_matrix()
        np.testing.assert_allclose(merged.windows[3, :, 2], logs_a[:, 3], rtol=1e-6)

    def test_window_matrix_is_a_read_only_view_of_the_padded_logs(self):
        w = make_well(n=6)
        windows = wd.window_matrix(w, 5)
        assert not windows.flags.writeable
        padded = np.pad(w.channel_matrix().astype(np.float32), ((0, 0), (2, 2)), mode="edge")
        expected = np.stack([padded[:, i:i + 5] for i in range(6)])
        assert windows.shape == expected.shape and windows.dtype == np.float32
        assert windows.tobytes() == expected.tobytes()
        merged = wd.merge_window_sets([wd.extract_windows(w, 5)]).windows
        assert merged.flags.c_contiguous and merged.flags.writeable
        assert merged.tobytes() == expected.tobytes()

    def test_value_outside_float32_names_well_channel_depth(self):
        w = make_well("BIG", n=5)
        w.channels["NM_M"][3] = -1e40
        with pytest.raises(DataFormatError,
                           match=r"well BIG: NM_M at depth 4\.5 is -1e\+40 after "
                                 r"standardization, outside the float32 range"):
            wd.window_matrix(w, 3)

    def test_nan_gap_rejected(self):
        w = make_well(n=5)
        w.channels["PE"][2] = np.nan
        with pytest.raises(DataFormatError, match="PE"):
            wd.extract_windows(w, 3)


class TestSplitAndCounts:
    def test_nine_two_split(self):
        wells = [make_well(f"W{i}", seed=i) for i in range(11)]
        train, blind = wd.split_by_well(wells, ["W3", "W7"])
        assert len(train) == 9 and len(blind) == 2
        assert {w.name for w in blind} == {"W3", "W7"}
        assert {w.name for w in train}.isdisjoint({w.name for w in blind})

    def test_empty_blind_list(self):
        wells = [make_well(f"W{i}") for i in range(3)]
        train, blind = wd.split_by_well(wells, [])
        assert len(train) == 3 and blind == []

    def test_duplicate_blind_name(self):
        with pytest.raises(ConfigError):
            wd.split_by_well([make_well("A")], ["A", "A"])

    def test_unknown_blind_name(self):
        with pytest.raises(ConfigError):
            wd.split_by_well([make_well("A")], ["NOPE"])

    def test_no_depth_in_both_partitions(self):
        wells = [make_well(f"W{i}", n=6, seed=i) for i in range(4)]
        train, blind = wd.split_by_well(wells, ["W1"])
        train_keys = {(w.name, d) for w in train for d in w.depth}
        blind_keys = {(w.name, d) for w in blind for d in w.depth}
        assert train_keys.isdisjoint(blind_keys)

    def test_counts_empty(self):
        assert wd.facies_counts([]) == {f: 0 for f in range(1, 10)}

    def test_counts_single_facies(self):
        w = make_well(n=3)
        w.labels = np.array([1, 1, 1])
        counts = wd.facies_counts([w])
        assert counts[1] == 3
        assert sum(counts.values()) == 3

    def test_unlabeled_wells_skipped(self):
        assert sum(wd.facies_counts([make_well(labels=False)]).values()) == 0


class TestFaciesTable:
    def test_default_adjacency_is_plus_minus_one(self):
        t = wd.FaciesTable()
        assert t.adjacency[1] == {2}
        assert t.adjacency[5] == {4, 6}
        assert t.adjacency[9] == {8}

    def test_symmetry_enforced(self):
        adj = wd.default_adjacency()
        adj[1].add(5)  # 5 does not point back
        with pytest.raises(ConfigError, match="symmetric"):
            wd.FaciesTable(adjacency=adj)

    def test_self_adjacency_rejected(self):
        adj = wd.default_adjacency()
        adj[2].add(2)
        with pytest.raises(ConfigError, match="itself"):
            wd.FaciesTable(adjacency=adj)

    def test_load_adjacency_codes_and_ids(self, tmp_path):
        p = tmp_path / "adj.txt"
        p.write_text("# marine group\nWS: MS, D, PS\nMS: WS\nD: WS\nPS: WS\n")
        adj = wd.load_adjacency(p).adjacency
        assert adj[6] == {5, 7, 8}
        assert adj[5] == {6}

    def test_load_adjacency_malformed(self, tmp_path):
        p = tmp_path / "adj.txt"
        p.write_text("WS MS D\n")
        with pytest.raises(DataFormatError):
            wd.load_adjacency(p)

    def test_load_adjacency_asymmetric(self, tmp_path):
        p = tmp_path / "adj.txt"
        p.write_text("SS: CSiS\n")
        with pytest.raises(ConfigError, match="symmetric"):
            wd.load_adjacency(p)
