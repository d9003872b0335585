"""Data container construction, normalization, splitting, and CSV I/O."""

import re
from pathlib import Path

import numpy as np
import pytest

from gpprog import (
    BoundsError,
    CapacitySeries,
    ConfigError,
    DataError,
    DegenerateInputError,
    Fleet,
    SchemaError,
    load_csv,
    rolling_origins,
    save_csv,
    split,
)
from gpprog.synthetic import write_reference_csvs


def make_series(n=10, cell_id="A1", start=1.0, slope=-0.002):
    cycles = np.arange(n, dtype=float)
    caps = start + slope * cycles
    return CapacitySeries(cell_id, cycles, caps)


class TestCapacitySeries:
    def test_basic_construction(self):
        s = make_series(5)
        assert len(s) == 5
        assert s.cell_id == "A1"

    def test_arrays_are_readonly_copies(self):
        cycles = np.arange(4, dtype=float)
        caps = np.ones(4)
        s = CapacitySeries("x", cycles, caps)
        cycles[0] = 99.0
        assert s.cycles[0] == 0.0
        with pytest.raises(ValueError):
            s.capacities[0] = 2.0

    def test_duplicate_cycles_rejected(self):
        with pytest.raises(DataError, match="duplicate cycle"):
            CapacitySeries("x", [0.0, 1.0, 1.0, 2.0], [1.0, 0.9, 0.8, 0.7])

    def test_decreasing_cycles_rejected(self):
        with pytest.raises(DataError, match="not increasing"):
            CapacitySeries("x", [0.0, 2.0, 1.0], [1.0, 0.9, 0.8])

    def test_negative_first_cycle_rejected(self):
        with pytest.raises(DataError, match="negative cycle"):
            CapacitySeries("x", [-1.0, 0.0], [1.0, 0.9])

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(DataError, match="non-positive"):
            CapacitySeries("x", [0.0, 1.0], [1.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            CapacitySeries("x", [0.0, 1.0], [1.0, np.nan])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="cycles vs"):
            CapacitySeries("x", [0.0, 1.0, 2.0], [1.0, 0.9])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            CapacitySeries("x", [], [])

    def test_from_raw_sorts_and_normalizes(self):
        s = CapacitySeries.from_raw("c", [10.0, 0.0, 5.0], [1.8, 2.0, 1.9])
        assert np.array_equal(s.cycles, [0.0, 5.0, 10.0])
        assert np.allclose(s.capacities, [1.0, 0.95, 0.9])

    def test_from_raw_duplicate_cycle_rejected(self):
        with pytest.raises(DataError, match="duplicate cycle"):
            CapacitySeries.from_raw("c", [3.0, 1.0, 3.0], [1.0, 1.1, 0.9])


class TestFleet:
    def test_labels_are_one_based_in_order(self):
        fleet = Fleet((make_series(cell_id="a"), make_series(cell_id="b")))
        assert fleet.m == 2
        assert fleet.cell_ids == ("a", "b")
        assert fleet.label_of("a") == 1
        assert fleet.label_of("b") == 2
        assert fleet.get("b").cell_id == "b"

    def test_unknown_cell_rejected(self):
        fleet = Fleet((make_series(cell_id="a"),))
        with pytest.raises(BoundsError, match="no cell"):
            fleet.label_of("zzz")

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate cell ids"):
            Fleet((make_series(cell_id="a"), make_series(cell_id="a")))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no series"):
            Fleet(())

    def test_subfleet_relabels(self):
        fleet = Fleet(
            (make_series(cell_id="a"), make_series(cell_id="b"), make_series(cell_id="c"))
        )
        sub = fleet.subfleet(["c", "a"])
        assert sub.cell_ids == ("c", "a")
        assert sub.label_of("c") == 1

    def test_labeled_arrays_cell_major(self):
        fleet = Fleet((make_series(3, cell_id="a"), make_series(2, cell_id="b")))
        x, y, labels = fleet.labeled_arrays()
        assert np.array_equal(labels, [1, 1, 1, 2, 2])
        assert np.array_equal(x, [0.0, 1.0, 2.0, 0.0, 1.0])
        assert len(y) == 5


class TestSplit:
    def test_split_counts(self):
        s = make_series(10)
        train, test = split(s, 3)
        assert len(train) == 3
        assert len(test) == 7
        assert np.array_equal(train.cycles, [0.0, 1.0, 2.0])
        assert np.array_equal(test.cycles, np.arange(3.0, 10.0))

    def test_split_out_of_range(self):
        s = make_series(5)
        with pytest.raises(BoundsError, match="out of range"):
            split(s, 5)

    @pytest.mark.parametrize("c", [0, 10, 2.5])
    def test_split_position_validation(self, c):
        with pytest.raises(BoundsError):
            split(make_series(10), c)

    def test_rolling_origins_cover_ceil_to_last(self):
        s = make_series(10)
        assert list(rolling_origins(s, 0.25)) == list(range(3, 10))

    def test_rolling_origins_fractional_ceil(self):
        s = make_series(7)
        assert rolling_origins(s, 0.3)[0] == 3  # ceil(2.1) = 3

    def test_rolling_origins_too_short(self):
        s = make_series(2)
        with pytest.raises(DegenerateInputError):
            rolling_origins(s, 0.9)

    def test_rolling_origins_bad_fraction(self):
        with pytest.raises(ConfigError):
            rolling_origins(make_series(10), 1.5)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        fleet = Fleet(
            (
                CapacitySeries.from_raw("C1", np.arange(6.0), 2.0 + rng.uniform(-0.1, 0.1, 6)),
                CapacitySeries.from_raw("C2", np.arange(4.0) * 5, 1.8 + rng.uniform(-0.1, 0.1, 4)),
            )
        )
        path = tmp_path / "fleet.csv"
        save_csv(fleet, path)
        loaded = load_csv(path)
        assert loaded.cell_ids == fleet.cell_ids
        for a, b in zip(loaded.series, fleet.series):
            assert np.array_equal(a.cycles, b.cycles)
            assert np.array_equal(a.capacities, b.capacities)

    def test_schema_mapping(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("battery,k,q\nB7,0,2.0\nB7,1,1.9\n")
        fleet = load_csv(path, schema={"cell_id": "battery", "cycle": "k", "capacity": "q"})
        assert fleet.cell_ids == ("B7",)
        assert np.allclose(fleet.get("B7").capacities, [1.0, 0.95])

    def test_unknown_schema_key_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle,capacity\nA,0,1\n")
        with pytest.raises(SchemaError, match="unknown schema keys"):
            load_csv(path, schema={"voltage": "v"})

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle\nA,0\n")
        with pytest.raises(SchemaError, match="missing columns"):
            load_csv(path)

    def test_unparseable_row_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle,capacity\nA,0,not-a-number\n")
        with pytest.raises(DataError, match="unparseable"):
            load_csv(path)

    def test_repeated_cycle_names_both_lines(self, tmp_path):
        # "1" and "1.0" are one cycle; the same cycle in another cell is not a repeat
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle,capacity\nA,1,2.0\nB,1,1.5\nA,1.0,1.9\n")
        message = f"{path}:4: cell 'A': duplicate cycle 1.0 (first on line 2)"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_csv(path)

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle,capacity\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_unordered_rows_sorted_per_cell(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("cell_id,cycle,capacity\nA,5,1.8\nA,0,2.0\nB,0,1.5\n")
        fleet = load_csv(path)
        assert np.array_equal(fleet.get("A").cycles, [0.0, 5.0])
        # order of first appearance, not alphabetical
        assert fleet.cell_ids == ("A", "B")


class TestBundledData:
    def test_generator_reproduces_the_bundled_csvs(self, tmp_path):
        data = Path(__file__).resolve().parents[1] / "data"
        written = write_reference_csvs(tmp_path)
        assert [p.name for p in written] == ["a1.csv", "b1.csv", "c.csv"]
        for name in ("b1.csv", "c.csv"):
            assert (tmp_path / name).read_bytes() == (data / name).read_bytes()
        # a1's Matern draws go through BLAS, whose last digits vary by build
        ours, bundled = ((d / "a1.csv").read_text().splitlines() for d in (tmp_path, data))
        assert len(ours) == len(bundled) and ours[0] == bundled[0]
        rows = [(a.split(","), b.split(",")) for a, b in zip(ours[1:], bundled[1:])]
        assert all(a[:2] == b[:2] for a, b in rows)
        caps = np.array([[float(a[2]), float(b[2])] for a, b in rows])
        assert np.allclose(caps[:, 0], caps[:, 1], rtol=1e-12, atol=0.0)
