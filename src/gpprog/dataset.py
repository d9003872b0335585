"""Capacity fade data containers and CSV loading.

A :class:`CapacitySeries` holds one cell's capacity measurements against a
real-valued cycle (or time) axis, normalized so the first observation equals
1.0.  A :class:`Fleet` groups several series and assigns each one an integer
output label, which is what the multi-output covariance operates on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundsError,
    ConfigError,
    DataError,
    DegenerateInputError,
    SchemaError,
)

DEFAULT_SCHEMA = {"cell_id": "cell_id", "cycle": "cycle", "capacity": "capacity"}


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class CapacitySeries:
    """One cell's capacity history.

    ``cycles`` must be strictly increasing and non-negative; ``capacities``
    must be positive.  Construction does not rescale anything: use
    :meth:`from_raw` (or :func:`load_csv`) to normalize raw amp-hour values
    against the first observation.
    """

    cell_id: str
    cycles: np.ndarray
    capacities: np.ndarray

    def __post_init__(self):
        cycles = _readonly(self.cycles)
        capacities = _readonly(self.capacities)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "capacities", capacities)
        if cycles.ndim != 1 or capacities.ndim != 1:
            raise DataError(f"cell {self.cell_id!r}: cycles and capacities must be 1-d")
        if len(cycles) != len(capacities):
            raise DataError(
                f"cell {self.cell_id!r}: {len(cycles)} cycles vs "
                f"{len(capacities)} capacities"
            )
        if len(cycles) == 0:
            raise DataError(f"cell {self.cell_id!r}: empty series")
        if not (np.all(np.isfinite(cycles)) and np.all(np.isfinite(capacities))):
            raise DataError(f"cell {self.cell_id!r}: non-finite values")
        if cycles[0] < 0:
            raise DataError(f"cell {self.cell_id!r}: negative cycle {cycles[0]}")
        diffs = np.diff(cycles)
        if np.any(diffs == 0):
            bad = cycles[1:][diffs == 0][0]
            raise DataError(f"cell {self.cell_id!r}: duplicate cycle {bad}")
        if np.any(diffs < 0):
            raise DataError(f"cell {self.cell_id!r}: cycles not increasing")
        if np.any(capacities <= 0):
            raise DataError(f"cell {self.cell_id!r}: non-positive capacity")

    @classmethod
    def from_raw(cls, cell_id: str, cycles, capacities) -> "CapacitySeries":
        """Build a normalized series from raw measurements.

        Rows are sorted by cycle; duplicate cycles are rejected.  Capacities
        are divided by the first (post-sort) observation, so the result
        starts at exactly 1.0.
        """
        cycles = np.asarray(cycles, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        if cycles.shape != capacities.shape:
            raise DataError(f"cell {cell_id!r}: mismatched column lengths")
        if cycles.size == 0:
            raise DataError(f"cell {cell_id!r}: empty series")
        order = np.argsort(cycles, kind="stable")
        cycles = cycles[order]
        capacities = capacities[order]
        if np.any(capacities <= 0):
            raise DataError(f"cell {cell_id!r}: non-positive capacity")
        first = capacities[0]
        return cls(cell_id, cycles, capacities / first)

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True, eq=False)
class Fleet:
    """An ordered collection of series with integer output labels 1..m."""

    series: tuple[CapacitySeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "series", tuple(self.series))
        if not self.series:
            raise DataError("fleet has no series")
        ids = [s.cell_id for s in self.series]
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate cell ids in fleet: {ids}")

    @property
    def m(self) -> int:
        return len(self.series)

    @property
    def cell_ids(self) -> tuple[str, ...]:
        return tuple(s.cell_id for s in self.series)

    def label_of(self, cell_id: str) -> int:
        for i, s in enumerate(self.series):
            if s.cell_id == cell_id:
                return i + 1
        raise BoundsError(f"no cell {cell_id!r} in fleet {self.cell_ids}")

    def get(self, cell_id: str) -> CapacitySeries:
        return self.series[self.label_of(cell_id) - 1]

    def subfleet(self, cell_ids) -> "Fleet":
        """New fleet containing ``cell_ids`` in the given order (labels 1..k)."""
        return Fleet(tuple(self.get(cid) for cid in cell_ids))

    def labeled_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (x, y, label) arrays, cell-major in series order."""
        xs = np.concatenate([s.cycles for s in self.series])
        ys = np.concatenate([s.capacities for s in self.series])
        labels = np.concatenate(
            [np.full(len(s), i + 1, dtype=int) for i, s in enumerate(self.series)]
        )
        return xs, ys, labels


def split(series: CapacitySeries, c: int) -> tuple[CapacitySeries, CapacitySeries]:
    """Split into (train, test); train gets the first ``c`` points, 1 <= c < len(series)."""
    if not isinstance(c, (int, np.integer)) or not 1 <= c < len(series):
        raise BoundsError(
            f"split position {c!r} out of range for series of length {len(series)}"
        )
    train = CapacitySeries(
        series.cell_id,
        series.cycles[:c],
        series.capacities[:c],
    )
    test = CapacitySeries(
        series.cell_id,
        series.cycles[c:],
        series.capacities[c:],
    )
    return train, test


def rolling_origins(series: CapacitySeries, start_fraction: float) -> range:
    """Every split position from ceil(start_fraction * n) through n - 1."""
    if not (0.0 < start_fraction < 1.0):
        raise ConfigError(f"start fraction must lie in (0, 1), got {start_fraction}")
    n = len(series)
    first = max(1, math.ceil(start_fraction * n))
    if first >= n:
        raise DegenerateInputError(
            f"cell {series.cell_id!r} of {n} points has no rolling origins from start "
            f"fraction {start_fraction}"
        )
    return range(first, n)


def _resolve_schema(schema: dict | None) -> dict:
    resolved = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
        resolved.update(schema)
    return resolved


def load_csv(path, schema: dict | None = None) -> Fleet:
    """Read a capacity CSV into a normalized Fleet.

    The canonical header is ``cell_id,cycle,capacity``; ``schema`` maps those
    canonical names to whatever the file actually uses.  Cells appear in the
    fleet in order of first appearance.  Rows may be unordered within a cell;
    duplicate cycles are an error.
    """
    cols = _resolve_schema(schema)
    per_cell: dict[str, tuple[list, list]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        missing = [v for v in cols.values() if v not in reader.fieldnames]
        if missing:
            raise SchemaError(
                f"{path}: missing columns {missing}; found {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            cid = row[cols["cell_id"]]
            try:
                cyc = float(row[cols["cycle"]])
                cap = float(row[cols["capacity"]])
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: unparseable row {row}") from exc
            per_cell.setdefault(cid, ([], []))
            per_cell[cid][0].append(cyc)
            per_cell[cid][1].append(cap)
    if not per_cell:
        raise DataError(f"{path}: no data rows")
    series = tuple(
        CapacitySeries.from_raw(cid, cycles, caps) for cid, (cycles, caps) in per_cell.items()
    )
    return Fleet(series)


def save_csv(fleet: Fleet, path, schema: dict | None = None) -> None:
    """Write normalized capacities back out; load_csv round-trips bit-exactly."""
    cols = _resolve_schema(schema)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cols["cell_id"], cols["cycle"], cols["capacity"]])
        for s in fleet.series:
            for x, y in zip(s.cycles, s.capacities):
                writer.writerow([s.cell_id, repr(float(x)), repr(float(y))])
