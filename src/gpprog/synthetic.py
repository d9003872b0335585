"""Deterministic synthetic capacity-fade benchmarks.

Real degradation records cannot be redistributed with the package, so the
test suite and the bundled example CSVs are generated here instead.  Three
shapes cover the behaviours the toolkit targets:

* ``cell_a_like``: cycle-indexed fade with regeneration events, where the
  capacity jumps up after rest and relaxes back over the following cycles.
  The two-timescale structure (slow trend plus rough recovery transients)
  is what compound kernels are meant to separate.
* ``cell_b_like``: smooth accelerating exponential fade with a mid-life
  plateau, the regime where an explicit parametric mean helps.
* ``fleet_c_like``: three cells on a time-in-days axis sharing a sudden
  late capacity drop.  The third cell's drop is foreshadowed by the other
  two, which is what a multi-output model can exploit; the second cell
  tracks the third far more closely than the first does.

Everything is deterministic given the seed arguments.  ``cell_b_like`` and
``fleet_c_like`` reproduce the bundled ``b1.csv`` and ``c.csv`` byte for
byte.  ``cell_a_like``'s Matern draws go through a Cholesky factor and a
BLAS matrix-vector product, whose last digits depend on the BLAS build, so
``a1.csv`` regenerates only to about 1e-13 relative.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dataset import CapacitySeries, Fleet, save_csv


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _rough_wiggle(x: np.ndarray, length_scale: float, sd: float, rng) -> np.ndarray:
    """Correlated but non-smooth texture: a Matern-3/2 process draw."""
    a = math.sqrt(3.0) * np.abs(x[:, None] - x[None, :]) / length_scale
    gram = sd**2 * (1.0 + a) * np.exp(-a) + 1e-12 * np.eye(len(x))
    return np.linalg.cholesky(gram) @ rng.standard_normal(len(x))


def cell_a_like(
    n_cycles: int = 124, seed: int = 11, initial_ah: float = 1.86
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle-indexed fade with regeneration jumps; returns (cycles, amp-hours)."""
    x = np.arange(1.0, n_cycles + 1.0)
    u = x / n_cycles
    trend = 1.0 - 0.14 * u - 0.20 * u**2
    # regeneration: instant recovery at irregular cycles, relaxing over ~7 cycles
    events = [(23, 0.011), (41, 0.013), (78, 0.009), (97, 0.012)]
    regen = np.zeros_like(x)
    for cycle, amp in events:
        active = x >= cycle
        regen[active] += amp * np.exp(-(x[active] - cycle) / 7.0)
    rng = np.random.default_rng(seed)
    drift = _rough_wiggle(x, length_scale=40.0, sd=0.012, rng=rng)
    wiggle = _rough_wiggle(x, length_scale=3.0, sd=0.008, rng=rng)
    noise = 0.0015 * rng.standard_normal(n_cycles)
    return x, initial_ah * (trend + drift + regen + wiggle + noise)


def cell_b_like(
    n_cycles: int = 120, seed: int = 5, initial_ah: float = 0.92
) -> tuple[np.ndarray, np.ndarray]:
    """Accelerating exponential fade with a mid-life plateau perturbation.

    Relative capacity follows 1 - 0.25 * (exp(1.2 x / x_max) - 1) / (e^1.2 - 1),
    reaching 0.75 at the final cycle, plus a Gaussian bump centred mid-life
    (the plateau) and observation noise of 0.005.
    """
    x = np.arange(1.0, n_cycles + 1.0)
    x_max = float(n_cycles)
    base = 1.0 - 0.25 * (np.exp(1.2 * x / x_max) - 1.0) / (math.e**1.2 - 1.0)
    plateau = 0.018 * np.exp(-0.5 * ((x - 0.46 * x_max) / 9.0) ** 2)
    noise = 0.005 * np.random.default_rng(seed).standard_normal(n_cycles)
    return x, initial_ah * (base + plateau + noise)


def fleet_c_like(seed: int = 29) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Three correlated cells on a days axis; returns (cell_id, days, amp-hours).

    All three share a late sudden drop.  The drop hits the second and third
    cells at nearly the same time (days 122 and 128), while the first cell
    fades more slowly and drops much later (day 155), so the second cell is
    the better predictor of the third.
    """
    t = np.arange(0.0, 186.0, 5.0)
    shared = 0.006 * np.sin(2.0 * np.pi * t / 45.0 + 0.4)
    own = 0.006 * np.sin(2.0 * np.pi * t / 60.0 + 2.0)
    rng = np.random.default_rng(seed)
    shapes = {
        "C1": 1.0 - 0.0010 * t - 0.22 * _sigmoid((t - 155.0) / 12.0) + own,
        "C2": 1.0 - 0.0015 * t - 0.17 * _sigmoid((t - 122.0) / 5.0) + shared,
        "C3": 1.0 - 0.0014 * t - 0.18 * _sigmoid((t - 128.0) / 5.0) + 0.8 * shared,
    }
    initial = {"C1": 2.08, "C2": 2.11, "C3": 2.05}
    out = []
    for cid in ("C1", "C2", "C3"):
        noise = 0.003 * rng.standard_normal(len(t))
        out.append((cid, t, initial[cid] * (shapes[cid] + noise)))
    return out


def write_reference_csvs(outdir) -> list[Path]:
    """Write the bundled example CSVs (raw amp-hours, canonical schema)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {
        "a1.csv": [("A1", *cell_a_like())],
        "b1.csv": [("B1", *cell_b_like())],
        "c.csv": fleet_c_like(),
    }
    written = []
    for name, cells in files.items():
        # built without from_raw, so the files keep the raw amp-hours
        fleet = Fleet(tuple(CapacitySeries(cid, x, ah) for cid, x, ah in cells))
        save_csv(fleet, outdir / name)
        written.append(outdir / name)
    return written
