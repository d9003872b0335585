#!/usr/bin/env python3
"""Regenerate the committed benchmark CSVs under data/.

The generators are deterministic.  Rerunning this script reproduces
b1.csv and c.csv byte for byte; a1.csv's capacities come back to about
1e-13 relative, since their Matern draws go through BLAS routines whose
last digits depend on the BLAS build.
"""

from pathlib import Path

from gpprog import synthetic

if __name__ == "__main__":
    outdir = Path(__file__).resolve().parent.parent / "data"
    written = synthetic.write_reference_csvs(outdir)
    for path in written:
        print(path)
