#!/usr/bin/env python
"""Emit the figure data tables without running the full report.

Writes fig7_data.csv (bias projection vs elevation), fig8_data.csv (pair
radial error vs azimuth separation), and fig11_data.csv (random-separation
Monte Carlo trace) into the chosen directory; the files equal those
``report`` writes at the same seed.
"""
import argparse
from pathlib import Path

from dpe_multipath.cli import UsageError, _driver_seed, _figure_tables, _seed, _write_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=_seed, default=None)
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    args = ap.parse_args()
    try:
        seed = _driver_seed(args.seed)
    except UsageError as e:
        ap.error(str(e))

    _, mcrep, tables = _figure_tables(seed)
    for stem, table in tables.items():
        print(_write_table(table, Path(args.out), stem, args.format))
    s = mcrep.summary
    print(f"monte carlo: min {s['min_radial_error']:.4f} at {s['argmin_separation_deg']:.2f} deg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
