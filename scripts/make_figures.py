#!/usr/bin/env python
"""Emit the figure data tables without running the full report.

Writes fig7_data.csv (bias projection vs elevation), fig8_data.csv (pair
radial error vs azimuth separation), and fig11_data.csv (random-separation
Monte Carlo trace) into the chosen directory.
"""
import argparse
from pathlib import Path

import numpy as np

from dpe_multipath import mc
from dpe_multipath.cli import ResultTable, _write_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=mc.REFERENCE_SEED)
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    args = ap.parse_args()
    outdir = Path(args.out)

    sweep = mc.run_elevation_sweep()
    print(_write_table(
        ResultTable.from_report(sweep, "bias projection sweep over elevation"),
        outdir, "fig7_data", args.format,
    ))

    thetas_deg = 0.5 * np.arange(1, 360)
    thetas = np.radians(thetas_deg)
    fig8 = ResultTable(
        ("delta_theta[deg]", "single_nlos_40[m]", "equal_pair_40[m]"),
        np.column_stack((
            thetas_deg,
            mc.pair_error_curve(40.0, 0.0, thetas),
            mc.pair_error_curve(40.0, 40.0, thetas),
        )),
        note="pair radial error vs azimuth separation",
    )
    print(_write_table(fig8, outdir, "fig8_data", args.format))

    mcrep = mc.run_random_azimuth_mc(60.0, 40.0, 10000, args.seed)
    fig11 = ResultTable(
        ("delta_theta[deg]", "radial_error[m]", "trial"),
        tuple((r[1], r[2], r[0]) for r in mcrep.rows),
        note="random azimuth-separation trials, radii (60, 40)",
    )
    print(_write_table(fig11, outdir, "fig11_data", args.format))
    s = mcrep.summary
    print(f"monte carlo: min {s['min_radial_error']:.4f} at {s['argmin_separation_deg']:.2f} deg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
