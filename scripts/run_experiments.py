#!/usr/bin/env python
"""Run each experiment driver once over the bundled scenarios and print summaries."""
import argparse

from dpe_multipath import (
    make_reference_scenario,
    mc,
    run_case_study,
    run_elevation_sweep,
    run_oracle_compare,
    run_random_azimuth_mc,
)


def show(title: str, report) -> bool:
    n_pass = sum(1 for c in report.checks if c.passed)
    print(f"{title}: {'PASS' if report.passed else 'FAIL'} "
          f"({n_pass}/{len(report.checks)} checks, {len(report.rows)} rows)")
    for c in report.checks:
        if not c.passed:
            print(f"  FAIL {c.name}: expected {c.expected}, got {c.actual} (tol {c.tol})")
    return report.passed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=mc.REFERENCE_SEED)
    args = ap.parse_args()

    ok = show("elevation sweep", run_elevation_sweep())
    ok &= show("azimuth monte carlo", run_random_azimuth_mc(trials=args.trials, seed=args.seed))
    for case in ("case1", "case2", "case3", "table6"):
        ok &= show(f"case study {case}", run_case_study(make_reference_scenario(case), case))
    for case in ("case1", "case3", "table6"):
        ok &= show(f"oracle compare {case} (position)",
                   run_oracle_compare(make_reference_scenario(case)))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
