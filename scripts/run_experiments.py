#!/usr/bin/env python
"""Run each experiment driver once over the bundled scenarios and print summaries."""
import argparse

from dpe_multipath.cli import UsageError, _driver_seed, _seed, _trials, load_scenario
from dpe_multipath.mc import (
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
    ap.add_argument("--trials", type=_trials, default=10000)
    ap.add_argument("--seed", type=_seed, default=None)
    args = ap.parse_args()
    try:
        seed = _driver_seed(args.seed)
    except UsageError as e:
        ap.error(str(e))

    ok = show("elevation sweep", run_elevation_sweep())
    ok &= show("azimuth monte carlo", run_random_azimuth_mc(trials=args.trials, seed=seed))
    for case in ("case1", "case2", "case3", "table6"):
        ok &= show(f"case study {case}", run_case_study(load_scenario(f"{case}.scenario"), case))
    for case in ("case1", "case3", "table6"):
        ok &= show(f"oracle compare {case} (position)",
                   run_oracle_compare(load_scenario(f"{case}.scenario")))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
