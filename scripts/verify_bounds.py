#!/usr/bin/env python3
"""Reproduce the complement-sum verification end to end.

Runs the sharpness families and the exhaustive censuses, prints one line
per result, and optionally writes the census CSVs.  Exits 1 if any check
fails.  The full run (census up to n = 7, pairs up to n = 13) took
0.9-1.6 s with CPython 3.11 on one vCPU of a 2-vCPU x86-64 KVM guest,
most of it the n = 7 census.

    python scripts/verify_bounds.py --max-census-n 7 --max-pair-n 13 --out-dir results
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rainbowvc import (  # noqa: E402
    BUILTIN_MAX_VERTICES,
    census_run,
    diameter,
    enumerate_graphs,
    lower_bound_pair,
    path_complement_pair,
    records_to_csv,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-census-n", type=int, default=7, choices=range(4, BUILTIN_MAX_VERTICES + 1)
    )
    parser.add_argument("--max-pair-n", type=int, default=12)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out-dir", default=None, help="write census CSVs here")
    args = parser.parse_args()
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    failures = 0

    print("== upper-bound sharpness: P_n with its complement ==")
    for n in range(5, args.max_pair_n + 1):
        t0 = time.monotonic()
        pair = path_complement_pair(n)
        ok = pair.sum == n - 1
        failures += not ok
        print(
            f"n={n:2d}  rvc(P_n)={pair.rvc_g}  rvc(complement)={pair.rvc_gbar}  "
            f"sum={pair.sum}  target={n - 1}  [{'ok' if ok else 'FAIL'}]  "
            f"({time.monotonic() - t0:.2f}s)"
        )

    print("\n== lower-bound sharpness: diameter-two pairs ==")
    for n in range(5, args.max_pair_n + 1):
        pair = lower_bound_pair(n)
        ok = pair.sum == 2 and diameter(pair.g) == 2 and diameter(pair.gbar) == 2
        failures += not ok
        print(f"n={n:2d}  sum={pair.sum}  diameters=(2, 2)  [{'ok' if ok else 'FAIL'}]")

    print("\n== exhaustive census (one representative per isomorphism class) ==")
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for n in range(4, args.max_census_n + 1):
        t0 = time.monotonic()
        records, summary = census_run(enumerate_graphs(n), n, workers=args.workers)
        elapsed = time.monotonic() - t0
        if n >= 5:
            ok = summary.max_sum == n - 1 and summary.min_sum == 2 and not summary.violations
            failures += not ok
            verdict = "ok" if ok else "FAIL"
        else:
            verdict = f"outside hypothesis (max_sum={summary.max_sum} > {n - 1})"
        print(
            f"n={n}  classes={summary.total_pairs}  sum range="
            f"[{summary.min_sum}, {summary.max_sum}]  violations={len(summary.violations)}  "
            f"[{verdict}]  ({elapsed:.1f}s)"
        )
        if out_dir:
            (out_dir / f"census_n{n}.csv").write_text(records_to_csv(records))

    print("\nall checks passed" if not failures else f"\n{failures} checks FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
