#!/usr/bin/env python3
"""Connection-defect scans over the standard lambda rectangle.

Writes one mode_scan.csv per value of p under out/mode_scans/p{p}/.
Columns: re_lambda, im_lambda, defect, continued (1 where the Gauss
connection formula degenerates and Frobenius series from the two-term
recurrence, matched at z = 1/2, gave the defect; 0 where the closed form
did).  Plot |defect| on the grid to see the two
smooth modes at lambda = 0 and 1 stand out by ten orders of magnitude.
"""

import argparse
import sys

from blowuplab.cli import main


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, nargs="+", default=[0.25, 0.5, 0.75])
    ap.add_argument("--step", type=float, default=0.1)
    args = ap.parse_args(argv)
    worst = 0
    for p in args.p:
        rc = main(["mode-scan", "--p", str(p), "--lambda-step", str(args.step),
                   "--output-dir", f"out/mode_scans/p{p:g}"])
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(run())
