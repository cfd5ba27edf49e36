#!/usr/bin/env python3
"""Parameter-fitting sweep over the perturbation amplitude.

For each epsilon the fitted (p*, T*, kappa*) iteration log lands in
modulation_eps{eps}.csv and the raw (un-projected) decay of the fitted data
in decay_eps{eps}_modulated.csv.  The fitted-parameter displacement should
scale linearly with epsilon.

The default amplitudes are 1e-5 and 1e-4, the range the acceptance gate
(criterion 09) certifies.  At epsilon = 1e-3 the second trajectory of the
fit's first iteration already blows up (the RK4 guard stops it with
"similarity evolution unstable" and the run exits 3), so larger amplitudes
are outside what the method covers.
"""

import argparse
import sys

from blowuplab.cli import main


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epsilon", type=float, nargs="+",
                    default=[1e-5, 1e-4])
    ap.add_argument("--p", type=float, default=0.75)
    args = ap.parse_args(argv)
    worst = 0
    for eps in args.epsilon:
        rc = main(["modulate", "--p", str(args.p), "--epsilon", str(eps),
                   "--tag", f"eps{eps:g}",
                   "--output-dir", "out/modulation_sweep"])
        worst = max(worst, rc)
    return worst


if __name__ == "__main__":
    sys.exit(run())
