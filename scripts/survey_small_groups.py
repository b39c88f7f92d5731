#!/usr/bin/env python3
"""Survey the closedness landscape of small groups.

For each group, classify all nonempty subsets and tabulate how many are
2-closed, how many are n-closed for some larger n (these are exactly the
cosets with commuting representatives), and how many are n-closed for no
n at all. A quick way to see the coset structure emerge from a blind
combinatorial scan.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nclosed.parsing import parse_group_spec  # noqa: E402
from nclosed.scan import run_scan  # noqa: E402

DEFAULT_SPECS = ("Z4", "Z6", "Z8", "Z9", "Z10", "Z12", "S3", "D4", "Q8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("specs", nargs="*", default=list(DEFAULT_SPECS))
    args = parser.parse_args()

    print(f"{'group':>10} {'subsets':>8} {'2-closed':>9} {'higher':>7} "
          f"{'never':>6}   least-closedness histogram")
    for spec in args.specs:
        g = parse_group_spec(spec)
        rep = run_scan(g)
        totals = rep.totals
        hist = Counter(e.least_closedness for e in rep.entries
                       if e.least_closedness not in (None, 2))
        hist_text = ", ".join(f"{k}: {v}" for k, v in sorted(hist.items()))
        print(f"{g.name:>10} {totals['subsets']:>8} {totals['two_closed']:>9} "
              f"{totals['n_closed_not_two_closed']:>7} "
              f"{totals['never_up_to_bound']:>6}   {hist_text}")
        if rep.violations:
            print(f"  UNEXPECTED VIOLATIONS in {g.name}: {len(rep.violations)}")
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
